//! Error types for the CACTI-D core model.

use std::error::Error;
use std::fmt;

/// Errors returned by specification validation and the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CactiError {
    /// The memory specification is internally inconsistent (message says
    /// which constraint failed).
    InvalidSpec(String),
    /// The organization sweep found no feasible solution for the spec.
    NoFeasibleSolution,
}

impl fmt::Display for CactiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CactiError::InvalidSpec(msg) => write!(f, "invalid memory specification: {msg}"),
            CactiError::NoFeasibleSolution => {
                f.write_str("no feasible array organization for this specification")
            }
        }
    }
}

impl Error for CactiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CactiError::InvalidSpec("capacity must be a power of two".into());
        let s = e.to_string();
        assert!(s.starts_with("invalid memory specification"));
        assert!(s.contains("capacity"));
        assert_eq!(
            CactiError::NoFeasibleSolution.to_string(),
            "no feasible array organization for this specification"
        );
    }
}
