//! The rule implementations: twenty-two object rules over three pipeline
//! stages, plus five cross-record run rules.
//!
//! | Codes            | Stage        | Module     |
//! |------------------|--------------|------------|
//! | `CD0001`–`CD0009`| Spec         | [`spec`]   |
//! | `CD0010`–`CD0014`| Organization | [`org`]    |
//! | `CD0015`–`CD0022`| Solution     | [`sol`]    |
//! | `CD0101`–`CD0105`| Run          | [`run`]    |

pub mod org;
pub mod run;
pub mod sol;
pub mod spec;

use crate::rule::{Rule, RunRule};

/// Builds the full object-rule set, ordered by rule code.
pub fn all() -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = Vec::new();
    rules.extend(spec::all());
    rules.extend(org::all());
    rules.extend(sol::all());
    rules
}

/// Builds the full run-rule set, ordered by rule code.
pub fn all_run() -> Vec<Box<dyn RunRule>> {
    run::all()
}

/// `a ≥ b` up to floating-point noise (relative 1 ppb plus an absolute
/// floor), the tolerance used by inequality rules on computed timings.
pub(crate) fn approx_ge(a: f64, b: f64) -> bool {
    a >= b - (b.abs() * 1e-9 + 1e-15)
}

/// `a == b` up to the same floating-point tolerance as [`approx_ge`].
pub(crate) fn approx_eq(a: f64, b: f64) -> bool {
    approx_ge(a, b) && approx_ge(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_core::lint::Severity;
    use std::collections::BTreeSet;

    #[test]
    fn registry_has_twenty_two_object_rules_with_unique_sorted_codes() {
        let rules = all();
        assert_eq!(rules.len(), 22);
        let codes: Vec<&str> = rules.iter().map(|r| r.code()).collect();
        let unique: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), 22, "duplicate rule codes");
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "registry must be ordered by code");
        assert_eq!(codes[0], "CD0001");
        assert_eq!(codes[21], "CD0022");
    }

    #[test]
    fn run_rules_have_unique_sorted_cd01xx_codes() {
        let rules = all_run();
        assert_eq!(rules.len(), 5);
        let codes: Vec<&str> = rules.iter().map(|r| r.code()).collect();
        let unique: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "duplicate run-rule codes");
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "run rules must be ordered by code");
        assert!(codes.iter().all(|c| c.starts_with("CD01")));
    }

    #[test]
    fn every_rule_documents_itself() {
        for rule in all() {
            assert!(!rule.summary().is_empty(), "{} has no summary", rule.code());
            assert!(
                rule.paper_ref().starts_with('§') || rule.paper_ref().starts_with("Table"),
                "{} paper ref {:?}",
                rule.code(),
                rule.paper_ref()
            );
        }
    }

    #[test]
    fn default_severities_match_the_documented_split() {
        // CD0021/CD0022 are plausibility windows (warn-only); everything
        // else defaults to error.
        for rule in all() {
            let expected = if matches!(rule.code(), "CD0021" | "CD0022") {
                Severity::Warn
            } else {
                Severity::Error
            };
            assert_eq!(rule.default_severity(), expected, "{}", rule.code());
        }
        for rule in all_run() {
            let expected = match rule.code() {
                "CD0103" | "CD0105" => Severity::Error,
                _ => Severity::Warn,
            };
            assert_eq!(rule.default_severity(), expected, "{}", rule.code());
        }
    }

    #[test]
    fn tolerances_behave() {
        assert!(approx_ge(1.0, 1.0));
        assert!(approx_ge(1.0, 1.0 + 1e-12));
        assert!(!approx_ge(1.0, 1.1));
        assert!(approx_eq(2.0e-9, 2.0e-9));
        assert!(!approx_eq(2.0e-9, 2.1e-9));
    }
}
