//! Structured diagnostic records: [`Diagnostic`], [`Severity`],
//! [`Location`] and [`Report`]. The rules that emit them live in
//! [`crate::rules`].

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means the object violates a model invariant and must not be
/// used; `Warn` flags suspicious but legal
/// configurations; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note; never affects the exit status.
    Info,
    /// Suspicious but legal; rejected only under `--deny-warnings`.
    Warn,
    /// Invariant violation; the object is rejected.
    Error,
}

impl Severity {
    /// Stable lowercase name used by the renderers and the JSON
    /// diagnostics schema: `"info"`, `"warning"`, `"error"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which model object a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintObject {
    /// The user-supplied [`cactid_core::MemorySpec`].
    Spec,
    /// The resolved Table-1 cell parameters for the spec's technology.
    Cell,
    /// An array organization (`Ndwl`/`Ndbl`/`Nspd`/mux degrees).
    Organization,
    /// An assembled [`cactid_core::Solution`].
    Solution,
    /// The DRAM chip-level result inside a main-memory solution.
    MainMemory,
    /// A completed batch run (a JSONL record set) analyzed as a whole by
    /// the cross-record `CD01xx` rules.
    Run,
}

impl LintObject {
    /// Stable dotted path prefix used by the renderers and the JSON
    /// diagnostics schema.
    pub fn as_str(self) -> &'static str {
        match self {
            LintObject::Spec => "spec",
            LintObject::Cell => "technology.cell",
            LintObject::Organization => "organization",
            LintObject::Solution => "solution",
            LintObject::MainMemory => "solution.main_memory",
            LintObject::Run => "run",
        }
    }
}

impl fmt::Display for LintObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The offending field, named as `object.field` (e.g.
/// `spec.capacity_bytes`, `solution.main_memory.timing.t_rcd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// The model object the field belongs to.
    pub object: LintObject,
    /// Field path within the object.
    pub field: &'static str,
}

impl Location {
    /// Location of a [`cactid_core::MemorySpec`] field.
    pub fn spec(field: &'static str) -> Self {
        Location {
            object: LintObject::Spec,
            field,
        }
    }

    /// Location of a resolved cell-parameter field.
    pub fn cell(field: &'static str) -> Self {
        Location {
            object: LintObject::Cell,
            field,
        }
    }

    /// Location of an organization field.
    pub fn org(field: &'static str) -> Self {
        Location {
            object: LintObject::Organization,
            field,
        }
    }

    /// Location of a solution field.
    pub fn solution(field: &'static str) -> Self {
        Location {
            object: LintObject::Solution,
            field,
        }
    }

    /// Location of a field of the main-memory chip result.
    pub fn main_memory(field: &'static str) -> Self {
        Location {
            object: LintObject::MainMemory,
            field,
        }
    }

    /// Location of a cross-record property of a completed run.
    pub fn run(field: &'static str) -> Self {
        Location {
            object: LintObject::Run,
            field,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.object, self.field)
    }
}

/// One finding from the rule engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code, `CD0001`..`CD0022`.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// The offending field.
    pub location: Location,
    /// Human-readable explanation with the actual numbers involved.
    pub message: String,
    /// Machine-readable suggested fix: `(field-path, suggested value)`.
    /// `None` when no single-field fix exists.
    pub suggestion: Option<Suggestion>,
}

/// A machine-readable suggested fix: set `field` to `value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The field to change, as an `object.field` path.
    pub field: Location,
    /// Replacement value, rendered as it would appear in the spec/CLI.
    pub value: String,
}

impl fmt::Display for Suggestion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set {} = {}", self.field, self.value)
    }
}

impl Diagnostic {
    /// Builds an `Error` diagnostic.
    pub fn error(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Builds a `Warn` diagnostic.
    pub fn warn(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warn,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// Builds an `Info` diagnostic.
    pub fn info(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// Attaches a machine-readable suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, field: Location, value: impl Into<String>) -> Self {
        self.suggestion = Some(Suggestion {
            field,
            value: value.into(),
        });
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// An ordered collection of diagnostics from one lint pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn`-severity diagnostics.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// `true` when the report holds no diagnostics at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when no `Error`-severity diagnostics are present.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Iterates over the diagnostics in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.diagnostics.iter()
    }

    /// Consumes the report, returning the diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Borrows the diagnostics as a slice.
    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

impl<'a> IntoIterator for &'a Report {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Report {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

impl Extend<Diagnostic> for Report {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.diagnostics.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Warn.to_string(), "warning");
    }

    #[test]
    fn severity_and_object_names_display() {
        for (sev, name) in [
            (Severity::Info, "info"),
            (Severity::Warn, "warning"),
            (Severity::Error, "error"),
        ] {
            assert_eq!((sev.as_str(), sev.to_string()), (name, name.to_string()));
        }
        for (obj, name) in [
            (LintObject::Spec, "spec"),
            (LintObject::Cell, "technology.cell"),
            (LintObject::Organization, "organization"),
            (LintObject::Solution, "solution"),
            (LintObject::MainMemory, "solution.main_memory"),
            (LintObject::Run, "run"),
        ] {
            assert_eq!((obj.as_str(), obj.to_string()), (name, name.to_string()));
        }
        assert_eq!(Location::run("access_ns").to_string(), "run.access_ns");
    }

    #[test]
    fn location_paths_render() {
        assert_eq!(
            Location::spec("capacity_bytes").to_string(),
            "spec.capacity_bytes"
        );
        assert_eq!(
            Location::main_memory("timing.t_rcd").to_string(),
            "solution.main_memory.timing.t_rcd"
        );
    }

    #[test]
    fn diagnostic_builders_and_display() {
        let d = Diagnostic::error(
            "CD0001",
            Location::spec("capacity_bytes"),
            "not a power of two",
        )
        .with_suggestion(Location::spec("capacity_bytes"), "1048576");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.code, "CD0001");
        let s = d.to_string();
        assert!(s.contains("error[CD0001]"));
        assert!(s.contains("spec.capacity_bytes"));
        assert_eq!(
            d.suggestion.unwrap().to_string(),
            "set spec.capacity_bytes = 1048576"
        );
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean() && r.is_empty());
        r.push(Diagnostic::warn(
            "CD0002",
            Location::spec("block_bytes"),
            "odd size",
        ));
        assert!(r.is_clean() && !r.is_empty());
        r.push(Diagnostic::error(
            "CD0003",
            Location::spec("n_banks"),
            "zero banks",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.iter().count(), 2);
    }
}
