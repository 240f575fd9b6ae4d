//! The lint-rule abstraction: every diagnostic the engine can emit comes
//! from a [`Rule`] or [`RunRule`] registered in
//! [`crate::registry::RuleRegistry`].

use crate::context::LintContext;
use crate::lint::{Report, Severity};
use crate::run::RunContext;

/// The validation stage a rule belongs to.
///
/// The object stages form a pipeline: spec rules need only a
/// [`cactid_core::MemorySpec`] (and the Table-1 cell parameters it resolves
/// to), organization rules additionally need an [`cactid_core::OrgParams`],
/// and solution rules an assembled [`cactid_core::Solution`]. The `Run`
/// stage sits outside that pipeline: its rules ([`RunRule`]) analyze a
/// completed batch run — a whole JSONL record set — rather than one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Checks on the input specification and its resolved cell technology.
    Spec,
    /// Checks on one candidate array organization.
    Organization,
    /// Checks on one assembled solution.
    Solution,
    /// Cross-record checks on a completed batch run (`CD01xx`).
    Run,
}

impl Stage {
    /// The object stages, in pipeline order (excludes [`Stage::Run`],
    /// which operates on record sets, not objects).
    pub const OBJECT: &'static [Stage] = &[Stage::Spec, Stage::Organization, Stage::Solution];

    /// All stages, object pipeline first.
    pub const ALL: &'static [Stage] = &[
        Stage::Spec,
        Stage::Organization,
        Stage::Solution,
        Stage::Run,
    ];

    /// Stable lowercase name used in the JSON diagnostics schema and the
    /// registry listing.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Spec => "spec",
            Stage::Organization => "organization",
            Stage::Solution => "solution",
            Stage::Run => "run",
        }
    }
}

/// One lint rule: a stable code, the invariant it enforces, and a check.
///
/// A rule must be *total*: `check` never panics, even on wildly
/// inconsistent inputs (that is the point — the engine is what reports
/// inconsistencies). When the data a rule needs is absent from the context
/// (e.g. a solution rule run without a solution), the rule emits nothing.
///
/// Rules are `Send + Sync` so one [`crate::Analyzer`] can be shared across
/// threads.
pub trait Rule: Send + Sync {
    /// Stable diagnostic code, `CD0001`–`CD0022`.
    fn code(&self) -> &'static str;

    /// The stage whose data this rule examines.
    fn stage(&self) -> Stage;

    /// One-line statement of the invariant the rule enforces.
    fn summary(&self) -> &'static str;

    /// The paper section (or table) the invariant comes from, e.g.
    /// `"§2.3.2"`.
    fn paper_ref(&self) -> &'static str;

    /// The severity the rule's primary finding carries before any
    /// `--allow`/`--warn`/`--deny` override. Rules may emit secondary
    /// findings below this level (never above it).
    fn default_severity(&self) -> Severity;

    /// Checks the invariant, appending any findings to `report`.
    fn check(&self, ctx: &LintContext<'_>, report: &mut Report);
}

/// A cross-record rule over a completed batch run (`CD01xx`): same
/// metadata contract as [`Rule`], but the check sees the whole parsed
/// record set ([`RunContext`]) instead of one object. Run rules always
/// report at [`Stage::Run`].
pub trait RunRule: Send + Sync {
    /// Stable diagnostic code, `CD0101` and up.
    fn code(&self) -> &'static str;

    /// One-line statement of the invariant the rule enforces.
    fn summary(&self) -> &'static str;

    /// The paper section the invariant comes from.
    fn paper_ref(&self) -> &'static str;

    /// The severity the rule's primary finding carries by default.
    fn default_severity(&self) -> Severity;

    /// Checks the record set, appending any findings to `report`.
    fn check(&self, run: &RunContext, report: &mut Report);
}
