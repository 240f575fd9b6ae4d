//! The [`Analyzer`]: the rule registry plus staged lint passes, severity
//! overrides, and the linted optimize entry point.

use crate::context::LintContext;
use crate::registry::{RuleRegistry, SeverityOverrides};
use crate::rule::{Rule, Stage};
use crate::run::RunContext;
use cactid_core::lint::{Diagnostic, Report, SolutionLinter};
use cactid_core::{ArraySweep, CactiError, EvalMemo, MemorySpec, OrgParams, Solution};

/// The diagnostics engine: a [`RuleRegistry`] plus a set of
/// [`SeverityOverrides`], runnable per stage over specs, organizations,
/// solutions, and completed batch runs.
///
/// `Analyzer` implements [`SolutionLinter`], so it can be plugged into
/// the optimizer via [`cactid_core::solve_with_stats`] — or more
/// conveniently through this crate's [`optimize`], which also lints the
/// spec first.
/// Severity overrides apply to *every* diagnostic the analyzer emits,
/// including engine-side candidate linting, so `--allow`ing a rule really
/// does let offending candidates through the sweep.
#[derive(Debug)]
pub struct Analyzer {
    registry: RuleRegistry,
    overrides: SeverityOverrides,
}

impl Analyzer {
    /// Builds the engine with the full standard registry and no overrides.
    pub fn new() -> Self {
        Analyzer {
            registry: RuleRegistry::standard(),
            overrides: SeverityOverrides::new(),
        }
    }

    /// Builds the engine with the standard registry and the given severity
    /// overrides.
    ///
    /// # Errors
    ///
    /// When an override names a rule code the registry does not contain.
    pub fn with_overrides(overrides: SeverityOverrides) -> Result<Self, String> {
        let registry = RuleRegistry::standard();
        overrides.validate(&registry)?;
        Ok(Analyzer {
            registry,
            overrides,
        })
    }

    /// The underlying registry.
    pub fn registry(&self) -> &RuleRegistry {
        &self.registry
    }

    /// Iterates over the registered object rules in code order.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule> {
        self.registry.object_rules().iter().map(Box::as_ref)
    }

    /// Looks an object rule up by its code (`"CD0015"`).
    pub fn rule(&self, code: &str) -> Option<&dyn Rule> {
        self.rules().find(|r| r.code() == code)
    }

    fn apply_overrides(&self, raw: Report) -> Report {
        if self.overrides.is_empty() {
            return raw;
        }
        raw.into_vec()
            .into_iter()
            .filter_map(|d| self.overrides.apply(d))
            .collect()
    }

    fn run(&self, ctx: &LintContext<'_>, stages: &[Stage]) -> Report {
        let mut report = Report::new();
        for rule in self.rules() {
            if stages.contains(&rule.stage()) {
                rule.check(ctx, &mut report);
            }
        }
        self.apply_overrides(report)
    }

    /// Runs the spec-stage rules over a specification.
    ///
    /// Works on *any* `MemorySpec`, including ones assembled by hand that
    /// bypass the builder's validation — that is the point: the linter
    /// names the violated invariant (`CD` code, field, suggested fix)
    /// where the builder would only return the first error message.
    pub fn lint_spec(&self, spec: &MemorySpec) -> Report {
        self.run(&LintContext::for_spec(spec), &[Stage::Spec])
    }

    /// Runs the spec- and organization-stage rules over one candidate
    /// organization.
    pub fn lint_org(&self, spec: &MemorySpec, org: &OrgParams) -> Report {
        self.run(
            &LintContext::for_spec(spec).with_org(org),
            &[Stage::Spec, Stage::Organization],
        )
    }

    /// Runs the three object stages over an assembled solution.
    pub fn lint_solution(&self, spec: &MemorySpec, solution: &Solution) -> Report {
        self.run(
            &LintContext::for_spec(spec).with_solution(solution),
            Stage::OBJECT,
        )
    }

    /// Runs the `CD01xx` cross-record rules over a completed batch run.
    pub fn lint_run(&self, run: &RunContext) -> Report {
        let mut report = Report::new();
        for rule in self.registry.run_rules() {
            rule.check(run, &mut report);
        }
        self.apply_overrides(report)
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl SolutionLinter for Analyzer {
    /// Lints one candidate inside the optimizer sweep: organization- and
    /// solution-stage rules only (the spec is constant across the sweep
    /// and is linted once by [`optimize`]).
    fn lint_candidate(&self, spec: &MemorySpec, solution: &Solution) -> Vec<Diagnostic> {
        self.run(
            &LintContext::for_spec(spec).with_solution(solution),
            &[Stage::Organization, Stage::Solution],
        )
        .into_vec()
    }
}

fn reject_spec_errors(analyzer: &Analyzer, spec: &MemorySpec) -> Result<(), CactiError> {
    let report = analyzer.lint_spec(spec);
    if report.is_clean() {
        return Ok(());
    }
    let Some(first) = report
        .iter()
        .find(|d| d.severity == cactid_core::Severity::Error)
    else {
        unreachable!("a non-clean report contains an error diagnostic")
    };
    Err(CactiError::InvalidSpec(format!(
        "[{}] {} (at {})",
        first.code, first.message, first.location
    )))
}

/// Linted [`cactid_core::optimize`]: lints the spec (erroring out on any
/// `Error`-severity finding), then sweeps organizations with the engine
/// attached — candidates violating an `Error` rule are rejected — and
/// returns the §2.4 staged-optimization winner, which carries its
/// warnings in [`Solution::warnings`].
///
/// # Errors
///
/// [`CactiError::InvalidSpec`] when a spec rule fires at `Error` severity
/// (the message carries the rule code and location);
/// [`CactiError::NoFeasibleSolution`] / [`CactiError::LintRejected`] from
/// the sweep.
pub fn optimize(spec: &MemorySpec) -> Result<Solution, CactiError> {
    let analyzer = Analyzer::new();
    reject_spec_errors(&analyzer, spec)?;
    ArraySweep::new(spec)
        .select(&[spec], Some(&analyzer), &mut EvalMemo::new())
        .into_first()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SeverityAction;
    use cactid_core::{AccessMode, MemoryKind, Severity};
    use cactid_tech::{CellTechnology, TechNode};

    fn l2() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(512 << 10)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn valid_spec_lints_clean_and_solves() {
        let spec = l2();
        assert!(Analyzer::new().lint_spec(&spec).is_empty());
        let sol = optimize(&spec).unwrap();
        assert!(sol.warnings.is_empty(), "{:?}", sol.warnings);
    }

    #[test]
    fn hand_built_broken_spec_is_rejected_with_rule_code() {
        let mut spec = l2();
        spec.capacity_bytes = 3 << 19; // bypasses the builder: 3072 sets
        let err = optimize(&spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("CD0001"), "{msg}");
        assert!(msg.contains("spec.capacity_bytes"), "{msg}");
    }

    #[test]
    fn winner_agrees_with_unlinted_optimizer_on_valid_specs() {
        let spec = l2();
        let linted = optimize(&spec).unwrap();
        let plain = cactid_core::optimize(&spec).unwrap();
        assert_eq!(linted.org, plain.org);
    }

    #[test]
    fn lint_org_runs_spec_and_org_stages() {
        let spec = l2();
        let bad = OrgParams {
            ndwl: 3, // CD0010
            ndbl: 8,
            nspd: 1.0,
            deg_bl_mux: 1,
            deg_sa_mux: 8,
        };
        let report = Analyzer::new().lint_org(&spec, &bad);
        assert!(report.iter().any(|d| d.code == "CD0010"));
    }

    #[test]
    fn rule_lookup_finds_every_code() {
        let a = Analyzer::new();
        for rule in a.rules() {
            assert!(a.rule(rule.code()).is_some());
        }
        assert!(a.rule("CD9999").is_none());
    }

    #[test]
    fn overrides_reshape_lint_spec_output() {
        let mut spec = l2();
        spec.capacity_bytes = 3 << 19; // CD0001 at Error by default

        let mut allow = SeverityOverrides::new();
        allow.set("CD0001", SeverityAction::Allow);
        let report = Analyzer::with_overrides(allow).unwrap().lint_spec(&spec);
        assert!(!report.iter().any(|d| d.code == "CD0001"), "{report:?}");

        let mut demote = SeverityOverrides::new();
        demote.set("CD0001", SeverityAction::Warn);
        let report = Analyzer::with_overrides(demote).unwrap().lint_spec(&spec);
        let d = report.iter().find(|d| d.code == "CD0001").unwrap();
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn with_overrides_rejects_unknown_codes() {
        let mut ov = SeverityOverrides::new();
        ov.set("CD7777", SeverityAction::Deny);
        let err = Analyzer::with_overrides(ov).unwrap_err();
        assert!(err.contains("CD7777"), "{err}");
    }

    #[test]
    fn demoting_a_spec_error_lets_optimize_proceed() {
        let mut spec = l2();
        spec.capacity_bytes = 3 << 19;
        let mut ov = SeverityOverrides::new();
        ov.set("CD0001", SeverityAction::Allow);
        let analyzer = Analyzer::with_overrides(ov).unwrap();
        // The spec gate sees no error; the sweep itself decides.
        assert!(analyzer.lint_spec(&spec).is_clean());
    }

    #[test]
    fn lint_run_applies_run_rules_and_overrides() {
        let text = r#"{"idx":0,"status":"exploded"}"#;
        let run = RunContext::parse(text);
        let report = Analyzer::new().lint_run(&run);
        assert!(report.iter().any(|d| d.code == "CD0105"));
        assert!(report.error_count() >= 1);

        let mut ov = SeverityOverrides::new();
        ov.set("CD0105", SeverityAction::Warn);
        let report = Analyzer::with_overrides(ov).unwrap().lint_run(&run);
        assert_eq!(report.error_count(), 0);
        assert!(report.warn_count() >= 1);
    }
}
