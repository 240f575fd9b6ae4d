//! The [`Analyzer`]: the rule registry plus staged lint passes and
//! severity overrides.

use crate::context::LintContext;
use crate::lint::Report;
use crate::registry::{RuleRegistry, SeverityOverrides};
use crate::rule::{Rule, Stage};
use crate::run::RunContext;
use cactid_core::{MemorySpec, OrgParams, Solution};

/// The diagnostics engine: a [`RuleRegistry`] plus a set of
/// [`SeverityOverrides`], runnable per stage over specs, organizations,
/// solutions, and completed batch runs.
///
/// The analyzer never runs inside a solve: callers lint the spec before
/// it and the winner after it. Severity overrides apply to every
/// diagnostic the analyzer emits, so they reshape reports only and never
/// change which design wins.
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
    /// Works on any `MemorySpec`, including one assembled by hand past the
    /// builder. Its errors are [`MemorySpec::violations`], the one check
    /// list whose first entry [`MemorySpec::validate`] returns, so lint
    /// and every solve entry point agree on which specs are invalid. Each
    /// error gains its `CD` code and, where one exists, a suggested fix;
    /// the warnings on legal but suspicious values are lint's own, as is
    /// CD0006's check of the resolved cell tables.
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

    /// Runs the organization- and solution-stage rules over a solved
    /// design: [`Analyzer::lint_solution`] without the spec stage, for a
    /// spec that was linted on its own before the solve.
    pub fn lint_candidate(&self, spec: &MemorySpec, solution: &Solution) -> Report {
        self.run(
            &LintContext::for_spec(spec).with_solution(solution),
            &[Stage::Organization, Stage::Solution],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;
    use crate::registry::SeverityAction;
    use cactid_core::{AccessMode, MemoryKind};
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
        let analyzer = Analyzer::new();
        assert!(analyzer.lint_spec(&spec).is_empty());
        let sol = cactid_core::optimize(&spec).unwrap();
        let report = analyzer.lint_candidate(&spec, &sol);
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn hand_built_broken_spec_is_rejected_with_rule_code() {
        let mut spec = l2();
        spec.capacity_bytes = 3 << 19; // bypasses the builder: 3072 sets
        let report = Analyzer::new().lint_spec(&spec);
        let first = report.iter().find(|d| d.severity == Severity::Error);
        let msg = first.expect("a spec-stage error").to_string();
        assert!(msg.contains("CD0001"), "{msg}");
        assert!(msg.contains("spec.capacity_bytes"), "{msg}");
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
        // The spec gate sees no error; the solver itself decides.
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
