//! The [`Analyzer`]: staged lint passes over the rule table, reshaped by
//! `--allow`/`--warn`/`--deny` severity overrides.

use crate::context::LintContext;
use crate::lint::{Diagnostic, Report, Severity};
use crate::rules::{rule, Check, Stage, RULES};
use crate::run::RunContext;
use cactid_core::{MemorySpec, OrgParams, Solution};
use std::collections::BTreeMap;

/// The diagnostics engine: the rules of [`RULES`] plus a set of
/// [`SeverityOverrides`], runnable per stage over specs, organizations,
/// solutions, and completed batch runs.
///
/// The analyzer never runs inside a solve: callers lint the spec before
/// it and the winner after it. Severity overrides apply to every
/// diagnostic the analyzer emits, so they reshape reports only and never
/// change which design wins.
#[derive(Debug, Default)]
pub struct Analyzer {
    overrides: SeverityOverrides,
}

impl Analyzer {
    /// Builds the engine with no overrides.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Builds the engine with the given severity overrides.
    ///
    /// # Errors
    ///
    /// When an override names a rule code the table does not contain.
    pub fn with_overrides(overrides: SeverityOverrides) -> Result<Self, String> {
        overrides.validate()?;
        Ok(Analyzer { overrides })
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
        for rule in &RULES {
            if let Check::Spec(check) | Check::Organization(check) | Check::Solution(check) =
                rule.check
            {
                if stages.contains(&rule.stage()) {
                    check(rule.code, ctx, &mut report);
                }
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
        for rule in &RULES {
            if let Check::Run(check) = rule.check {
                check(rule.code, run, &mut report);
            }
        }
        self.apply_overrides(report)
    }
}

/// What a severity override does to a rule's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeverityAction {
    /// Drop the rule's diagnostics entirely.
    Allow,
    /// Demote (or promote) the rule's diagnostics to warnings.
    Warn,
    /// Promote the rule's diagnostics to errors.
    Deny,
}

/// A set of per-rule severity overrides (`--allow`/`--warn`/`--deny`).
///
/// Overrides apply to every diagnostic a rule emits, wherever the rule
/// runs. They reshape reports only: no rule runs inside a solve, so no
/// override changes which design wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeverityOverrides {
    actions: BTreeMap<String, SeverityAction>,
}

impl SeverityOverrides {
    /// An empty override set.
    pub fn new() -> SeverityOverrides {
        SeverityOverrides::default()
    }

    /// Sets the action for one rule code (last write wins).
    pub fn set(&mut self, code: impl Into<String>, action: SeverityAction) {
        self.actions.insert(code.into(), action);
    }

    /// `true` when no overrides are set.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The action for a rule code, if overridden.
    pub fn action(&self, code: &str) -> Option<SeverityAction> {
        self.actions.get(code).copied()
    }

    /// Checks every overridden code against the rule table.
    ///
    /// # Errors
    ///
    /// The first code that names no rule of [`RULES`].
    pub fn validate(&self) -> Result<(), String> {
        match self.actions.keys().find(|code| rule(code).is_none()) {
            Some(code) => Err(format!("unknown rule code {code:?}")),
            None => Ok(()),
        }
    }

    /// Applies the overrides to one diagnostic: `None` when an `Allow`
    /// drops it, otherwise the (possibly re-severitied) diagnostic.
    pub fn apply(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        match self.action(d.code) {
            Some(SeverityAction::Allow) => None,
            Some(SeverityAction::Warn) => {
                d.severity = Severity::Warn;
                Some(d)
            }
            Some(SeverityAction::Deny) => {
                d.severity = Severity::Error;
                Some(d)
            }
            None => Some(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Location;
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
        for row in &RULES {
            assert!(rule(row.code).is_some_and(|r| std::ptr::eq(r, row)));
        }
        assert!(rule("CD9999").is_none());
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

    #[test]
    fn overrides_apply_per_diagnostic() {
        let mut ov = SeverityOverrides::new();
        ov.set("CD0001", SeverityAction::Allow);
        ov.set("CD0002", SeverityAction::Deny);
        ov.set("CD0003", SeverityAction::Warn);
        let d = |code| Diagnostic::warn(code, Location::spec("x"), "m");
        assert_eq!(ov.apply(d("CD0001")), None);
        assert_eq!(ov.apply(d("CD0002")).unwrap().severity, Severity::Error);
        assert_eq!(ov.apply(d("CD0003")).unwrap().severity, Severity::Warn);
        assert_eq!(ov.apply(d("CD0004")).unwrap().severity, Severity::Warn);
    }

    #[test]
    fn validate_rejects_unknown_codes() {
        let mut ov = SeverityOverrides::new();
        ov.set("CD0016", SeverityAction::Allow);
        assert!(ov.validate().is_ok());
        ov.set("CD4242", SeverityAction::Deny);
        let err = ov.validate().unwrap_err();
        assert!(err.contains("CD4242"), "{err}");
    }
}
