//! The central rule registry: every rule the analyzer can run, with its
//! per-rule metadata, plus the `--allow`/`--warn`/`--deny` severity
//! override machinery.
//!
//! The registry is the single source of truth for "which rules exist".
//! The CLI lists it, the renderers look up rule notes through it, severity
//! overrides are validated against it, and a meta-lint test cross-checks
//! it against both the `rules/` source tree and the DESIGN.md rule tables.

use crate::rule::{Rule, RunRule, Stage};
use cactid_core::lint::{Diagnostic, Severity};
use std::collections::BTreeMap;

/// Per-rule metadata, identical in shape for object and run rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable diagnostic code (`CD0001`…).
    pub code: &'static str,
    /// The stage the rule runs at.
    pub stage: Stage,
    /// The severity of the rule's primary finding before overrides.
    pub default_severity: Severity,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Paper section or table the invariant comes from.
    pub paper_ref: &'static str,
}

/// Every rule the analyzer knows, object and run stages together.
pub struct RuleRegistry {
    object_rules: Vec<Box<dyn Rule>>,
    run_rules: Vec<Box<dyn RunRule>>,
}

impl RuleRegistry {
    /// The standard registry: all built-in rules.
    pub fn standard() -> RuleRegistry {
        RuleRegistry {
            object_rules: crate::rules::all(),
            run_rules: crate::rules::all_run(),
        }
    }

    /// The object-stage rules, in code order.
    pub fn object_rules(&self) -> &[Box<dyn Rule>] {
        &self.object_rules
    }

    /// The run-stage rules, in code order.
    pub fn run_rules(&self) -> &[Box<dyn RunRule>] {
        &self.run_rules
    }

    /// Metadata for every registered rule, in code order.
    pub fn metas(&self) -> Vec<RuleMeta> {
        let mut metas: Vec<RuleMeta> = self
            .object_rules
            .iter()
            .map(|r| RuleMeta {
                code: r.code(),
                stage: r.stage(),
                default_severity: r.default_severity(),
                summary: r.summary(),
                paper_ref: r.paper_ref(),
            })
            .chain(self.run_rules.iter().map(|r| RuleMeta {
                code: r.code(),
                stage: Stage::Run,
                default_severity: r.default_severity(),
                summary: r.summary(),
                paper_ref: r.paper_ref(),
            }))
            .collect();
        metas.sort_by_key(|m| m.code);
        metas
    }

    /// Metadata for one rule code, if registered.
    pub fn meta(&self, code: &str) -> Option<RuleMeta> {
        self.metas().into_iter().find(|m| m.code == code)
    }

    /// `true` when `code` names a registered rule.
    pub fn contains(&self, code: &str) -> bool {
        self.meta(code).is_some()
    }
}

impl Default for RuleRegistry {
    fn default() -> Self {
        RuleRegistry::standard()
    }
}

impl std::fmt::Debug for RuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleRegistry")
            .field("object_rules", &self.object_rules.len())
            .field("run_rules", &self.run_rules.len())
            .finish()
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
/// runs — including the engine-side candidate linting a
/// [`crate::Analyzer`] performs during `solve`, so `--allow CD0016` (for
/// example) really does let non-finite solutions through.
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

    /// Checks every overridden code against the registry.
    ///
    /// # Errors
    ///
    /// The first code that does not name a registered rule.
    pub fn validate(&self, registry: &RuleRegistry) -> Result<(), String> {
        for code in self.actions.keys() {
            if !registry.contains(code) {
                return Err(format!("unknown rule code {code:?}"));
            }
        }
        Ok(())
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
    use cactid_core::lint::Location;

    #[test]
    fn standard_registry_lists_every_rule_once() {
        let reg = RuleRegistry::standard();
        let metas = reg.metas();
        assert_eq!(metas.len(), 27, "22 object rules + 5 run rules");
        let codes: Vec<&str> = metas.iter().map(|m| m.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "metas must be unique and code-ordered");
        assert!(reg.contains("CD0001"));
        assert!(reg.contains("CD0105"));
        assert!(!reg.contains("CD9999"));
    }

    #[test]
    fn meta_carries_stage_and_severity() {
        let reg = RuleRegistry::standard();
        let m = reg.meta("CD0014").expect("wordline rule");
        assert_eq!(m.stage, Stage::Organization);
        assert_eq!(m.default_severity, Severity::Error);
        let m = reg.meta("CD0021").expect("plausibility rule");
        assert_eq!(m.default_severity, Severity::Warn);
        let m = reg.meta("CD0101").expect("run rule");
        assert_eq!(m.stage, Stage::Run);
        let m = reg.meta("CD0103").expect("run error rule");
        assert_eq!(m.stage, Stage::Run);
        assert_eq!(m.default_severity, Severity::Error);
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
        let reg = RuleRegistry::standard();
        let mut ov = SeverityOverrides::new();
        ov.set("CD0016", SeverityAction::Allow);
        assert!(ov.validate(&reg).is_ok());
        ov.set("CD4242", SeverityAction::Deny);
        let err = ov.validate(&reg).unwrap_err();
        assert!(err.contains("CD4242"), "{err}");
    }
}
