//! The rule table: every diagnostic the engine can emit comes from one
//! row of [`RULES`], which holds each rule's metadata and its check.
//! Twenty-two object rules cover three pipeline stages, and five
//! cross-record rules cover completed runs.
//!
//! | Codes                                | Stage        | Module   |
//! |--------------------------------------|--------------|----------|
//! | `CD0001`–`CD0009`                    | Spec         | [`spec`] |
//! | `CD0010`–`CD0014`, `CD0020`          | Organization | [`org`]  |
//! | `CD0015`–`CD0019`, `CD0021`–`CD0022` | Solution     | [`sol`]  |
//! | `CD0101`–`CD0105`                    | Run          | [`run`]  |

pub mod org;
pub mod run;
pub mod sol;
pub mod spec;

use crate::context::LintContext;
use crate::lint::{Report, Severity};
use crate::run::RunContext;

/// The validation stage a rule belongs to.
///
/// The object stages form a pipeline: spec rules need only a
/// [`cactid_core::MemorySpec`] (and the Table-1 cell parameters it resolves
/// to), organization rules additionally need an [`cactid_core::OrgParams`],
/// and solution rules an assembled [`cactid_core::Solution`]. The `Run`
/// stage sits outside that pipeline: its rules analyze a completed batch
/// run — a whole JSONL record set — rather than one object.
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

    /// Stable lowercase name used in the JSON diagnostics schema.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Spec => "spec",
            Stage::Organization => "organization",
            Stage::Solution => "solution",
            Stage::Run => "run",
        }
    }
}

/// An object rule's check: appends the findings of rule `code` on one
/// context to the report.
///
/// A check must be *total*: it never panics, even on wildly inconsistent
/// inputs (that is the point — the engine is what reports
/// inconsistencies). When the data it needs is absent from the context
/// (a solution rule run without a solution), it emits nothing.
pub type ObjectCheck = fn(&'static str, &LintContext<'_>, &mut Report);

/// A run rule's check: appends the findings of rule `code` on a whole
/// record set to the report.
pub type RunCheck = fn(&'static str, &RunContext, &mut Report);

/// A rule's check; the variant fixes the stage it runs at.
pub enum Check {
    /// A [`Stage::Spec`] check.
    Spec(ObjectCheck),
    /// A [`Stage::Organization`] check.
    Organization(ObjectCheck),
    /// A [`Stage::Solution`] check.
    Solution(ObjectCheck),
    /// A [`Stage::Run`] check.
    Run(RunCheck),
}

/// One lint rule: a stable code, the invariant it enforces, and a check.
pub struct Rule {
    /// Stable diagnostic code (`CD0001`…).
    pub code: &'static str,
    /// The severity of the rule's primary finding before any
    /// `--allow`/`--warn`/`--deny` override. A rule may emit secondary
    /// findings below this level, never above it.
    pub default_severity: Severity,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// The paper section or table the invariant comes from, e.g.
    /// `"§2.3.2"`.
    pub paper_ref: &'static str,
    /// The check, which also fixes the stage.
    pub check: Check,
}

impl Rule {
    /// The stage whose data this rule examines.
    pub fn stage(&self) -> Stage {
        match self.check {
            Check::Spec(_) => Stage::Spec,
            Check::Organization(_) => Stage::Organization,
            Check::Solution(_) => Stage::Solution,
            Check::Run(_) => Stage::Run,
        }
    }
}

/// The rule `code` names, if any.
pub fn rule(code: &str) -> Option<&'static Rule> {
    let i = RULES.binary_search_by(|r| r.code.cmp(code)).ok()?;
    Some(&RULES[i])
}

/// Every rule the analyzer knows, in code order.
pub static RULES: [Rule; 27] = [
    Rule {
        code: "CD0001",
        default_severity: Severity::Error,
        summary: "capacity must be a power-of-two number of sets, split evenly across banks",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0002",
        default_severity: Severity::Error,
        summary: "block size must be a nonzero power of two (16–256 B typical for caches)",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0003",
        default_severity: Severity::Error,
        summary: "bank count must be a nonzero power of two (≤ 64 plausible)",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0004",
        default_severity: Severity::Error,
        summary: "associativity must be 1 for RAM/main memory and 1–32 for caches",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0005",
        default_severity: Severity::Error,
        summary: "main memory requires COMM-DRAM cells; 78 nm is a DRAM-process half node",
        paper_ref: "Table 1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0006",
        default_severity: Severity::Error,
        summary: "resolved cell parameters must lie in their Table-1 physical bounds",
        paper_ref: "Table 1",
        check: Check::Spec(spec::cell_table1_bounds),
    },
    Rule {
        code: "CD0007",
        default_severity: Severity::Error,
        summary: "prefetch a power of two ≥ burst length, and one burst (io·prefetch bits) must fit in the page",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0008",
        default_severity: Severity::Error,
        summary: "address width must cover the capacity and stay within 64 bits",
        paper_ref: "§2.1",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0009",
        default_severity: Severity::Error,
        summary: "objective weights non-negative (one positive), repeater relax ≥ 1, overheads ≥ 0",
        paper_ref: "§2.4",
        check: Check::Spec(spec::violations),
    },
    Rule {
        code: "CD0010",
        default_severity: Severity::Error,
        summary: "Ndwl and Ndbl must be nonzero powers of two; Nspd positive (1.0 for main memory)",
        paper_ref: "§2.4",
        check: Check::Organization(org::partitioning),
    },
    Rule {
        code: "CD0011",
        default_severity: Severity::Error,
        summary: "rows × cols × Ndwl × Ndbl must equal the bank capacity in bits",
        paper_ref: "§2.1",
        check: Check::Organization(org::capacity_conservation),
    },
    Rule {
        code: "CD0012",
        default_severity: Severity::Error,
        summary: "bl-mux × sa-mux must equal stripe/output bits; DRAM requires bl-mux = 1",
        paper_ref: "§2.3.1",
        check: Check::Organization(org::mux_legality),
    },
    Rule {
        code: "CD0013",
        default_severity: Severity::Error,
        summary: "rows ≤ technology limit, cols in sweep band, subarray aspect ratio buildable",
        paper_ref: "§2.3.1",
        check: Check::Organization(org::subarray_dims),
    },
    Rule {
        code: "CD0014",
        default_severity: Severity::Error,
        summary: "unrepeatered wordline RC (0.38·R·C) must stay under 3 ns",
        paper_ref: "§2.3.3",
        check: Check::Organization(org::wordline_rc),
    },
    Rule {
        code: "CD0015",
        default_severity: Severity::Error,
        summary: "tRCD + CAS ≤ access, tRC = tRAS + tRP, tRAS ≥ tRCD, 0 < tRRD ≤ tRC",
        paper_ref: "§2.3.2",
        check: Check::Solution(sol::dram_timing_inequalities),
    },
    Rule {
        code: "CD0016",
        default_severity: Severity::Error,
        summary: "times, energies and area positive and finite; powers non-negative",
        paper_ref: "§2.3",
        check: Check::Solution(sol::finite_metrics),
    },
    Rule {
        code: "CD0017",
        default_severity: Severity::Error,
        summary: "DRAM solutions must pay refresh power; SRAM must not (and structure matches kind)",
        paper_ref: "§2.3.1",
        check: Check::Solution(sol::refresh_consistency),
    },
    Rule {
        code: "CD0018",
        default_severity: Severity::Error,
        summary: "area efficiency must lie in (0, 1]; below 2% the organization is degenerate",
        paper_ref: "§2.1",
        check: Check::Solution(sol::area_efficiency),
    },
    Rule {
        code: "CD0019",
        default_severity: Severity::Error,
        summary: "WRITE ≥ READ energy, ACTIVATE dominates READ, standby ≥ interface floor",
        paper_ref: "§2.3.5",
        check: Check::Solution(sol::energy_ordering),
    },
    Rule {
        code: "CD0020",
        default_severity: Severity::Error,
        summary: "developed bitline signal must meet the cell's sense margin",
        paper_ref: "§2.3.1",
        check: Check::Organization(org::sense_margin),
    },
    Rule {
        code: "CD0021",
        default_severity: Severity::Warn,
        summary: "access and cycle times must land in the physically plausible [1 ps, 1 ms] window",
        paper_ref: "§2.3",
        check: Check::Solution(sol::access_time_plausibility),
    },
    Rule {
        code: "CD0022",
        default_severity: Severity::Warn,
        summary: "per-access dynamic energies must land in the plausible [1 fJ, 1 µJ] window",
        paper_ref: "§2.4",
        check: Check::Solution(sol::energy_plausibility),
    },
    Rule {
        code: "CD0101",
        default_severity: Severity::Info,
        summary: "access time is monotonically non-decreasing over a capacity sweep \
         holding every other axis fixed",
        paper_ref: "§2.4",
        check: Check::Run(run::access_monotonicity),
    },
    Rule {
        code: "CD0102",
        default_severity: Severity::Warn,
        summary: "area is monotonically non-decreasing over a capacity sweep holding \
         every other axis fixed",
        paper_ref: "§2.4",
        check: Check::Run(run::area_monotonicity),
    },
    Rule {
        code: "CD0103",
        default_severity: Severity::Error,
        summary: "pareto annotations are consistent: no frontier member is dominated, \
         and every non-member is dominated by someone",
        paper_ref: "§2.4",
        check: Check::Run(run::pareto_dominance),
    },
    Rule {
        code: "CD0104",
        default_severity: Severity::Warn,
        summary: "every solved record's times sit in [1 ps, 1 ms], its dynamic \
         energies in [1 fJ, 1 uJ], and all metrics are finite",
        paper_ref: "Table 3",
        check: Check::Run(run::metric_range_drift),
    },
    Rule {
        code: "CD0105",
        default_severity: Severity::Error,
        summary: "every line parses, indices are present and unique, statuses are \
         known, and solved records carry their metrics",
        paper_ref: "§2.4",
        check: Check::Run(run::record_integrity),
    },
];

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
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The report of the one object rule `code` over `ctx`.
    pub(crate) fn check(code: &str, ctx: &LintContext<'_>) -> Report {
        let rule = rule(code).unwrap_or_else(|| panic!("no rule {code}"));
        let (Check::Spec(f) | Check::Organization(f) | Check::Solution(f)) = rule.check else {
            panic!("{code} is a run rule");
        };
        let mut report = Report::new();
        f(rule.code, ctx, &mut report);
        report
    }

    fn codes(stages: &[Stage]) -> Vec<&'static str> {
        RULES
            .iter()
            .filter(|r| stages.contains(&r.stage()))
            .map(|r| r.code)
            .collect()
    }

    #[test]
    fn the_table_lists_every_rule_once_in_code_order() {
        let codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        assert_eq!(codes.len(), 27, "22 object rules + 5 run rules");
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be unique and in code order");
        for code in &codes {
            assert_eq!(rule(code).map(|r| r.code), Some(*code));
        }
        assert!(rule("CD01").is_none(), "a prefix names no rule");
    }

    #[test]
    fn registry_has_twenty_two_object_rules_with_unique_sorted_codes() {
        let codes = codes(Stage::OBJECT);
        assert_eq!(codes.len(), 22);
        let unique: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), 22, "duplicate rule codes");
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "the table must be ordered by code");
        assert_eq!(codes[0], "CD0001");
        assert_eq!(codes[21], "CD0022");
    }

    #[test]
    fn run_rules_have_unique_sorted_cd01xx_codes() {
        let codes = codes(&[Stage::Run]);
        assert_eq!(codes.len(), 5);
        let unique: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "duplicate run-rule codes");
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "run rules must be ordered by code");
        assert!(codes.iter().all(|c| c.starts_with("CD01")));
    }

    #[test]
    fn rows_carry_stage_and_severity() {
        let row = |code| rule(code).map(|r| (r.stage(), r.default_severity));
        assert_eq!(row("CD0014"), Some((Stage::Organization, Severity::Error)));
        assert_eq!(row("CD0021"), Some((Stage::Solution, Severity::Warn)));
        assert_eq!(row("CD0101"), Some((Stage::Run, Severity::Info)));
        assert_eq!(row("CD0103"), Some((Stage::Run, Severity::Error)));
        assert_eq!(codes(&[Stage::Spec]).len(), 9);
        assert_eq!(
            codes(&[Stage::Organization]),
            ["CD0010", "CD0011", "CD0012", "CD0013", "CD0014", "CD0020"]
        );
        assert_eq!(codes(&[Stage::Solution]).len(), 7);
    }

    #[test]
    fn every_rule_documents_itself() {
        for rule in &RULES {
            assert!(!rule.summary.is_empty(), "{} has no summary", rule.code);
            assert!(
                rule.paper_ref.starts_with('§') || rule.paper_ref.starts_with("Table"),
                "{} paper ref {:?}",
                rule.code,
                rule.paper_ref
            );
        }
    }

    #[test]
    fn default_severities_match_the_documented_split() {
        // CD0021/CD0022 are plausibility windows (warn-only); every other
        // object rule defaults to error. Of the run rules, CD0101 is
        // advisory and CD0103/CD0105 are errors.
        for rule in &RULES {
            let expected = match rule.code {
                "CD0021" | "CD0022" | "CD0102" | "CD0104" => Severity::Warn,
                "CD0101" => Severity::Info,
                _ => Severity::Error,
            };
            assert_eq!(rule.default_severity, expected, "{}", rule.code);
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
