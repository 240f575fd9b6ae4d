//! Integration tests: the diagnostics engine against the paper's own
//! configurations (Table 3 / §3.1) and against the optimizer hook.

use cactid_analyze::{Analyzer, Severity, SolutionLinter};
use cactid_core::{
    AccessMode, CactiError, Diagnostic, MemoryKind, MemorySpec, OptimizationOptions, Solution,
};
use cactid_tech::{CellTechnology, TechNode};
use llc_study::configs::{c_options, ed_options, main_memory_spec, LlcKind};

/// Rebuilds the study's cache spec exactly as `llc_study::configs::build`
/// does (its helper is private): 64 B blocks, 32 nm, normal access.
fn study_cache_spec(
    capacity: u64,
    assoc: u32,
    banks: u32,
    cell: CellTechnology,
    opt: OptimizationOptions,
) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(capacity)
        .block_bytes(64)
        .associativity(assoc)
        .banks(banks)
        .cell_tech(cell)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .optimization(opt)
        .build()
        .expect("study cache specs are valid")
}

/// Every spec the Table 3 study solves: the L1, the L2, the five L3
/// variants, and the 8 Gb main-memory chip.
fn table3_specs() -> Vec<(String, MemorySpec)> {
    let mut specs = vec![
        (
            "L1 32K".to_string(),
            study_cache_spec(
                32 << 10,
                8,
                1,
                CellTechnology::Sram,
                OptimizationOptions::default(),
            ),
        ),
        (
            "L2 1M".to_string(),
            study_cache_spec(
                1 << 20,
                8,
                1,
                CellTechnology::Sram,
                OptimizationOptions::default(),
            ),
        ),
        ("main memory 8Gb".to_string(), main_memory_spec()),
    ];
    for kind in LlcKind::ALL {
        if let Some((cap, assoc, cell, cap_opt)) = kind.l3_shape() {
            let mut opt = if cap_opt { c_options() } else { ed_options() };
            opt.sleep_transistors = cell == CellTechnology::Sram;
            specs.push((
                format!("L3 {}", kind.label()),
                study_cache_spec(cap, assoc, 8, cell, opt),
            ));
        }
    }
    specs
}

#[test]
fn table3_specs_lint_clean() {
    let analyzer = Analyzer::new();
    for (name, spec) in table3_specs() {
        let report = analyzer.lint_spec(&spec);
        assert!(report.is_empty(), "{name}: {:?}", report.as_slice());
    }
}

#[test]
fn table3_solutions_lint_clean() {
    let analyzer = Analyzer::new();
    for (name, spec) in table3_specs() {
        let sol = cactid_analyze::optimize(&spec)
            .unwrap_or_else(|e| panic!("{name} does not solve: {e}"));
        assert!(sol.warnings.is_empty(), "{name}: {:?}", sol.warnings);
        let report = analyzer.lint_solution(&spec, &sol);
        assert!(report.is_empty(), "{name}: {:?}", report.as_slice());
    }
}

/// A linter that sabotages every candidate before judging it: it corrupts
/// the CAS latency so that `tRCD + CAS > access_time`, then runs the real
/// engine. Every candidate must therefore trip `CD0015` and be rejected,
/// and the optimizer must surface `CactiError::LintRejected` instead of
/// returning a solution that failed an Error-severity rule.
struct CorruptingLinter(Analyzer);

impl SolutionLinter for CorruptingLinter {
    fn lint_candidate(&self, spec: &MemorySpec, solution: &Solution) -> Vec<Diagnostic> {
        let mut corrupted = solution.clone();
        if let Some(mm) = &mut corrupted.main_memory {
            mm.timing.cas_latency = 2.0 * corrupted.access_time;
        }
        self.0.lint_candidate(spec, &corrupted)
    }
}

#[test]
fn corrupted_dram_timing_is_rejected_by_the_optimizer_hook() {
    let spec = main_memory_spec();
    let linter = CorruptingLinter(Analyzer::new());

    // Sanity: the corruption really does produce a CD0015 error.
    let good = cactid_core::optimize(&spec).expect("main memory solves");
    let diags = linter.lint_candidate(&spec, &good);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "CD0015" && d.severity == Severity::Error),
        "{diags:?}"
    );

    let err = cactid_core::solve_with_stats(&spec, Some(&linter))
        .result
        .unwrap_err();
    assert!(
        matches!(err, CactiError::LintRejected(n) if n > 0),
        "expected LintRejected, got: {err}"
    );
}

#[test]
fn optimizer_never_returns_a_solution_failing_an_error_rule() {
    let analyzer = Analyzer::new();
    let spec = main_memory_spec();
    let sols = cactid_core::solve_with_stats(&spec, Some(&analyzer))
        .result
        .expect("main memory solves");
    assert!(!sols.is_empty());
    for sol in &sols {
        let errors: Vec<_> = analyzer
            .lint_solution(&spec, sol)
            .into_vec()
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{:?}: {errors:?}", sol.org);
    }
}
