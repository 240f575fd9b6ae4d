//! Integration tests: the diagnostics engine against the paper's own
//! configurations (Table 3 / §3.1) and against the solver's full
//! solution set.

use cactid_analyze::{Analyzer, Severity};
use cactid_core::array::{self, PrescreenFailure};
use cactid_core::{org, AccessMode, MemoryKind, MemorySpec, OptimizationOptions};
use cactid_tech::{CellTechnology, TechNode, Technology};
use llc_study::configs::{c_options, ed_options, main_memory_spec, LlcKind};
use std::collections::HashSet;

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
        let sol =
            cactid_core::optimize(&spec).unwrap_or_else(|e| panic!("{name} does not solve: {e}"));
        let report = analyzer.lint_solution(&spec, &sol);
        assert!(report.is_empty(), "{name}: {:?}", report.as_slice());
    }
}

#[test]
fn optimizer_never_returns_a_solution_failing_an_error_rule() {
    let analyzer = Analyzer::new();
    let spec = main_memory_spec();
    let sols = cactid_core::solve_with_stats(&spec, None)
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

/// CD0013, CD0014 and CD0020 are the solver's closed-form screen seen
/// from the analyzer: over every organization the solver enumerates,
/// `lint_org` reports an error from one of them exactly when
/// `prescreen_explain` rejects the organization, from the rule that
/// matches the failure.
#[test]
fn screen_rules_fire_exactly_where_the_prescreen_rejects() {
    let analyzer = Analyzer::new();
    let mut seen = HashSet::new();
    let specs = [
        study_cache_spec(
            4 << 20,
            16,
            1,
            CellTechnology::Sram,
            OptimizationOptions::default(),
        ),
        study_cache_spec(
            16 << 20,
            8,
            1,
            CellTechnology::LpDram,
            OptimizationOptions::default(),
        ),
        main_memory_spec(),
    ];
    for spec in &specs {
        let cell = Technology::cached(spec.node).cell(spec.cell_tech);
        for org in org::enumerate(spec) {
            let verdict = array::prescreen_explain(&cell, org.rows(spec), org.cols(spec));
            let expected: &[&str] = match verdict {
                Ok(_) => &[],
                Err(PrescreenFailure::SubarrayRows) => &["CD0013"],
                Err(PrescreenFailure::WordlineElmore) => &["CD0014"],
                Err(PrescreenFailure::SenseMargin) => &["CD0020"],
            };
            seen.extend(verdict.err());
            let fired: Vec<&str> = analyzer
                .lint_org(spec, &org)
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.code)
                .filter(|code| ["CD0013", "CD0014", "CD0020"].contains(code))
                .collect();
            assert_eq!(fired, expected, "{} {org:?}", spec.cell_tech);
        }
    }
    // Both reachable rules were exercised; the sense margin binds on no
    // real cell (both DRAM cells cap their subarrays first), so CD0020's
    // positive case is `rules::org`'s unit test.
    assert!(
        seen.contains(&PrescreenFailure::SubarrayRows)
            && seen.contains(&PrescreenFailure::WordlineElmore),
        "{seen:?}"
    );
}
