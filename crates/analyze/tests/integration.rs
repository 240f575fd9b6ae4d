//! Integration tests: the diagnostics engine against the paper's own
//! configurations (Table 3 / §3.1) and against the solver's full
//! solution set.

use cactid_analyze::rules::spec::code_of;
use cactid_analyze::{Analyzer, Severity};
use cactid_core::array::{self, PrescreenFailure};
use cactid_core::{org, AccessMode, CactiError, MemoryKind, MemorySpec, OptimizationOptions};
use cactid_tech::{CellTechnology, TechNode, Technology};
use llc_study::configs::{main_memory_spec, LlcKind};
use memsim::rng::XorShift64Star;
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
            let mut opt = if cap_opt {
                OptimizationOptions::c()
            } else {
                OptimizationOptions::ed()
            };
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

/// A uniform draw from `values`.
fn pick<T: Copy>(rng: &mut XorShift64Star, values: &[T]) -> T {
    values[rng.next_below(values.len() as u64) as usize]
}

/// Valid specs of every kind, for [`literal_specs`] to break.
fn base_specs() -> [MemorySpec; 4] {
    let cache = MemorySpec {
        capacity_bytes: 1 << 20,
        block_bytes: 64,
        associativity: 8,
        n_banks: 1,
        kind: MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        },
        cell_tech: CellTechnology::Sram,
        node: TechNode::N32,
        address_bits: 40,
        opt: OptimizationOptions::default(),
    };
    let main_memory = MemorySpec {
        capacity_bytes: 1 << 30,
        block_bytes: 8,
        associativity: 1,
        n_banks: 8,
        kind: MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        },
        cell_tech: CellTechnology::CommDram,
        ..cache.clone()
    };
    let ram = MemorySpec {
        capacity_bytes: 64 << 10,
        block_bytes: 8,
        associativity: 1,
        kind: MemoryKind::Ram,
        ..cache.clone()
    };
    let dram_cache = MemorySpec {
        capacity_bytes: 48 << 20,
        associativity: 12,
        n_banks: 8,
        kind: MemoryKind::Cache {
            access_mode: AccessMode::Sequential,
        },
        cell_tech: CellTechnology::LpDram,
        ..cache.clone()
    };
    [cache, main_memory, ram, dram_cache]
}

/// `n` deterministic specs assembled field by field, past the builder:
/// each a valid base with up to four fields overwritten by values drawn
/// from valid ones and extremes (zero, non-powers of two, `u32::MAX`,
/// capacities and pages up to 2⁶³ and past, address widths of 0, 41 and
/// 65, NaN, ±∞ and negative knobs).
fn literal_specs(n: usize) -> Vec<MemorySpec> {
    const CAPACITIES: &[u64] = &[
        0,
        1,
        3,
        48 << 10,
        64 << 10,
        1 << 20,
        1536 << 10,
        1 << 30,
        1 << 40,
        2 << 40,
        1 << 62,
        1 << 63,
        (1 << 63) + (1 << 62),
        u64::MAX,
    ];
    const SMALL: &[u32] = &[
        0,
        1,
        2,
        3,
        4,
        8,
        12,
        16,
        24,
        32,
        48,
        64,
        128,
        4096,
        1 << 31,
        u32::MAX,
    ];
    const PAGES: &[u64] = &[
        0,
        1,
        3,
        128,
        256,
        8 << 10,
        1 << 20,
        1 << 62,
        1 << 63,
        u64::MAX,
    ];
    const ADDRESS_BITS: &[u32] = &[0, 1, 16, 20, 40, 41, 52, 53, 64, 65, u32::MAX];
    const KNOBS: &[f64] = &[
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        4.5,
        11.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ];
    let bases = base_specs();
    let mut rng = XorShift64Star::new(0x5eed);
    (0..n)
        .map(|i| {
            let mut s = bases[i % bases.len()].clone();
            for _ in 0..rng.next_below(5) {
                match rng.next_below(16) {
                    0 => s.capacity_bytes = pick(&mut rng, CAPACITIES),
                    1 => s.block_bytes = pick(&mut rng, SMALL),
                    2 => s.associativity = pick(&mut rng, SMALL),
                    3 => s.n_banks = pick(&mut rng, SMALL),
                    4 => s.address_bits = pick(&mut rng, ADDRESS_BITS),
                    5 => s.cell_tech = pick(&mut rng, CellTechnology::ALL),
                    6 => s.node = pick(&mut rng, TechNode::ALL),
                    7 => s.opt.repeater_relax = pick(&mut rng, KNOBS),
                    8 => s.opt.max_area_overhead = pick(&mut rng, KNOBS),
                    9 => s.opt.max_access_time_overhead = pick(&mut rng, KNOBS),
                    10 => {
                        let w = pick(&mut rng, KNOBS);
                        match rng.next_below(4) {
                            0 => s.opt.weight_dynamic = w,
                            1 => s.opt.weight_leakage = w,
                            2 => s.opt.weight_cycle = w,
                            _ => s.opt.weight_interleave = w,
                        }
                    }
                    11 => {
                        s.kind = bases[rng.next_below(bases.len() as u64) as usize].kind;
                    }
                    _ => {
                        if let MemoryKind::MainMemory {
                            io_bits,
                            burst_length,
                            prefetch,
                            page_bits,
                        } = &mut s.kind
                        {
                            match rng.next_below(4) {
                                0 => *io_bits = pick(&mut rng, SMALL),
                                1 => *burst_length = pick(&mut rng, SMALL),
                                2 => *prefetch = pick(&mut rng, SMALL),
                                _ => *page_bits = pick(&mut rng, PAGES),
                            }
                        }
                    }
                }
            }
            s
        })
        .collect()
}

/// The spec stage gives every spec one verdict. Over 12 000 literal
/// specs, in the debug profile where an overflow panics: nothing panics;
/// `lint_spec` reports a CD0001–CD0009 error exactly when
/// `MemorySpec::validate` rejects; its errors are `violations()`, code and
/// message, in code order; and `validate`'s error is the first violation.
#[test]
fn spec_rules_fire_exactly_where_validate_rejects() {
    let analyzer = Analyzer::new();
    let mut valid = 0;
    let mut seen = HashSet::new();
    for spec in literal_specs(12_000) {
        let violations = spec.violations();
        let mut want: Vec<(&str, String)> = violations
            .iter()
            .map(|v| (code_of(v).expect("every check has a rule"), v.to_string()))
            .collect();
        want.sort_by_key(|&(code, _)| code);
        let got: Vec<(&str, String)> = analyzer
            .lint_spec(&spec)
            .into_vec()
            .into_iter()
            .filter(|d| d.severity == Severity::Error && d.code <= "CD0009")
            .map(|d| (d.code, d.message))
            .collect();
        assert_eq!(got, want, "{spec:?}");
        assert_eq!(spec.validate().is_err(), !got.is_empty(), "{spec:?}");
        assert_eq!(
            format!("{:?}", spec.validate()),
            format!(
                "{:?}",
                violations
                    .first()
                    .map_or(Ok(()), |v| Err(CactiError::InvalidSpec(v.clone())))
            ),
        );
        valid += usize::from(violations.is_empty());
        seen.extend(violations.iter().map(|v| {
            let name = format!("{v:?}");
            name[..name.find([' ', '(']).unwrap_or(name.len())].to_string()
        }));
    }
    // Both verdicts are common, and every one of the 22 checks fired.
    assert!((1_000..11_000).contains(&valid), "{valid} valid");
    assert_eq!(seen.len(), 22, "{seen:?}");
}
