//! The staged-pipeline determinism contract (DESIGN.md §14): the pruned
//! pipeline, the certified screen and the debug-only unpruned reference
//! must all return exactly the same solution set in the same order, and
//! the pre-screen must account for precisely the candidates the full
//! models would have rejected.

use cactid_core::{
    array, org, solve_with_stats, solve_with_stats_certified, solve_with_stats_reference,
    AccessMode, MemoryKind, MemorySpec, Solution,
};
use cactid_tech::{CellTechnology, TechNode, Technology};

fn sram_l2() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 20)
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

fn lp_dram_l3() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(8 << 20)
        .block_bytes(64)
        .associativity(16)
        .banks(1)
        .cell_tech(CellTechnology::LpDram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

/// The `ci.sh` COMM-DRAM smoke spec (128 MB x8 BL8 chip, 8 Kb page, 78 nm).
fn comm_dram_smoke() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 27)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N78)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        })
        .build()
        .unwrap()
}

fn assert_identical_sets(label: &str, a: &[Solution], b: &[Solution]) {
    assert_eq!(a.len(), b.len(), "{label}: solution counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "{label}: solutions diverge at org {:?}", x.org);
    }
}

#[test]
fn staged_solve_equals_the_unpruned_reference() {
    for (label, spec) in [
        ("sram-l2", sram_l2()),
        ("lp-dram-l3", lp_dram_l3()),
        ("comm-dram", comm_dram_smoke()),
    ] {
        let staged = solve_with_stats(&spec, None);
        let reference = solve_with_stats_reference(&spec, None);
        assert_identical_sets(
            label,
            staged.result.as_ref().unwrap(),
            reference.result.as_ref().unwrap(),
        );
        assert_eq!(
            staged.stats.orgs_enumerated, reference.stats.orgs_enumerated,
            "{label}: enumeration counts differ"
        );
        assert_eq!(
            staged.stats.feasible, reference.stats.feasible,
            "{label}: feasible counts differ"
        );
        // The pre-screen is exact: what it prunes by bound is precisely
        // what the reference pipeline prunes electrically, and nothing
        // slips past it into the full models.
        assert_eq!(
            staged.stats.bound_pruned, reference.stats.electrical_pruned,
            "{label}: the pre-screen does not account for the model rejections"
        );
        assert_eq!(staged.stats.electrical_pruned, 0, "{label}");
        assert_eq!(reference.stats.bound_pruned, 0, "{label}");
    }
}

/// The certified screen with *proved* bounds returns exactly what the
/// exact staged screen returns — same solutions, same stats, same
/// rejection accounting. This is the wiring contract for `--certified`:
/// the proof only licenses skipping closed forms, never changing answers.
#[test]
fn certified_solve_equals_the_staged_solve_with_proved_bounds() {
    for (label, spec) in [
        ("sram-l2", sram_l2()),
        ("lp-dram-l3", lp_dram_l3()),
        ("comm-dram", comm_dram_smoke()),
    ] {
        let bounds = cactid_prove::certified_bounds(spec.node, spec.cell_tech);
        let staged = solve_with_stats(&spec, None);
        let certified = solve_with_stats_certified(&spec, None, &bounds);
        assert_identical_sets(
            label,
            staged.result.as_ref().unwrap(),
            certified.result.as_ref().unwrap(),
        );
        assert_eq!(
            staged.stats, certified.stats,
            "{label}: certified stats diverge"
        );
    }
}

/// A 192 KB 3-way SRAM cache: the odd associativity drives the sweep
/// through non-power-of-two stripe widths and the `nspd = 0.25` corner,
/// where rows/cols flip at different enumeration steps than on the
/// power-of-two bench specs.
fn sram_odd_assoc() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(3 << 16)
        .block_bytes(64)
        .associativity(3)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

/// Walks every enumerated organization of each spec in sweep order — the
/// order where exactly one axis changes per step, so every memo slice gets
/// exercised at its invalidation boundary — and asserts the memo-carrying
/// evaluation is bitwise identical to a from-scratch evaluation of the
/// same candidate, on both the feasible and the infeasible side.
#[test]
fn incremental_evaluation_matches_from_scratch_at_every_axis_boundary() {
    for (label, spec) in [
        ("sram-l2", sram_l2()),
        ("sram-192k-3way", sram_odd_assoc()),
        ("lp-dram-l3", lp_dram_l3()),
    ] {
        let tech = Technology::cached(spec.node);
        let cell = tech.cell(spec.cell_tech);
        let periph = tech.peripheral_device(spec.cell_tech);
        let mut memo = array::EvalMemo::new();
        let (mut feasible, mut pruned) = (0u64, 0u64);
        for o in org::enumerate_lazy(&spec) {
            let input = array::ArrayInput {
                rows: o.rows(&spec),
                cols: o.cols(&spec),
                ndwl: o.ndwl,
                ndbl: o.ndbl,
                deg_bl_mux: o.deg_bl_mux,
                deg_sa_mux: o.deg_sa_mux,
                output_bits: spec.output_bits(),
                address_bits: spec.address_bits,
                cell,
                periph,
                repeater_relax: spec.opt.repeater_relax,
                sleep_transistors: spec.opt.sleep_transistors,
                sense_fraction: spec.sense_fraction(),
            };
            let fresh = array::evaluate(tech, &input);
            let incremental = array::evaluate_incremental(tech, &input, &mut memo);
            match (fresh, incremental) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{label}: divergence at org {o:?}");
                    feasible += 1;
                }
                (Err(_), Err(_)) => pruned += 1,
                (a, b) => panic!("{label}: feasibility flipped at org {o:?}: {a:?} vs {b:?}"),
            }
        }
        assert!(feasible > 0, "{label}: nothing evaluated");
        assert!(
            memo.reuse_hits() > 0,
            "{label}: the sweep scored no memo reuse ({feasible} feasible, {pruned} pruned)"
        );
    }
}

#[test]
fn bound_pruning_fires_on_the_comm_dram_smoke_spec() {
    let out = solve_with_stats(&comm_dram_smoke(), None);
    assert!(out.result.is_ok());
    assert!(
        out.stats.bound_pruned > 0,
        "the pre-screen stopped firing on the COMM-DRAM smoke spec: {:?}",
        out.stats
    );
    assert!(out.stats.feasible > 0);
}
