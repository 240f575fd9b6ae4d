//! Design-space golden: every record of a 5 670-point explore grid, pinned
//! by digest, plus the grid's per-rule prescreen totals.
//!
//! `golden_metrics` pins seven specs bit for bit. This file pins the whole
//! design space they sit in: every node, cell technology, block size,
//! associativity class, bank count and §3.1 knob variant, as
//!
//! ```text
//! cactid explore --threads 1 --sizes 16K,64K,256K,1M,4M,16M,64M \
//!     --blocks 32,64,128 --assocs 1,4,16 --banks 1,8 \
//!     --nodes 90,78,65,45,32 --cells sram,lp-dram,comm-dram --opts default,ed,c
//! ```
//!
//! Each point stores a 32-bit FNV-1a digest of its full JSONL record, so a
//! change that moves only the `bound_pruned`/`feasible` counts (a
//! prescreen constant, say) fails here even when no winner moves. The
//! header holds the run's `core.solve.pruned.*` counter totals, so a change
//! in *which* rule rejects an organization shows too.
//!
//! A PR that moves a number on purpose re-pins this file and says why:
//! `cargo test --test design_space_golden -- --ignored regen_design_space`

use cacti_d::core::{solve_with_stats, AccessMode, MemoryKind, MemorySpec};
use cacti_d::explore::{explore, ExploreConfig, Grid, OptVariant};
use cacti_d::tech::{CellTechnology, TechNode};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

const GOLDEN_PATH: &str = "tests/goldens/design_space.txt";

/// The solver's per-rule prune counters, in check order.
const PRUNED: [&str; 3] = [
    "core.solve.pruned.subarray_rows",
    "core.solve.pruned.wordline_elmore",
    "core.solve.pruned.sense_margin",
];

/// The prune counters are process-global, so a test that reads their
/// deltas must not overlap a sibling that solves.
static SOLVE_LOCK: Mutex<()> = Mutex::new(());

fn solve_lock() -> MutexGuard<'static, ()> {
    SOLVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pruned_counts() -> [u64; 3] {
    PRUNED.map(|name| cacti_d::obs::counter(name).get())
}

fn grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = [
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
    ]
    .to_vec();
    g.blocks = vec![32, 64, 128];
    g.associativities = vec![1, 4, 16];
    g.banks = vec![1, 8];
    g.nodes = vec![
        TechNode::N90,
        TechNode::N78,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
    ];
    g.cells = vec![
        CellTechnology::Sram,
        CellTechnology::LpDram,
        CellTechnology::CommDram,
    ];
    g.opts = ["default", "ed", "c"]
        .map(|label| OptVariant::named(label).unwrap())
        .to_vec();
    g
}

/// 32-bit FNV-1a.
fn digest(line: &str) -> u32 {
    line.bytes().fold(0x811c_9dc5, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// The grid's records (one JSONL line per point) and the prune totals the
/// run added to the `core.solve.pruned.*` counters.
fn run_grid() -> (Vec<String>, [u64; 3]) {
    let before = pruned_counts();
    let config = ExploreConfig {
        threads: 1,
        ..ExploreConfig::default()
    };
    let report = explore(&grid(), &config).expect("the golden grid expands");
    let after = pruned_counts();
    (report.lines, [0, 1, 2].map(|k| after[k] - before[k]))
}

fn render(lines: &[String], pruned: [u64; 3]) -> String {
    let mut out = format!(
        "# design-space golden: {} points; see tests/design_space_golden.rs\n\
         # core.solve.pruned.* totals, then `idx fnv1a32(record)` per point\n",
        lines.len()
    );
    for (name, count) in PRUNED.iter().zip(pruned) {
        writeln!(out, "{name} = {count}").unwrap();
    }
    for (idx, line) in lines.iter().enumerate() {
        writeln!(out, "{idx} {:08x}", digest(line)).unwrap();
    }
    out
}

#[test]
fn design_space_records_match_the_golden() {
    let _lock = solve_lock();
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored regen_design_space test");
    let (lines, pruned) = run_grid();
    let actual = render(&lines, pruned);
    if expected == actual {
        return;
    }
    // Name the first differing points by their records, which carry the
    // spec (capacity, block, associativity, banks, node, cell, knobs).
    let mut report = String::new();
    let mut points = 0;
    for (exp, act) in expected.lines().zip(actual.lines()) {
        if exp == act {
            continue;
        }
        match act
            .split_once(' ')
            .and_then(|(idx, _)| idx.parse::<usize>().ok())
        {
            Some(idx) => {
                points += 1;
                if points <= 5 {
                    writeln!(report, "  point {idx} now renders\n    {}", lines[idx]).unwrap();
                }
            }
            None => writeln!(report, "  header: {exp:?} -> {act:?}").unwrap(),
        }
    }
    let (n_exp, n_act) = (expected.lines().count(), actual.lines().count());
    if n_exp != n_act {
        writeln!(report, "  line count changed: {n_exp} -> {n_act}").unwrap();
    }
    panic!("{points} design-space records drifted from the golden:\n{report}");
}

#[test]
fn one_solve_prune_counters_sum_to_its_bound_pruned() {
    let _lock = solve_lock();
    // A COMM-DRAM L3 at 90 nm: both the subarray-row cap and the wordline
    // Elmore bound reject organizations.
    let spec = MemorySpec::builder()
        .capacity_bytes(16 << 20)
        .block_bytes(64)
        .associativity(16)
        .banks(1)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N90)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap();
    let before = pruned_counts();
    let out = solve_with_stats(&spec, None);
    let after = pruned_counts();
    let delta = [0, 1, 2].map(|k| after[k] - before[k]);
    assert!(out.result.is_ok());
    assert!(delta[0] > 0 && delta[1] > 0, "{delta:?}");
    assert_eq!(delta.iter().sum::<u64>(), out.stats.bound_pruned as u64);
    let screen = cacti_d::core::static_screen(&spec).reasons;
    assert_eq!(
        delta,
        [
            screen.subarray_rows,
            screen.wordline_elmore,
            screen.sense_margin
        ]
        .map(|n| n as u64)
    );
}

/// Rewrites the golden from the current model. Run only when a model
/// change is intentional, and give the reason in CHANGES.md.
#[test]
#[ignore = "regenerates the design-space golden"]
fn regen_design_space() {
    let _lock = solve_lock();
    let (lines, pruned) = run_grid();
    std::fs::write(GOLDEN_PATH, render(&lines, pruned)).unwrap();
}
