//! The memo-pool contract: a `MemoPool` lends one evaluation memo per
//! device context (node and cell) and keeps it for later solves, so
//! designs cross sweeps, knob sets and runs. Every record must still be byte-identical to a
//! fresh `optimize` + `solve_with_stats` of that point alone, and
//! `MemoPool::clear` must start the memos over.
//!
//! This file holds one test so the process-wide `core.memo.*` counters it
//! reads move only for its own runs.

use cactid_core::{optimize, solve_with_stats, OptimizationOptions};
use cactid_explore::cache::CachedSolve;
use cactid_explore::record::render_solved;
use cactid_explore::{explore, ExploreConfig, Grid, MemoPool, OptVariant};
use cactid_tech::{CellTechnology, TechNode};

/// 2 capacities × banks {1, 2, 4} × 2 nodes × 3 cells × 2 variants
/// (`repeater_relax` 1 and 1.5) = 72 points, with knobs taken from `base`.
fn mixed_grid(base: &str) -> Grid {
    let knobs = OptVariant::named(base).unwrap();
    let relaxed = OptVariant {
        label: format!("{base}-relaxed"),
        opt: OptimizationOptions {
            repeater_relax: 1.5,
            ..knobs.opt.clone()
        },
    };
    let mut g = Grid::new();
    g.capacities = vec![64 << 10, 1 << 20];
    g.associativities = vec![8];
    g.banks = vec![1, 2, 4];
    g.nodes = vec![TechNode::N32, TechNode::N65];
    g.cells = CellTechnology::ALL.to_vec();
    g.opts = vec![knobs, relaxed];
    g
}

/// Every record as a fresh, per-point solve renders it.
fn fresh_lines(grid: &Grid) -> Vec<String> {
    grid.expand()
        .unwrap()
        .points
        .iter()
        .map(|point| {
            let spec = point.spec.as_ref().unwrap();
            let fresh = CachedSolve {
                result: optimize(spec),
                stats: solve_with_stats(spec, None).stats,
            };
            render_solved(point, &fresh)
        })
        .collect()
}

fn designs() -> u64 {
    cactid_obs::counter!("core.memo.designs").get()
}

fn design_hits() -> u64 {
    cactid_obs::counter!("core.memo.design_hits").get()
}

#[test]
fn a_pooled_cache_renders_fresh_bytes_and_clear_starts_its_memos_over() {
    let pool = MemoPool::new();
    let run = |grid: &Grid, threads: usize| {
        let config = ExploreConfig {
            threads,
            memos: Some(&pool),
            ..ExploreConfig::default()
        };
        let (designs_before, hits_before) = (designs(), design_hits());
        let report = explore(grid, &config).unwrap();
        assert!(report.stats.balanced(), "{:?}", report.stats);
        (
            report.lines,
            designs() - designs_before,
            design_hits() - hits_before,
        )
    };
    let grid = mixed_grid("default");
    let other_knobs = mixed_grid("ed");
    let expected = fresh_lines(&grid);
    let expected_other = fresh_lines(&other_knobs);

    // Cold: one memo at one thread designs every circuit once.
    let (lines, cold_designs, cold_hits) = run(&grid, 1);
    assert_eq!(lines, expected);
    assert!(cold_designs > 0 && cold_hits > 0);

    // Other knobs solve every spec again, now through the warm pooled
    // memo: it finds every design it needs.
    let (lines, designs, hits) = run(&other_knobs, 1);
    assert_eq!(lines, expected_other);
    assert_eq!(designs, 0, "the pooled memo lost designs between runs");
    assert!(hits > 0);

    // After `clear` the same cold run designs everything again.
    pool.clear();
    let (lines, designs, _) = run(&grid, 1);
    assert_eq!(lines, expected);
    assert_eq!(designs, cold_designs, "clear kept a pooled memo");

    // Two workers borrow their jobs' memos, a fresh one when both want
    // one context at once; the bytes do not change.
    pool.clear();
    let (lines, designs, _) = run(&other_knobs, 2);
    assert_eq!(lines, expected_other);
    assert!(designs > 0);
    let (lines, _, _) = run(&grid, 2);
    assert_eq!(lines, expected);
}
