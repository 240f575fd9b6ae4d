//! The sweep-sharing contract: the engine runs one data-array sweep per
//! bank geometry, one organization sweep per sweep key and one select per
//! knob set, and every record it renders is byte-identical to a fresh,
//! unshared `solve_with_stats` + `select` of that point alone, at any
//! thread count.

use cactid_core::{select, solve_with_stats, MemorySpec};
use cactid_explore::cache::CachedSolve;
use cactid_explore::record::{render_invalid, render_solved};
use cactid_explore::{explore, ExploreConfig, Grid, OptVariant};
use cactid_tech::{CellTechnology, TechNode};
use std::collections::HashSet;

/// 4 sizes (48 KB is invalid) × 2 associativities × 2 cells × the three
/// named knob variants = 48 points, 36 valid specs, 12 sweep keys.
fn three_variant_grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = vec![32 << 10, 48 << 10, 256 << 10, 2 << 20];
    g.associativities = vec![4, 16];
    g.cells = vec![CellTechnology::Sram, CellTechnology::LpDram];
    g.nodes = vec![TechNode::N32];
    g.opts = ["default", "ed", "c"]
        .iter()
        .map(|l| OptVariant::named(l).unwrap())
        .collect();
    g
}

/// Every record as a fresh, per-point solve would render it.
fn reference_lines(grid: &Grid) -> Vec<String> {
    grid.expand()
        .unwrap()
        .points
        .iter()
        .map(|point| match &point.spec {
            Err(e) => render_invalid(point, e),
            Ok(spec) => {
                let outcome = solve_with_stats(spec, None);
                let fresh = CachedSolve {
                    result: outcome.result.and_then(|sols| select(spec, &sols)),
                    stats: outcome.stats,
                };
                render_solved(point, &fresh)
            }
        })
        .collect()
}

#[test]
fn shared_sweeps_render_what_per_point_solves_render() {
    let grid = three_variant_grid();
    let expected = reference_lines(&grid);
    assert_eq!(expected.len(), 48);
    for threads in [1, 2, 8] {
        let report = explore(
            &grid,
            &ExploreConfig {
                threads,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        for (i, (got, want)) in report.lines.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "point {i} at {threads} threads");
        }
        assert_eq!(report.lines.len(), expected.len());
        let s = report.stats;
        assert!(s.balanced(), "{s:?}");
        assert_eq!(s.invalid, 12);
        assert_eq!(s.unique_specs, 36);
        assert_eq!(s.solved, s.unique_specs, "{s:?}");
        assert_eq!(s.memoized, 0);
        assert_eq!(s.sweeps, s.unique_specs / 3, "{s:?}");
    }
}

#[test]
fn sweep_counters_are_per_sweep() {
    let grid = three_variant_grid();
    let three = explore(&grid, &ExploreConfig::default()).unwrap();
    assert_eq!(three.stats.sweeps, 12);
    // Counters sum once per sweep, not once per spec: a one-variant grid
    // over the same geometry enumerates exactly as many organizations.
    let mut one = grid.clone();
    one.opts.truncate(1);
    let single = explore(&one, &ExploreConfig::default()).unwrap();
    assert_eq!(single.stats.sweeps, 12);
    assert_eq!(three.stats.orgs_enumerated, single.stats.orgs_enumerated);
    assert_eq!(three.stats.bound_pruned, single.stats.bound_pruned);
}

/// 64K/128K/256K × banks 1, 2, 4 × 2 cells × 2 knob variants = 36 points
/// over 18 sweep keys, whose banks come in five sizes per cell: 16K, 32K,
/// 64K, 128K and 256K.
fn banked_grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = vec![64 << 10, 128 << 10, 256 << 10];
    g.associativities = vec![8];
    g.banks = vec![1, 2, 4];
    g.cells = vec![CellTechnology::Sram, CellTechnology::LpDram];
    g.nodes = vec![TechNode::N32];
    g.opts = ["default", "ed"]
        .iter()
        .map(|l| OptVariant::named(l).unwrap())
        .collect();
    g
}

#[test]
fn banks_of_one_size_share_one_data_array_sweep() {
    let grid = banked_grid();
    let expected = reference_lines(&grid);
    let specs: Vec<MemorySpec> = grid
        .expand()
        .unwrap()
        .points
        .into_iter()
        .filter_map(|p| p.spec.ok())
        .collect();
    let array_keys: HashSet<String> = specs
        .iter()
        .map(|s| format!("{:?}", s.array_key()))
        .collect();
    assert_eq!(specs.len(), 36);
    assert_eq!(array_keys.len(), 10);
    for threads in [1, 2] {
        let report = explore(
            &grid,
            &ExploreConfig {
                threads,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.lines, expected, "at {threads} threads");
        let s = report.stats;
        assert!(s.balanced(), "{s:?}");
        assert_eq!(s.sweeps, 18, "{s:?}");
        assert_eq!(s.array_sweeps, array_keys.len(), "{s:?}");
    }
}
