//! The audit acceptance contract: whole-grid static classification agrees
//! exactly with the engine, never calls the solver, and the engine's
//! audit-skip mode changes accounting but not a single output byte.

use cactid_explore::{audit, explore, AuditVerdict, ExploreConfig, Grid, OptVariant};
use cactid_tech::{CellTechnology, TechNode};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `core.solve.calls` is a process-global counter, so a test that reads it
/// must not overlap a sibling that solves. Every test in this binary that
/// solves or counts solves holds this lock for its whole body.
static SOLVE_LOCK: Mutex<()> = Mutex::new(());

fn solve_lock() -> MutexGuard<'static, ()> {
    SOLVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 192-point grid mixing all three verdicts: 48 KB points are invalid
/// (768 sets), the small capacities are feasible, and the large ones are
/// statically infeasible for at least some cell/node combinations.
fn mixed_grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = vec![48 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 20, 1 << 30];
    g.blocks = vec![64, 128];
    g.associativities = vec![4, 8];
    g.banks = vec![1];
    g.nodes = vec![TechNode::N32, TechNode::N90];
    g.cells = vec![CellTechnology::Sram, CellTechnology::CommDram];
    // A second, identically-knobbed variant: every spec appears twice, so
    // the audit's dedup and the engine's memoization both participate.
    g.opts = vec![
        OptVariant::default_variant(),
        OptVariant {
            label: "twin".to_string(),
            ..OptVariant::default_variant()
        },
    ];
    g
}

fn status_of(line: &str) -> &'static str {
    for s in ["ok", "infeasible", "invalid"] {
        if line.contains(&format!("\"status\":\"{s}\"")) {
            return s;
        }
    }
    panic!("record has no status: {line}");
}

#[test]
fn audit_classifies_every_point_without_calling_solve() {
    let _solves = solve_lock();
    let grid = mixed_grid();
    let solves_before = cactid_obs::snapshot()
        .counter("core.solve.calls")
        .unwrap_or(0);
    let report = audit(&grid).unwrap();
    let solves_after = cactid_obs::snapshot()
        .counter("core.solve.calls")
        .unwrap_or(0);
    assert_eq!(solves_after, solves_before, "audit must not call solve");

    assert_eq!(report.points.len(), 192);
    assert_eq!(
        report.invalid + report.infeasible + report.maybe_feasible,
        192,
        "every point classified"
    );
    assert!(report.invalid > 0, "grid should have invalid points");
    assert!(report.infeasible > 0, "grid should have infeasible points");
    assert!(
        report.maybe_feasible > 0,
        "grid should have feasible points"
    );
    // The duplicate opt variant halves the unique-spec count.
    assert_eq!(report.unique_specs * 2, 192 - report.invalid);
    // The histogram saw real organization-level rejections.
    assert!(report.reasons.total() > 0, "{:?}", report.reasons);
    assert!(report.spec_stage_rejected > 0);
    let rendered = report.render();
    assert!(rendered.contains("infeasibility histogram"), "{rendered}");
}

#[test]
fn audit_verdicts_match_a_full_engine_run_exactly() {
    let _solves = solve_lock();
    let grid = mixed_grid();
    let verdicts = audit(&grid).unwrap();
    let run = explore(&grid, &ExploreConfig::default()).unwrap();
    assert_eq!(run.lines.len(), verdicts.points.len());

    for (p, line) in verdicts.points.iter().zip(&run.lines) {
        let status = status_of(line);
        match p.verdict {
            AuditVerdict::Invalid => assert_eq!(status, "invalid", "idx {}", p.idx),
            // Exactness: statically infeasible must mean engine-rejected...
            AuditVerdict::Infeasible => assert_eq!(status, "infeasible", "idx {}", p.idx),
            // ...and on this grid the engine rejects nothing the audit
            // missed, so the infeasible sets are identical.
            AuditVerdict::MaybeFeasible => assert_eq!(status, "ok", "idx {}", p.idx),
        }
    }
}

#[test]
fn audit_skip_is_byte_identical_across_thread_counts() {
    let _solves = solve_lock();
    let grid = mixed_grid();
    let plain = explore(&grid, &ExploreConfig::default()).unwrap();
    assert!(plain.stats.audit_skipped == 0);

    for threads in [1, 2, 8] {
        let config = ExploreConfig {
            threads,
            audit: true,
            ..ExploreConfig::default()
        };
        let audited = explore(&grid, &config).unwrap();
        assert_eq!(
            audited.lines, plain.lines,
            "audit skip must not change output (threads {threads})"
        );
        assert!(audited.stats.balanced(), "{:?}", audited.stats);
        assert!(audited.stats.audit_skipped > 0);
        // Skipped points are exactly the engine-infeasible ones: with the
        // audit on, nothing is left for the solver to reject.
        assert_eq!(audited.stats.audit_skipped, plain.stats.infeasible);
        assert_eq!(audited.stats.infeasible, plain.stats.infeasible);
        assert_eq!(audited.stats.ok, plain.stats.ok);
        assert_eq!(audited.stats.invalid, plain.stats.invalid);
        assert_eq!(
            audited.stats.solved + audited.stats.memoized,
            plain.stats.solved + plain.stats.memoized - plain.stats.infeasible
        );
    }
}

#[test]
fn audit_skip_with_pareto_and_files_matches_plain_run() {
    let _solves = solve_lock();
    let dir = std::env::temp_dir().join(format!("cactid-audit-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = mixed_grid();

    let plain = explore(
        &grid,
        &ExploreConfig {
            pareto: true,
            ..ExploreConfig::default()
        },
    )
    .unwrap();
    let out = dir.join("audited.jsonl");
    let audited = explore(
        &grid,
        &ExploreConfig {
            pareto: true,
            audit: true,
            threads: 2,
            out: Some(&out),
            ..ExploreConfig::default()
        },
    )
    .unwrap();
    assert_eq!(audited.lines, plain.lines);
    let on_disk = std::fs::read_to_string(&out).unwrap();
    let expected: String = plain.lines.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(on_disk, expected, "file output is byte-identical too");

    // A resumed run restores audit-skipped points from the checkpoint.
    let resumed = explore(
        &grid,
        &ExploreConfig {
            pareto: true,
            audit: true,
            resume: true,
            out: Some(&out),
            ..ExploreConfig::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.lines, plain.lines);
    assert_eq!(resumed.stats.solved, 0, "{:?}", resumed.stats);
    assert_eq!(resumed.stats.audit_skipped, 0, "{:?}", resumed.stats);

    std::fs::remove_dir_all(&dir).ok();
}
