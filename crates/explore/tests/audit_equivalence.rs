//! The audit acceptance contract: whole-grid static classification agrees
//! exactly with the engine and never calls the solver.

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
