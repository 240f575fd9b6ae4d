//! JSONL record rendering for grid points.
//!
//! One record per grid point, one JSON object per line. Records carry only
//! deterministic data — axis values, spec-derived fields, solution metrics
//! — and never timing or host information, so the final JSONL is
//! byte-identical across runs and thread counts.

use crate::cache::CachedSolve;
use crate::grid::GridPoint;
use crate::pareto::ParetoMetrics;
use cactid_core::{AccessMode, CactiError, Solution};
use cactid_obs::json::JsonObject;
use cactid_tech::CellTechnology;
use std::fmt::Write;

/// How one grid point ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Solved with a §2.4 winner.
    Ok,
    /// Valid spec, but the solver found no winner.
    Infeasible,
    /// The axis combination failed spec validation.
    Invalid,
}

impl PointStatus {
    /// The `status` field value in the JSONL record.
    pub fn label(self) -> &'static str {
        match self {
            PointStatus::Ok => "ok",
            PointStatus::Infeasible => "infeasible",
            PointStatus::Invalid => "invalid",
        }
    }
}

/// Stable lowercase cell label for records and the CLI.
pub fn cell_label(cell: CellTechnology) -> &'static str {
    match cell {
        CellTechnology::Sram => "sram",
        CellTechnology::LpDram => "lp-dram",
        CellTechnology::CommDram => "comm-dram",
    }
}

/// Stable lowercase access-mode label for records and the CLI.
pub fn mode_label(mode: AccessMode) -> &'static str {
    match mode {
        AccessMode::Normal => "normal",
        AccessMode::Sequential => "sequential",
        AccessMode::Fast => "fast",
    }
}

/// The inverse of [`cell_label`], shared by the CLI and the serve
/// protocol; also accepts the hyphen-less `lpdram` and `commdram`.
pub fn parse_cell(v: &str) -> Option<CellTechnology> {
    match v {
        "sram" => Some(CellTechnology::Sram),
        "lp-dram" | "lpdram" => Some(CellTechnology::LpDram),
        "comm-dram" | "commdram" => Some(CellTechnology::CommDram),
        _ => None,
    }
}

/// The inverse of [`mode_label`], shared by the CLI and the serve protocol.
pub fn parse_mode(v: &str) -> Option<AccessMode> {
    match v {
        "normal" => Some(AccessMode::Normal),
        "sequential" => Some(AccessMode::Sequential),
        "fast" => Some(AccessMode::Fast),
        _ => None,
    }
}

/// The four Pareto objectives of a winning solution, in SI units.
pub fn solution_metrics(sol: &Solution) -> ParetoMetrics {
    ParetoMetrics {
        access_s: sol.access_time.value(),
        read_j: sol.read_energy.value(),
        area_m2: sol.area.value(),
        leakage_w: (sol.leakage_power + sol.refresh_power).value(),
    }
}

/// The buffer a record is rendered into: an `ok` record with its Pareto
/// annotation runs to about 600 bytes, so one allocation holds it.
const RECORD_BYTES: usize = 640;

fn base_object(point: &GridPoint) -> JsonObject {
    let mut o = JsonObject::with_capacity(RECORD_BYTES);
    o.u64("idx", point.idx as u64)
        .u64("capacity_bytes", point.capacity_bytes)
        .u64("block_bytes", u64::from(point.block_bytes))
        .u64("associativity", u64::from(point.associativity))
        .u64("banks", u64::from(point.banks))
        .f64("node_nm", point.node.feature_nm())
        .str("cell", cell_label(point.cell))
        .str("mode", mode_label(point.access_mode))
        .str("opt", &point.opt_label);
    o
}

/// Renders the record for a point whose spec failed validation.
pub fn render_invalid(point: &GridPoint, err: &CactiError) -> String {
    let mut o = base_object(point);
    o.str("status", PointStatus::Invalid.label())
        .str("error", &err.to_string());
    o.finish()
}

/// Renders the record for a solved point (winner or failure).
pub fn render_solved(point: &GridPoint, solve: &CachedSolve) -> String {
    let mut o = base_object(point);
    match &solve.result {
        Ok(sol) => {
            o.str("status", PointStatus::Ok.label())
                .f64("access_ns", sol.access_ns())
                .f64("random_cycle_ns", sol.random_cycle.value() * 1e9)
                .f64("read_nj", sol.read_energy_nj())
                .f64("write_nj", sol.write_energy.value() * 1e9)
                .f64("area_mm2", sol.area_mm2())
                .f64("area_efficiency", sol.area_efficiency)
                .f64("leakage_mw", sol.leakage_power.value() * 1e3)
                .f64("refresh_mw", sol.refresh_power.value() * 1e3);
            o.object("org", |org| {
                org.u64("ndwl", u64::from(sol.org.ndwl))
                    .u64("ndbl", u64::from(sol.org.ndbl))
                    .f64("nspd", sol.org.nspd)
                    .u64("deg_bl_mux", u64::from(sol.org.deg_bl_mux))
                    .u64("deg_sa_mux", u64::from(sol.org.deg_sa_mux));
            });
        }
        Err(e) => {
            o.str("status", PointStatus::Infeasible.label())
                .str("error", &e.to_string());
        }
    }
    o.u64("orgs_enumerated", solve.stats.orgs_enumerated as u64)
        .u64("bound_pruned", solve.stats.bound_pruned as u64)
        .u64("feasible", solve.stats.feasible as u64);
    o.finish()
}

/// The `status` of a rendered solved point, without re-parsing the line.
pub fn solved_status(solve: &CachedSolve) -> PointStatus {
    if solve.result.is_ok() {
        PointStatus::Ok
    } else {
        PointStatus::Infeasible
    }
}

/// Appends the Pareto annotation to an `ok` record line.
///
/// `dominates` is `Some(n)` for frontier members, `None` for dominated
/// points. [`strip_pareto`] is the exact inverse; resume relies on that.
pub fn annotate_pareto(line: &mut String, dominates: Option<usize>) {
    debug_assert!(line.ends_with('}'));
    line.pop();
    match dominates {
        Some(n) => {
            let _ = write!(
                line,
                ",\"pareto\":{{\"frontier\":true,\"dominates\":{n}}}}}"
            );
        }
        None => line.push_str(",\"pareto\":{\"frontier\":false}}"),
    }
}

/// Removes a Pareto annotation added by [`annotate_pareto`], if present.
pub fn strip_pareto(line: &mut String) {
    if let Some(pos) = line.find(",\"pareto\":") {
        line.truncate(pos);
        line.push('}');
    }
}

/// Parses the `idx` of a rendered record line (records always lead with
/// the `idx` field).
pub fn line_idx(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"idx\":")?;
    let end = rest.find(',')?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use cactid_core::{SolveStats, SpecViolation};

    fn point() -> GridPoint {
        let mut g = Grid::new();
        g.capacities = vec![64 << 10];
        g.expand().unwrap().points.remove(0)
    }

    fn solved() -> CachedSolve {
        let p = point();
        CachedSolve {
            result: cactid_core::optimize(p.spec.as_ref().unwrap()),
            stats: SolveStats {
                orgs_enumerated: 42,
                bound_pruned: 11,
                electrical_pruned: 0,
                feasible: 7,
            },
        }
    }

    #[test]
    fn labels_parse_back_to_their_variant() {
        for cell in [
            CellTechnology::Sram,
            CellTechnology::LpDram,
            CellTechnology::CommDram,
        ] {
            assert_eq!(parse_cell(cell_label(cell)), Some(cell));
        }
        for mode in [AccessMode::Normal, AccessMode::Sequential, AccessMode::Fast] {
            assert_eq!(parse_mode(mode_label(mode)), Some(mode));
        }
        assert_eq!(parse_cell("lpdram"), Some(CellTechnology::LpDram));
        assert_eq!(parse_cell("commdram"), Some(CellTechnology::CommDram));
        assert_eq!(parse_cell("dram"), None);
        assert_eq!(parse_mode("Fast"), None);
    }

    #[test]
    fn ok_record_has_axes_metrics_and_org() {
        let line = render_solved(&point(), &solved());
        assert!(line.starts_with("{\"idx\":0,"));
        assert!(line.contains("\"capacity_bytes\":65536"));
        assert!(line.contains("\"cell\":\"sram\""));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"access_ns\":"));
        assert!(line.contains("\"org\":{\"ndwl\":"));
        assert!(line.contains("\"orgs_enumerated\":42"));
        assert!(line.contains("\"bound_pruned\":11"));
        assert!(!line.contains("\"error\""));
    }

    #[test]
    fn infeasible_record_carries_the_error() {
        let s = CachedSolve {
            result: Err(CactiError::NoFeasibleSolution),
            stats: SolveStats::default(),
        };
        let line = render_solved(&point(), &s);
        assert!(line.contains("\"status\":\"infeasible\""));
        assert!(line.contains("\"error\":\"no feasible array organization"));
        assert_eq!(solved_status(&s), PointStatus::Infeasible);
    }

    #[test]
    fn invalid_record_comes_from_the_build_error() {
        let line = render_invalid(
            &point(),
            &CactiError::InvalidSpec(SpecViolation::BankCount(3)),
        );
        assert!(line.contains("\"status\":\"invalid\""));
        assert!(line.contains("bank count 3 is not a nonzero power of two"));
    }

    #[test]
    fn pareto_annotation_round_trips() {
        let base = render_solved(&point(), &solved());
        for dominates in [Some(12), None] {
            let mut line = base.clone();
            annotate_pareto(&mut line, dominates);
            assert!(line.contains("\"pareto\":{\"frontier\""));
            strip_pareto(&mut line);
            assert_eq!(line, base);
        }
    }

    #[test]
    fn line_idx_parses_the_leading_field() {
        let line = render_solved(&point(), &solved());
        assert_eq!(line_idx(&line), Some(0));
        assert_eq!(line_idx("not json"), None);
    }
}
