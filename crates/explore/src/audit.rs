//! Whole-grid static feasibility analysis: classify every point of a grid
//! *before* any solve.
//!
//! The audit expands the grid, groups points by spec fingerprint exactly
//! like the engine does, and runs [`cactid_core::static_screen`] once per
//! unique spec. The screen replays the engine's own exact closed-form
//! rejection paths — the spec-stage design tag plus the per-organization
//! prescreen (subarray height, wordline Elmore bound, DRAM sense margin) —
//! so an [`AuditVerdict::Infeasible`] verdict is a *proof* that the solve
//! would fail, while [`AuditVerdict::MaybeFeasible`] is one-sided: the
//! solve can still fail for reasons only full evaluation sees (e.g. a
//! non-finite objective at selection).

use crate::error::ExploreError;
use crate::grid::Grid;
use cactid_core::{static_screen, ScreenHistogram, ScreenVerdict};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The static classification of one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The axis combination fails spec validation (the engine would emit
    /// an `invalid` record).
    Invalid,
    /// Statically proven infeasible: the engine would emit an
    /// `infeasible` record without finding any candidate.
    Infeasible,
    /// Survived every static check; the solve may still fail.
    MaybeFeasible,
}

impl AuditVerdict {
    /// Stable lowercase label for records and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditVerdict::Invalid => "invalid",
            AuditVerdict::Infeasible => "infeasible",
            AuditVerdict::MaybeFeasible => "maybe-feasible",
        }
    }
}

/// One audited grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointAudit {
    /// Grid-point index.
    pub idx: usize,
    /// The static classification.
    pub verdict: AuditVerdict,
    /// The error message proving the verdict, for `Invalid` and
    /// `Infeasible` points.
    pub detail: Option<String>,
}

/// What a whole-grid audit found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// One verdict per grid point, in index order.
    pub points: Vec<PointAudit>,
    /// Distinct spec fingerprints among the valid points (equals the
    /// number of `static_screen` calls made).
    pub unique_specs: usize,
    /// Points whose axis combination fails spec validation.
    pub invalid: usize,
    /// Points statically proven infeasible.
    pub infeasible: usize,
    /// Points that survived the screen.
    pub maybe_feasible: usize,
    /// Unique specs rejected before any organization was enumerated
    /// (cache design-tag failure at the spec stage).
    pub spec_stage_rejected: usize,
    /// Organization-level prescreen failures summed over every screened
    /// unique spec, by rule. A spec is statically infeasible exactly when
    /// *all* its organizations land here (or it was rejected at the spec
    /// stage).
    pub reasons: ScreenHistogram,
    /// Organizations enumerated across all screens.
    pub orgs_screened: usize,
}

impl AuditReport {
    /// Renders the human summary the CLI prints, ending with the
    /// per-rule infeasibility histogram.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cactid-audit: {} points ({} unique specs), {} organizations screened\n  \
             verdicts: {} maybe-feasible, {} statically infeasible, {} invalid\n  \
             infeasibility histogram (organizations rejected per rule):\n",
            self.points.len(),
            self.unique_specs,
            self.orgs_screened,
            self.maybe_feasible,
            self.infeasible,
            self.invalid,
        );
        for (label, count) in self.reasons.entries() {
            let _ = writeln!(out, "    {label:<16} {count}");
        }
        let _ = write!(
            out,
            "    {:<16} {} specs",
            "spec-stage", self.spec_stage_rejected
        );
        out
    }
}

/// Statically classifies every point of `grid` without calling the
/// solver. See the module docs for the verdict semantics.
///
/// # Errors
///
/// The same expansion errors as [`crate::explore`]
/// ([`ExploreError::EmptyAxis`], [`ExploreError::TooManyPoints`]);
/// per-point failures become verdicts, never errors.
pub fn audit(grid: &Grid) -> Result<AuditReport, ExploreError> {
    let _span = cactid_obs::span("explore.audit");
    let expansion = grid.expand()?;
    let points = &expansion.points;
    let mut report = AuditReport::default();
    let mut verdicts: Vec<Option<PointAudit>> = vec![None; points.len()];

    // Group valid points by spec fingerprint (collisions resolved by spec
    // equality), mirroring the engine's job grouping.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for point in points {
        match (&point.spec, point.fingerprint()) {
            (Ok(spec), Some(fp)) => {
                let bucket = group_of.entry(fp).or_default();
                let existing = bucket
                    .iter()
                    .copied()
                    .find(|&g| points[groups[g][0]].spec.as_ref().ok() == Some(spec));
                match existing {
                    Some(g) => groups[g].push(point.idx),
                    None => {
                        bucket.push(groups.len());
                        groups.push(vec![point.idx]);
                    }
                }
            }
            _ => {
                let err = point.spec.as_ref().expect_err("no fingerprint means Err");
                report.invalid += 1;
                verdicts[point.idx] = Some(PointAudit {
                    idx: point.idx,
                    verdict: AuditVerdict::Invalid,
                    detail: Some(err.to_string()),
                });
            }
        }
    }
    report.unique_specs = groups.len();

    for group in groups {
        let Ok(spec) = points[group[0]].spec.as_ref() else {
            unreachable!("grouped specs are valid")
        };
        let screen = static_screen(spec);
        report.orgs_screened += screen.stats.orgs_enumerated;
        report.reasons.merge(&screen.reasons);
        let (verdict, detail) = match screen.verdict {
            ScreenVerdict::Infeasible(err) => {
                report.infeasible += group.len();
                if screen.stats.orgs_enumerated == 0 {
                    report.spec_stage_rejected += 1;
                }
                (AuditVerdict::Infeasible, Some(err.to_string()))
            }
            ScreenVerdict::MaybeFeasible { .. } => {
                report.maybe_feasible += group.len();
                (AuditVerdict::MaybeFeasible, None)
            }
        };
        for idx in group {
            verdicts[idx] = Some(PointAudit {
                idx,
                verdict,
                detail: detail.clone(),
            });
        }
    }

    report.points = verdicts
        .into_iter()
        .map(|v| v.unwrap_or_else(|| unreachable!("every point is classified")))
        .collect();
    cactid_obs::counter!("explore.audit.points").add(report.points.len() as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_grid_is_all_maybe_feasible() {
        let mut g = Grid::new();
        g.capacities = vec![64 << 10, 128 << 10];
        g.associativities = vec![4, 8];
        let report = audit(&g).unwrap();
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.maybe_feasible, 4);
        assert_eq!(report.invalid, 0);
        assert_eq!(report.infeasible, 0);
        assert_eq!(report.unique_specs, 4);
        assert!(report.orgs_screened > 0);
        assert!(report
            .points
            .iter()
            .all(|p| p.verdict == AuditVerdict::MaybeFeasible && p.detail.is_none()));
    }

    #[test]
    fn invalid_combinations_are_classified_without_screening() {
        let mut g = Grid::new();
        g.capacities = vec![48 << 10]; // 48 KB: 768 sets, not a power of two
        let report = audit(&g).unwrap();
        assert_eq!(report.invalid, 1);
        assert_eq!(report.unique_specs, 0);
        assert_eq!(report.points[0].verdict, AuditVerdict::Invalid);
        assert!(report.points[0].detail.is_some());
    }

    #[test]
    fn render_carries_the_histogram_marker() {
        let g = {
            let mut g = Grid::new();
            g.capacities = vec![64 << 10];
            g
        };
        let text = audit(&g).unwrap().render();
        assert!(text.contains("infeasibility histogram"), "{text}");
        assert!(text.contains("subarray-rows"), "{text}");
        assert!(text.contains("spec-stage"), "{text}");
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(AuditVerdict::Invalid.as_str(), "invalid");
        assert_eq!(AuditVerdict::Infeasible.as_str(), "infeasible");
        assert_eq!(AuditVerdict::MaybeFeasible.as_str(), "maybe-feasible");
    }
}
