//! Prover findings as `CD02xx` diagnostics, in the same record types the
//! lint pipeline renders (`cactid_core::lint`), so `cactid prove --format
//! json` emits the exact one-object-per-line schema `cactid lint` and
//! `cactid audit` already publish.
//!
//! The prover does **not** depend on `cactid-analyze`: both sit directly
//! on `cactid-core`, and only the root facade (with its `cactid` binary)
//! pulls both in. The metric windows it analyzes are therefore supplied
//! by the caller as [`MetricWindow`] values; the CLI passes the
//! analyzer's shipped `CD0021`/`CD0022` window constants.

use crate::cert::SpecProof;
use crate::iv::Iv;
use cactid_core::{Diagnostic, Location, PrescreenFailure, Report};
use cactid_units::Quantity;

/// `CD0201` (error): a soundness cross-check contradicted a definite
/// abstract verdict — the certificate is void and the certified bounds
/// degraded to the conservative no-op element.
pub const SOUNDNESS_CODE: &str = "CD0201";
/// `CD0202` (warning): a metric window is vacuous (empty interval) or
/// clips the whole reachable range (the rule rejects every candidate).
pub const WINDOW_CODE: &str = "CD0202";
/// `CD0203` (info): a window edge is dead — the certified enclosure
/// proves no reachable value can ever cross it, so the check never fires.
pub const DEAD_EDGE_CODE: &str = "CD0203";
/// `CD0204` (info): certified prescreen bounds were established; the
/// message carries the wordline and sense-margin cutoffs.
pub const BOUNDS_CODE: &str = "CD0204";

/// Which published metric a window constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMetric {
    /// `solution.access_time`, bounded below by the bitline delay.
    AccessTime,
    /// `solution.read_energy`, bounded below by the bitline energy.
    ReadEnergy,
}

impl WindowMetric {
    /// The diagnostic location field for this metric's window.
    #[must_use]
    pub fn field(self) -> &'static str {
        match self {
            WindowMetric::AccessTime => "access_time_window",
            WindowMetric::ReadEnergy => "read_energy_window",
        }
    }

    fn unit(self) -> &'static str {
        match self {
            WindowMetric::AccessTime => "s",
            WindowMetric::ReadEnergy => "J",
        }
    }
}

/// A plausibility window `[min, max]` (SI units) guarded by a lint rule:
/// the rule flags solutions whose metric falls outside it. The prover
/// analyzes where the window's edges sit relative to the certified
/// reachable enclosure.
#[derive(Debug, Clone, Copy)]
pub struct MetricWindow {
    /// The lint rule that owns the window (e.g. `CD0021`).
    pub rule_code: &'static str,
    /// The metric the window constrains.
    pub metric: WindowMetric,
    /// Lower edge, SI units.
    pub min_si: f64,
    /// Upper edge, SI units.
    pub max_si: f64,
}

fn rule_name(rule: PrescreenFailure) -> &'static str {
    match rule {
        PrescreenFailure::SubarrayRows => "subarray-rows",
        PrescreenFailure::WordlineElmore => "wordline-elmore",
        PrescreenFailure::SenseMargin => "sense-margin",
    }
}

/// Converts a spec proof (plus the caller's metric windows) into `CD02xx`
/// diagnostics.
#[must_use]
pub fn diagnostics(proof: &SpecProof, windows: &[MetricWindow]) -> Report {
    let mut report = Report::new();

    for cert in &proof.proof.certificates {
        if !cert.sound {
            let detail = cert
                .counterexample
                .as_deref()
                .unwrap_or("no counterexample recorded");
            report.push(Diagnostic::error(
                SOUNDNESS_CODE,
                Location::cell("prescreen"),
                format!(
                    "{} certificate is unsound: {detail}; certified bounds degraded to the \
                     conservative element",
                    rule_name(cert.rule)
                ),
            ));
        }
    }

    if proof.proof.sound {
        let b = &proof.proof.bounds;
        let checks: u64 = proof
            .proof
            .certificates
            .iter()
            .map(|c| c.cross_checks)
            .sum::<u64>()
            + proof.proof.combined_cross_checks;
        let reject = if b.wordline_reject_above == u64::MAX {
            "none".to_string()
        } else {
            format!(">{} cols", b.wordline_reject_above)
        };
        let sense = if proof.proof.cell_tech.is_dram() {
            format!(
                ", sense pass <={} rows, reject {}",
                b.sense_pass_upto,
                if b.sense_reject_from == u64::MAX {
                    "none".to_string()
                } else {
                    format!(">={} rows", b.sense_reject_from)
                }
            )
        } else {
            String::new()
        };
        report.push(Diagnostic::info(
            BOUNDS_CODE,
            Location::cell("prescreen"),
            format!(
                "certified prescreen bounds over {} node(s), {checks} cross-checks: wordline \
                 pass <={} cols, reject {reject}{sense}",
                proof.proof.nodes.len(),
                b.wordline_pass_upto,
            ),
        ));
    }

    for w in windows {
        push_window_diags(&mut report, proof, w);
    }
    report
}

fn push_window_diags(report: &mut Report, proof: &SpecProof, w: &MetricWindow) {
    let loc = Location::run(w.metric.field());
    if w.min_si > w.max_si {
        report.push(Diagnostic::warn(
            WINDOW_CODE,
            loc,
            format!(
                "{} window of {} is vacuous: min {:.3e} {u} > max {:.3e} {u}",
                w.metric.field(),
                w.rule_code,
                w.min_si,
                w.max_si,
                u = w.metric.unit()
            ),
        ));
        return;
    }
    // The certified enclosure bounds a *component* of the metric from
    // below (the remaining terms are non-negative), so only claims that
    // follow from a lower bound are emitted: a window the whole reachable
    // range overshoots (clipping), or a low edge no reachable value can
    // dip under (dead edge). Upper-edge deadness would need a certified
    // upper bound on the full metric, which a component cannot give.
    let lo_si = match w.metric {
        WindowMetric::AccessTime => proof.windows.t_bitline.map(enclosure_lo),
        WindowMetric::ReadEnergy => proof.windows.e_bitline.map(enclosure_lo),
    };
    let Some(lo_si) = lo_si else {
        return; // No surviving organizations — nothing reachable to analyze.
    };
    if lo_si > w.max_si {
        report.push(Diagnostic::warn(
            WINDOW_CODE,
            loc,
            format!(
                "{} window of {} clips the reachable range: certified floor {:.3e} {u} exceeds \
                 the window max {:.3e} {u}, so the rule flags every candidate",
                w.metric.field(),
                w.rule_code,
                lo_si,
                w.max_si,
                u = w.metric.unit()
            ),
        ));
    } else if lo_si >= w.min_si {
        report.push(Diagnostic::info(
            DEAD_EDGE_CODE,
            loc,
            format!(
                "low edge of {} ({}) is dead for this spec: certified floor {:.3e} {u} >= window \
                 min {:.3e} {u}, so the below-window check can never fire",
                w.metric.field(),
                w.rule_code,
                lo_si,
                w.min_si,
                u = w.metric.unit()
            ),
        ));
    }
}

fn enclosure_lo<Q: Quantity>(iv: Iv<Q>) -> f64 {
    iv.lo().si()
}

/// Human-readable certificate summary for the CLI's text mode: one line
/// per rule, then the bounds and window enclosures.
#[must_use]
pub fn text_summary(proof: &SpecProof) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let p = &proof.proof;
    let _ = writeln!(
        out,
        "prove: {:?} over {} node(s), cols 1..={}, rows cap {}",
        p.cell_tech,
        p.nodes.len(),
        p.cols_cap,
        p.rows_cap
    );
    for c in &p.certificates {
        let _ = writeln!(
            out,
            "  {:<16} {:>6} points: {} pass / {} reject / {} undecided, {} cross-checks -> {}",
            rule_name(c.rule),
            c.points,
            c.definite_pass,
            c.definite_reject,
            c.undecided,
            c.cross_checks,
            if c.sound { "sound" } else { "UNSOUND" }
        );
    }
    let _ = writeln!(
        out,
        "  combined first-failure agreement: {} point checks",
        p.combined_cross_checks
    );
    if p.sound {
        let b = &p.bounds;
        let _ = writeln!(
            out,
            "  certified bounds: wordline pass <={} / reject >{}, sense pass <={} / reject >={}",
            b.wordline_pass_upto,
            if b.wordline_reject_above == u64::MAX {
                "inf".to_string()
            } else {
                b.wordline_reject_above.to_string()
            },
            b.sense_pass_upto,
            if b.sense_reject_from == u64::MAX {
                "inf".to_string()
            } else {
                b.sense_reject_from.to_string()
            }
        );
    }
    let w = &proof.windows;
    let _ = writeln!(
        out,
        "  enumeration: {} orgs, {} not definitely rejected",
        w.orgs, w.surviving
    );
    if let Some(t) = w.t_bitline {
        let _ = writeln!(out, "  t_bitline enclosure: {t}");
    }
    if let Some(e) = w.e_bitline {
        let _ = writeln!(out, "  e_bitline enclosure: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::certify_spec;
    use cactid_core::{AccessMode, MemoryKind, MemorySpec, Severity};
    use cactid_tech::{CellTechnology, TechNode};

    fn l2_spec() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 21)
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

    fn shipped_windows() -> [MetricWindow; 2] {
        [
            MetricWindow {
                rule_code: "CD0021",
                metric: WindowMetric::AccessTime,
                min_si: 1.0e-12,
                max_si: 1.0e-3,
            },
            MetricWindow {
                rule_code: "CD0022",
                metric: WindowMetric::ReadEnergy,
                min_si: 1.0e-15,
                max_si: 1.0e-6,
            },
        ]
    }

    #[test]
    fn sound_proof_emits_bounds_info_and_no_errors() {
        let proof = certify_spec(&l2_spec());
        let report = diagnostics(&proof, &shipped_windows());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.iter().any(|d| d.code == BOUNDS_CODE));
        assert!(!report.iter().any(|d| d.code == SOUNDNESS_CODE));
    }

    #[test]
    fn wide_shipped_windows_have_dead_low_edges() {
        // The shipped plausibility windows start at 1 ps / 1 fJ — far
        // below anything a real organization can produce, which is
        // exactly what the dead-edge analysis should certify.
        let proof = certify_spec(&l2_spec());
        let report = diagnostics(&proof, &shipped_windows());
        let dead: Vec<_> = report.iter().filter(|d| d.code == DEAD_EDGE_CODE).collect();
        assert_eq!(dead.len(), 2, "{report:?}");
        assert!(dead.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn vacuous_and_clipping_windows_warn() {
        let proof = certify_spec(&l2_spec());
        let vacuous = MetricWindow {
            rule_code: "CDTEST",
            metric: WindowMetric::AccessTime,
            min_si: 1.0,
            max_si: 0.5,
        };
        let clipping = MetricWindow {
            rule_code: "CDTEST",
            metric: WindowMetric::ReadEnergy,
            min_si: 0.0,
            max_si: 1.0e-30,
        };
        let report = diagnostics(&proof, &[vacuous, clipping]);
        let warns: Vec<_> = report.iter().filter(|d| d.code == WINDOW_CODE).collect();
        assert_eq!(warns.len(), 2, "{report:?}");
        assert!(warns[0].message.contains("vacuous"));
        assert!(warns[1].message.contains("clips"));
    }

    #[test]
    fn text_summary_names_every_rule() {
        let s = text_summary(&certify_spec(&l2_spec()));
        for name in ["subarray-rows", "wordline-elmore", "sense-margin"] {
            assert!(s.contains(name), "{s}");
        }
        assert!(s.contains("certified bounds"));
    }
}
