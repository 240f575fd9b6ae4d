//! Run-stage rules `CD0101`–`CD0105`: cross-record analysis of a completed
//! `cactid-explore` JSONL run.
//!
//! Where the object stages check one spec/organization/solution at a time,
//! these rules look *across* records: physical trends that must hold over a
//! capacity sweep, the consistency of the engine's Pareto annotations, the
//! `CD0021`/`CD0022` plausibility windows applied over the whole record
//! set, and the structural integrity of the record set itself.

use crate::lint::{Diagnostic, Location, Report};
use crate::rules::approx_ge;
use crate::run::{RunContext, RunRecord};
use std::collections::BTreeMap;

/// A record's identity in messages: the grid index when present, else the
/// line number.
fn ident(r: &RunRecord) -> String {
    match r.idx {
        Some(idx) => format!("record idx {idx}"),
        None => format!("record at line {}", r.line_no),
    }
}

/// Groups the solved records into capacity-sweep families: records that
/// differ only in capacity (same block, associativity, banks, node, cell,
/// mode and opt variant), each family sorted by capacity.
fn families(run: &RunContext) -> Vec<Vec<&RunRecord>> {
    type Key = (
        Option<u64>,
        Option<u64>,
        Option<u64>,
        Option<u64>,
        Option<String>,
        Option<String>,
        Option<String>,
    );
    let mut map: BTreeMap<Key, Vec<&RunRecord>> = BTreeMap::new();
    for r in run.ok_records() {
        if r.capacity_bytes.is_none() {
            continue;
        }
        let key = (
            r.block_bytes,
            r.associativity,
            r.banks,
            r.node_nm.map(f64::to_bits),
            r.cell.clone(),
            r.mode.clone(),
            r.opt.clone(),
        );
        map.entry(key).or_default().push(r);
    }
    let mut out: Vec<Vec<&RunRecord>> = map.into_values().collect();
    for family in &mut out {
        family.sort_by_key(|r| (r.capacity_bytes, r.idx, r.line_no));
    }
    out
}

/// `CD0101`: within a capacity-sweep family, access time does not shrink
/// as capacity grows. Advisory only: under the weighted §2.4 objective a
/// larger design may legally win with a faster access time.
pub(crate) fn access_monotonicity(code: &'static str, run: &RunContext, report: &mut Report) {
    for family in families(run) {
        for pair in family.windows(2) {
            let (small, big) = (pair[0], pair[1]);
            if small.capacity_bytes == big.capacity_bytes {
                continue;
            }
            let (Some(t_small), Some(t_big)) = (small.access_ns, big.access_ns) else {
                continue;
            };
            if t_small.is_finite() && t_big.is_finite() && !approx_ge(t_big, t_small) {
                report.push(Diagnostic::info(
                    code,
                    Location::run("access_ns"),
                    format!(
                        "{} ({} B) reports {t_big:.4} ns access, faster than the \
                             {t_small:.4} ns of the smaller {} ({} B) on the same axes",
                        ident(big),
                        big.capacity_bytes.unwrap_or(0),
                        ident(small),
                        small.capacity_bytes.unwrap_or(0),
                    ),
                ));
            }
        }
    }
}

/// `CD0102`: within a capacity-sweep family, area must grow with capacity.
pub(crate) fn area_monotonicity(code: &'static str, run: &RunContext, report: &mut Report) {
    for family in families(run) {
        for pair in family.windows(2) {
            let (small, big) = (pair[0], pair[1]);
            if small.capacity_bytes == big.capacity_bytes {
                continue;
            }
            let (Some(a_small), Some(a_big)) = (small.area_mm2, big.area_mm2) else {
                continue;
            };
            if a_small.is_finite() && a_big.is_finite() && !approx_ge(a_big, a_small) {
                report.push(Diagnostic::warn(
                    code,
                    Location::run("area_mm2"),
                    format!(
                        "{} ({} B) occupies {a_big:.4} mm², less than the {a_small:.4} mm² \
                             of the smaller {} ({} B) on the same axes",
                        ident(big),
                        big.capacity_bytes.unwrap_or(0),
                        ident(small),
                        small.capacity_bytes.unwrap_or(0),
                    ),
                ));
            }
        }
    }
}

/// `a ≤ b` up to the same floating-point slack as [`approx_ge`].
fn approx_le(a: f64, b: f64) -> bool {
    approx_ge(b, a)
}

/// `o` dominates `r` with a clear margin: no objective worse beyond noise,
/// at least one better by more than one part per million (so re-deriving
/// dominance from the rounded record fields cannot flip a knife-edge tie).
fn clearly_dominates(o: &[f64; 4], r: &[f64; 4]) -> bool {
    o.iter().zip(r).all(|(&a, &b)| approx_le(a, b))
        && o.iter().zip(r).any(|(&a, &b)| a < b - b.abs() * 1e-6)
}

/// `o` dominates `r` when `r` is given every benefit of the doubt.
fn weakly_dominates(o: &[f64; 4], r: &[f64; 4]) -> bool {
    o.iter().zip(r).all(|(&a, &b)| approx_le(a, b)) && o.iter().zip(r).any(|(&a, &b)| a < b)
}

/// `CD0103`: the run's Pareto annotations agree with dominance recomputed
/// from the record metrics.
pub(crate) fn pareto_dominance(code: &'static str, run: &RunContext, report: &mut Report) {
    let pool: Vec<(&RunRecord, [f64; 4])> = run
        .ok_records()
        .filter_map(|r| r.objectives().map(|m| (r, m)))
        .filter(|(_, m)| m.iter().all(|v| v.is_finite()))
        .collect();
    for (r, m) in &pool {
        let Some(pareto) = r.pareto else { continue };
        if pareto.frontier {
            if let Some((o, _)) = pool
                .iter()
                .find(|(o, om)| o.line_no != r.line_no && clearly_dominates(om, m))
            {
                report.push(Diagnostic::error(
                    code,
                    Location::run("pareto.frontier"),
                    format!(
                        "{} is annotated as a frontier member but {} dominates it \
                             on all four objectives",
                        ident(r),
                        ident(o),
                    ),
                ));
            }
        } else if !pool
            .iter()
            .any(|(o, om)| o.line_no != r.line_no && weakly_dominates(om, m))
        {
            report.push(Diagnostic::warn(
                code,
                Location::run("pareto.frontier"),
                format!(
                    "{} is annotated as dominated but no record in the run \
                         dominates it",
                    ident(r),
                ),
            ));
        }
    }
}

/// The `CD0021` access-time window, in the records' ns unit.
const TIME_NS: (f64, f64) = (1e-3, 1e6);
/// The `CD0022` dynamic-energy window, in the records' nJ unit.
const ENERGY_NJ: (f64, f64) = (1e-6, 1e3);

/// `CD0104`: the `CD0021`/`CD0022` plausibility windows applied across the
/// whole record set — times within \[1 ps, 1 ms\], dynamic energies within
/// \[1 fJ, 1 µJ\], and every metric finite.
pub(crate) fn metric_range_drift(code: &'static str, run: &RunContext, report: &mut Report) {
    type Window = (
        &'static str,
        fn(&RunRecord) -> Option<f64>,
        (f64, f64),
        &'static str,
    );
    let windows: [Window; 4] = [
        ("access_ns", |r| r.access_ns, TIME_NS, "ns"),
        ("random_cycle_ns", |r| r.random_cycle_ns, TIME_NS, "ns"),
        ("read_nj", |r| r.read_nj, ENERGY_NJ, "nJ"),
        ("write_nj", |r| r.write_nj, ENERGY_NJ, "nJ"),
    ];
    for r in run.ok_records() {
        for &(field, get, (lo, hi), unit) in &windows {
            let Some(v) = get(r) else { continue };
            if !v.is_finite() {
                report.push(Diagnostic::warn(
                    code,
                    Location::run(field),
                    format!("{} has a non-finite {field} ({v})", ident(r)),
                ));
            } else if v < lo || v > hi {
                report.push(Diagnostic::warn(
                    code,
                    Location::run(field),
                    format!(
                        "{} reports {field} = {v:.6} {unit}, outside the plausible \
                             [{lo:e}, {hi:e}] {unit} window",
                        ident(r),
                    ),
                ));
            }
        }
    }
}

/// `CD0105`: the record set itself is structurally sound.
pub(crate) fn record_integrity(code: &'static str, run: &RunContext, report: &mut Report) {
    for (line_no, err) in &run.malformed {
        report.push(Diagnostic::error(
            code,
            Location::run("records"),
            format!("line {line_no} is not a JSON record: {err}"),
        ));
    }
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for r in &run.records {
        match r.idx {
            None => report.push(Diagnostic::error(
                code,
                Location::run("idx"),
                format!("record at line {} has no idx field", r.line_no),
            )),
            Some(idx) => {
                if let Some(first) = seen.insert(idx, r.line_no) {
                    report.push(Diagnostic::error(
                        code,
                        Location::run("idx"),
                        format!(
                            "idx {idx} appears on line {} and again on line {}",
                            first, r.line_no
                        ),
                    ));
                }
            }
        }
        match r.status.as_deref() {
            Some("ok") => {
                if r.objectives().is_none() {
                    report.push(Diagnostic::error(
                        code,
                        Location::run("status"),
                        format!(
                            "{} claims status \"ok\" but is missing solution metrics",
                            ident(r),
                        ),
                    ));
                }
            }
            Some("infeasible" | "invalid") => {}
            Some(other) => report.push(Diagnostic::error(
                code,
                Location::run("status"),
                format!("{} has unknown status {other:?}", ident(r)),
            )),
            None => report.push(Diagnostic::error(
                code,
                Location::run("status"),
                format!("{} has no status field", ident(r)),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;
    use crate::rules::{Check, RULES};

    fn record(idx: u64, capacity: u64, access: f64, area: f64) -> String {
        format!(
            "{{\"idx\":{idx},\"capacity_bytes\":{capacity},\"block_bytes\":64,\
             \"associativity\":8,\"banks\":1,\"node_nm\":32,\"cell\":\"sram\",\
             \"mode\":\"normal\",\"opt\":\"default\",\"status\":\"ok\",\
             \"access_ns\":{access},\"random_cycle_ns\":0.5,\"read_nj\":0.02,\
             \"write_nj\":0.02,\"area_mm2\":{area},\"leakage_mw\":10.0,\
             \"refresh_mw\":0}}"
        )
    }

    fn lint(text: &str) -> Report {
        let run = RunContext::parse(text);
        let mut report = Report::new();
        for rule in &RULES {
            if let Check::Run(check) = rule.check {
                check(rule.code, &run, &mut report);
            }
        }
        report
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_monotone_sweep_emits_nothing() {
        let text = [
            record(0, 64 << 10, 1.0, 0.2),
            record(1, 128 << 10, 1.4, 0.4),
            record(2, 256 << 10, 1.9, 0.8),
        ]
        .join("\n");
        assert!(lint(&text).is_empty(), "{:?}", lint(&text));
    }

    #[test]
    fn access_inversion_fires_cd0101() {
        let text = [
            record(0, 64 << 10, 2.0, 0.2),
            record(1, 128 << 10, 1.0, 0.4),
        ]
        .join("\n");
        let report = lint(&text);
        assert!(codes(&report).contains(&"CD0101"), "{report:?}");
        assert_eq!((report.error_count(), report.warn_count()), (0, 0));
    }

    #[test]
    fn area_shrink_fires_cd0102() {
        let text = [
            record(0, 64 << 10, 1.0, 0.4),
            record(1, 128 << 10, 1.5, 0.2),
        ]
        .join("\n");
        assert!(codes(&lint(&text)).contains(&"CD0102"));
    }

    #[test]
    fn different_axes_are_not_compared() {
        // Same capacities ordering but different associativity: no family.
        let a = record(0, 64 << 10, 2.0, 0.2);
        let b =
            record(1, 128 << 10, 1.0, 0.4).replace("\"associativity\":8", "\"associativity\":4");
        assert!(lint(&format!("{a}\n{b}")).is_empty());
    }

    #[test]
    fn dominated_frontier_member_fires_cd0103_error() {
        let mut good = record(0, 64 << 10, 1.0, 0.2);
        good.insert(good.len() - 1, ',');
        good.insert_str(
            good.len() - 1,
            "\"pareto\":{\"frontier\":true,\"dominates\":1}",
        );
        // Strictly worse on every objective, yet annotated as a frontier
        // member; capacity differs so CD0101/02 stay quiet.
        let mut bad = record(1, 128 << 10, 2.0, 0.4);
        bad.insert(bad.len() - 1, ',');
        bad.insert_str(
            bad.len() - 1,
            "\"pareto\":{\"frontier\":true,\"dominates\":0}",
        );
        let report = lint(&format!("{good}\n{bad}"));
        assert!(codes(&report).contains(&"CD0103"), "{report:?}");
        assert!(report.error_count() >= 1);
    }

    #[test]
    fn undominated_nonmember_fires_cd0103_warning() {
        let mut a = record(0, 64 << 10, 1.0, 0.2);
        a.insert(a.len() - 1, ',');
        a.insert_str(
            a.len() - 1,
            "\"pareto\":{\"frontier\":true,\"dominates\":0}",
        );
        // Better access, worse area: incomparable, so "dominated" is wrong.
        let mut b = record(1, 128 << 10, 2.0, 0.1);
        b.insert(b.len() - 1, ',');
        b.insert_str(b.len() - 1, "\"pareto\":{\"frontier\":false}");
        let report = lint(&format!("{a}\n{b}"));
        let d = report
            .iter()
            .find(|d| d.code == "CD0103")
            .expect("fires CD0103");
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn out_of_window_metrics_fire_cd0104() {
        let text = record(0, 64 << 10, 2e6, 0.2); // 2 ms access
        let report = lint(&text);
        assert!(codes(&report).contains(&"CD0104"), "{report:?}");
        let nonfinite =
            record(1, 64 << 10, 1.0, 0.2).replace("\"read_nj\":0.02", "\"read_nj\":NaN");
        // NaN is not valid JSON, so this line lands in CD0105 instead.
        let report = lint(&nonfinite);
        assert!(codes(&report).contains(&"CD0105"));
    }

    #[test]
    fn integrity_violations_fire_cd0105() {
        let dup = format!(
            "{}\n{}\nnot json",
            record(0, 64 << 10, 1.0, 0.2),
            record(0, 64 << 10, 1.0, 0.2)
        );
        let report = lint(&dup);
        let cd0105: Vec<_> = report.iter().filter(|d| d.code == "CD0105").collect();
        assert!(cd0105.len() >= 2, "dup idx + malformed line: {report:?}");
        let missing = r#"{"status":"ok"}"#;
        let report = lint(missing);
        assert!(report.error_count() >= 2, "no idx + no metrics: {report:?}");
        let unknown = r#"{"idx":0,"status":"exploded"}"#;
        assert!(codes(&lint(unknown)).contains(&"CD0105"));
    }

    #[test]
    fn run_rules_document_themselves() {
        for rule in RULES.iter().filter(|r| matches!(r.check, Check::Run(_))) {
            assert!(rule.code.starts_with("CD01"));
            assert!(!rule.summary.is_empty());
            assert!(rule.paper_ref.starts_with('§') || rule.paper_ref.starts_with("Table"));
        }
    }
}
