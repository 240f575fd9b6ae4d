//! Certificates: exhaustive interval scans over the reachable organization
//! box, cross-checked against the concrete screen at every sampled node.
//!
//! A [`Certificate`] is *evidence*, not trust: every definite abstract
//! verdict the scan produces is compared against the concrete closed form
//! at every node of the domain, so a transcription bug in the abstract
//! evaluator surfaces as an unsound certificate (and the derived
//! [`CertifiedBounds`] degrade to the conservative no-op element) instead
//! of a wrong cutoff being reported.
//!
//! The scan is genuinely exhaustive over the reachable domain: the
//! enumeration never emits more than `SWEEP_BOUNDS.max_cols` columns
//! (every column count up to the cap is scanned, not just powers of two),
//! and the sense check is only reachable for `rows ≤
//! max_rows_per_subarray` because the subarray-rows check fires first —
//! so scanning power-of-two rows up to that cap, plus the first counts
//! past it, covers every input the check can see.

use crate::domain::Domain;
use crate::iv::{Iv, Verdict};
use crate::screen::{abs_prescreen, abs_sense_signal, abs_wordline_rc, AbsOutcome};
use cactid_core::array::{cal, prescreen_explain, WORDLINE_ELMORE_BOUND};
use cactid_core::{org, MemorySpec, PrescreenFailure};
use cactid_tech::{CellParams, CellTechnology, TechNode, Technology};
use cactid_units::{Joules, Seconds};

/// The soundness certificate of one prune rule over one domain.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Which rule the certificate speaks for.
    pub rule: PrescreenFailure,
    /// Abstract points evaluated along the rule's input axis.
    pub points: u64,
    /// Points where the rule definitely passes over the whole domain.
    pub definite_pass: u64,
    /// Points where the rule definitely rejects over the whole domain.
    pub definite_reject: u64,
    /// Points the abstract domain cannot decide (boundary zone).
    pub undecided: u64,
    /// Concrete evaluations compared against the abstract verdicts.
    pub cross_checks: u64,
    /// `true` when no cross-check contradicted a definite verdict.
    pub sound: bool,
    /// The first contradiction found, if any.
    pub counterexample: Option<String>,
}

impl Certificate {
    fn new(rule: PrescreenFailure) -> Self {
        Self {
            rule,
            points: 0,
            definite_pass: 0,
            definite_reject: 0,
            undecided: 0,
            cross_checks: 0,
            sound: true,
            counterexample: None,
        }
    }

    fn record(&mut self, v: Verdict) {
        self.points += 1;
        match v {
            Verdict::Never => self.definite_pass += 1,
            Verdict::Always => self.definite_reject += 1,
            Verdict::Mixed => self.undecided += 1,
        }
    }

    fn check(&mut self, v: Verdict, concrete_rejects: bool, what: impl Fn() -> String) {
        self.cross_checks += 1;
        let contradiction = match v {
            Verdict::Always => !concrete_rejects,
            Verdict::Never => concrete_rejects,
            Verdict::Mixed => false,
        };
        if contradiction && self.sound {
            self.sound = false;
            self.counterexample = Some(what());
        }
    }
}

/// Certified prescreen cutoffs for one `(node, cell technology)` pair,
/// extracted from the exhaustive interval scan and reported by `cactid
/// prove` (`CD0204`).
///
/// Each field is a one-sided claim about [`prescreen_explain`]'s verdict
/// that holds for **every** `(rows, cols)` inside the scanned domain:
/// columns past `wordline_reject_above` certainly fail the wordline-Elmore
/// check, columns up to `wordline_pass_upto` certainly pass it, and
/// likewise for the DRAM sense margin over power-of-two row counts.
/// Between the two cutoffs lies the undecided boundary zone, where only
/// the concrete closed form can tell.
///
/// [`CertifiedBounds::conservative`] is the no-certificate element: it
/// claims nothing. Unsound scans (which would indicate a transcription
/// bug in the prover) degrade to it rather than report a wrong cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedBounds {
    /// The certificates only speak for `cols <= cols_domain` …
    pub cols_domain: u64,
    /// … and for power-of-two `rows <= rows_domain`.
    pub rows_domain: u64,
    /// Every `cols <= wordline_pass_upto` certainly passes the wordline
    /// check (0 when nothing is certified to pass).
    pub wordline_pass_upto: u64,
    /// Every `cols > wordline_reject_above` within the domain certainly
    /// fails the wordline check (`u64::MAX` when nothing is certified to
    /// reject).
    pub wordline_reject_above: u64,
    /// Every power-of-two `rows <= sense_pass_upto` certainly passes the
    /// DRAM sense-margin check.
    pub sense_pass_upto: u64,
    /// Every power-of-two `rows >= sense_reject_from` within the domain
    /// certainly fails the DRAM sense-margin check.
    pub sense_reject_from: u64,
}

impl CertifiedBounds {
    /// The no-certificate element: no cutoff certifies anything.
    #[must_use]
    pub const fn conservative() -> Self {
        Self {
            cols_domain: 0,
            rows_domain: 0,
            wordline_pass_upto: 0,
            wordline_reject_above: u64::MAX,
            sense_pass_upto: 0,
            sense_reject_from: u64::MAX,
        }
    }
}

/// A whole-domain proof: per-rule certificates, the combined first-failure
/// cross-check, and the [`CertifiedBounds`] the scan supports.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The cell technology the proof covers.
    pub cell_tech: CellTechnology,
    /// The concrete nodes cross-checked (the hull anchors).
    pub nodes: Vec<TechNode>,
    /// Column scan cap (every `1..=cols_cap` scanned).
    pub cols_cap: u64,
    /// Row scan cap for the sense check.
    pub rows_cap: u64,
    /// Per-rule certificates in check order.
    pub certificates: [Certificate; 3],
    /// Full `(rows, cols, node)` combined-outcome comparisons performed.
    pub combined_cross_checks: u64,
    /// The certified cutoffs the scan supports — conservative when any
    /// certificate is unsound.
    pub bounds: CertifiedBounds,
    /// `true` when every certificate (and the combined check) is sound.
    pub sound: bool,
}

impl Proof {
    /// The certificate for `rule`.
    #[must_use]
    pub fn certificate(&self, rule: PrescreenFailure) -> &Certificate {
        let idx = match rule {
            PrescreenFailure::SubarrayRows => 0,
            PrescreenFailure::WordlineElmore => 1,
            PrescreenFailure::SenseMargin => 2,
        };
        &self.certificates[idx]
    }
}

/// Power-of-two row counts up to the sense cap, plus the first counts past
/// the subarray limit (where the subarray-rows check must fire).
fn row_scan_values(dom: &Domain) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    let mut r = 1u64;
    while r <= dom.rows_cap {
        out.push(r);
        r *= 2;
    }
    out.push(dom.max_rows_hi + 1);
    out.push(dom.max_rows_hi * 2);
    out
}

/// Runs the full certification scan over a domain.
#[must_use]
pub fn certify(dom: &Domain) -> Proof {
    let cells: Vec<(TechNode, CellParams)> = dom
        .nodes
        .iter()
        .map(|&n| (n, Technology::cached(n).cell(dom.cell_tech)))
        .collect();
    let mut sub_cert = Certificate::new(PrescreenFailure::SubarrayRows);
    let mut wl_cert = Certificate::new(PrescreenFailure::WordlineElmore);
    let mut sm_cert = Certificate::new(PrescreenFailure::SenseMargin);

    // --- Wordline axis: every column count the enumeration can emit. ---
    let mut wl_verdicts: Vec<Verdict> = Vec::with_capacity(dom.cols_cap as usize);
    for cols in 1..=dom.cols_cap {
        let rc = abs_wordline_rc(dom, cols);
        let v = rc.gt(Iv::exact(WORDLINE_ELMORE_BOUND));
        wl_cert.record(v);
        wl_verdicts.push(v);
        for (node, cell) in &cells {
            let conc = 0.38
                * (cell.r_wordline_per_cell * cols as f64)
                * (cell.c_wordline_per_cell * cols as f64);
            let rejects = conc > WORDLINE_ELMORE_BOUND;
            wl_cert.check(v, rejects, || {
                format!("wordline at cols {cols}, {node}: abstract {v:?}, concrete {conc}")
            });
            // Containment is the inductive invariant itself — verify it.
            if !rc.contains(conc) && wl_cert.sound {
                wl_cert.sound = false;
                wl_cert.counterexample = Some(format!(
                    "wordline RC {conc} escapes {rc} at cols {cols}, {node}"
                ));
            }
        }
    }

    // --- Row axes: subarray cap (exact) and DRAM sense margin. ---
    let rows_vals = row_scan_values(dom);
    let mut row_verdicts: Vec<(u64, Verdict, Verdict)> = Vec::with_capacity(rows_vals.len());
    for &rows in &rows_vals {
        let abs = abs_prescreen(dom, rows, 1);
        sub_cert.record(abs.subarray_rows);
        for (node, cell) in &cells {
            let rejects = rows > cell.max_rows_per_subarray as u64;
            sub_cert.check(abs.subarray_rows, rejects, || {
                format!("subarray-rows at rows {rows}, {node}")
            });
        }
        if dom.is_dram() && rows <= dom.rows_cap {
            let sig = abs_sense_signal(dom, rows);
            sm_cert.record(abs.sense);
            for (node, cell) in &cells {
                let Some(conc) = cell.dram_sense_signal(rows as usize) else {
                    unreachable!("DRAM cell provides a sense signal");
                };
                sm_cert.check(abs.sense, conc < cell.v_sense_margin, || {
                    format!(
                        "sense at rows {rows}, {node}: abstract {:?}, signal {conc}",
                        abs.sense
                    )
                });
                if !sig.contains(conc) && sm_cert.sound {
                    sm_cert.sound = false;
                    sm_cert.counterexample = Some(format!(
                        "sense signal {conc} escapes {sig} at rows {rows}, {node}"
                    ));
                }
            }
        }
        row_verdicts.push((rows, abs.subarray_rows, abs.sense));
    }
    if !dom.is_dram() {
        // The sense check structurally cannot fire: certify it vacuously
        // with a single definite-pass point so the report stays uniform.
        sm_cert.record(Verdict::Never);
    }

    // --- Combined first-failure cross-check over the product grid. ---
    // The abstract outcome folds the precomputed per-axis verdicts in
    // check order; the concrete side is the production `prescreen_explain`
    // itself, so this directly certifies "abstract Reject(r) ⇒ the solver
    // rejects with exactly r" at every sampled point.
    let mut combined_cross_checks = 0u64;
    let mut combined_failure: Option<String> = None;
    for (ci, &wl_v) in wl_verdicts.iter().enumerate() {
        let cols = ci as u64 + 1;
        for &(rows, sub_v, sense_v) in &row_verdicts {
            let outcome = fold_outcome(sub_v, wl_v, sense_v);
            if outcome == AbsOutcome::Undecided {
                continue;
            }
            for (node, cell) in &cells {
                combined_cross_checks += 1;
                let conc = prescreen_explain(cell, rows, cols);
                let ok = match outcome {
                    AbsOutcome::Pass => conc.is_ok(),
                    AbsOutcome::Reject(r) => conc.err() == Some(r),
                    AbsOutcome::Undecided => true,
                };
                if !ok && combined_failure.is_none() {
                    combined_failure = Some(format!(
                        "combined screen at ({rows},{cols}), {node}: abstract {outcome:?}, \
                         concrete {conc:?}"
                    ));
                }
            }
        }
    }
    if let Some(msg) = combined_failure {
        // Attribute the contradiction to the wordline certificate (the
        // only rule with a nontrivial abstract transcription shared by
        // all technologies) unless a per-rule check already failed.
        if sub_cert.sound && wl_cert.sound && sm_cert.sound {
            wl_cert.sound = false;
            wl_cert.counterexample = Some(msg);
        }
    }

    let sound = sub_cert.sound && wl_cert.sound && sm_cert.sound;
    let bounds = if sound {
        extract_bounds(dom, &wl_verdicts, &row_verdicts)
    } else {
        CertifiedBounds::conservative()
    };
    Proof {
        cell_tech: dom.cell_tech,
        nodes: dom.nodes.clone(),
        cols_cap: dom.cols_cap,
        rows_cap: dom.rows_cap,
        certificates: [sub_cert, wl_cert, sm_cert],
        combined_cross_checks,
        bounds,
        sound,
    }
}

/// Folds per-rule verdicts into the combined first-failure outcome
/// (mirrors `AbsScreen::outcome` over precomputed axis verdicts).
fn fold_outcome(sub: Verdict, wl: Verdict, sense: Verdict) -> AbsOutcome {
    for (rule, v) in [
        (PrescreenFailure::SubarrayRows, sub),
        (PrescreenFailure::WordlineElmore, wl),
        (PrescreenFailure::SenseMargin, sense),
    ] {
        match v {
            Verdict::Never => {}
            Verdict::Always => return AbsOutcome::Reject(rule),
            Verdict::Mixed => return AbsOutcome::Undecided,
        }
    }
    AbsOutcome::Pass
}

/// Derives the certified cutoffs from the scanned verdict arrays: the
/// longest all-`Never` prefix certifies passes, the longest all-`Always`
/// suffix certifies rejects. No monotonicity is assumed — a rule whose
/// verdicts oscillate simply certifies less.
fn extract_bounds(
    dom: &Domain,
    wl_verdicts: &[Verdict],
    row_verdicts: &[(u64, Verdict, Verdict)],
) -> CertifiedBounds {
    let mut wordline_pass_upto = 0u64;
    for (i, v) in wl_verdicts.iter().enumerate() {
        if *v != Verdict::Never {
            break;
        }
        wordline_pass_upto = i as u64 + 1;
    }
    let mut wordline_reject_above = u64::MAX;
    let last_non_always = wl_verdicts.iter().rposition(|v| *v != Verdict::Always);
    match last_non_always {
        Some(i) if i as u64 + 1 < dom.cols_cap => wordline_reject_above = i as u64 + 1,
        None if !wl_verdicts.is_empty() => wordline_reject_above = 0,
        _ => {}
    }

    // The sense axis: power-of-two rows within the cap, in ascending order.
    let sense: Vec<(u64, Verdict)> = row_verdicts
        .iter()
        .filter(|(rows, _, _)| *rows <= dom.rows_cap)
        .map(|&(rows, _, v)| (rows, v))
        .collect();
    let mut sense_pass_upto = 0u64;
    for &(rows, v) in &sense {
        if v != Verdict::Never {
            break;
        }
        sense_pass_upto = rows;
    }
    let mut sense_reject_from = u64::MAX;
    for &(rows, v) in sense.iter().rev() {
        if v != Verdict::Always {
            break;
        }
        sense_reject_from = rows;
    }

    CertifiedBounds {
        cols_domain: dom.cols_cap,
        rows_domain: dom.rows_cap,
        wordline_pass_upto,
        wordline_reject_above,
        sense_pass_upto,
        sense_reject_from,
    }
}

/// Certified prescreen cutoffs for one `(node, cell)` pair.
/// Conservative (claiming nothing) when the scan finds any unsoundness.
#[must_use]
pub fn certified_bounds(node: TechNode, cell_tech: CellTechnology) -> CertifiedBounds {
    certify(&Domain::for_node(node, cell_tech)).bounds
}

/// Certified enclosures of the bitline components of the published
/// metrics, hulled over every organization the spec's enumeration emits
/// that the abstract screen cannot definitely reject (a superset of the
/// feasible set, which is what makes the one-sided window claims sound).
#[derive(Debug, Clone, Copy)]
pub struct WindowEnclosures {
    /// Organizations enumerated for the spec.
    pub orgs: usize,
    /// Organizations the abstract screen cannot definitely reject.
    pub surviving: usize,
    /// Enclosure of the bitline delay component (`access_time` is this
    /// plus non-negative terms).
    pub t_bitline: Option<Iv<Seconds>>,
    /// Enclosure of the bitline energy component (`read_energy` is this
    /// plus non-negative terms).
    pub e_bitline: Option<Iv<Joules>>,
}

/// Computes the window enclosures for one spec over a domain.
#[must_use]
pub fn window_enclosures(dom: &Domain, spec: &MemorySpec) -> WindowEnclosures {
    let mut orgs = 0usize;
    let mut surviving = 0usize;
    let mut t_hull: Option<Iv<Seconds>> = None;
    let mut e_hull: Option<Iv<Joules>> = None;
    for org in org::enumerate_lazy(spec) {
        orgs += 1;
        let rows = org.rows(spec);
        let cols = org.cols(spec);
        if matches!(
            abs_prescreen(dom, rows, cols).outcome(),
            AbsOutcome::Reject(_)
        ) {
            continue;
        }
        surviving += 1;
        let rows_f = Iv::exact(rows as f64);
        // Mirrors `evaluate`'s bitline state:
        //   c_bl = c_bitline_per_cell·rows + 2·c_drain·min_width
        //   r_bl = r_bitline_per_cell·rows
        let c_bl = dom.cell.c_bitline_per_cell * rows_f
            + (Iv::exact(2.0_f64) * dom.periph_c_drain) * dom.periph_min_width;
        let r_bl = dom.cell.r_bitline_per_cell * rows_f;
        let t_bl: Iv<Seconds> = if dom.is_dram() {
            // c_eff through the same raw-SI escape hatch as `evaluate`.
            let cs = dom.cell.c_storage;
            let c_eff = (cs.cast::<f64>() * c_bl.cast::<f64>() / (cs + c_bl).cast::<f64>())
                .cast::<cactid_units::Farads>();
            ((dom.cell.timing_derate * Iv::exact(cal::TAU_SHARE))
                * (dom.cell.r_access_on + r_bl / Iv::exact(2.0_f64)))
                * c_eff
        } else {
            let swing = Iv::exact(cal::SRAM_BL_SWING_MULT) * dom.cell.v_sense_margin;
            c_bl * swing / dom.cell.i_cell_read + (Iv::exact(0.38_f64) * r_bl) * c_bl
        };
        let stripe = Iv::exact(org.stripe_bits(spec) as f64);
        let vdd = dom.cell.vdd_cell;
        let e_bl: Iv<Joules> = if dom.is_dram() {
            let half_bl = c_bl * vdd * vdd / Iv::exact(2.0_f64);
            let half_cs = dom.cell.c_storage * vdd * vdd / Iv::exact(2.0_f64);
            (stripe * Iv::exact(cal::DRAM_BL_CYCLE_FACTOR)) * (half_bl + half_cs)
        } else {
            let swing = Iv::exact(cal::SRAM_BL_SWING_MULT) * dom.cell.v_sense_margin;
            stripe * c_bl * vdd * swing
        };
        t_hull = Some(t_hull.map_or(t_bl, |h| h.hull(t_bl)));
        e_hull = Some(e_hull.map_or(e_bl, |h| h.hull(e_bl)));
    }
    WindowEnclosures {
        orgs,
        surviving,
        t_bitline: t_hull,
        e_bitline: e_hull,
    }
}

/// A whole-spec proof: the domain certification plus the spec's window
/// enclosures.
#[derive(Debug, Clone)]
pub struct SpecProof {
    /// The domain certificates and certified bounds.
    pub proof: Proof,
    /// The reachable-metric enclosures over the spec's enumeration.
    pub windows: WindowEnclosures,
}

/// Certifies a spec: builds the domain its node induces, runs the full
/// scan, and computes the window enclosures over its enumeration.
#[must_use]
pub fn certify_spec(spec: &MemorySpec) -> SpecProof {
    let dom = Domain::for_node(spec.node, spec.cell_tech);
    let windows = window_enclosures(&dom, spec);
    SpecProof {
        proof: certify(&dom),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_anchor_domain_certifies_sound() {
        for &node in TechNode::ALL_WITH_HALF_NODES {
            for &tech in &[
                CellTechnology::Sram,
                CellTechnology::LpDram,
                CellTechnology::CommDram,
            ] {
                let proof = certify(&Domain::for_node(node, tech));
                assert!(proof.sound, "{node} {tech:?}: {:?}", proof.certificates);
                assert!(proof.combined_cross_checks > 0);
                for c in &proof.certificates {
                    assert!(
                        c.sound,
                        "{node} {tech:?} {:?}: {:?}",
                        c.rule, c.counterexample
                    );
                }
            }
        }
    }

    #[test]
    fn certified_bounds_agree_with_the_concrete_screen_everywhere() {
        // Each one-sided cutoff, checked densely against the concrete
        // screen over a cols × rows grid. The screen reports the first
        // failing check (subarray rows, then wordline, then sense), so a
        // check that "certainly fails" must show up as that failure or an
        // earlier one.
        use PrescreenFailure::{SenseMargin, SubarrayRows, WordlineElmore};
        for &(node, tech) in &[
            (TechNode::N32, CellTechnology::Sram),
            (TechNode::N78, CellTechnology::CommDram),
        ] {
            let b = certified_bounds(node, tech);
            let cell = Technology::cached(node).cell(tech);
            for cols in (1..=org::SWEEP_BOUNDS.max_cols).step_by(37) {
                for rows in [1u64, 2, 16, 128, 512, 1024, 2048] {
                    let at = format!("{node} {tech:?} at ({rows},{cols}), {b:?}");
                    let exact = prescreen_explain(&cell, rows, cols).map(|_| ());
                    if cols <= b.wordline_pass_upto {
                        assert_ne!(exact, Err(WordlineElmore), "{at}");
                    }
                    if cols <= b.cols_domain && cols > b.wordline_reject_above {
                        assert!(
                            matches!(exact, Err(SubarrayRows | WordlineElmore)),
                            "{at}: {exact:?}"
                        );
                    }
                    if !tech.is_dram() || rows > b.rows_domain {
                        continue;
                    }
                    if rows <= b.sense_pass_upto {
                        assert_ne!(exact, Err(SenseMargin), "{at}");
                    }
                    if rows >= b.sense_reject_from {
                        assert!(exact.is_err(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_certify_nontrivial_regions() {
        // The point of the exercise: the certificates must actually bite
        // (feed ROADMAP Open item 2), not just hold vacuously.
        let b = certified_bounds(TechNode::N78, CellTechnology::CommDram);
        assert!(b.wordline_pass_upto > 0, "{b:?}");
        assert!(
            b.wordline_reject_above < u64::MAX,
            "COMM-DRAM wordlines must hit the 3 ns bound within the sweep box: {b:?}"
        );
        assert!(b.sense_pass_upto > 0, "{b:?}");
        let sram = certified_bounds(TechNode::N32, CellTechnology::Sram);
        assert!(sram.wordline_pass_upto > 0, "{sram:?}");
    }

    #[test]
    fn window_enclosures_cover_a_solved_spec() {
        use cactid_core::{solve_with_stats, AccessMode, MemoryKind};
        let spec = MemorySpec::builder()
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
            .unwrap();
        let dom = Domain::for_node(spec.node, spec.cell_tech);
        let w = window_enclosures(&dom, &spec);
        assert!(w.surviving > 0 && w.surviving <= w.orgs);
        let (Some(t), Some(e)) = (w.t_bitline, w.e_bitline) else {
            panic!("survivors imply enclosures");
        };
        // One-sided soundness: every feasible solution's access time and
        // read energy sit at or above the certified component floor.
        for sol in solve_with_stats(&spec, None).result.unwrap() {
            assert!(
                sol.access_time >= t.lo(),
                "{} < {}",
                sol.access_time,
                t.lo()
            );
            assert!(
                sol.read_energy >= e.lo(),
                "{} < {}",
                sol.read_energy,
                e.lo()
            );
        }
        assert!(t.lo() > Seconds::ZERO && e.lo() > Joules::ZERO);
    }
}
