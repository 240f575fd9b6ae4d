//! L3 capacity-sensitivity sweep.
//!
//! Paper §4.2 explains the per-application behaviour through two factors:
//! "1) the frequency of the L3 accesses per instruction, and 2) the
//! sensitivity of L3 misses over L3 capacity." This module measures both
//! directly: it sweeps the L3 capacity (keeping the SRAM-like timing of a
//! chosen technology) and reports L3 accesses per kilo-instruction and the
//! miss ratio at each size — the curves that explain Figure 4.

use crate::configs::{self, LlcKind, StudyConfig};
use npbgen::{NpbApp, NpbClass, NpbTrace};

/// One point of the sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Total L3 capacity \[bytes\].
    pub capacity_bytes: u64,
    /// L3 accesses per kilo-instruction.
    pub l3_apki: f64,
    /// L3 miss ratio (loads).
    pub miss_ratio: f64,
    /// Chip IPC at this point.
    pub ipc: f64,
}

/// Sweeps the L3 capacity for one application. `capacities` are total L3
/// sizes (divided over 8 banks); timing is held at the base configuration's
/// values so the curve isolates the capacity effect. The base
/// configuration's associativity must keep the per-bank set count a power
/// of two for every swept capacity (the 12-way configurations do for the
/// 3·2ⁿ MB sizes of [`STUDY_CAPACITIES`]).
pub fn capacity_sweep(
    base: &StudyConfig,
    app: NpbApp,
    class: NpbClass,
    capacities: &[u64],
    instructions: u64,
) -> Vec<SweepPoint> {
    // Each capacity point is an independent warm-up + measurement
    // simulation, so the sweep rides the cactid-explore work-claiming
    // pool; results come back in capacity order regardless of which
    // worker finished first.
    cactid_explore::pool::parallel_map(0, capacities, |_, &cap| {
        let mut system = base.system.clone();
        let Some(l3) = system.l3.as_mut() else {
            unreachable!("the sweep base config carries an L3")
        };
        l3.bank.capacity_bytes = cap / u64::from(l3.n_banks);
        let trace = NpbTrace::with_class(app, class, system.n_threads());
        let stats = crate::figure4::simulate(&system, trace, instructions);
        let c = &stats.counts;
        let reached = stats.load_level_hits[2] + stats.load_level_hits[3];
        SweepPoint {
            capacity_bytes: cap,
            l3_apki: c.l3_reads as f64 / (stats.instructions as f64 / 1000.0),
            miss_ratio: if reached == 0 {
                0.0
            } else {
                stats.load_level_hits[3] as f64 / reached as f64
            },
            ipc: stats.ipc(),
        }
    })
}

/// The capacities the paper's five L3 options span, plus endpoints.
pub const STUDY_CAPACITIES: [u64; 6] =
    [12 << 20, 24 << 20, 48 << 20, 96 << 20, 192 << 20, 384 << 20];

/// Renders sensitivity curves for a set of applications.
pub fn render(apps: &[NpbApp], instructions: u64) -> String {
    let base = configs::build(LlcKind::LpDramEd48);
    let mut s = String::from(
        "L3 capacity sensitivity (paper §4.2's two factors, LP-DRAM timing held fixed)\n",
    );
    for &app in apps {
        s.push_str(&format!("{app}:\n"));
        for p in capacity_sweep(&base, app, NpbClass::C, &STUDY_CAPACITIES, instructions) {
            s.push_str(&format!(
                "  {:4} MB: {:5.1} L3 accesses/kinstr, miss ratio {:.2}, ipc {:.2}\n",
                p.capacity_bytes >> 20,
                p.l3_apki,
                p.miss_ratio,
                p.ipc
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_falls_with_capacity_for_fitting_apps() {
        // Class-B ft.B (15 MB warm set — big enough to spill the L2s,
        // small enough to populate quickly): a 12 MB L3 cannot hold the
        // footprint, a 96 MB L3 swallows it whole.
        let base = configs::build(LlcKind::LpDramEd48);
        let pts = capacity_sweep(
            &base,
            NpbApp::FtB,
            NpbClass::B,
            &[12 << 20, 96 << 20],
            4_000_000,
        );
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].miss_ratio < pts[0].miss_ratio * 0.8,
            "{} -> {}",
            pts[0].miss_ratio,
            pts[1].miss_ratio
        );
        assert!(pts[1].ipc > pts[0].ipc);
    }

    #[test]
    fn ua_c_has_low_l3_access_frequency() {
        // The paper's factor (1): ua.C barely touches the L3.
        let base = configs::build(LlcKind::LpDramEd48);
        let ua = capacity_sweep(&base, NpbApp::UaC, NpbClass::C, &[96 << 20], 400_000);
        let ft = capacity_sweep(&base, NpbApp::FtB, NpbClass::C, &[96 << 20], 400_000);
        assert!(
            ua[0].l3_apki < ft[0].l3_apki / 2.0,
            "ua {} vs ft {}",
            ua[0].l3_apki,
            ft[0].l3_apki
        );
    }
}
