//! Extension: main-memory power-down modes.
//!
//! The paper's conclusion (§6) observes that standby power dominates
//! main-memory power and suggests that "appropriate use of DRAM power-down
//! modes, combined with supporting operating system policies, may
//! significantly reduce main memory power." This module quantifies that
//! suggestion with the reproduction's own numbers: it estimates channel
//! occupancy from the simulator's access counts and applies a
//! precharge-power-down model to the idle fraction.

use crate::configs::StudyConfig;
use crate::power::MemoryHierarchyPower;
use memsim::SimStats;

/// Fraction of standby power drawn in precharge power-down (CKE low):
/// DDR3/DDR4 IDD2P is roughly 30–40 % of IDD2N.
pub const POWERDOWN_RESIDUAL: f64 = 0.35;

/// Power-down entry/exit overhead, expressed as a minimum idle streak the
/// controller must predict before it pays off; modeled as the fraction of
/// idle time actually spent powered down.
pub const POWERDOWN_COVERAGE: f64 = 0.8;

/// Result of the power-down analysis for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDownAnalysis {
    /// Fraction of time the memory channels are busy (0–1).
    pub busy_fraction: f64,
    /// Standby power without power-down \[W\].
    pub standby_baseline: f64,
    /// Standby power with power-down \[W\].
    pub standby_with_powerdown: f64,
    /// Memory-hierarchy power saved \[W\].
    pub hierarchy_savings: f64,
}

/// Estimates the fraction of time a rank cannot power down: each activate
/// holds its bank for ~tRC, each row hit occupies it for a column access,
/// and the rank is busy whenever *any* of its banks is active. Treating
/// banks as independently loaded, the rank-busy probability is
/// `1 − (1 − u_bank)^banks`.
pub fn busy_fraction(cfg: &StudyConfig, stats: &SimStats) -> f64 {
    if stats.cycles == 0 {
        return 0.0;
    }
    let d = &cfg.system.dram;
    let c = &stats.counts;
    let act_cycles = c.mem_activates as f64 * d.t_rc as f64;
    let hit_cycles = c.mem_page_hits as f64 * (d.t_cl + d.t_burst) as f64;
    let bank_time = (stats.cycles * u64::from(d.channels * d.banks)) as f64;
    let u_bank = ((act_cycles + hit_cycles) / bank_time).min(1.0);
    1.0 - (1.0 - u_bank).powi(d.banks as i32)
}

/// Applies the power-down model to one run's hierarchy power.
pub fn analyze(
    cfg: &StudyConfig,
    stats: &SimStats,
    hier: &MemoryHierarchyPower,
) -> PowerDownAnalysis {
    let busy = busy_fraction(cfg, stats);
    let idle = 1.0 - busy;
    let powered_down = idle * POWERDOWN_COVERAGE;
    // The interface portion (DLL, input buffers) is what power-down turns
    // off; chip leakage continues. Both are inside `standby_power`, so the
    // residual factor models their combination.
    let baseline = hier.mem_standby;
    let with_pd = baseline * (1.0 - powered_down * (1.0 - POWERDOWN_RESIDUAL));
    PowerDownAnalysis {
        busy_fraction: busy,
        standby_baseline: baseline,
        standby_with_powerdown: with_pd,
        hierarchy_savings: baseline - with_pd,
    }
}

/// Renders the analysis across a set of runs, followed by the analytic
/// savings-vs-occupancy curve that shows where the paper's suggestion
/// pays off (idle and low-activity phases, which the OS policies the
/// paper mentions would create).
pub fn render(rows: &[(String, PowerDownAnalysis, f64)]) -> String {
    let mut s = String::from(
        "Extension (paper §6): precharge power-down on idle memory channels\n\
         run                         busy%  standby W  w/ pwrdn W  hier. saving\n",
    );
    for (label, a, hier_total) in rows {
        s.push_str(&format!(
            "  {:24} {:6.1} {:10.3} {:11.3}  {:5.1}% of hierarchy\n",
            label,
            a.busy_fraction * 100.0,
            a.standby_baseline,
            a.standby_with_powerdown,
            a.hierarchy_savings / hier_total * 100.0,
        ));
    }
    s.push_str(
        "\nDuring full-throttle phases of these memory-bound benchmarks the ranks\n\
         stay active, so power-down recovers little — the opportunity is in idle\n\
         and low-activity phases, which OS policies (paper §6) would create:\n\
         rank busy    standby saving\n",
    );
    for busy in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let saving = (1.0 - busy) * POWERDOWN_COVERAGE * (1.0 - POWERDOWN_RESIDUAL);
        s.push_str(&format!(
            "  {:8.0}%    {:5.1}% of standby power\n",
            busy * 100.0,
            saving * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{build, LlcKind};
    use crate::figure4::run_one;
    use npbgen::NpbApp;

    #[test]
    fn filtered_memory_is_idler_and_saves_more() {
        // ft.B hammers memory with no L3 but a big L3 filters it — the
        // power-down opportunity grows accordingly.
        let nol3 = build(LlcKind::NoL3);
        let comm = build(LlcKind::CmDramC192);
        let busy = run_one(&nol3, NpbApp::FtB, 600_000);
        let quiet = run_one(&comm, NpbApp::FtB, 600_000);
        let hb = MemoryHierarchyPower::from_run(&nol3, &busy.stats);
        let hq = MemoryHierarchyPower::from_run(&comm, &quiet.stats);
        let ab = analyze(&nol3, &busy.stats, &hb);
        let aq = analyze(&comm, &quiet.stats, &hq);
        assert!(
            aq.busy_fraction < ab.busy_fraction,
            "{} vs {}",
            aq.busy_fraction,
            ab.busy_fraction
        );
        assert!(aq.hierarchy_savings > 0.0);
        // Savings never exceed the baseline standby power.
        assert!(aq.standby_with_powerdown >= aq.standby_baseline * POWERDOWN_RESIDUAL);
        assert!(ab.standby_with_powerdown <= ab.standby_baseline);
        assert!(aq.hierarchy_savings >= ab.hierarchy_savings);
    }

    #[test]
    fn busy_fraction_is_bounded() {
        let cfg = build(LlcKind::NoL3);
        let run = run_one(&cfg, NpbApp::CgC, 300_000);
        let f = busy_fraction(&cfg, &run.stats);
        assert!((0.0..=1.0).contains(&f), "{f}");
        assert!(f > 0.05, "cg.C keeps memory busy: {f}");
    }
}
