//! The Figure 5 power model: component energies (from CACTI-D solutions) ×
//! activity counts (from the simulator), plus leakage, refresh, memory-bus
//! power and the scaled core power.

use crate::configs::StudyConfig;
use memsim::SimStats;

/// Core power of the bottom die: 22.3 W (90 nm Niagara scaled to 32 nm with
/// 8 four-wide SIMD FPUs — paper §4.3).
pub const CORE_POWER_W: f64 = 22.3;

/// Memory-bus energy cost: 2 mW/Gb/s "suitable for the 2013 time-frame"
/// (paper §4.3) — i.e. 2 pJ/bit.
pub const BUS_J_PER_BIT: f64 = 2.0e-12;

/// Memory channels, each with one single-ranked DIMM (paper §3.1). With
/// [`CHIPS_PER_RANK`], [`CHIP_IO_BITS`] and [`CHANNEL_TRANSFERS_PER_S`],
/// the study's one statement of its DIMM channel: the simulated channel
/// count, its burst length ([`crate::configs::line_burst_cycles`]) and
/// the chip counts of the power model all read these.
pub const CHANNELS: u32 = 2;
/// DRAM chips accessed in parallel per channel: x8 devices on a 64-bit
/// channel (paper §3.1).
pub const CHIPS_PER_RANK: u32 = 8;
/// Data pins per DRAM chip (x8 devices); the main-memory chip spec's
/// `io_bits`.
pub const CHIP_IO_BITS: u32 = 8;
/// Transfers per second on a DDR4-3200 memory channel.
pub const CHANNEL_TRANSFERS_PER_S: u64 = 3_200_000_000;
/// Total DRAM chips in the system: [`CHANNELS`] channels, each with one
/// single-ranked DIMM of [`CHIPS_PER_RANK`] chips.
pub const TOTAL_CHIPS: u32 = CHANNELS * CHIPS_PER_RANK;

/// Power of the memory hierarchy, broken into the paper's Figure 5(a)
/// categories \[W\].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryHierarchyPower {
    /// L1 (instruction + data, all cores) leakage.
    pub l1_leak: f64,
    /// L1 dynamic.
    pub l1_dyn: f64,
    /// L2 (all cores) leakage.
    pub l2_leak: f64,
    /// L2 dynamic.
    pub l2_dyn: f64,
    /// L2↔L3 crossbar leakage.
    pub xbar_leak: f64,
    /// L2↔L3 crossbar dynamic.
    pub xbar_dyn: f64,
    /// L3 leakage.
    pub l3_leak: f64,
    /// L3 dynamic.
    pub l3_dyn: f64,
    /// L3 refresh.
    pub l3_refresh: f64,
    /// Main-memory chip dynamic.
    pub mem_dyn: f64,
    /// Main-memory standby (leakage + interface).
    pub mem_standby: f64,
    /// Main-memory refresh.
    pub mem_refresh: f64,
    /// Memory bus.
    pub bus: f64,
}

impl MemoryHierarchyPower {
    /// Total memory-hierarchy power \[W\].
    pub fn total(&self) -> f64 {
        self.l1_leak
            + self.l1_dyn
            + self.l2_leak
            + self.l2_dyn
            + self.xbar_leak
            + self.xbar_dyn
            + self.l3_leak
            + self.l3_dyn
            + self.l3_refresh
            + self.mem_dyn
            + self.mem_standby
            + self.mem_refresh
            + self.bus
    }

    /// Assembles the breakdown for one simulated run.
    pub fn from_run(cfg: &StudyConfig, stats: &SimStats) -> MemoryHierarchyPower {
        let seconds = stats.cycles as f64 / cfg.system.clock_hz;
        if seconds == 0.0 {
            return MemoryHierarchyPower::default();
        }
        let per_s = 1.0 / seconds;
        let n_cores = f64::from(cfg.system.n_cores);
        let c = &stats.counts;

        // L1: data + instruction caches, both of the L1 solution's shape.
        // Two L1 arrays per core (I + D).
        let l1_leak = 2.0 * n_cores * cfg.l1.leakage_power.value();
        let l1_dyn = ((c.l1_reads + c.l1i_reads) as f64 * cfg.l1.read_energy.value()
            + c.l1_writes as f64 * cfg.l1.write_energy.value())
            * per_s;

        let l2_leak = n_cores * cfg.l2.leakage_power.value();
        let l2_dyn = (c.l2_reads as f64 * cfg.l2.read_energy.value()
            + c.l2_writes as f64 * cfg.l2.write_energy.value())
            * per_s;

        let (xbar_leak, xbar_dyn, l3_leak, l3_dyn, l3_refresh) = match &cfg.l3 {
            Some(l3) => {
                let flits = (64 * 8 / crate::configs::XBAR_WIDTH_BITS) as f64;
                (
                    cfg.xbar.leakage.value(),
                    c.xbar_transfers as f64 * flits * cfg.xbar.energy.value() * per_s,
                    l3.leakage_power.value(),
                    (c.l3_reads as f64 * l3.read_energy.value()
                        + c.l3_writes as f64 * l3.write_energy.value())
                        * per_s,
                    l3.refresh_power.value(),
                )
            }
            None => (0.0, 0.0, 0.0, 0.0, 0.0),
        };

        let Some(mm) = cfg.main_memory.main_memory.as_ref() else {
            unreachable!("a study config carries a chip-level main-memory solution")
        };
        let e = &mm.energies;
        let mem_dyn = f64::from(CHIPS_PER_RANK)
            * (c.mem_activates as f64 * e.activate.value()
                + c.mem_reads as f64 * e.read.value()
                + c.mem_writes as f64 * e.write.value())
            * per_s;
        let mem_standby = f64::from(TOTAL_CHIPS) * e.standby_power.value();
        let mem_refresh = f64::from(TOTAL_CHIPS) * e.refresh_power.value();

        let bus_bits = (c.mem_reads + c.mem_writes) as f64 * 64.0 * 8.0;
        let bus = bus_bits * BUS_J_PER_BIT * per_s;

        MemoryHierarchyPower {
            l1_leak,
            l1_dyn,
            l2_leak,
            l2_dyn,
            xbar_leak,
            xbar_dyn,
            l3_leak,
            l3_dyn,
            l3_refresh,
            mem_dyn,
            mem_standby,
            mem_refresh,
            bus,
        }
    }
}

/// System power: core + memory hierarchy \[W\].
pub fn system_power(hier: &MemoryHierarchyPower) -> f64 {
    CORE_POWER_W + hier.total()
}

/// Energy-delay product of a run: `P_system × t²` [J·s].
pub fn energy_delay(hier: &MemoryHierarchyPower, seconds: f64) -> f64 {
    system_power(hier) * seconds * seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{build, LlcKind};
    use memsim::stats::AccessCounts;

    fn fake_stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            instructions: cycles,
            counts: AccessCounts {
                l1_reads: 1_000_000,
                l1_writes: 300_000,
                l1i_reads: 2_000_000,
                l2_reads: 100_000,
                l2_writes: 40_000,
                l3_reads: 30_000,
                l3_writes: 12_000,
                l3_page_hits: 0,
                xbar_transfers: 60_000,
                mem_activates: 8_000,
                mem_reads: 8_000,
                mem_writes: 3_000,
                mem_page_hits: 0,
            },
            ..SimStats::default()
        }
    }

    #[test]
    fn no_l3_has_no_l3_power() {
        let cfg = build(LlcKind::NoL3);
        let p = MemoryHierarchyPower::from_run(&cfg, &fake_stats(10_000_000));
        assert_eq!(p.l3_leak, 0.0);
        assert_eq!(p.l3_dyn, 0.0);
        assert_eq!(p.l3_refresh, 0.0);
        assert!(p.mem_standby > 0.5, "standby dominates: {}", p.mem_standby);
        assert!(p.total() > 0.0);
    }

    #[test]
    fn sram_l3_leaks_lp_leaks_less_comm_least() {
        let sram = build(LlcKind::Sram24);
        let lp = build(LlcKind::LpDramEd48);
        let comm = build(LlcKind::CmDramEd96);
        let s = MemoryHierarchyPower::from_run(&sram, &fake_stats(10_000_000));
        let l = MemoryHierarchyPower::from_run(&lp, &fake_stats(10_000_000));
        let c = MemoryHierarchyPower::from_run(&comm, &fake_stats(10_000_000));
        assert!(s.l3_leak > l.l3_leak, "{} vs {}", s.l3_leak, l.l3_leak);
        assert!(l.l3_leak > 10.0 * c.l3_leak);
        // DRAM L3s refresh; SRAM doesn't.
        assert_eq!(s.l3_refresh, 0.0);
        assert!(l.l3_refresh > 0.0 && c.l3_refresh > 0.0);
        assert!(l.l3_refresh > c.l3_refresh, "LP refreshes far more often");
    }

    #[test]
    fn energy_delay_scales_quadratically_with_time() {
        let cfg = build(LlcKind::NoL3);
        let p = MemoryHierarchyPower::from_run(&cfg, &fake_stats(10_000_000));
        let ed1 = energy_delay(&p, 1.0);
        let ed2 = energy_delay(&p, 2.0);
        assert!((ed2 / ed1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_safe() {
        let cfg = build(LlcKind::NoL3);
        let p = MemoryHierarchyPower::from_run(&cfg, &SimStats::default());
        assert_eq!(p.total(), 0.0);
    }
}
