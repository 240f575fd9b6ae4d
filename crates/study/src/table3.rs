//! Table 3: projections of key properties of every memory-hierarchy level
//! at 32 nm (paper §4.1) — L1, L2, the five L3 options and the 8 Gb
//! main-memory chip.

use crate::configs::{self, clock_ratio, quantize, LlcKind};
use crate::power::CHIPS_PER_RANK;
use crate::report::format_table;
use cactid_core::Solution;
use memsim::config::CacheConfig;

/// One column of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Column {
    /// Level label ("L1", "L2", "L3 sram", … , "Main memory chip").
    pub label: String,
    /// Capacity \[bytes\] (per chip for main memory).
    pub capacity_bytes: u64,
    /// Banks.
    pub banks: u32,
    /// Subbanks per bank (stripes the organization interleaves across).
    pub subbanks: u32,
    /// Associativity (0 = not a cache).
    pub associativity: u32,
    /// Cache clock as a fraction of the CPU clock (1 / ratio).
    pub clock_ratio: u64,
    /// Access time [CPU cycles].
    pub access_cycles: u64,
    /// Random cycle time [CPU cycles].
    pub cycle_cycles: u64,
    /// Area \[mm²\] (per bank for L3s, per chip for main memory).
    pub area_mm2: f64,
    /// Area efficiency [%].
    pub area_eff_pct: f64,
    /// Standby/leakage power \[W\] (whole structure).
    pub leakage_w: f64,
    /// Refresh power \[W\].
    pub refresh_w: f64,
    /// Dynamic read energy per access \[nJ\].
    pub read_energy_nj: f64,
}

/// One cache column: `banks` instances of `cache` as the simulator runs
/// them (capacity, geometry and cycles), costed by their solution `sol`.
fn column(label: String, cache: &CacheConfig, banks: u32, sol: &Solution) -> Table3Column {
    Table3Column {
        label,
        capacity_bytes: cache.capacity_bytes * u64::from(banks),
        banks,
        subbanks: cache.n_subbanks,
        associativity: cache.associativity,
        clock_ratio: clock_ratio(sol),
        access_cycles: cache.access_cycles,
        cycle_cycles: cache.cycle_cycles,
        area_mm2: sol.area_mm2() / f64::from(banks),
        area_eff_pct: sol.area_efficiency * 100.0,
        leakage_w: sol.leakage_power.value(),
        refresh_w: sol.refresh_power.value(),
        read_energy_nj: sol.read_energy_nj(),
    }
}

/// Computes all Table 3 columns (runs the CACTI-D sweeps; a few seconds).
/// The cache columns print the cycles the study simulates.
pub fn table3() -> Vec<Table3Column> {
    // L1/L2/MM are identical across the configs, so take them from the
    // first.
    let base = configs::build(LlcKind::NoL3);
    let mut cols = vec![
        column("L1".into(), &base.system.l1, 1, &base.l1),
        column("L2".into(), &base.system.l2, 1, &base.l2),
    ];
    for &kind in &LlcKind::ALL[1..] {
        let cfg = configs::build(kind);
        let (Some(l3), Some(sol)) = (cfg.system.l3.as_ref(), cfg.l3.as_ref()) else {
            unreachable!("every kind past NoL3 has an L3")
        };
        cols.push(column(
            format!("L3 {}", kind.label()),
            &l3.bank,
            l3.n_banks,
            sol,
        ));
    }
    // Main memory chip: access time = tRCD + CL, cycle = tRC.
    let mm_spec = configs::main_memory_spec();
    let mm_sol = &base.main_memory;
    let Some(mm) = mm_sol.main_memory.as_ref() else {
        unreachable!("a main-memory solution carries chip-level data")
    };
    cols.push(Table3Column {
        label: "Main memory chip".into(),
        capacity_bytes: mm_spec.capacity_bytes,
        banks: mm_spec.n_banks,
        subbanks: mm_sol.org.ndbl,
        associativity: 0,
        clock_ratio: 16, // DDR interface clock vs 2 GHz core
        access_cycles: quantize(mm.timing.t_rcd + mm.timing.cas_latency),
        cycle_cycles: quantize(mm.timing.t_rc),
        area_mm2: mm.chip_area.value() / 1e-6,
        area_eff_pct: mm.area_efficiency * 100.0,
        leakage_w: mm.energies.standby_power.value(),
        refresh_w: mm.energies.refresh_power.value(),
        read_energy_nj: (mm.energies.activate + mm.energies.read).value()
            * f64::from(CHIPS_PER_RANK)
            * 1e9,
    });
    cols
}

fn human_capacity(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{}Gb", (bytes * 8) >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

/// Renders Table 3 as text (one row per level for readability — the paper
/// prints it transposed).
pub fn render() -> String {
    let cols = table3();
    let rows: Vec<Vec<String>> = cols
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                human_capacity(c.capacity_bytes),
                c.banks.to_string(),
                c.subbanks.to_string(),
                if c.associativity == 0 {
                    "-".into()
                } else {
                    c.associativity.to_string()
                },
                format!("1/{}", c.clock_ratio),
                c.access_cycles.to_string(),
                c.cycle_cycles.to_string(),
                format!("{:.2}", c.area_mm2),
                format!("{:.0}", c.area_eff_pct),
                format!("{:.3}", c.leakage_w),
                format!("{:.4}", c.refresh_w),
                format!("{:.2}", c.read_energy_nj),
            ]
        })
        .collect();
    format!(
        "Table 3: 32nm projections (2 GHz CPU cycles; L3 area per bank)\n{}",
        format_table(
            &[
                "Level", "Cap", "Bk", "Sub", "Asc", "Clk", "Acc", "Cyc", "mm2", "Eff%", "Leak W",
                "Refr W", "Erd nJ"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_eight_columns_with_paper_shape() {
        let cols = table3();
        assert_eq!(cols.len(), 8);
        let by = |l: &str| {
            cols.iter()
                .find(|c| c.label.contains(l))
                .unwrap_or_else(|| panic!("{l} missing"))
        };
        let l1 = by("L1");
        let sram = by("sram");
        let lp = by("lp_dram_ed");
        let comm = by("cm_dram_c");
        let mm = by("Main memory");

        // Access-time ordering: L1 < SRAM L3 ≤ LP L3 < COMM L3 < memory.
        assert!(l1.access_cycles <= 3);
        assert!(sram.access_cycles <= lp.access_cycles + 1);
        assert!(lp.access_cycles < comm.access_cycles);
        assert!(comm.access_cycles < mm.access_cycles);

        // Leakage ordering (Table 3): SRAM > LP ≫ COMM.
        assert!(sram.leakage_w > lp.leakage_w);
        assert!(lp.leakage_w > 10.0 * comm.leakage_w);

        // Only DRAMs refresh; LP far more often than COMM.
        assert_eq!(sram.refresh_w, 0.0);
        assert!(lp.refresh_w > comm.refresh_w);

        // COMM-DRAM L3 densest: biggest capacity in comparable bank area.
        assert!(comm.area_mm2 < 3.0 * sram.area_mm2);
        assert!(mm.area_mm2 > 50.0 && mm.area_mm2 < 200.0);
    }

    #[test]
    fn render_mentions_every_level() {
        let s = render();
        for label in ["L1", "L2", "sram", "lp_dram_ed", "cm_dram_c", "Main memory"] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
