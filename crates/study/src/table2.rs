//! Table 2: validation of the DRAM model against the 78 nm Micron 1 Gb
//! DDR3-1066 x8 device (paper §2.5).
//!
//! The "actual" column reproduces the paper's published device data
//! (datasheet timing + Micron power-calculator energies); the model column
//! is a live CACTI-D solution. Following the paper, the selected solution
//! is the high-area-efficiency one ("because of the premium on price per
//! bit of commodity DRAM").

use crate::report::{format_table, pct_err};
use cactid_core::{optimize, MemoryKind, MemorySpec, OptimizationOptions, Solution};
use cactid_tech::{CellTechnology, TechNode};

/// Published values for the Micron 1 Gb DDR3-1066 x8 device (paper
/// Table 2, "Actual value" column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicronActual {
    /// Area efficiency (fraction; the paper assumes the ITRS 56 % value).
    pub area_efficiency: f64,
    /// tRCD \[s\].
    pub t_rcd: f64,
    /// CAS latency \[s\].
    pub cas_latency: f64,
    /// tRC \[s\].
    pub t_rc: f64,
    /// ACTIVATE (+precharge) energy \[J\].
    pub e_activate: f64,
    /// READ energy \[J\].
    pub e_read: f64,
    /// WRITE energy \[J\].
    pub e_write: f64,
    /// Refresh power \[W\].
    pub p_refresh: f64,
}

/// The paper's Table 2 "Actual value" column.
pub const MICRON_ACTUAL: MicronActual = MicronActual {
    area_efficiency: 0.56,
    t_rcd: 13.1e-9,
    cas_latency: 13.1e-9,
    t_rc: 52.5e-9,
    e_activate: 3.1e-9,
    e_read: 1.6e-9,
    e_write: 1.8e-9,
    p_refresh: 3.5e-3,
};

/// One row of the reproduced Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Metric name.
    pub metric: &'static str,
    /// Published device value.
    pub actual: f64,
    /// Our model's value.
    pub model: f64,
    /// Percent error of the model vs. actual.
    pub error_pct: f64,
}

/// The Micron-like specification (1 Gb, 8 banks, x8, BL8, 8 Kb page, 78 nm).
pub fn micron_spec() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 27)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N78)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        })
        // Paper: pick a high-area-efficiency solution.
        .optimization(OptimizationOptions::c())
        .build()
        .unwrap_or_else(|e| panic!("the Micron spec is valid: {e}"))
}

/// Solves the Micron spec and assembles the validation rows.
pub fn table2() -> (Solution, Vec<Table2Row>) {
    let sol = optimize(&micron_spec()).unwrap_or_else(|e| panic!("the Micron spec solves: {e}"));
    let Some(mm) = sol.main_memory.as_ref() else {
        unreachable!("a main-memory solution carries the chip-level result")
    };
    let a = MICRON_ACTUAL;
    let rows = vec![
        Table2Row {
            metric: "Area efficiency (%)",
            actual: a.area_efficiency * 100.0,
            model: mm.area_efficiency * 100.0,
            error_pct: pct_err(mm.area_efficiency, a.area_efficiency),
        },
        Table2Row {
            metric: "Activation delay tRCD (ns)",
            actual: a.t_rcd * 1e9,
            model: mm.timing.t_rcd.value() * 1e9,
            error_pct: pct_err(mm.timing.t_rcd.value(), a.t_rcd),
        },
        Table2Row {
            metric: "CAS latency (ns)",
            actual: a.cas_latency * 1e9,
            model: mm.timing.cas_latency.value() * 1e9,
            error_pct: pct_err(mm.timing.cas_latency.value(), a.cas_latency),
        },
        Table2Row {
            metric: "Row cycle time tRC (ns)",
            actual: a.t_rc * 1e9,
            model: mm.timing.t_rc.value() * 1e9,
            error_pct: pct_err(mm.timing.t_rc.value(), a.t_rc),
        },
        Table2Row {
            metric: "ACTIVATE energy (nJ)",
            actual: a.e_activate * 1e9,
            model: mm.energies.activate.value() * 1e9,
            error_pct: pct_err(mm.energies.activate.value(), a.e_activate),
        },
        Table2Row {
            metric: "READ energy (nJ)",
            actual: a.e_read * 1e9,
            model: mm.energies.read.value() * 1e9,
            error_pct: pct_err(mm.energies.read.value(), a.e_read),
        },
        Table2Row {
            metric: "WRITE energy (nJ)",
            actual: a.e_write * 1e9,
            model: mm.energies.write.value() * 1e9,
            error_pct: pct_err(mm.energies.write.value(), a.e_write),
        },
        Table2Row {
            metric: "Refresh power (mW)",
            actual: a.p_refresh * 1e3,
            model: mm.energies.refresh_power.value() * 1e3,
            error_pct: pct_err(mm.energies.refresh_power.value(), a.p_refresh),
        },
    ];
    (sol, rows)
}

/// Mean absolute error across the Table 2 metrics.
pub fn mean_abs_error(rows: &[Table2Row]) -> f64 {
    rows.iter().map(|r| r.error_pct.abs()).sum::<f64>() / rows.len() as f64
}

/// Renders Table 2 as text.
pub fn render() -> String {
    let (_, rows) = table2();
    let mae = mean_abs_error(&rows);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.metric.to_string(),
                format!("{:.1}", r.actual),
                format!("{:.1}", r.model),
                format!("{:+.1}%", r.error_pct),
            ]
        })
        .collect();
    format!(
        "Table 2: DRAM validation vs 78nm Micron 1Gb DDR3-1066 x8\n{}\nmean |error| = {mae:.1}% (paper's CACTI-D: 16%)\n",
        format_table(&["Metric", "Actual", "CACTI-D (this repo)", "Error"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_stays_within_paper_class_accuracy() {
        let (_, rows) = table2();
        // Timing metrics within ±25 %; energy/power within ±45 % (the
        // paper's own model errors reach −33 % on energies).
        for r in &rows {
            let bound = if r.metric.contains("energy") || r.metric.contains("power") {
                45.0
            } else {
                25.0
            };
            assert!(
                r.error_pct.abs() <= bound,
                "{}: {:+.1}% (actual {:.2}, model {:.2})",
                r.metric,
                r.error_pct,
                r.actual,
                r.model
            );
        }
        let mae = mean_abs_error(&rows);
        assert!(mae < 25.0, "mean |error| {mae:.1}% too high");
    }

    #[test]
    fn selected_solution_is_dense() {
        let (sol, _) = table2();
        let mm = sol.main_memory.as_ref().unwrap();
        assert!(mm.area_efficiency > 0.40, "{}", mm.area_efficiency);
    }
}
