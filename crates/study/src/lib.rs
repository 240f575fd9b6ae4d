//! # llc-study — the paper's experiments
//!
//! Reproduces every table and figure of the CACTI-D paper's evaluation:
//!
//! | Experiment | Module | What it produces |
//! |------------|--------|------------------|
//! | Table 1 | [`table1`] | SRAM / LP-DRAM / COMM-DRAM technology characteristics |
//! | Table 2 | [`table2`] | DRAM model validation vs. the 78 nm Micron 1 Gb DDR3-1066 |
//! | Figure 1 | [`figure1`] | SRAM validation vs. the 65 nm 16 MB Xeon L3 (solution sweep) |
//! | Table 3 | [`table3`] | 32 nm projections for L1/L2/five L3s/main memory |
//! | Figure 4 | [`figure4`] | IPC, average read latency and cycle breakdown, 8 apps × 6 configs |
//! | Figure 5 | [`figure5`] | Memory-hierarchy power, system power and energy-delay |
//!
//! The [`configs`] module builds the six system configurations (`nol3`,
//! `sram`, `lp_dram_ed`, `lp_dram_c`, `cm_dram_ed`, `cm_dram_c`) from live
//! CACTI-D solutions; [`power`] assembles the Figure 5 power model
//! (component energies × simulator activity counts, plus leakage, refresh,
//! memory-bus power at 2 mW/Gb/s and the scaled 22.3 W core power).
//!
//! Two extensions go beyond the paper's figures: [`powerdown`] quantifies
//! the conclusion's suggestion that DRAM power-down modes would cut the
//! dominant standby power, and [`thermal`] reproduces the §4.3 stacked-die
//! temperature claim (< 1.5 K between technologies). [`ablations`] flips
//! the paper's design choices (page policy, Figure 3 mapping, DRAM-L3
//! interface, access mode, repeater relaxation) one at a time.
//!
//! Run everything from the CLI:
//!
//! ```text
//! cargo run --release -p llc-study -- all
//! ```

pub mod ablations;
pub mod configs;
pub mod figure1;
pub mod figure4;
pub mod figure5;
pub mod power;
pub mod powerdown;
pub mod report;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod thermal;

pub use configs::{LlcKind, StudyConfig};
pub use figure4::{run_study, AppRun};
pub use power::{MemoryHierarchyPower, CORE_POWER_W};
