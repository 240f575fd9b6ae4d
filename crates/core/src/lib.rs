//! # cactid-core — the CACTI-D memory model
//!
//! Reproduction of CACTI-D (Thoziyoor, Ahn, Monchiero, Brockman, Jouppi —
//! *A Comprehensive Memory Modeling Tool and its Application to the Design
//! and Analysis of Future Memory Hierarchies*, ISCA 2008).
//!
//! Given a [`MemorySpec`] — capacity, block size, associativity, banks,
//! cell technology (SRAM / LP-DRAM / COMM-DRAM), technology node and
//! optimization knobs — the solver sweeps array organizations
//! ([`org::OrgParams`]), evaluates each with circuit-level models
//! ([`mod@array`]), and selects a winner using the paper's staged optimization
//! (§2.4). Caches get a tag array and access-mode-aware assembly; main
//! memory gets the chip-level DRAM command model of §2.1/§2.3.5 (tRCD, CAS
//! latency, tRC, tRRD, ACTIVATE/READ/WRITE energies, refresh power).
//!
//! # Quickstart
//!
//! ```
//! use cactid_core::{optimize, MemorySpec, MemoryKind, AccessMode};
//! use cactid_tech::{CellTechnology, TechNode};
//!
//! # fn main() -> Result<(), cactid_core::CactiError> {
//! // A 1 MB 8-way SRAM L2 at 32 nm.
//! let spec = MemorySpec::builder()
//!     .capacity_bytes(1 << 20)
//!     .block_bytes(64)
//!     .associativity(8)
//!     .banks(1)
//!     .cell_tech(CellTechnology::Sram)
//!     .node(TechNode::N32)
//!     .kind(MemoryKind::Cache { access_mode: AccessMode::Normal })
//!     .build()?;
//! let sol = optimize(&spec)?;
//! println!(
//!     "access {:.2} ns, area {:.2} mm², read {:.2} nJ",
//!     sol.access_ns(), sol.area_mm2(), sol.read_energy_nj(),
//! );
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod dimm;
pub mod error;
pub mod main_memory;
pub mod org;
pub mod solution;
pub mod spec;
pub mod tag;

mod optimizer;

pub use array::{EvalMemo, PrescreenFailure};
pub use dimm::{DimmConfig, DimmResult};
pub use error::CactiError;
pub use main_memory::{DramEnergies, DramTiming, MainMemoryResult};
pub use optimizer::{
    optimize, select, solve_with_stats, solve_with_stats_reference, static_screen, ArraySweep,
    ScreenHistogram, ScreenVerdict, SolveOutcome, SolveStats, StaticScreen, Winners,
};
pub use org::OrgParams;
pub use solution::Solution;
pub use spec::{AccessMode, MemoryKind, MemorySpec, MemorySpecBuilder, OptimizationOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::Watts;

    #[test]
    fn shared_types_are_send_and_sync() {
        // Long-lived services hand these across worker threads; a field
        // change that silently drops Send/Sync must fail here, not at a
        // distant spawn site.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemorySpec>();
        assert_send_sync::<Solution>();
        assert_send_sync::<CactiError>();
        assert_send_sync::<SolveStats>();
        assert_send_sync::<OptimizationOptions>();
    }

    #[test]
    fn concurrent_solves_of_one_spec_agree_bitwise() {
        // Eight threads race the same spec against the resident technology
        // tables; every winner must be identical to the single-threaded
        // answer (solves are pure given the spec). The explore pool and
        // the serve loop call `optimize` from worker threads like this.
        let spec = MemorySpec::builder()
            .capacity_bytes(256 << 10)
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
        let reference = optimize(&spec).unwrap();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        optimize(&spec).unwrap()
                    })
                })
                .collect();
            for racer in racers {
                assert_eq!(racer.join().unwrap(), reference);
            }
        });
    }

    #[test]
    fn three_technologies_rank_as_the_paper_says() {
        // Same 8 MB cache in all three technologies at 32 nm: SRAM fastest
        // and biggest; COMM-DRAM slowest, smallest and least leaky
        // (Table 3 orderings).
        let mk = |cell| {
            let spec = MemorySpec::builder()
                .capacity_bytes(8 << 20)
                .block_bytes(64)
                .associativity(8)
                .banks(1)
                .cell_tech(cell)
                .node(TechNode::N32)
                .kind(MemoryKind::Cache {
                    access_mode: AccessMode::Normal,
                })
                .build()
                .unwrap();
            optimize(&spec).unwrap()
        };
        let sram = mk(CellTechnology::Sram);
        let lp = mk(CellTechnology::LpDram);
        let comm = mk(CellTechnology::CommDram);

        // SRAM has the fastest random cycle (no destructive readout); the
        // DRAMs pay writeback+restore, COMM-DRAM most of all.
        assert!(sram.random_cycle < lp.random_cycle);
        assert!(lp.random_cycle < comm.random_cycle);
        // COMM-DRAM is by far the slowest to access (LSTP periphery).
        assert!(comm.access_time > 1.5 * lp.access_time);
        // Density: SRAM (146 F²) ≫ LP-DRAM (30 F²) > COMM-DRAM (6 F²).
        assert!(sram.area > lp.area && lp.area > comm.area);
        // Leakage orderings from Table 3.
        assert!(comm.leakage_power < lp.leakage_power / 10.0);
        assert!(sram.leakage_power > lp.leakage_power);
        assert!(sram.refresh_power == Watts::ZERO);
        assert!(lp.refresh_power > comm.refresh_power, "short LP retention");
    }
}
