//! Assembled solutions: one evaluated organization with cache-level (tag +
//! data) and chip-level (main-memory) metrics.

use crate::array::ArrayResult;
use crate::main_memory::MainMemoryResult;
use crate::org::OrgParams;
use crate::spec::{AccessMode, MemoryKind, MemorySpec};
use crate::tag::TagResult;
use cactid_tech::CellParams;
use cactid_units::{Joules, Seconds, SquareMeters, Watts};
use std::sync::Arc;

/// One complete solution produced by the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The data-array organization this solution uses.
    pub org: OrgParams,
    /// Data-array evaluation (one bank).
    pub data: ArrayResult,
    /// Tag-array evaluation (one bank), for caches. One tag design serves
    /// every candidate of a solve, so the sweep shares it by `Arc` instead
    /// of cloning the full evaluation per candidate.
    pub tag: Option<Arc<TagResult>>,
    /// Chip-level main-memory result, for main-memory specs.
    pub main_memory: Option<MainMemoryResult>,
    /// End-to-end access time.
    pub access_time: Seconds,
    /// Random cycle time.
    pub random_cycle: Seconds,
    /// Multisubbank interleave cycle time.
    pub interleave_cycle: Seconds,
    /// Total area, all banks, tag + data (chip area for main memory).
    pub area: SquareMeters,
    /// Cell-area / total-area efficiency (0–1).
    pub area_efficiency: f64,
    /// Read energy per access.
    pub read_energy: Joules,
    /// Write energy per access.
    pub write_energy: Joules,
    /// Total standby leakage, all banks.
    pub leakage_power: Watts,
    /// Total refresh power, all banks (0 for SRAM).
    pub refresh_power: Watts,
}

/// The metrics of one candidate that §2.4 ranks and a [`Solution`]
/// reports, assembled from its evaluated parts. The solver ranks these
/// for every candidate and builds a [`Solution`] only for a winner; both
/// go through [`Metrics::of`], so the two can never disagree by a bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Metrics {
    pub(crate) access_time: Seconds,
    pub(crate) random_cycle: Seconds,
    pub(crate) interleave_cycle: Seconds,
    pub(crate) area: SquareMeters,
    pub(crate) area_efficiency: f64,
    pub(crate) read_energy: Joules,
    pub(crate) write_energy: Joules,
    pub(crate) leakage_power: Watts,
    pub(crate) refresh_power: Watts,
}

impl Metrics {
    /// Assembles the cache-level (tag + data) or chip-level (main memory)
    /// metrics of one data-array evaluation of `spec` with cells `cell`.
    pub(crate) fn of(
        spec: &MemorySpec,
        cell: &CellParams,
        data: &ArrayResult,
        tag: Option<&TagResult>,
        main_memory: Option<&MainMemoryResult>,
    ) -> Metrics {
        let n_banks = f64::from(spec.n_banks);

        // ---- Access time assembly per access mode ----
        let data_access = data.access_time();
        let access_time = match spec.kind {
            MemoryKind::Cache { access_mode } => {
                let Some(t) = tag else {
                    unreachable!("a cache solution carries a tag array")
                };
                match access_mode {
                    // Way select must arrive before the output mux; the
                    // data array's mux+htree-out remain after the merge.
                    AccessMode::Normal => {
                        let late_select = t.access_time() + data.delay.mux + data.delay.htree_out;
                        data_access.max(late_select)
                    }
                    AccessMode::Sequential => t.access_time() + data_access,
                    AccessMode::Fast => data_access.max(t.access_time()),
                }
            }
            MemoryKind::Ram => data_access,
            MemoryKind::MainMemory { .. } => {
                let Some(mm) = main_memory else {
                    unreachable!("a main-memory solution carries the chip result")
                };
                mm.timing.t_rcd + mm.timing.cas_latency
            }
        };

        let random_cycle = match (&spec.kind, main_memory) {
            (MemoryKind::MainMemory { .. }, Some(mm)) => mm.timing.t_rc,
            _ => {
                let tag_cycle = tag.map_or(Seconds::ZERO, |t| t.array.random_cycle);
                data.random_cycle.max(tag_cycle)
            }
        };
        let interleave_cycle = data.interleave_cycle;

        // ---- Area ----
        let (area, area_efficiency) = if let Some(mm) = main_memory {
            (mm.chip_area, mm.area_efficiency)
        } else {
            let tag_area = tag.map_or(SquareMeters::ZERO, |t| t.array.area());
            let total = n_banks * (data.area() + tag_area);
            let tag_bits_total = tag.map_or(0, |_| {
                spec.sets() * u64::from(spec.associativity) * u64::from(spec.tag_bits())
            });
            let cells = ((spec.capacity_bytes * 8 + tag_bits_total) as f64) * cell.area();
            (total, cells / total)
        };

        // ---- Energy / power ----
        let tag_read = tag.map_or(Joules::ZERO, TagResult::read_energy);
        let tag_write = tag.map_or(Joules::ZERO, |t| t.array.write_energy + t.comparator_energy);
        let read_energy = data.read_energy() + tag_read;
        let write_energy = data.write_energy + tag_write;
        let tag_leak = tag.map_or(Watts::ZERO, |t| t.array.leakage);
        let tag_refresh = tag.map_or(Watts::ZERO, |t| t.array.refresh_power);
        let leakage_power = if let Some(mm) = main_memory {
            mm.energies.standby_power
        } else {
            n_banks * (data.leakage + tag_leak)
        };
        let refresh_power = if let Some(mm) = main_memory {
            mm.energies.refresh_power
        } else {
            n_banks * (data.refresh_power + tag_refresh)
        };

        Metrics {
            access_time,
            random_cycle,
            interleave_cycle,
            area,
            area_efficiency,
            read_energy,
            write_energy,
            leakage_power,
            refresh_power,
        }
    }
}

impl Solution {
    /// Builds a [`Solution`] from the evaluated parts.
    pub(crate) fn assemble(
        spec: &MemorySpec,
        org: OrgParams,
        cell: &CellParams,
        data: ArrayResult,
        tag: Option<Arc<TagResult>>,
        main_memory: Option<MainMemoryResult>,
    ) -> Solution {
        let m = Metrics::of(spec, cell, &data, tag.as_deref(), main_memory.as_ref());
        Solution {
            org,
            data,
            tag,
            main_memory,
            access_time: m.access_time,
            random_cycle: m.random_cycle,
            interleave_cycle: m.interleave_cycle,
            area: m.area,
            area_efficiency: m.area_efficiency,
            read_energy: m.read_energy,
            write_energy: m.write_energy,
            leakage_power: m.leakage_power,
            refresh_power: m.refresh_power,
        }
    }

    /// The assembled metrics this solution reports.
    pub(crate) fn metrics(&self) -> Metrics {
        Metrics {
            access_time: self.access_time,
            random_cycle: self.random_cycle,
            interleave_cycle: self.interleave_cycle,
            area: self.area,
            area_efficiency: self.area_efficiency,
            read_energy: self.read_energy,
            write_energy: self.write_energy,
            leakage_power: self.leakage_power,
            refresh_power: self.refresh_power,
        }
    }

    /// Area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.area / SquareMeters::mm2(1.0)
    }

    /// Access time in nanoseconds.
    pub fn access_ns(&self) -> f64 {
        self.access_time / Seconds::ns(1.0)
    }

    /// Read energy in nanojoules.
    pub fn read_energy_nj(&self) -> f64 {
        self.read_energy / Joules::nj(1.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::{AccessMode, MemoryKind, MemorySpec};
    use crate::{optimize, solve_with_stats};
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::Seconds;

    fn spec(kind: MemoryKind, cell: CellTechnology) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 20)
            .block_bytes(64)
            .associativity(if matches!(kind, MemoryKind::Cache { .. }) {
                8
            } else {
                1
            })
            .banks(1)
            .cell_tech(cell)
            .node(TechNode::N32)
            .kind(kind)
            .build()
            .unwrap()
    }

    #[test]
    fn ram_kind_has_no_tag_array() {
        let sol = optimize(&spec(MemoryKind::Ram, CellTechnology::Sram)).unwrap();
        assert!(sol.tag.is_none());
        assert!(sol.main_memory.is_none());
        assert_eq!(sol.access_time, sol.data.access_time());
    }

    #[test]
    fn sequential_mode_serializes_tag_and_data() {
        let normal = optimize(&spec(
            MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            },
            CellTechnology::Sram,
        ))
        .unwrap();
        let sequential = optimize(&spec(
            MemoryKind::Cache {
                access_mode: AccessMode::Sequential,
            },
            CellTechnology::Sram,
        ))
        .unwrap();
        let fast = optimize(&spec(
            MemoryKind::Cache {
                access_mode: AccessMode::Fast,
            },
            CellTechnology::Sram,
        ))
        .unwrap();
        // Sequential = tag + data end to end; it must exceed both parallel
        // modes, and fast can never be slower than normal.
        assert!(sequential.access_time > normal.access_time);
        assert!(fast.access_time <= normal.access_time + Seconds::from_si(1e-12));
        let t = sequential.tag.as_ref().unwrap();
        assert!(
            sequential.access_time
                >= t.access_time() + sequential.data.access_time() - Seconds::from_si(1e-12)
        );
    }

    #[test]
    fn unit_helpers_are_consistent() {
        let sol = optimize(&spec(
            MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            },
            CellTechnology::LpDram,
        ))
        .unwrap();
        assert!((sol.area_mm2() - sol.area.value() / 1e-6).abs() < 1e-12);
        assert!((sol.access_ns() - sol.access_time.value() * 1e9).abs() < 1e-12);
        assert!((sol.read_energy_nj() - sol.read_energy.value() * 1e9).abs() < 1e-12);
    }

    #[test]
    fn cache_cycle_covers_tag_array_too() {
        let s = spec(
            MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            },
            CellTechnology::LpDram,
        );
        for sol in solve_with_stats(&s, None).result.unwrap() {
            let tag_cycle = sol.tag.as_ref().unwrap().array.random_cycle;
            assert!(sol.random_cycle >= tag_cycle - Seconds::from_si(1e-15));
            assert!(sol.random_cycle >= sol.data.random_cycle - Seconds::from_si(1e-15));
        }
    }
}
