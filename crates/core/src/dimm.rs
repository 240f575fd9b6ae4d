//! DIMM-level assembly: a rank of x-N chips accessed in lockstep behind a
//! 64-bit channel (paper §3.1: "each channel connected to a single-ranked
//! 8 GB DIMM made up of 8 Gb DDR4-3200 devices").

use crate::error::{CactiError, SpecViolation};
use crate::main_memory::MainMemoryResult;
use crate::spec::{MemoryKind, MemorySpec};
use cactid_units::{Joules, Seconds, Watts};

/// A DIMM description: how chips populate a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmConfig {
    /// Channel data width \[bits\] (64 for DDR).
    pub channel_bits: u32,
    /// Ranks on the DIMM.
    pub ranks: u32,
    /// Interface data rate [MT/s] — used for burst-time and bandwidth.
    pub data_rate_mts: u32,
}

impl Default for DimmConfig {
    fn default() -> Self {
        // The study's DDR4-3200 single-ranked DIMM.
        DimmConfig {
            channel_bits: 64,
            ranks: 1,
            data_rate_mts: 3200,
        }
    }
}

/// DIMM-level results derived from a chip-level solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimmResult {
    /// Chips per rank (channel width / chip IO width).
    pub chips_per_rank: u32,
    /// Total chips on the DIMM.
    pub total_chips: u32,
    /// DIMM capacity \[bytes\].
    pub capacity_bytes: u64,
    /// Energy to read one 64-byte line (rank ACT + RD across all chips,
    /// closed-page).
    pub line_read_energy: Joules,
    /// Energy to write one 64-byte line.
    pub line_write_energy: Joules,
    /// DIMM standby power.
    pub standby_power: Watts,
    /// DIMM refresh power.
    pub refresh_power: Watts,
    /// Peak channel bandwidth [bytes/s].
    pub peak_bandwidth: f64,
    /// Time to burst one 64-byte line on the channel.
    pub t_burst: Seconds,
}

/// Assembles DIMM-level numbers from a main-memory chip solution.
///
/// # Errors
///
/// [`CactiError::InvalidSpec`] if `spec` is not a main-memory spec or the
/// chip IO width does not divide the channel width.
pub fn assemble(
    spec: &MemorySpec,
    chip: &MainMemoryResult,
    dimm: DimmConfig,
) -> Result<DimmResult, CactiError> {
    let MemoryKind::MainMemory { io_bits, .. } = spec.kind else {
        return Err(CactiError::InvalidSpec(SpecViolation::NotMainMemory(
            "DIMM",
        )));
    };
    if io_bits == 0 || !dimm.channel_bits.is_multiple_of(io_bits) {
        return Err(CactiError::InvalidSpec(SpecViolation::ChannelWidth {
            io_bits,
            channel_bits: dimm.channel_bits,
        }));
    }
    let chips_per_rank = dimm.channel_bits / io_bits;
    let total_chips = chips_per_rank * dimm.ranks;
    let e = &chip.energies;
    let n = f64::from(chips_per_rank);
    let peak_bandwidth = f64::from(dimm.data_rate_mts) * 1e6 * (f64::from(dimm.channel_bits) / 8.0);
    Ok(DimmResult {
        chips_per_rank,
        total_chips,
        capacity_bytes: spec.capacity_bytes * u64::from(total_chips),
        line_read_energy: n * (e.activate + e.read),
        line_write_energy: n * (e.activate + e.write),
        standby_power: f64::from(total_chips) * e.standby_power,
        refresh_power: f64::from(total_chips) * e.refresh_power,
        peak_bandwidth,
        t_burst: Seconds::from_si(64.0 / peak_bandwidth),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use cactid_tech::{CellTechnology, TechNode};

    fn chip_spec() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 30) // 8 Gb chip
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8 << 10,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn study_dimm_is_8gb_of_eight_chips() {
        let spec = chip_spec();
        let sol = optimize(&spec).unwrap();
        let d = assemble(
            &spec,
            sol.main_memory.as_ref().unwrap(),
            DimmConfig::default(),
        )
        .unwrap();
        assert_eq!(d.chips_per_rank, 8);
        assert_eq!(d.total_chips, 8);
        assert_eq!(d.capacity_bytes, 8 << 30);
        // DDR4-3200 on 64 bits: 25.6 GB/s, 2.5 ns per 64 B line.
        assert!((d.peak_bandwidth - 25.6e9).abs() / 25.6e9 < 1e-9);
        assert!((d.t_burst - Seconds::from_si(2.5e-9)).abs() < Seconds::from_si(1e-12));
        // Rank line-read energy: ~8× the chip's ACT+RD (paper Table 3's
        // 14.2 nJ per cache line is this quantity).
        assert!(d.line_read_energy > Joules::nj(5.0) && d.line_read_energy < Joules::nj(20.0));
        assert!(d.line_write_energy > d.line_read_energy * 0.9);
        assert!(d.standby_power > Watts::ZERO && d.refresh_power > Watts::ZERO);
    }

    #[test]
    fn x4_chips_double_the_population() {
        let mut spec = chip_spec();
        spec.kind = MemoryKind::MainMemory {
            io_bits: 4,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        };
        let sol = optimize(&spec).unwrap();
        let d = assemble(
            &spec,
            sol.main_memory.as_ref().unwrap(),
            DimmConfig::default(),
        )
        .unwrap();
        assert_eq!(d.chips_per_rank, 16);
        assert_eq!(d.capacity_bytes, 16 << 30);
    }

    #[test]
    fn rejects_odd_io_width() {
        let mut spec = chip_spec();
        spec.kind = MemoryKind::MainMemory {
            io_bits: 32,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        };
        // 64 % 32 == 0 is fine; use a DIMM with a 48-bit channel to force
        // the mismatch.
        let sol = optimize(&spec).unwrap();
        let dimm = DimmConfig {
            channel_bits: 48,
            ..DimmConfig::default()
        };
        let err = assemble(&spec, sol.main_memory.as_ref().unwrap(), dimm).unwrap_err();
        assert!(err.to_string().contains("divide"), "{err}");
    }
}
