//! Main-memory DRAM chip organization (paper §2.1, §2.3.5): burst-mode
//! operation over a narrow external interface, page-size-constrained sense
//! amplifier stripes, the ACTIVATE / READ / WRITE / PRECHARGE command
//! timing set (tRCD, CAS latency, tRAS, tRP, tRC) and the multibank
//! interleave cycle time tRRD.

use crate::array::{ArrayInput, ArrayResult};
use crate::error::{CactiError, SpecViolation};
use crate::spec::{MemoryKind, MemorySpec};
use cactid_circuit::repeater::RepeatedWire;
use cactid_tech::{Technology, WireType};
use cactid_units::{Joules, Meters, Seconds, SquareMeters, Volts, Watts};

/// Calibration constants for the chip-level model (see EXPERIMENTS.md).
pub mod cal {
    use cactid_units::{Farads, Joules, Seconds, Watts};

    /// Fixed interface overhead added to the CAS latency: command decode,
    /// DLL/clock synchronization and output serialization.
    pub const IO_OVERHEAD: Seconds = Seconds::from_si(8.0e-9);
    /// Worst-case guard-banding multiplier applied to the row timings
    /// (tRCD / tRAS / tRP): JEDEC datasheet numbers are specified for the
    /// slowest cell at the worst voltage/temperature corner, not for the
    /// typical-case RC the array model computes.
    pub const MM_TIMING_MARGIN: f64 = 3.0;
    /// Additional guard band on the cell-restore and precharge phases: the
    /// datasheet must cover the weakest retention cell in the slowest
    /// corner, which takes far longer than the typical-case RC.
    pub const MM_CELL_MARGIN: f64 = 7.5;
    /// Per-command control overhead energy (command/address receivers,
    /// control logic, V_PP charge-pump inefficiency), referenced to 1.5 V
    /// and scaled by the cell voltage squared.
    pub const E_CMD_OVERHEAD: Joules = Joules::from_si(0.40e-9);
    /// Wordline-lower + equalization start overhead folded into tRP as a
    /// fraction of the decode path.
    pub const TRP_DECODE_FRACTION: f64 = 0.3;
    /// tRRD floor as a fraction of tRC (peak-current / charge-pump
    /// recovery constraint on back-to-back activates).
    pub const TRRD_TRC_FRACTION: f64 = 0.15;
    /// Effective pad/IO switched capacitance per data pin, including
    /// termination.
    pub const C_IO_PIN: Farads = Farads::from_si(6.0e-12);
    /// Chip-level floorplan overhead (spine, pads, charge pumps) as a
    /// fraction of summed bank area.
    pub const CHIP_OVERHEAD: f64 = 0.16;
    /// Always-on interface standby power (DLL, input buffers, charge
    /// pumps).
    pub const STANDBY_IO_POWER: Watts = Watts::from_si(0.050);
}

/// Chip-level timing parameters of a main-memory DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Activate-to-column command delay.
    pub t_rcd: Seconds,
    /// CAS (column) latency.
    pub cas_latency: Seconds,
    /// Activate-to-precharge minimum (row restore complete).
    pub t_ras: Seconds,
    /// Precharge time.
    pub t_rp: Seconds,
    /// Row cycle time, `tRAS + tRP`.
    pub t_rc: Seconds,
    /// Activate-to-activate (different bank) delay.
    pub t_rrd: Seconds,
    /// Burst transfer duration on the interface (interface-speed
    /// dependent; filled by the caller when a data rate is known).
    pub t_burst: Seconds,
}

/// Chip-level per-command energies and standby power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergies {
    /// ACTIVATE (+ implied PRECHARGE) energy per command.
    pub activate: Joules,
    /// READ energy per burst.
    pub read: Joules,
    /// WRITE energy per burst.
    pub write: Joules,
    /// Refresh power, whole chip.
    pub refresh_power: Watts,
    /// Standby (leakage + interface) power, whole chip.
    pub standby_power: Watts,
}

/// Complete chip-level result for a main-memory specification.
#[derive(Debug, Clone, PartialEq)]
pub struct MainMemoryResult {
    /// Command timing.
    pub timing: DramTiming,
    /// Command energies.
    pub energies: DramEnergies,
    /// Chip area.
    pub chip_area: SquareMeters,
    /// Cell-area / chip-area efficiency (0–1).
    pub area_efficiency: f64,
}

/// Assembles the chip-level main-memory result from a bank evaluation.
///
/// `bank` is the per-bank [`ArrayResult`] and `input` the organization it
/// was evaluated for; `spec.kind` must be [`MemoryKind::MainMemory`].
///
/// # Errors
///
/// [`CactiError::InvalidSpec`] if `spec` is not a main-memory
/// specification.
pub fn assemble(
    tech: &Technology,
    spec: &MemorySpec,
    input: &ArrayInput,
    bank: &ArrayResult,
) -> Result<MainMemoryResult, CactiError> {
    let MemoryKind::MainMemory {
        io_bits,
        burst_length,
        ..
    } = spec.kind
    else {
        return Err(CactiError::InvalidSpec(SpecViolation::NotMainMemory));
    };
    let n_banks = f64::from(spec.n_banks);
    let cell = &input.cell;

    // ---- Chip floorplan ----
    let bank_area = bank.area();
    let chip_area = bank_area * n_banks * (1.0 + cal::CHIP_OVERHEAD);
    let cell_area_total = (spec.capacity_bytes * 8) as f64 * cell.area();
    let area_efficiency = cell_area_total / chip_area;

    // ---- Chip-level data path: bank edge to the IO pads ----
    let chip_side = chip_area.sqrt();
    let wire = tech.wire(WireType::Global);
    let periph = &input.periph;
    let chip_wire =
        RepeatedWire::design(periph, &wire, (chip_side / 2.0).max(Meters::um(1.0)), 1.0);
    let chip_path = chip_wire.evaluate(periph, &wire, Seconds::ZERO);

    // ---- Timing (row timings carry the JEDEC-style guard band) ----
    let t_rcd = cal::MM_TIMING_MARGIN * bank.t_row_to_sense();
    // The CSL driver chain was already designed and timed by the array
    // evaluation; reuse it instead of re-deriving the chain per candidate.
    let t_col_dec = bank.column_select_delay;
    let cas_latency = t_col_dec + bank.t_column() + chip_path.delay + cal::IO_OVERHEAD;
    let t_ras = t_rcd + cal::MM_CELL_MARGIN * bank.delay.restore;
    let t_rp =
        cal::MM_CELL_MARGIN * (bank.delay.precharge + cal::TRP_DECODE_FRACTION * bank.delay.decode);
    let t_rc = t_ras + t_rp;
    let t_rrd = (cal::TRRD_TRC_FRACTION * t_rc).max(bank.interleave_cycle);

    // ---- Energies ----
    let burst_bits = spec.output_bits() as f64;
    let e_cmd = cal::E_CMD_OVERHEAD
        * (cell.vdd_cell / Volts::from_si(1.5))
        * (cell.vdd_cell / Volts::from_si(1.5));
    let activate = bank.energy.activate() + e_cmd;
    let e_io = burst_bits * cal::C_IO_PIN * cell.vdd_cell * cell.vdd_cell;
    let e_chip_wires = burst_bits * 0.5 * chip_path.energy;
    let read = bank.energy.column + e_chip_wires + e_io;
    let write = read * 1.1 + 0.1 * activate;

    let refresh_power = bank.refresh_power * n_banks;
    let standby_power = bank.leakage * n_banks + cal::STANDBY_IO_POWER;

    let _ = (io_bits, burst_length);

    Ok(MainMemoryResult {
        timing: DramTiming {
            t_rcd,
            cas_latency,
            t_ras,
            t_rp,
            t_rc,
            t_rrd,
            t_burst: Seconds::ZERO,
        },
        energies: DramEnergies {
            activate,
            read,
            write,
            refresh_power,
            standby_power,
        },
        chip_area,
        area_efficiency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array;
    use cactid_tech::{CellTechnology, TechNode};

    fn micron_like() -> (Technology, MemorySpec) {
        let spec = MemorySpec::builder()
            .capacity_bytes(1 << 27) // 1 Gb
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N78)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8192,
            })
            .build()
            .unwrap();
        (Technology::new(TechNode::N78), spec)
    }

    fn eval(tech: &Technology, spec: &MemorySpec, ndwl: u32, ndbl: u32) -> MainMemoryResult {
        let input = ArrayInput {
            rows: spec.bank_bytes() * 8 / 8192 / u64::from(ndbl),
            cols: 8192 / u64::from(ndwl),
            ndwl,
            ndbl,
            deg_bl_mux: 1,
            deg_sa_mux: (8192 / spec.output_bits()) as u32,
            output_bits: spec.output_bits(),
            address_bits: spec.address_bits,
            cell: tech.cell(CellTechnology::CommDram),
            periph: tech.peripheral_device(CellTechnology::CommDram),
            repeater_relax: 1.0,
            sleep_transistors: false,
            sense_fraction: 1.0,
        };
        let bank = array::evaluate(tech, &input).unwrap();
        assemble(tech, spec, &input, &bank).unwrap()
    }

    #[test]
    fn timing_identities_hold() {
        let (tech, spec) = micron_like();
        let r = eval(&tech, &spec, 16, 64);
        assert!(r.timing.t_rc >= r.timing.t_ras);
        assert!((r.timing.t_rc - (r.timing.t_ras + r.timing.t_rp)).abs() < Seconds::from_si(1e-15));
        assert!(r.timing.t_ras >= r.timing.t_rcd);
        assert!(r.timing.t_rrd < r.timing.t_rc, "interleaving must help");
    }

    #[test]
    fn ballpark_ddr3_timing() {
        let (tech, spec) = micron_like();
        let r = eval(&tech, &spec, 16, 64);
        // DDR3-class: tRCD and CL around 10–20 ns, tRC around 35–70 ns.
        assert!(
            r.timing.t_rcd > Seconds::ns(5.0) && r.timing.t_rcd < Seconds::ns(25.0),
            "tRCD {}",
            r.timing.t_rcd
        );
        assert!(
            r.timing.t_rc > Seconds::ns(25.0) && r.timing.t_rc < Seconds::ns(90.0),
            "tRC {}",
            r.timing.t_rc
        );
    }

    #[test]
    fn energies_are_ordered_act_above_read() {
        let (tech, spec) = micron_like();
        let r = eval(&tech, &spec, 16, 64);
        assert!(r.energies.activate > r.energies.read);
        assert!(r.energies.write > r.energies.read);
        assert!(r.energies.refresh_power > Watts::ZERO);
        assert!(r.energies.standby_power >= cal::STANDBY_IO_POWER);
    }

    #[test]
    fn area_efficiency_in_plausible_band() {
        let (tech, spec) = micron_like();
        let r = eval(&tech, &spec, 16, 64);
        assert!(
            r.area_efficiency > 0.2 && r.area_efficiency < 0.9,
            "eff {}",
            r.area_efficiency
        );
    }
}
