//! Memory-cell technology models (paper §2.3.1, Table 1).
//!
//! Three cell technologies are supported on an equal footing, which is the
//! central enabler of the paper's SRAM-vs-DRAM tradeoff studies:
//!
//! | Characteristic        | SRAM        | LP-DRAM       | COMM-DRAM      |
//! |-----------------------|-------------|---------------|----------------|
//! | Cell area @32 nm      | 146 F²      | 30 F²         | 6 F²           |
//! | Cell device           | HP long-ch. | interm. oxide | thick oxide    |
//! | Peripheral device     | HP long-ch. | HP long-ch.   | LSTP           |
//! | Bitline               | copper      | copper        | tungsten       |
//! | Cell VDD @32 nm       | 0.9 V       | 1.0 V         | 1.0 V          |
//! | Storage cap           | —           | 20 fF         | 30 fF          |
//! | Boosted wordline V_PP | —           | 1.5 V         | 2.6 V          |
//! | Refresh period @32 nm | —           | 0.12 ms       | 64 ms          |

use crate::device::{device_params, DeviceType};
use crate::node::{geo_lerp, TechNode};
use crate::units::{Amperes, Farads, Meters, Ohms, Seconds, SquareMeters, Volts};
use crate::wire::{wire_params, WireType};
use std::fmt;

/// One of the three memory cell technologies modeled by CACTI-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTechnology {
    /// 6T SRAM — the traditional on-die cache cell.
    Sram,
    /// Logic-process embedded DRAM (1T1C, intermediate-oxide access device).
    LpDram,
    /// Commodity DRAM (1T1C, thick-oxide access device, tungsten bitlines).
    CommDram,
}

impl CellTechnology {
    /// All three cell technologies.
    pub const ALL: &'static [CellTechnology] = &[
        CellTechnology::Sram,
        CellTechnology::LpDram,
        CellTechnology::CommDram,
    ];

    /// `true` for the two DRAM technologies.
    pub fn is_dram(self) -> bool {
        !matches!(self, CellTechnology::Sram)
    }

    /// Device class used for peripheral/global support circuitry (Table 1).
    pub fn peripheral_device_type(self) -> DeviceType {
        match self {
            CellTechnology::Sram | CellTechnology::LpDram => DeviceType::HpLongChannel,
            CellTechnology::CommDram => DeviceType::Lstp,
        }
    }

    /// Wire class used for the bitlines of this cell technology.
    pub fn bitline_wire_type(self) -> WireType {
        match self {
            CellTechnology::CommDram => WireType::TungstenBitline,
            _ => WireType::Local,
        }
    }
}

impl fmt::Display for CellTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellTechnology::Sram => "SRAM",
            CellTechnology::LpDram => "LP-DRAM",
            CellTechnology::CommDram => "COMM-DRAM",
        };
        f.write_str(s)
    }
}

/// Resolved electrical and geometric parameters of one memory cell
/// technology at one node, carried as typed quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Which technology this describes.
    pub technology: CellTechnology,
    /// Cell area in units of F².
    pub area_f2: f64,
    /// Cell width (along the wordline).
    pub width: Meters,
    /// Cell height (along the bitline).
    pub height: Meters,
    /// Cell array supply voltage.
    pub vdd_cell: Volts,
    /// Capacitance added to the bitline per cell (junction + wire).
    pub c_bitline_per_cell: Farads,
    /// Capacitance added to the wordline per cell (gate + wire).
    pub c_wordline_per_cell: Farads,
    /// Wordline resistance per cell.
    pub r_wordline_per_cell: Ohms,
    /// Bitline resistance per cell.
    pub r_bitline_per_cell: Ohms,
    /// SRAM read (bitline discharge) current; zero for DRAM.
    pub i_cell_read: Amperes,
    /// SRAM standby leakage per cell at `vdd_cell`; zero for DRAM
    /// (DRAM cell leakage shows up as the retention/refresh requirement).
    pub leak_per_cell: Amperes,
    /// DRAM storage capacitance; zero for SRAM.
    pub c_storage: Farads,
    /// DRAM boosted wordline voltage; equals `vdd_cell` for SRAM.
    pub vpp: Volts,
    /// DRAM retention (refresh) period; infinite for SRAM.
    pub retention_time: Seconds,
    /// DRAM access-transistor on-resistance; zero for SRAM.
    pub r_access_on: Ohms,
    /// Minimum bitline differential the sense amplifier needs.
    pub v_sense_margin: Volts,
    /// Maximum rows per subarray this technology supports (signal margin /
    /// wordline RC limits).
    pub max_rows_per_subarray: usize,
    /// Multiplier on bitline/sense/restore/precharge timing capturing the
    /// margining style of each technology (worst-case cells, sense offsets,
    /// temperature corners). 1.0 for SRAM; >1 for the DRAMs.
    pub timing_derate: f64,
    /// Fraction of the peripheral device's transconductance available in
    /// the (offset-compensated, conservatively biased) sense amplifier.
    pub sense_gm_derate: f64,
    /// Effective access-resistance multiplier during cell restore: the
    /// access transistor loses overdrive as the cell node approaches VDD,
    /// so the tail of the writeback is slow. 1.0 for SRAM.
    pub restore_saturation: f64,
}

impl CellParams {
    /// Cell area.
    pub fn area(&self) -> SquareMeters {
        self.width * self.height
    }

    /// For DRAM, the open-bitline charge-sharing differential available when
    /// `rows` cells load the bitline: `(V_DD/2)·C_s/(C_s + C_bl)`.
    /// Returns `None` for SRAM.
    pub fn dram_sense_signal(&self, rows: usize) -> Option<Volts> {
        if !self.technology.is_dram() {
            return None;
        }
        let c_bl = self.c_bitline_per_cell * rows as f64;
        Some(self.vdd_cell / 2.0 * self.c_storage / (self.c_storage + c_bl))
    }
}

/// Raw per-node anchor rows. Order: N90, N65, N45, N32.
struct CellAnchor {
    area_f2: [f64; 4],
    aspect_w_over_h: f64,
    vdd_cell: [f64; 4],
    c_storage_ff: [f64; 4],
    vpp: [f64; 4],
    retention_ms: [f64; 4],
    r_access_kohm: [f64; 4],
    i_cell_read_ua: [f64; 4],
    leak_per_cell_na: [f64; 4],
    junction_ff: [f64; 4],
    v_sense_mv: f64,
    max_rows: usize,
    timing_derate: f64,
    sense_gm_derate: f64,
    restore_saturation: f64,
}

const SRAM: CellAnchor = CellAnchor {
    area_f2: [146.0, 146.0, 146.0, 146.0],
    aspect_w_over_h: 1.9,
    vdd_cell: [1.2, 1.1, 1.0, 0.9],
    c_storage_ff: [0.0; 4],
    vpp: [0.0; 4],
    retention_ms: [0.0; 4],
    r_access_kohm: [0.0; 4],
    i_cell_read_ua: [71.0, 58.0, 45.0, 36.0],
    leak_per_cell_na: [40.0, 33.0, 27.0, 22.0],
    junction_ff: [0.090, 0.065, 0.045, 0.032],
    v_sense_mv: 100.0,
    max_rows: 1024,
    timing_derate: 1.0,
    sense_gm_derate: 0.5,
    restore_saturation: 1.0,
};

const LP_DRAM: CellAnchor = CellAnchor {
    area_f2: [24.0, 26.0, 28.0, 30.0],
    aspect_w_over_h: 1.2,
    vdd_cell: [1.2, 1.1, 1.0, 1.0],
    c_storage_ff: [20.0, 20.0, 20.0, 20.0],
    vpp: [1.9, 1.7, 1.6, 1.5],
    retention_ms: [1.0, 0.5, 0.25, 0.12],
    r_access_kohm: [5.5, 5.0, 4.5, 4.5],
    i_cell_read_ua: [0.0; 4],
    leak_per_cell_na: [0.0; 4],
    junction_ff: [0.060, 0.045, 0.035, 0.028],
    v_sense_mv: 75.0,
    max_rows: 512,
    timing_derate: 1.1,
    sense_gm_derate: 0.30,
    restore_saturation: 1.2,
};

const COMM_DRAM: CellAnchor = CellAnchor {
    area_f2: [8.0, 7.0, 6.0, 6.0],
    aspect_w_over_h: 0.667,
    vdd_cell: [1.8, 1.5, 1.2, 1.0],
    c_storage_ff: [30.0, 30.0, 30.0, 30.0],
    vpp: [3.4, 3.0, 2.8, 2.6],
    retention_ms: [64.0, 64.0, 64.0, 64.0],
    r_access_kohm: [24.0, 22.0, 21.0, 20.0],
    i_cell_read_ua: [0.0; 4],
    leak_per_cell_na: [0.0; 4],
    junction_ff: [0.110, 0.090, 0.075, 0.065],
    v_sense_mv: 60.0,
    max_rows: 512,
    timing_derate: 1.6,
    sense_gm_derate: 0.18,
    restore_saturation: 1.2,
};

fn node_index(node: TechNode) -> usize {
    match node {
        TechNode::N90 => 0,
        TechNode::N65 => 1,
        TechNode::N45 => 2,
        TechNode::N32 => 3,
        TechNode::N78 => unreachable!("interpolated before lookup"),
    }
}

fn anchor_cell(anchor: &CellAnchor, tech: CellTechnology, node: TechNode) -> CellParams {
    let i = node_index(node);
    let f = node.feature_size();
    let area = anchor.area_f2[i] * f * f;
    // width/height from area and aspect ratio: w = aspect·h.
    let height = (area / anchor.aspect_w_over_h).sqrt();
    let width = area / height;

    let bl_wire = wire_params(node, tech.bitline_wire_type());
    let wl_wire = wire_params(node, WireType::Wordline);
    // Access-device gate load on the wordline: SRAM has two access
    // transistors of ~1.5 F width; DRAM has one of ~1 F width. Use the
    // peripheral device's gate cap as the per-width proxy.
    let periph = device_params(node, tech.peripheral_device_type());
    let access_w = match tech {
        CellTechnology::Sram => 2.0 * 1.5 * f,
        CellTechnology::LpDram => 1.5 * f,
        CellTechnology::CommDram => 1.0 * f,
    };
    let c_wordline_per_cell = periph.c_gate * access_w + wl_wire.c_per_m * width;
    let c_bitline_per_cell = Farads::ff(anchor.junction_ff[i]) + bl_wire.c_per_m * height;

    CellParams {
        technology: tech,
        area_f2: anchor.area_f2[i],
        width,
        height,
        vdd_cell: Volts::from_si(anchor.vdd_cell[i]),
        c_bitline_per_cell,
        c_wordline_per_cell,
        r_wordline_per_cell: wl_wire.r_per_m * width,
        r_bitline_per_cell: bl_wire.r_per_m * height,
        i_cell_read: Amperes::ua(anchor.i_cell_read_ua[i]),
        leak_per_cell: Amperes::na(anchor.leak_per_cell_na[i]),
        c_storage: Farads::ff(anchor.c_storage_ff[i]),
        vpp: if tech.is_dram() {
            Volts::from_si(anchor.vpp[i])
        } else {
            Volts::from_si(anchor.vdd_cell[i])
        },
        retention_time: if tech.is_dram() {
            Seconds::ms(anchor.retention_ms[i])
        } else {
            Seconds::from_si(f64::INFINITY)
        },
        r_access_on: Ohms::kohm(anchor.r_access_kohm[i]),
        v_sense_margin: Volts::mv(anchor.v_sense_mv),
        max_rows_per_subarray: anchor.max_rows,
        timing_derate: anchor.timing_derate,
        sense_gm_derate: anchor.sense_gm_derate,
        restore_saturation: anchor.restore_saturation,
    }
}

fn blend_cells(a: CellParams, b: CellParams, t: f64) -> CellParams {
    let lin = |x: f64, y: f64| x + (y - x) * t;
    let geo = |x: f64, y: f64| geo_lerp(x, y, t);
    CellParams {
        technology: a.technology,
        area_f2: lin(a.area_f2, b.area_f2),
        width: Meters::from_si(geo(a.width.value(), b.width.value())),
        height: Meters::from_si(geo(a.height.value(), b.height.value())),
        vdd_cell: a.vdd_cell + (b.vdd_cell - a.vdd_cell) * t,
        c_bitline_per_cell: Farads::from_si(geo(
            a.c_bitline_per_cell.value(),
            b.c_bitline_per_cell.value(),
        )),
        c_wordline_per_cell: Farads::from_si(geo(
            a.c_wordline_per_cell.value(),
            b.c_wordline_per_cell.value(),
        )),
        r_wordline_per_cell: Ohms::from_si(geo(
            a.r_wordline_per_cell.value(),
            b.r_wordline_per_cell.value(),
        )),
        r_bitline_per_cell: Ohms::from_si(geo(
            a.r_bitline_per_cell.value(),
            b.r_bitline_per_cell.value(),
        )),
        i_cell_read: a.i_cell_read + (b.i_cell_read - a.i_cell_read) * t,
        leak_per_cell: a.leak_per_cell + (b.leak_per_cell - a.leak_per_cell) * t,
        c_storage: a.c_storage + (b.c_storage - a.c_storage) * t,
        vpp: a.vpp + (b.vpp - a.vpp) * t,
        // Linear interpolation is only meaningful when both endpoints are
        // finite; any non-finite endpoint (SRAM's infinite retention) makes
        // the blend infinite too. Interpolating with exactly one finite
        // endpoint used to produce inf·0 = NaN at t = 0.
        retention_time: if a.retention_time.is_finite() && b.retention_time.is_finite() {
            Seconds::from_si(lin(a.retention_time.value(), b.retention_time.value()))
        } else {
            Seconds::from_si(f64::INFINITY)
        },
        r_access_on: a.r_access_on + (b.r_access_on - a.r_access_on) * t,
        v_sense_margin: a.v_sense_margin + (b.v_sense_margin - a.v_sense_margin) * t,
        max_rows_per_subarray: a.max_rows_per_subarray,
        timing_derate: lin(a.timing_derate, b.timing_derate),
        sense_gm_derate: lin(a.sense_gm_derate, b.sense_gm_derate),
        restore_saturation: lin(a.restore_saturation, b.restore_saturation),
    }
}

/// Looks up (or interpolates) the cell parameters for `ty` at `node`.
pub fn cell_params(node: TechNode, ty: CellTechnology) -> CellParams {
    if let Some((hi, lo, t)) = node.interpolation() {
        let a = cell_params(hi, ty);
        let b = cell_params(lo, ty);
        return blend_cells(a, b, t);
    }
    match ty {
        CellTechnology::Sram => anchor_cell(&SRAM, ty, node),
        CellTechnology::LpDram => anchor_cell(&LP_DRAM, ty, node),
        CellTechnology::CommDram => anchor_cell(&COMM_DRAM, ty, node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_at_32nm() {
        let sram = cell_params(TechNode::N32, CellTechnology::Sram);
        let lp = cell_params(TechNode::N32, CellTechnology::LpDram);
        let comm = cell_params(TechNode::N32, CellTechnology::CommDram);

        assert_eq!(sram.area_f2, 146.0);
        assert_eq!(lp.area_f2, 30.0);
        assert_eq!(comm.area_f2, 6.0);

        assert!((sram.vdd_cell - Volts::from_si(0.9)).abs() < Volts::from_si(1e-9));
        assert!((lp.vdd_cell - Volts::from_si(1.0)).abs() < Volts::from_si(1e-9));
        assert!((comm.vdd_cell - Volts::from_si(1.0)).abs() < Volts::from_si(1e-9));

        assert!((lp.c_storage - Farads::ff(20.0)).abs() < Farads::from_si(1e-18));
        assert!((comm.c_storage - Farads::ff(30.0)).abs() < Farads::from_si(1e-18));

        assert!((lp.vpp - Volts::from_si(1.5)).abs() < Volts::from_si(1e-9));
        assert!((comm.vpp - Volts::from_si(2.6)).abs() < Volts::from_si(1e-9));

        assert!((lp.retention_time - Seconds::ms(0.12)).abs() < Seconds::from_si(1e-9));
        assert!((comm.retention_time - Seconds::ms(64.0)).abs() < Seconds::from_si(1e-9));
        assert!(!sram.retention_time.is_finite());
    }

    #[test]
    fn geometry_consistent_with_area() {
        for &node in TechNode::ALL {
            for &ty in CellTechnology::ALL {
                let c = cell_params(node, ty);
                let f = node.feature_size();
                let area_from_dims = c.width * c.height;
                assert!(
                    (area_from_dims - c.area_f2 * f * f).abs() / area_from_dims < 1e-9,
                    "{ty} at {node}"
                );
            }
        }
    }

    #[test]
    fn dram_sense_signal_shrinks_with_rows() {
        let comm = cell_params(TechNode::N32, CellTechnology::CommDram);
        let s128 = comm.dram_sense_signal(128).unwrap();
        let s512 = comm.dram_sense_signal(512).unwrap();
        assert!(s128 > s512);
        // 512-cell bitline still meets margin at 32 nm.
        assert!(s512 >= comm.v_sense_margin, "{s512}");
        let sram = cell_params(TechNode::N32, CellTechnology::Sram);
        assert!(sram.dram_sense_signal(512).is_none());
    }

    #[test]
    fn comm_dram_bitlines_are_tungsten() {
        let comm = cell_params(TechNode::N32, CellTechnology::CommDram);
        let lp = cell_params(TechNode::N32, CellTechnology::LpDram);
        // Per-cell bitline resistance is much higher in COMM-DRAM even
        // though its cell is shorter.
        assert!(comm.r_bitline_per_cell > 2.0 * lp.r_bitline_per_cell);
    }

    #[test]
    fn sram_cells_leak_drams_do_not() {
        for &node in TechNode::ALL {
            let sram = cell_params(node, CellTechnology::Sram);
            assert!(sram.leak_per_cell > Amperes::ZERO);
            for &d in &[CellTechnology::LpDram, CellTechnology::CommDram] {
                assert_eq!(cell_params(node, d).leak_per_cell, Amperes::ZERO);
            }
        }
    }

    #[test]
    fn retention_blend_is_total() {
        // Interpolating between a finite and an infinite retention endpoint
        // must produce a well-defined (infinite) result at every t — the old
        // branch checked only one endpoint and yielded inf·0 = NaN at t = 0
        // (and bogus ±inf elsewhere) when the finite endpoint came first.
        let base = cell_params(TechNode::N90, CellTechnology::LpDram);
        let mut inf_cell = base;
        inf_cell.retention_time = Seconds::from_si(f64::INFINITY);

        for &t in &[0.0, 0.25, 0.5, 1.0] {
            // finite → infinite
            let fwd = blend_cells(base, inf_cell, t).retention_time;
            // infinite → finite
            let rev = blend_cells(inf_cell, base, t).retention_time;
            assert!(
                !fwd.value().is_nan() && !rev.value().is_nan(),
                "NaN retention at t={t}"
            );
            assert!(!fwd.is_finite(), "finite→inf blend must stay inf (t={t})");
            assert!(!rev.is_finite(), "inf→finite blend must stay inf (t={t})");
        }

        // Both endpoints finite: plain linear interpolation, always finite.
        let lp90 = cell_params(TechNode::N90, CellTechnology::LpDram);
        let lp65 = cell_params(TechNode::N65, CellTechnology::LpDram);
        let mid = blend_cells(lp90, lp65, 0.5).retention_time;
        assert!(mid.is_finite());
        assert!(mid <= lp90.retention_time && mid >= lp65.retention_time);
    }
}
