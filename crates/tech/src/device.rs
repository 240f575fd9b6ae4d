//! ITRS device-class models.
//!
//! The paper (§2.2.1) uses the three ITRS device types — HP, LSTP, LOP —
//! plus long-channel HP variants that trade speed for roughly an order of
//! magnitude less subthreshold leakage. Parameters here are width-normalized
//! (per meter of gate width) so circuit models can size transistors freely.

use crate::node::{geo_lerp, TechNode};
use crate::units::{
    AmperesPerMeter, Farads, FaradsPerMeter, Meters, OhmMeters, Ohms, SiemensPerMeter, Volts, Watts,
};
use std::fmt;

/// One of the logic device classes available for memory peripheral and
/// support circuitry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// ITRS High Performance: fastest, leakiest; CV/I improves ~17 %/year.
    Hp,
    /// Long-channel variant of HP: ~20 % slower, ~12× less leaky. Used for
    /// SRAM cells and for SRAM/LP-DRAM peripheral circuitry (Table 1),
    /// following the 65 nm Intel Xeon L3 design.
    HpLongChannel,
    /// ITRS Low Standby Power: gate lengths lag HP by 4 years; leakage held
    /// near 10 pA/µm across nodes. Used for COMM-DRAM peripheral circuitry.
    Lstp,
    /// ITRS Low Operating Power: between HP and LSTP; lowest VDD; gate
    /// lengths lag HP by 2 years.
    Lop,
}

impl DeviceType {
    /// All modeled device classes.
    pub const ALL: &'static [DeviceType] = &[
        DeviceType::Hp,
        DeviceType::HpLongChannel,
        DeviceType::Lstp,
        DeviceType::Lop,
    ];
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceType::Hp => "HP",
            DeviceType::HpLongChannel => "HP long-channel",
            DeviceType::Lstp => "LSTP",
            DeviceType::Lop => "LOP",
        };
        f.write_str(s)
    }
}

/// Width-normalized transistor parameters for one device class at one node,
/// carried as typed quantities so dimensionally illegal formulas fail to
/// compile.
///
/// Conventions:
/// * A transistor of width `w` has gate capacitance `c_gate * w`, drain
///   capacitance `c_drain * w`, effective switching resistance
///   `r_eff_n / w` (NMOS) or `r_eff_n * p_to_n_ratio / w` (PMOS),
///   subthreshold leakage current `i_off_n * w` and gate leakage
///   `i_gate * w`.
/// * "Effective" resistance is calibrated so a fan-out-of-4 inverter delay
///   computed as `0.69·R·C` lands on the usual ~0.4 ps/nm-of-feature-size
///   rule of thumb; it already folds in velocity saturation and the average
///   drive during a transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Saturation threshold voltage.
    pub vth: Volts,
    /// Physical gate length.
    pub l_gate: Meters,
    /// Gate capacitance per width, including overlap and fringe.
    pub c_gate: FaradsPerMeter,
    /// Drain (junction + overlap) capacitance per width.
    pub c_drain: FaradsPerMeter,
    /// Effective NMOS switching resistance × width.
    pub r_eff_n: OhmMeters,
    /// PMOS width multiplier for drive equal to a unit NMOS (≈ 2).
    pub p_to_n_ratio: f64,
    /// NMOS subthreshold (off-state) leakage per width.
    pub i_off_n: AmperesPerMeter,
    /// Gate leakage per width.
    pub i_gate: AmperesPerMeter,
    /// NMOS transconductance per width.
    pub g_m: SiemensPerMeter,
    /// Minimum drawable transistor width.
    pub min_width: Meters,
    /// NMOS saturation drive current per width.
    pub i_on_n: AmperesPerMeter,
}

impl DeviceParams {
    /// Gate capacitance of a transistor of width `w`.
    pub fn cap_gate(&self, w: Meters) -> Farads {
        self.c_gate * w
    }

    /// Drain capacitance of a transistor of width `w`.
    pub fn cap_drain(&self, w: Meters) -> Farads {
        self.c_drain * w
    }

    /// Effective on-resistance of an NMOS of width `w`.
    pub fn res_on_n(&self, w: Meters) -> Ohms {
        self.r_eff_n / w
    }

    /// Subthreshold leakage power of `w` meters of (NMOS-equivalent) width
    /// at this class's VDD. PMOS leakage is folded in by callers via an
    /// effective-width convention.
    pub fn leak_power(&self, w: Meters) -> Watts {
        (self.i_off_n + self.i_gate) * w * self.vdd
    }

    /// Input capacitance of a minimum-size inverter in this class.
    pub fn c_inv_min(&self) -> Farads {
        (1.0 + self.p_to_n_ratio) * self.c_gate * self.min_width
    }
}

/// Raw per-node anchor rows. Order: N90, N65, N45, N32.
struct Anchor {
    vdd: [f64; 4],
    vth: [f64; 4],
    l_gate_nm: [f64; 4],
    c_gate_ff_um: [f64; 4],
    c_drain_ff_um: [f64; 4],
    r_eff_ohm_um: [f64; 4],
    i_off: [AmperesPerMeter; 4],
    i_gate: [AmperesPerMeter; 4],
    g_m_ms_um: [f64; 4],
    i_on_ua_um: [f64; 4],
}

const HP: Anchor = Anchor {
    vdd: [1.2, 1.1, 1.0, 0.9],
    vth: [0.28, 0.25, 0.22, 0.20],
    l_gate_nm: [37.0, 25.0, 18.0, 13.0],
    c_gate_ff_um: [1.15, 1.05, 1.00, 0.95],
    c_drain_ff_um: [0.80, 0.75, 0.70, 0.65],
    r_eff_ohm_um: [3300.0, 2370.0, 1650.0, 1180.0],
    i_off: [
        AmperesPerMeter::ua_per_um(0.10),
        AmperesPerMeter::ua_per_um(0.20),
        AmperesPerMeter::ua_per_um(0.28),
        AmperesPerMeter::ua_per_um(0.33),
    ],
    i_gate: [
        AmperesPerMeter::ua_per_um(0.15),
        AmperesPerMeter::ua_per_um(0.35),
        AmperesPerMeter::ua_per_um(0.10),
        AmperesPerMeter::ua_per_um(0.08),
    ],
    g_m_ms_um: [2.0, 2.3, 2.6, 3.0],
    i_on_ua_um: [1100.0, 1250.0, 1400.0, 1550.0],
};

const LSTP: Anchor = Anchor {
    vdd: [1.2, 1.2, 1.1, 1.0],
    vth: [0.55, 0.53, 0.50, 0.48],
    l_gate_nm: [75.0, 45.0, 28.0, 20.0],
    c_gate_ff_um: [1.40, 1.25, 1.15, 1.10],
    c_drain_ff_um: [0.90, 0.85, 0.80, 0.75],
    r_eff_ohm_um: [12000.0, 8600.0, 6000.0, 4300.0],
    // ITRS specifies ~10 pA/µm at 25 °C held constant across nodes; at the
    // ~350 K operating point the models are evaluated at, subthreshold
    // leakage is ~35× higher, giving the sub-nA/µm effective values here.
    i_off: [
        AmperesPerMeter::na_per_um(0.25),
        AmperesPerMeter::na_per_um(0.25),
        AmperesPerMeter::na_per_um(0.25),
        AmperesPerMeter::na_per_um(0.25),
    ],
    i_gate: [
        AmperesPerMeter::pa_per_um(1.0),
        AmperesPerMeter::pa_per_um(2.0),
        AmperesPerMeter::pa_per_um(3.0),
        AmperesPerMeter::pa_per_um(5.0),
    ],
    g_m_ms_um: [0.8, 0.9, 1.1, 1.3],
    i_on_ua_um: [450.0, 500.0, 560.0, 620.0],
};

const LOP: Anchor = Anchor {
    vdd: [0.9, 0.8, 0.7, 0.6],
    vth: [0.36, 0.34, 0.32, 0.30],
    l_gate_nm: [53.0, 32.0, 22.0, 16.0],
    c_gate_ff_um: [1.25, 1.15, 1.05, 1.00],
    c_drain_ff_um: [0.85, 0.80, 0.75, 0.70],
    r_eff_ohm_um: [5950.0, 4270.0, 2970.0, 2120.0],
    i_off: [
        AmperesPerMeter::na_per_um(3.0),
        AmperesPerMeter::na_per_um(3.0),
        AmperesPerMeter::na_per_um(3.5),
        AmperesPerMeter::na_per_um(4.0),
    ],
    i_gate: [
        AmperesPerMeter::na_per_um(0.5),
        AmperesPerMeter::na_per_um(0.8),
        AmperesPerMeter::na_per_um(1.0),
        AmperesPerMeter::na_per_um(1.5),
    ],
    g_m_ms_um: [1.2, 1.4, 1.6, 1.9],
    i_on_ua_um: [600.0, 680.0, 760.0, 850.0],
};

/// Long-channel HP derating factors (paper: "trade off transistor speed for
/// reduction in leakage"; the 65 nm Xeon L3 uses such devices). The leakage
/// factor is an at-operating-temperature effective value calibrated against
/// the paper's Table 3 cache leakage numbers.
const LC_R_FACTOR: f64 = 1.25;
const LC_IOFF_FACTOR: f64 = 0.45;
const LC_IGATE_FACTOR: f64 = 0.5;
const LC_VTH_SHIFT: Volts = Volts::from_si(0.08);
const LC_LGATE_FACTOR: f64 = 1.35;

fn node_index(node: TechNode) -> usize {
    match node {
        TechNode::N90 => 0,
        TechNode::N65 => 1,
        TechNode::N45 => 2,
        TechNode::N32 => 3,
        TechNode::N78 => unreachable!("interpolated before lookup"),
    }
}

fn anchor_params(anchor: &Anchor, node: TechNode, feature: Meters) -> DeviceParams {
    let i = node_index(node);
    DeviceParams {
        vdd: Volts::from_si(anchor.vdd[i]),
        vth: Volts::from_si(anchor.vth[i]),
        l_gate: Meters::nm(anchor.l_gate_nm[i]),
        c_gate: FaradsPerMeter::ff_per_um(anchor.c_gate_ff_um[i]),
        c_drain: FaradsPerMeter::ff_per_um(anchor.c_drain_ff_um[i]),
        r_eff_n: OhmMeters::ohm_um(anchor.r_eff_ohm_um[i]),
        p_to_n_ratio: 2.0,
        i_off_n: anchor.i_off[i],
        i_gate: anchor.i_gate[i],
        g_m: SiemensPerMeter::ms_per_um(anchor.g_m_ms_um[i]),
        min_width: 2.5 * feature,
        i_on_n: AmperesPerMeter::ua_per_um(anchor.i_on_ua_um[i]),
    }
}

fn blend(a: DeviceParams, b: DeviceParams, t: f64) -> DeviceParams {
    let geo = |x: f64, y: f64| geo_lerp(x, y, t);
    DeviceParams {
        vdd: a.vdd + (b.vdd - a.vdd) * t,
        vth: a.vth + (b.vth - a.vth) * t,
        l_gate: Meters::from_si(geo(a.l_gate.value(), b.l_gate.value())),
        c_gate: FaradsPerMeter::from_si(geo(a.c_gate.value(), b.c_gate.value())),
        c_drain: FaradsPerMeter::from_si(geo(a.c_drain.value(), b.c_drain.value())),
        r_eff_n: OhmMeters::from_si(geo(a.r_eff_n.value(), b.r_eff_n.value())),
        p_to_n_ratio: a.p_to_n_ratio,
        i_off_n: AmperesPerMeter::from_si(geo(a.i_off_n.value(), b.i_off_n.value())),
        i_gate: AmperesPerMeter::from_si(geo(a.i_gate.value(), b.i_gate.value())),
        g_m: SiemensPerMeter::from_si(geo(a.g_m.value(), b.g_m.value())),
        min_width: Meters::from_si(geo(a.min_width.value(), b.min_width.value())),
        i_on_n: AmperesPerMeter::from_si(geo(a.i_on_n.value(), b.i_on_n.value())),
    }
}

/// Looks up (or interpolates) the device parameters for `ty` at `node`.
pub fn device_params(node: TechNode, ty: DeviceType) -> DeviceParams {
    if let Some((hi, lo, t)) = node.interpolation() {
        let a = device_params(hi, ty);
        let b = device_params(lo, ty);
        return blend(a, b, t);
    }
    let feature = node.feature_size();
    match ty {
        DeviceType::Hp => anchor_params(&HP, node, feature),
        DeviceType::Lstp => anchor_params(&LSTP, node, feature),
        DeviceType::Lop => anchor_params(&LOP, node, feature),
        DeviceType::HpLongChannel => {
            let mut p = anchor_params(&HP, node, feature);
            p.r_eff_n *= LC_R_FACTOR;
            p.i_off_n *= LC_IOFF_FACTOR;
            p.i_gate *= LC_IGATE_FACTOR;
            p.vth += LC_VTH_SHIFT;
            p.l_gate *= LC_LGATE_FACTOR;
            p.i_on_n /= LC_R_FACTOR;
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_resolve_at_all_nodes() {
        for &node in TechNode::ALL_WITH_HALF_NODES {
            for &ty in DeviceType::ALL {
                let p = device_params(node, ty);
                assert!(p.vdd > Volts::from_si(0.4) && p.vdd < Volts::from_si(1.5));
                assert!(p.r_eff_n > OhmMeters::ZERO);
                assert!(p.c_gate > FaradsPerMeter::ZERO);
                assert!(p.i_off_n > AmperesPerMeter::ZERO);
                assert!(p.min_width > Meters::ZERO);
            }
        }
    }

    #[test]
    fn n78_lies_between_n90_and_n65() {
        for &ty in DeviceType::ALL {
            let p90 = device_params(TechNode::N90, ty);
            let p78 = device_params(TechNode::N78, ty);
            let p65 = device_params(TechNode::N65, ty);
            assert!(
                p78.r_eff_n < p90.r_eff_n && p78.r_eff_n > p65.r_eff_n,
                "{ty}: r_eff 78nm not bracketed"
            );
        }
    }

    #[test]
    fn width_scaling_identities() {
        let p = device_params(TechNode::N32, DeviceType::Hp);
        let w = Meters::um(1.0);
        assert!((p.cap_gate(2.0 * w) - 2.0 * p.cap_gate(w)).abs() < Farads::from_si(1e-20));
        assert!((p.res_on_n(2.0 * w) - p.res_on_n(w) / 2.0).abs() < Ohms::from_si(1e-6));
    }

    #[test]
    fn leak_power_is_linear_in_width() {
        let p = device_params(TechNode::N45, DeviceType::Lop);
        let one = p.leak_power(Meters::um(1.0));
        let three = p.leak_power(Meters::um(3.0));
        assert!((three - 3.0 * one).abs() < Watts::from_si(1e-18));
    }

    #[test]
    fn lstp_vdd_never_below_hp() {
        for &node in TechNode::ALL {
            let hp = device_params(node, DeviceType::Hp);
            let lstp = device_params(node, DeviceType::Lstp);
            let lop = device_params(node, DeviceType::Lop);
            assert!(lstp.vdd >= hp.vdd, "LSTP uses higher VDD");
            assert!(lop.vdd <= hp.vdd, "LOP uses the lowest VDD");
        }
    }
}
