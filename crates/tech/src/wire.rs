//! Interconnect models following Ron Ho-style projections (paper §2.2).
//!
//! Three copper back-end-of-line wire classes (local, semi-global, global)
//! are modeled for every node, plus the two DRAM-specific array wires:
//! tungsten bitlines (commodity DRAM) and strapped wordlines. Resistance is
//! computed from geometry (`ρ_eff / (w·t)`) with a size-dependent effective
//! resistivity capturing barrier/scattering effects in narrow wires;
//! capacitance per length is nearly constant across nodes, as Ho's data
//! shows.

use crate::node::TechNode;
use crate::units::{Farads, FaradsPerMeter, Meters, OhmMeters, Ohms, OhmsPerMeter};
use std::fmt;

/// An interconnect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireType {
    /// Minimum-pitch local copper wiring (intra-mat routing, SRAM bitlines).
    Local,
    /// Semi-global (intermediate) copper wiring — H-trees inside a bank.
    SemiGlobal,
    /// Global copper wiring — bank-to-bank and chip-level routes.
    Global,
    /// Tungsten bitline used in commodity DRAM arrays (Table 1).
    TungstenBitline,
    /// Strapped (silicided poly + metal shunt) DRAM/SRAM wordline.
    Wordline,
}

impl WireType {
    /// All modeled wire classes.
    pub const ALL: &'static [WireType] = &[
        WireType::Local,
        WireType::SemiGlobal,
        WireType::Global,
        WireType::TungstenBitline,
        WireType::Wordline,
    ];
}

impl fmt::Display for WireType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireType::Local => "local",
            WireType::SemiGlobal => "semi-global",
            WireType::Global => "global",
            WireType::TungstenBitline => "tungsten bitline",
            WireType::Wordline => "wordline",
        };
        f.write_str(s)
    }
}

/// Distributed-RC parameters of one wire class at one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    /// Resistance per length.
    pub r_per_m: OhmsPerMeter,
    /// Capacitance per length.
    pub c_per_m: FaradsPerMeter,
    /// Wire pitch (width + spacing).
    pub pitch: Meters,
    /// Wire width.
    pub width: Meters,
    /// Wire thickness.
    pub thickness: Meters,
}

impl WireParams {
    /// Total resistance of a wire of length `len`.
    pub fn res(&self, len: Meters) -> Ohms {
        self.r_per_m * len
    }

    /// Total capacitance of a wire of length `len`.
    pub fn cap(&self, len: Meters) -> Farads {
        self.c_per_m * len
    }
}

/// Effective resistivity including barrier and surface scattering — grows as
/// wires narrow.
fn effective_resistivity(width: Meters, bulk: OhmMeters) -> OhmMeters {
    // Simple Ho-style fit: ~+50 % at 40 nm width relative to bulk.
    let scatter = 1.0 + Meters::from_si(20e-9) / width;
    bulk * scatter
}

const RHO_CU: OhmMeters = OhmMeters::from_si(2.2e-8);
const RHO_W: OhmMeters = OhmMeters::from_si(7.0e-8);
// Silicided-poly + metal strap composite, expressed as an equivalent
// resistivity over the strap cross-section.
const RHO_WL_STRAP: OhmMeters = OhmMeters::from_si(5.0e-8);

/// Looks up (or derives) the wire parameters for `ty` at `node`.
pub fn wire_params(node: TechNode, ty: WireType) -> WireParams {
    let f = node.feature_size();
    let (pitch_f, aspect, rho, c_ff_um) = match ty {
        WireType::Local => (2.5, 1.8, RHO_CU, 0.16),
        WireType::SemiGlobal => (4.0, 2.0, RHO_CU, 0.20),
        WireType::Global => (8.0, 2.2, RHO_CU, 0.21),
        WireType::TungstenBitline => (2.0, 1.5, RHO_W, 0.14),
        WireType::Wordline => (2.0, 1.2, RHO_WL_STRAP, 0.15),
    };
    let pitch = pitch_f * f;
    let width = pitch / 2.0;
    let thickness = aspect * width;
    let r_per_m = effective_resistivity(width, rho) / (width * thickness);
    WireParams {
        r_per_m,
        c_per_m: FaradsPerMeter::ff_per_um(c_ff_um),
        pitch,
        width,
        thickness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_orderings() {
        for &node in TechNode::ALL_WITH_HALF_NODES {
            let local = wire_params(node, WireType::Local);
            let semi = wire_params(node, WireType::SemiGlobal);
            let global = wire_params(node, WireType::Global);
            let bl = wire_params(node, WireType::TungstenBitline);
            assert!(local.r_per_m > semi.r_per_m);
            assert!(semi.r_per_m > global.r_per_m);
            // Tungsten bitlines are by far the most resistive.
            assert!(bl.r_per_m > local.r_per_m);
        }
    }

    #[test]
    fn wires_get_more_resistive_as_nodes_shrink() {
        let mut prev = OhmsPerMeter::ZERO;
        for &node in TechNode::ALL {
            let r = wire_params(node, WireType::SemiGlobal).r_per_m;
            assert!(r > prev, "semi-global R/m must grow with scaling");
            prev = r;
        }
    }

    #[test]
    fn sane_absolute_values_at_32nm() {
        let semi = wire_params(TechNode::N32, WireType::SemiGlobal);
        let r_ohm_um = semi.r_per_m / OhmsPerMeter::ohm_per_um(1.0);
        // Semi-global at 32 nm: a few Ω/µm.
        assert!((1.0..15.0).contains(&r_ohm_um), "R = {r_ohm_um} Ω/µm");
        let c_ff_um = semi.c_per_m / FaradsPerMeter::ff_per_um(1.0);
        assert!((0.1..0.3).contains(&c_ff_um));
    }
}
