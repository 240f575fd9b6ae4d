//! ITRS technology nodes covered by the model.

use crate::units::Meters;
use std::fmt;

/// An ITRS technology node.
///
/// CACTI-D ships technology data for the four ITRS nodes spanning 2004–2013
/// (paper §2.2). The paper's DRAM validation additionally uses a 78 nm
/// commodity-DRAM process (the Micron 1 Gb DDR3-1066 device); we expose that
/// as [`TechNode::N78`], with parameters log-interpolated between the 90 and
/// 65 nm anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechNode {
    /// 90 nm (ITRS year 2004).
    N90,
    /// 78 nm half-node used by the paper's Micron DDR3 validation.
    N78,
    /// 65 nm (ITRS year 2007).
    N65,
    /// 45 nm (ITRS year 2010).
    N45,
    /// 32 nm (ITRS year 2013).
    N32,
}

impl TechNode {
    /// The four primary ITRS anchor nodes (excludes the interpolated 78 nm).
    pub const ALL: &'static [TechNode] =
        &[TechNode::N90, TechNode::N65, TechNode::N45, TechNode::N32];

    /// Every node the model accepts, including the 78 nm half-node.
    pub const ALL_WITH_HALF_NODES: &'static [TechNode] = &[
        TechNode::N90,
        TechNode::N78,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
    ];

    /// Feature size F.
    pub fn feature_size(self) -> Meters {
        Meters::nm(self.feature_nm())
    }

    /// Feature size in nanometers.
    pub fn feature_nm(self) -> f64 {
        match self {
            TechNode::N90 => 90.0,
            TechNode::N78 => 78.0,
            TechNode::N65 => 65.0,
            TechNode::N45 => 45.0,
            TechNode::N32 => 32.0,
        }
    }

    /// For an interpolated half-node, the pair of anchor nodes bracketing it
    /// plus the interpolation fraction in log-feature-size space; `None` for
    /// anchor nodes.
    pub(crate) fn interpolation(self) -> Option<(TechNode, TechNode, f64)> {
        match self {
            TechNode::N78 => {
                let lo = 65.0f64;
                let hi = 90.0f64;
                // Fraction of the way from 90 nm down to 65 nm in log space.
                let t = (hi.ln() - 78.0f64.ln()) / (hi.ln() - lo.ln());
                Some((TechNode::N90, TechNode::N65, t))
            }
            _ => None,
        }
    }

    /// Parses `"90"`, `"65"`, `"45"`, `"32"` or `"78"` (nm) into a node.
    pub fn from_nm(nm: u32) -> Option<TechNode> {
        match nm {
            90 => Some(TechNode::N90),
            78 => Some(TechNode::N78),
            65 => Some(TechNode::N65),
            45 => Some(TechNode::N45),
            32 => Some(TechNode::N32),
            _ => None,
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.feature_nm())
    }
}

/// Log-space interpolation helper used by the parameter tables: geometric
/// interpolation suits quantities that scale multiplicatively across nodes
/// (resistances, currents, capacitances).
pub(crate) fn geo_lerp(a: f64, b: f64, t: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        // Fall back to linear for zero/negative entries (e.g. optional caps).
        return a + (b - a) * t;
    }
    (a.ln() + (b.ln() - a.ln()) * t).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_sizes() {
        assert_eq!(TechNode::N32.feature_size(), Meters::from_si(32e-9));
        assert_eq!(TechNode::N90.feature_nm(), 90.0);
        assert_eq!(TechNode::from_nm(45), Some(TechNode::N45));
        assert_eq!(TechNode::from_nm(40), None);
    }

    #[test]
    fn n78_interpolation_fraction_is_sane() {
        let (hi, lo, t) = TechNode::N78.interpolation().unwrap();
        assert_eq!(hi, TechNode::N90);
        assert_eq!(lo, TechNode::N65);
        assert!(t > 0.0 && t < 1.0, "t = {t}");
        // 78 nm sits a bit less than halfway from 90 to 65 in log space.
        assert!((0.3..0.6).contains(&t));
    }

    #[test]
    fn geo_lerp_endpoints_and_midpoint() {
        assert!((geo_lerp(1.0, 4.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((geo_lerp(1.0, 4.0, 1.0) - 4.0).abs() < 1e-12);
        assert!((geo_lerp(1.0, 4.0, 0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TechNode::N32.to_string(), "32nm");
    }
}
