//! Method of logical effort for sizing gate chains.
//!
//! The paper follows Amrutur & Horowitz in sizing decoder and driver chains
//! by logical effort: pick the number of stages so the per-stage effort is
//! near the optimum (~4), then distribute sizes geometrically.

use cactid_units::Farads;

/// A sized chain computed by logical effort.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortChain {
    /// Electrical×logical effort each stage carries.
    pub stage_effort: f64,
    /// Number of stages.
    pub n_stages: usize,
    /// Input-capacitance multiple of each stage relative to the chain's
    /// first-stage input capacitance.
    pub cap_ratios: Vec<f64>,
}

/// Target per-stage effort. 4 is the textbook optimum; CACTI uses ~3–4.
pub const OPT_STAGE_EFFORT: f64 = 4.0;

/// Sizes a chain to drive `c_load` from an input capacitance `c_in` with
/// total logical effort `g_total` (product of the gates' logical efforts).
///
/// Returns the chain with the stage count that brings per-stage effort
/// closest to [`OPT_STAGE_EFFORT`], always using at least `min_stages`
/// stages.
///
/// # Panics
///
/// Panics if `c_in` or `c_load` is not positive.
pub fn size_chain(c_in: Farads, c_load: Farads, g_total: f64, min_stages: usize) -> EffortChain {
    assert!(c_in > Farads::ZERO, "c_in must be positive");
    assert!(c_load > Farads::ZERO, "c_load must be positive");
    let path_effort = (g_total * c_load / c_in).max(1.0);
    // Optimal stage count.
    let n_float = path_effort.ln() / OPT_STAGE_EFFORT.ln();
    let n = (n_float.round() as usize).max(min_stages).max(1);
    let stage_effort = path_effort.powf(1.0 / n as f64);
    // Geometric capacitance progression; the logical effort is assumed
    // spread over the first stages (adequate for delay/energy purposes).
    let mut cap_ratios = Vec::with_capacity(n);
    let mut c = 1.0;
    for _ in 0..n {
        cap_ratios.push(c);
        c *= stage_effort / 1.0;
    }
    EffortChain {
        stage_effort,
        n_stages: n,
        cap_ratios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_effort_near_optimum() {
        let chain = size_chain(Farads::ff(1.0), Farads::ff(256.0), 1.0, 1);
        assert!(chain.stage_effort > 2.0 && chain.stage_effort < 8.0);
        assert_eq!(chain.cap_ratios.len(), chain.n_stages);
        // First stage is unit-sized.
        assert!((chain.cap_ratios[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bigger_load_needs_more_stages() {
        let small = size_chain(Farads::ff(1.0), Farads::ff(16.0), 1.0, 1);
        let big = size_chain(Farads::ff(1.0), Farads::ff(65536.0), 1.0, 1);
        assert!(big.n_stages > small.n_stages);
    }

    #[test]
    fn min_stages_respected() {
        let chain = size_chain(Farads::ff(1.0), Farads::ff(2.0), 1.0, 3);
        assert_eq!(chain.n_stages, 3);
    }

    #[test]
    #[should_panic(expected = "c_load must be positive")]
    fn rejects_nonpositive_load() {
        size_chain(Farads::ff(1.0), Farads::ZERO, 1.0, 1);
    }
}
