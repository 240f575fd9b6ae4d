//! Figure 1: SRAM model validation against the 65 nm 16 MB Intel Xeon L3
//! cache (paper §2.5) — a bubble chart of access time vs. power with area
//! as bubble size, comparing CACTI-D solutions produced under different
//! optimization-knob settings against the published cache.

use crate::report::pct_err;
use cactid_core::{optimize, AccessMode, MemoryKind, MemorySpec, OptimizationOptions, Solution};
use cactid_tech::{CellTechnology, TechNode};

/// Published 65 nm Xeon L3 reference points (paper §2.5 and the CACTI 5.1
/// technical report). Two bubbles exist because two dynamic-power numbers
/// were quoted for different activity factors; values are approximate
/// published figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XeonTarget {
    /// Access time \[s\].
    pub access_time: f64,
    /// Total power (leakage + dynamic at the quoted activity) \[W\].
    pub power: f64,
    /// Area \[m²\].
    pub area: f64,
}

/// Published 90 nm Sun SPARC (UltraSPARC IV+) 4 MB L2 reference point —
/// the paper's second SRAM validation target (McIntyre et al., JSSC 2005);
/// values are approximate published figures.
pub const SPARC_TARGET: XeonTarget = XeonTarget {
    access_time: 3.1e-9,
    power: 5.5,
    area: 58e-6,
};

/// The two target bubbles.
pub const XEON_TARGETS: [XeonTarget; 2] = [
    XeonTarget {
        access_time: 3.9e-9,
        power: 4.8,
        area: 110e-6,
    },
    XeonTarget {
        access_time: 3.9e-9,
        power: 8.3,
        area: 110e-6,
    },
];

/// One CACTI-D bubble: a solution under a particular knob setting.
#[derive(Debug, Clone)]
pub struct Figure1Point {
    /// Knob description.
    pub knobs: String,
    /// Access time \[s\].
    pub access_time: f64,
    /// Leakage + dynamic power at activity factor 1.0 \[W\].
    pub power: f64,
    /// Area \[m²\].
    pub area: f64,
}

/// The Xeon-like specification: 16 MB, 16-way, 64 B lines, 65 nm SRAM with
/// sleep transistors (paper §2.5 models sleep transistors halving idle-mat
/// leakage).
pub fn xeon_spec(opt: OptimizationOptions) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(16 << 20)
        .block_bytes(64)
        .associativity(16)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N65)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Sequential,
        })
        .optimization(OptimizationOptions {
            sleep_transistors: true,
            ..opt
        })
        .build()
        .unwrap_or_else(|e| panic!("the Xeon spec is valid: {e}"))
}

/// Power at activity factor `af` given the cache cycles at ~1 GHz L3 clock.
fn solution_power(sol: &Solution, af: f64) -> f64 {
    // The Xeon L3 served roughly one access per core clock at peak;
    // following the paper we evaluate dynamic power at an assumed access
    // rate of one per 3 ns (the cache's own random-access pipeline).
    let access_rate = af / 3.0e-9;
    sol.leakage_power.value() + sol.read_energy.value() * access_rate
}

/// Sweeps the optimizer knobs (max-area %, max-acctime %, repeater
/// relaxation) and returns the resulting bubbles (paper: "we vary
/// optimization variables … within reasonable bounds").
pub fn figure1() -> Vec<Figure1Point> {
    let mut out = Vec::new();
    for &(area_pct, time_pct, relax) in &[
        (0.10, 0.10, 1.0),
        (0.30, 0.10, 1.0),
        (0.30, 0.30, 1.0),
        (0.50, 0.30, 1.5),
        (0.50, 0.50, 2.0),
        (1.00, 0.50, 1.0),
        (1.00, 1.00, 2.0),
    ] {
        let opt = OptimizationOptions {
            max_area_overhead: area_pct,
            max_access_time_overhead: time_pct,
            repeater_relax: relax,
            ..OptimizationOptions::default()
        };
        let spec = xeon_spec(opt);
        let Ok(sol) = optimize(&spec) else { continue };
        out.push(Figure1Point {
            knobs: format!(
                "area+{:.0}% time+{:.0}% relax{relax:.1}",
                area_pct * 100.0,
                time_pct * 100.0
            ),
            access_time: sol.access_time.value(),
            power: solution_power(&sol, 1.0),
            area: sol.area.value(),
        });
    }
    out
}

/// The SPARC-like specification: 4 MB, 4-way, 64 B lines, 90 nm SRAM.
pub fn sparc_spec(opt: OptimizationOptions) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(4 << 20)
        .block_bytes(64)
        .associativity(4)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N90)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Sequential,
        })
        .optimization(opt)
        .build()
        .unwrap_or_else(|e| panic!("the SPARC spec is valid: {e}"))
}

/// The SPARC L2 validation point: the best-access-time solution under
/// default knobs, evaluated like the Xeon bubbles.
pub fn sparc_point() -> Figure1Point {
    let opt = OptimizationOptions {
        max_area_overhead: 0.3,
        max_access_time_overhead: 0.1,
        ..OptimizationOptions::default()
    };
    let spec = sparc_spec(opt);
    let sol = optimize(&spec).unwrap_or_else(|e| panic!("the SPARC spec solves: {e}"));
    Figure1Point {
        knobs: "sparc l2 (90nm)".into(),
        access_time: sol.access_time.value(),
        power: solution_power(&sol, 1.0),
        area: sol.area.value(),
    }
}

/// The best-access-time solution's mean error vs. the first target across
/// access time, area and power — the paper reports ~20 % for this metric.
pub fn best_access_mean_error(points: &[Figure1Point]) -> f64 {
    let best = points
        .iter()
        .min_by(|a, b| a.access_time.total_cmp(&b.access_time))
        .unwrap_or_else(|| panic!("points must be non-empty"));
    let t = XEON_TARGETS[0];
    (pct_err(best.access_time, t.access_time).abs()
        + pct_err(best.area, t.area).abs()
        + pct_err(best.power, t.power).abs())
        / 3.0
}

/// Renders the Figure 1 data as text.
pub fn render() -> String {
    let points = figure1();
    let mut s =
        String::from("Figure 1: 65nm Xeon L3 validation (bubbles: access time, power, area)\n");
    for t in XEON_TARGETS {
        s.push_str(&format!(
            "  target : acc {:.2}ns power {:5.2}W area {:6.1}mm2\n",
            t.access_time * 1e9,
            t.power,
            t.area / 1e-6
        ));
    }
    for p in &points {
        s.push_str(&format!(
            "  cacti-d: acc {:.2}ns power {:5.2}W area {:6.1}mm2  [{}]\n",
            p.access_time * 1e9,
            p.power,
            p.area / 1e-6,
            p.knobs
        ));
    }
    s.push_str(&format!(
        "best-access-time solution mean |error| vs target: {:.0}% (paper: ~20%)\n",
        best_access_mean_error(&points)
    ));
    // The paper's second validation target (analysis "not shown" there).
    let sparc = sparc_point();
    s.push_str(&format!(
        "\n90nm SPARC L2 validation (paper §2.5, analysis not shown there):\n  target : acc {:.2}ns power {:5.2}W area {:6.1}mm2\n  cacti-d: acc {:.2}ns power {:5.2}W area {:6.1}mm2\n",
        SPARC_TARGET.access_time * 1e9,
        SPARC_TARGET.power,
        SPARC_TARGET.area / 1e-6,
        sparc.access_time * 1e9,
        sparc.power,
        sparc.area / 1e-6,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_distinct_tradeoffs() {
        let pts = figure1();
        assert!(pts.len() >= 5);
        let min_t = pts.iter().map(|p| p.access_time).fold(f64::MAX, f64::min);
        let max_t = pts.iter().map(|p| p.access_time).fold(0.0, f64::max);
        // The knobs genuinely move the solutions around.
        assert!(max_t > min_t, "sweep collapsed to one point");
    }

    #[test]
    fn sparc_l2_lands_in_the_published_ballpark() {
        let p = sparc_point();
        let t = SPARC_TARGET;
        let err = (pct_err(p.access_time, t.access_time).abs()
            + pct_err(p.area, t.area).abs()
            + pct_err(p.power, t.power).abs())
            / 3.0;
        assert!(err < 60.0, "SPARC mean |error| {err:.0}%");
    }

    #[test]
    fn best_access_solution_is_in_the_xeon_ballpark() {
        let pts = figure1();
        let err = best_access_mean_error(&pts);
        // The paper reports ~20 % average error; accept up to 45 % for the
        // reproduction (we do not have the real ITRS tables).
        assert!(err < 45.0, "mean error {err:.0}%");
    }
}
