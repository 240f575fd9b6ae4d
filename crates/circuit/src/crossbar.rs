//! Orion-style matrix crossbar model (Wang et al., MICRO 2002), used for
//! the L2↔L3 interconnect of the LLC study (paper §4.1: "Inside CACTI-D we
//! incorporate a model for the delay and energy consumed in a crossbar").

use crate::driver::BufferChain;
use crate::repeater::RepeatedWire;
use crate::BlockResult;
use cactid_tech::{DeviceParams, WireParams};
use cactid_units::{energy_cv2, Meters, Seconds};

/// An `n_in × n_out` matrix crossbar carrying `width_bits`-wide flits over
/// a physical span of `side_length` per dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossbar {
    /// Number of input ports.
    pub n_in: usize,
    /// Number of output ports.
    pub n_out: usize,
    /// Datapath width per port \[bits\].
    pub width_bits: usize,
    /// Physical length a flit traverses in each dimension.
    pub side_length: Meters,
}

impl Crossbar {
    /// Creates a crossbar description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `side_length` is not positive.
    pub fn new(n_in: usize, n_out: usize, width_bits: usize, side_length: Meters) -> Crossbar {
        assert!(n_in > 0 && n_out > 0 && width_bits > 0);
        assert!(side_length > Meters::ZERO);
        Crossbar {
            n_in,
            n_out,
            width_bits,
            side_length,
        }
    }

    /// Evaluates one flit traversal (input port → output port): delay
    /// through input drivers, the two wire dimensions and the output mux;
    /// energy for `width_bits` toggling wires; leakage and area of the
    /// whole structure.
    pub fn evaluate(&self, dev: &DeviceParams, wire: &WireParams) -> BlockResult {
        // Each crossing wire spans the full side; crosspoint drain loads
        // from every output port hang on the input wire.
        let crosspoint_w = 10.0 * dev.min_width;
        let c_crosspoints = dev.cap_drain(crosspoint_w) * self.n_out as f64;
        let row = RepeatedWire::design(dev, wire, self.side_length, 1.0);
        let row_eval = row.evaluate(dev, wire, Seconds::ZERO);
        let col = RepeatedWire::design(dev, wire, self.side_length, 1.0);
        let col_eval = col.evaluate(dev, wire, row_eval.ramp_out);
        // Input driver sized for the wire + crosspoint load.
        let c_line = wire.cap(self.side_length) + c_crosspoints;
        let drv = BufferChain::design(dev, dev.c_inv_min(), c_line).evaluate(dev, Seconds::ZERO);

        let delay = drv.delay + row_eval.delay + col_eval.delay;
        let bits = self.width_bits as f64;
        // Half the bits toggle on average.
        let energy = 0.5
            * bits
            * (drv.energy + row_eval.energy + col_eval.energy + energy_cv2(c_crosspoints, dev.vdd));
        let per_line_leak = drv.leakage + row_eval.leakage + col_eval.leakage;
        let leakage = bits * (self.n_in + self.n_out) as f64 * per_line_leak;
        // Wiring-dominated area: n_in·width tracks × n_out·width tracks.
        let tracks_in = self.n_in as f64 * bits * wire.pitch;
        let tracks_out = self.n_out as f64 * bits * wire.pitch;
        let area = tracks_in.max(self.side_length) * tracks_out.max(self.side_length);

        BlockResult {
            delay,
            ramp_out: col_eval.ramp_out,
            energy,
            leakage,
            area,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_tech::{DeviceType, TechNode, Technology, WireType};
    use cactid_units::Joules;

    fn setup() -> (DeviceParams, WireParams) {
        let t = Technology::new(TechNode::N32);
        (t.device(DeviceType::Hp), t.wire(WireType::Global))
    }

    #[test]
    fn eight_by_eight_llc_crossbar_is_sub_ns() {
        let (d, w) = setup();
        // ~5 mm span, 128-bit flits: the LLC-study configuration scale.
        let xbar = Crossbar::new(8, 8, 128, Meters::mm(5.0));
        let r = xbar.evaluate(&d, &w);
        assert!(
            r.delay > Seconds::ps(50.0) && r.delay < Seconds::ns(2.0),
            "{}",
            r.delay
        );
        assert!(r.energy > Joules::ZERO);
    }

    #[test]
    fn wider_flits_cost_more_energy() {
        let (d, w) = setup();
        let narrow = Crossbar::new(8, 8, 64, Meters::mm(3.0)).evaluate(&d, &w);
        let wide = Crossbar::new(8, 8, 256, Meters::mm(3.0)).evaluate(&d, &w);
        assert!(wide.energy > narrow.energy);
        assert_eq!(wide.delay, narrow.delay);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_ports() {
        Crossbar::new(0, 8, 128, Meters::mm(1.0));
    }
}
