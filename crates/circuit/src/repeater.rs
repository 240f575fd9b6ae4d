//! Optimal repeater insertion for long wires, with the energy-delay
//! relaxation knob the paper describes (§2.4, `max repeater delay
//! constraint`): repeaters may be downsized/spread out to trade a bounded
//! delay increase for energy savings.

use crate::horowitz::stage;
use crate::BlockResult;
use cactid_tech::{DeviceParams, WireParams};
use cactid_units::{energy_cv2, Meters, Seconds};

/// A repeatered wire of a given length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatedWire {
    /// Total wire length.
    pub length: Meters,
    /// Repeater segment length.
    pub seg_len: Meters,
    /// Repeater NMOS width.
    pub w_rep: Meters,
    /// Number of segments (≥ 1).
    pub n_seg: usize,
}

impl RepeatedWire {
    /// Designs a repeatered wire of `length` using classic optimal
    /// repeater sizing, then relaxes it by `relax ≥ 1.0`: repeaters are
    /// downsized by `relax` and spaced `√relax` further apart, trading
    /// delay for energy exactly as CACTI's `max repeater delay constraint`
    /// knob does.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not positive or `relax < 1.0`.
    pub fn design(
        dev: &DeviceParams,
        wire: &WireParams,
        length: Meters,
        relax: f64,
    ) -> RepeatedWire {
        assert!(length > Meters::ZERO, "wire length must be positive");
        assert!(relax >= 1.0, "relax must be ≥ 1.0");
        let r0 = dev.r_eff_n; // Ω·m (per unit width)
        let c_g = dev.c_gate * (1.0 + dev.p_to_n_ratio);
        let c_d = dev.c_drain * (1.0 + dev.p_to_n_ratio);
        // Escape hatch: the intermediates under these square roots (s and
        // m², but only after the division) have no named quantity, so the
        // classic closed forms are computed on raw SI values.
        let l_opt = Meters::from_si(
            (2.0 * r0.value() * (c_g + c_d).value()
                / (wire.r_per_m.value() * wire.c_per_m.value()))
            .sqrt(),
        );
        let w_opt = Meters::from_si(
            (r0.value() * wire.c_per_m.value() / (wire.r_per_m.value() * c_g.value())).sqrt(),
        );
        let seg_len = l_opt * relax.sqrt();
        let w_rep = (w_opt / relax).max(dev.min_width);
        let n_seg = (length / seg_len).ceil().max(1.0) as usize;
        RepeatedWire {
            length,
            seg_len: length / n_seg as f64,
            w_rep,
            n_seg,
        }
    }

    /// Evaluates the wire: total delay, energy per full-swing transition,
    /// repeater leakage, and the silicon area of the repeaters (wire tracks
    /// are accounted by the floorplan, not here).
    pub fn evaluate(
        &self,
        dev: &DeviceParams,
        wire: &WireParams,
        input_ramp: Seconds,
    ) -> BlockResult {
        let w_n = self.w_rep;
        let w_p = w_n * dev.p_to_n_ratio;
        let r_drv = dev.res_on_n(w_n);
        let c_in = dev.cap_gate(w_n + w_p);
        let c_self = dev.cap_drain(w_n + w_p);
        let c_w = wire.cap(self.seg_len);
        let r_w = wire.res(self.seg_len);
        let mut delay = Seconds::ZERO;
        let mut ramp = input_ramp;
        // Driver sees its own drain, the wire, and the next repeater; the
        // time constant is identical for every segment — only the ramp
        // evolves through the chain.
        let tf = r_drv * (c_self + c_w + c_in) + r_w * (0.38 * c_w + 0.69 * c_in);
        for _ in 0..self.n_seg {
            let (d, r_out) = stage(ramp, tf, 0.5);
            delay += d;
            ramp = r_out;
        }
        let c_total = self.n_seg as f64 * (c_self + c_w + c_in);
        let energy = energy_cv2(c_total, dev.vdd);
        let leakage = self.n_seg as f64 * dev.leak_power((w_n + w_p) / 2.0);
        let f = dev.min_width / 2.5;
        let area = self.n_seg as f64 * (w_n + w_p) * 4.0 * f;
        BlockResult {
            delay,
            ramp_out: ramp,
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

    fn setup() -> (DeviceParams, WireParams) {
        let t = Technology::new(TechNode::N32);
        (t.device(DeviceType::Hp), t.wire(WireType::SemiGlobal))
    }

    #[test]
    fn repeated_wire_is_linear_in_length() {
        let (d, w) = setup();
        let short =
            RepeatedWire::design(&d, &w, Meters::mm(1.0), 1.0).evaluate(&d, &w, Seconds::ZERO);
        let long =
            RepeatedWire::design(&d, &w, Meters::mm(4.0), 1.0).evaluate(&d, &w, Seconds::ZERO);
        let ratio = long.delay / short.delay;
        assert!((3.0..5.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn delay_is_roughly_100ps_per_mm_at_32nm() {
        let (d, w) = setup();
        let r = RepeatedWire::design(&d, &w, Meters::mm(1.0), 1.0).evaluate(&d, &w, Seconds::ZERO);
        let ps_per_mm = r.delay / Seconds::ps(1.0);
        assert!(
            (30.0..300.0).contains(&ps_per_mm),
            "{ps_per_mm} ps/mm out of band"
        );
    }

    #[test]
    fn relaxation_trades_delay_for_energy() {
        let (d, w) = setup();
        let tight =
            RepeatedWire::design(&d, &w, Meters::mm(2.0), 1.0).evaluate(&d, &w, Seconds::ZERO);
        let relaxed =
            RepeatedWire::design(&d, &w, Meters::mm(2.0), 2.0).evaluate(&d, &w, Seconds::ZERO);
        assert!(relaxed.delay > tight.delay);
        assert!(relaxed.energy < tight.energy);
        assert!(relaxed.leakage < tight.leakage);
    }

    #[test]
    #[should_panic(expected = "relax")]
    fn rejects_relax_below_one() {
        let (d, w) = setup();
        RepeatedWire::design(&d, &w, Meters::mm(1.0), 0.5);
    }
}
