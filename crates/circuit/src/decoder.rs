//! Row-decoder model: predecoders, final NAND decode, and pitch-matched
//! wordline drivers, sized by logical effort (Amrutur & Horowitz style).

use crate::area::{gate_area, transistor_area, GATE_PITCH_F};
use crate::driver::BufferChain;
use crate::horowitz::stage;
use crate::BlockResult;
use cactid_tech::DeviceParams;
use cactid_units::{energy_cv2, Farads, Meters, Ohms, Seconds, Volts};

/// Bits decoded per predecode group (1-of-8 predecoding).
const PREDEC_GROUP_BITS: usize = 3;
/// Input width of each final-decode NAND gate, as a multiple of the
/// device's minimum width.
const NAND_INPUT_W_MULT: f64 = 3.0;

/// A complete row-decode path for one subarray: predecode, final NAND per
/// row, and a wordline driver chain, evaluated against a given wordline
/// load.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoder {
    /// Number of rows decoded (power of two).
    pub n_rows: usize,
    /// Number of predecode groups.
    pub n_groups: usize,
    /// Driver chain from a predecode output onto the predecode line.
    predec_driver: BufferChain,
    /// Capacitive load of one predecode line.
    c_predec_line: Farads,
    /// Wordline driver chain (final NAND output → wordline).
    wl_driver: BufferChain,
    /// Wordline lumped capacitance.
    c_wordline: Farads,
    /// Wordline distributed resistance.
    r_wordline: Ohms,
    /// Voltage the wordline swings to (V_PP for DRAM).
    v_wordline: Volts,
    /// Height budget per row for pitch-matching (the cell height).
    wl_pitch: Meters,
}

impl Decoder {
    /// Designs a decoder for `n_rows` rows whose wordline presents
    /// capacitance `c_wordline` and distributed resistance `r_wordline`,
    /// swinging to `v_wordline`. `predec_wire_cap` is the wire load of a
    /// predecode line crossing the subarray edge, and `wl_pitch` the cell
    /// height the per-row circuits must pitch-match.
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` is not a power of two ≥ 2.
    pub fn design(
        dev: &DeviceParams,
        n_rows: usize,
        c_wordline: Farads,
        r_wordline: Ohms,
        v_wordline: Volts,
        predec_wire_cap: Farads,
        wl_pitch: Meters,
    ) -> Decoder {
        assert!(
            n_rows >= 2 && n_rows.is_power_of_two(),
            "n_rows must be a power of two ≥ 2, got {n_rows}"
        );
        let n_addr = n_rows.trailing_zeros() as usize;
        let n_groups = n_addr.div_ceil(PREDEC_GROUP_BITS).max(1);
        let c_nand_in = NAND_INPUT_W_MULT * dev.min_width * dev.c_gate;
        // Each predecode line loads the NAND inputs of the rows it selects.
        let lines_per_group = 1usize << PREDEC_GROUP_BITS.min(n_addr);
        let fanout_rows = n_rows / lines_per_group.max(1);
        let c_predec_line = predec_wire_cap + fanout_rows as f64 * c_nand_in;
        let predec_driver = BufferChain::design(dev, dev.c_inv_min(), c_predec_line);
        let wl_driver = BufferChain::design(
            dev,
            // The NAND output drives the first wordline-driver stage.
            4.0 * dev.c_inv_min(),
            c_wordline,
        );
        Decoder {
            n_rows,
            n_groups,
            predec_driver,
            c_predec_line,
            wl_driver,
            c_wordline,
            r_wordline,
            v_wordline,
            wl_pitch,
        }
    }

    /// Evaluates the decode path: delay of the activated path, energy per
    /// access, leakage of the whole decode structure, and its layout area.
    pub fn evaluate(&self, dev: &DeviceParams, input_ramp: Seconds) -> BlockResult {
        // --- Predecode NAND3 + line driver ---
        let w_pn = NAND_INPUT_W_MULT * dev.min_width;
        let nand_stack_r = dev.res_on_n(w_pn) * PREDEC_GROUP_BITS as f64;
        let c_pd_first = self.predec_driver.stage_caps[0];
        let tf_pnand = nand_stack_r * (dev.cap_drain(w_pn * 3.0) + c_pd_first);
        let (d_pnand, ramp1) = stage(input_ramp, tf_pnand, 0.5);
        let pd = self.predec_driver.evaluate(dev, ramp1);

        // --- Final NAND (fan-in = n_groups) ---
        let w_fn = NAND_INPUT_W_MULT * dev.min_width;
        let fnand_r = dev.res_on_n(w_fn) * self.n_groups.max(2) as f64;
        let c_wl_first = self.wl_driver.stage_caps[0];
        let tf_fnand = fnand_r * (dev.cap_drain(w_fn * 3.0) + c_wl_first);
        let (d_fnand, ramp2) = stage(pd.ramp_out, tf_fnand, 0.5);

        // --- Wordline driver chain + distributed wordline RC ---
        let wl = self.wl_driver.evaluate_at(dev, ramp2, self.v_wordline);
        let d_wire = 0.38 * self.r_wordline * self.c_wordline;

        let delay = d_pnand + pd.delay + d_fnand + wl.delay + d_wire;

        // --- Energy (activated path only) ---
        // Two predecode lines toggle per group (one rises, one falls).
        let e_predec =
            self.n_groups as f64 * (self.c_predec_line * dev.vdd * dev.vdd + 2.0 * pd.energy / 2.0);
        let e_fnand = energy_cv2(dev.cap_drain(w_fn * 3.0), dev.vdd);
        // The wordline rises and falls every access: full C·V².
        let e_wl = wl.energy + energy_cv2(self.c_wordline, self.v_wordline);
        let energy = e_predec + e_fnand + e_wl;

        // --- Leakage (every row's NAND + driver leaks) ---
        let leak_row = dev.leak_power(w_fn * (1.0 + dev.p_to_n_ratio)) + wl.leakage;
        let leak_predec = self.n_groups as f64 * 8.0 * pd.leakage;
        let leakage = self.n_rows as f64 * leak_row + leak_predec;

        // --- Area ---
        let f = dev.min_width / 2.5;
        let nand_area = gate_area(w_fn * 2.0, w_fn * 2.0, self.wl_pitch.max(4.0 * f), f);
        let mut row_width = nand_area.width;
        for (i, _) in self.wl_driver.stage_caps.iter().enumerate() {
            let w_n = self.wl_driver.stage_width_n(dev, i);
            let w_p = w_n * dev.p_to_n_ratio;
            row_width +=
                transistor_area(w_n + w_p, self.wl_pitch.max(4.0 * f), f).width + GATE_PITCH_F * f;
        }
        let rows_area = self.n_rows as f64 * row_width * self.wl_pitch;
        let predec_area = self.n_groups as f64 * 8.0 * pd.area * 1.5;
        let area = rows_area + predec_area;

        BlockResult {
            delay,
            ramp_out: wl.ramp_out,
            energy,
            leakage,
            area,
        }
    }

    /// Delay of the activated decode path for `input_ramp` — exactly the
    /// delay component of [`Decoder::evaluate`], without its
    /// ramp-independent energy/leakage/area bookkeeping. Callers that have
    /// already evaluated the decoder at a zero ramp (for area and energy)
    /// re-time it here when the real input ramp becomes known.
    pub fn delay(&self, dev: &DeviceParams, input_ramp: Seconds) -> Seconds {
        let w_pn = NAND_INPUT_W_MULT * dev.min_width;
        let nand_stack_r = dev.res_on_n(w_pn) * PREDEC_GROUP_BITS as f64;
        let c_pd_first = self.predec_driver.stage_caps[0];
        let tf_pnand = nand_stack_r * (dev.cap_drain(w_pn * 3.0) + c_pd_first);
        let (d_pnand, ramp1) = stage(input_ramp, tf_pnand, 0.5);
        let (pd_delay, pd_ramp) = self.predec_driver.delay(dev, ramp1);

        let w_fn = NAND_INPUT_W_MULT * dev.min_width;
        let fnand_r = dev.res_on_n(w_fn) * self.n_groups.max(2) as f64;
        let c_wl_first = self.wl_driver.stage_caps[0];
        let tf_fnand = fnand_r * (dev.cap_drain(w_fn * 3.0) + c_wl_first);
        let (d_fnand, ramp2) = stage(pd_ramp, tf_fnand, 0.5);

        let (wl_delay, _) = self.wl_driver.delay(dev, ramp2);
        let d_wire = 0.38 * self.r_wordline * self.c_wordline;
        d_pnand + pd_delay + d_fnand + wl_delay + d_wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_tech::{DeviceType, TechNode, Technology};

    fn dev() -> DeviceParams {
        Technology::new(TechNode::N32).device(DeviceType::HpLongChannel)
    }

    fn mk(n_rows: usize) -> Decoder {
        let d = dev();
        Decoder::design(
            &d,
            n_rows,
            Farads::ff(50.0),
            Ohms::kohm(2.0),
            d.vdd,
            Farads::ff(10.0),
            Meters::from_si(0.3e-6),
        )
    }

    #[test]
    fn delay_only_path_matches_evaluate_bitwise() {
        let d = dev();
        let dec = Decoder::design(
            &d,
            1024,
            Farads::from_si(2e-13),
            Ohms::from_si(9e3),
            d.vdd,
            Farads::from_si(3e-14),
            Meters::from_si(1.4e-7),
        );
        for ramp_ps in [0.0, 3.7, 55.0, 410.0] {
            let ramp = Seconds::ps(ramp_ps);
            assert_eq!(dec.delay(&d, ramp), dec.evaluate(&d, ramp).delay);
        }
    }

    #[test]
    fn more_rows_cost_more_leakage_and_area() {
        let d = dev();
        let small = mk(64).evaluate(&d, Seconds::ZERO);
        let big = mk(512).evaluate(&d, Seconds::ZERO);
        assert!(big.leakage > small.leakage);
        assert!(big.area > small.area);
        // Delay grows only logarithmically — should be within 2×.
        assert!(big.delay < 2.0 * small.delay);
    }

    #[test]
    fn boosted_wordline_costs_energy() {
        let d = dev();
        let normal = Decoder::design(
            &d,
            256,
            Farads::ff(60.0),
            Ohms::kohm(3.0),
            d.vdd,
            Farads::ff(10.0),
            Meters::from_si(0.1e-6),
        );
        let boosted = Decoder::design(
            &d,
            256,
            Farads::ff(60.0),
            Ohms::kohm(3.0),
            Volts::from_si(2.6),
            Farads::ff(10.0),
            Meters::from_si(0.1e-6),
        );
        assert!(
            boosted.evaluate(&d, Seconds::ZERO).energy > normal.evaluate(&d, Seconds::ZERO).energy
        );
    }

    #[test]
    fn heavier_wordline_is_slower() {
        let d = dev();
        let light = Decoder::design(
            &d,
            256,
            Farads::ff(20.0),
            Ohms::kohm(1.0),
            d.vdd,
            Farads::ff(10.0),
            Meters::from_si(0.1e-6),
        );
        let heavy = Decoder::design(
            &d,
            256,
            Farads::ff(400.0),
            Ohms::kohm(20.0),
            d.vdd,
            Farads::ff(10.0),
            Meters::from_si(0.1e-6),
        );
        assert!(heavy.evaluate(&d, Seconds::ZERO).delay > light.evaluate(&d, Seconds::ZERO).delay);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        mk(100);
    }

    #[test]
    fn delay_is_nanoscale_sane() {
        let d = dev();
        let r = mk(256).evaluate(&d, Seconds::ZERO);
        // A 256-row decode at 32 nm should land well under a nanosecond.
        assert!(
            r.delay > Seconds::ps(10.0) && r.delay < Seconds::ns(1.0),
            "{}",
            r.delay
        );
    }
}
