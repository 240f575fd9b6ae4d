//! # cactid-units — compile-time dimensional analysis
//!
//! Every physical quantity the CACTI-D reproduction computes — Horowitz
//! delays, RC products, C·V² energies, leakage powers, Table 1 cell
//! parameters — is carried in a zero-cost newtype over `f64` holding the
//! value in **SI base units**. Arithmetic is implemented **only for
//! physically meaningful combinations**, so a ps/ns or fF/F mix-up, or a
//! formula that multiplies two capacitances, is a *compile error* rather
//! than a silently wrong number:
//!
//! ```
//! use cactid_units::{Farads, Ohms, Seconds, Volts, energy_cv2};
//!
//! let r = Ohms::from_si(2.0e3);
//! let c = Farads::ff(50.0);
//! let tau: Seconds = r * c;              // Ω × F = s
//! assert!(tau > Seconds::ps(99.0) && tau < Seconds::ps(101.0));
//!
//! let e = energy_cv2(c, Volts::from_si(1.0));   // ½·C·V²
//! assert!((e.value() - 25.0e-15).abs() < 1.0e-24);
//! ```
//!
//! An illegal combination does not compile:
//!
//! ```compile_fail
//! use cactid_units::{Farads, Seconds};
//! let t = Seconds::ns(1.0);
//! let c = Farads::ff(10.0);
//! let _nonsense = t * c; // ERROR: time × capacitance has no physical meaning
//! ```
//!
//! Neither does mixing dimensions in a sum:
//!
//! ```compile_fail
//! use cactid_units::{Joules, Watts};
//! let _ = Joules::pj(1.0) + Watts::mw(1.0); // ERROR: J + W
//! ```
//!
//! ## Conventions
//!
//! * Values are stored in SI base units (`#[repr(transparent)]` over `f64`),
//!   so the wrappers are zero-runtime-cost and bit-identical to the raw
//!   arithmetic they replace.
//! * Constructors take the customary engineering unit
//!   (`Seconds::ps(1.0)`, `Farads::ff(20.0)`, `Meters::um(0.5)`) and are
//!   `const fn`, usable in parameter tables.
//! * `Quantity / Quantity` of the *same* dimension yields a plain `f64`
//!   ratio; `f64 × Quantity` scales. `value()` unwraps and
//!   `from_si()` wraps — the escape hatches for optimizer inner loops,
//!   serialization boundaries and the occasional formula (optimal repeater
//!   sizing) whose intermediate dimensions are not worth naming.
//!
//! ## Adding a new dimension
//!
//! Declare it with `quantity!`, then wire its legal algebra with
//! `dim_mul!(A, B, C)` (reads "A × B = C" and derives the commuted product
//! and both quotients). See `DESIGN.md` §11 for the full legality table.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

// Scale factors, kept as expressions (not decimal literals) so that the
// constructed values are bit-identical to the historic `units.rs`
// multiplier constants they replace.
const NM: f64 = 1e-9;
const UM: f64 = 1e-6;
const MM: f64 = 1e-3;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value already expressed in SI base units.
            #[inline]
            #[must_use]
            pub const fn from_si(value: f64) -> Self {
                Self(value)
            }

            /// The raw value in SI base units — the escape hatch for
            /// arithmetic-heavy inner loops and serialization boundaries.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Larger of two quantities (IEEE `f64::max` semantics).
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Smaller of two quantities (IEEE `f64::min` semantics).
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Absolute value.
            #[inline]
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// `true` when the value is neither infinite nor NaN.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Same-dimension division yields the dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)?;
                write!(f, " {}", $unit)
            }
        }
    };
}

/// Declares the physically meaningful product `$a × $b = $c`, deriving the
/// commuted product `$b × $a = $c` and both quotients `$c / $a = $b`,
/// `$c / $b = $a`.
macro_rules! dim_mul {
    ($a:ident, $b:ident, $c:ident) => {
        impl Mul<$b> for $a {
            type Output = $c;
            #[inline]
            fn mul(self, rhs: $b) -> $c {
                $c(self.0 * rhs.0)
            }
        }

        impl Mul<$a> for $b {
            type Output = $c;
            #[inline]
            fn mul(self, rhs: $a) -> $c {
                $c(self.0 * rhs.0)
            }
        }

        impl Div<$a> for $c {
            type Output = $b;
            #[inline]
            fn div(self, rhs: $a) -> $b {
                $b(self.0 / rhs.0)
            }
        }

        impl Div<$b> for $c {
            type Output = $a;
            #[inline]
            fn div(self, rhs: $b) -> $a {
                $a(self.0 / rhs.0)
            }
        }
    };
}

/// Declares the square `$a × $a = $c` (one product, one quotient).
macro_rules! dim_sq {
    ($a:ident, $c:ident) => {
        impl Mul for $a {
            type Output = $c;
            #[inline]
            fn mul(self, rhs: $a) -> $c {
                $c(self.0 * rhs.0)
            }
        }

        impl Div<$a> for $c {
            type Output = $a;
            #[inline]
            fn div(self, rhs: $a) -> $a {
                $a(self.0 / rhs.0)
            }
        }
    };
}

quantity!(
    /// A time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// A length in meters.
    Meters,
    "m"
);
quantity!(
    /// An area in square meters.
    SquareMeters,
    "m²"
);
quantity!(
    /// A capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// A resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// A voltage in volts.
    Volts,
    "V"
);
quantity!(
    /// A current in amperes.
    Amperes,
    "A"
);
quantity!(
    /// A charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// An energy in joules.
    Joules,
    "J"
);
quantity!(
    /// A power in watts.
    Watts,
    "W"
);
quantity!(
    /// A conductance in siemens.
    Siemens,
    "S"
);
quantity!(
    /// Capacitance per length (or per transistor width) in F/m — the
    /// width-normalized gate/drain capacitance of Table 1 device rows and
    /// the per-length capacitance of wire classes.
    FaradsPerMeter,
    "F/m"
);
quantity!(
    /// Resistance per length in Ω/m — wire resistance.
    OhmsPerMeter,
    "Ω/m"
);
quantity!(
    /// Resistance × width in Ω·m — the width-normalized effective
    /// switching resistance of a transistor (`R_on = r_eff / w`).
    OhmMeters,
    "Ω·m"
);
quantity!(
    /// Current per width in A/m — width-normalized drive and leakage
    /// currents.
    AmperesPerMeter,
    "A/m"
);
quantity!(
    /// Transconductance per width in S/m.
    SiemensPerMeter,
    "S/m"
);

// --- The legality table: every product the access-path physics needs. ---
dim_mul!(Ohms, Farads, Seconds); //        Ω × F = s        (RC product)
dim_mul!(Volts, Amperes, Watts); //        V × A = W        (leakage power)
dim_mul!(Watts, Seconds, Joules); //       W × s = J
dim_mul!(Farads, Volts, Coulombs); //      F × V = C        (switched charge)
dim_mul!(Volts, Coulombs, Joules); //      V × C = J        (C·V → ·V = energy)
dim_mul!(Amperes, Seconds, Coulombs); //   A × s = C        (I·t discharge)
dim_mul!(Ohms, Amperes, Volts); //         Ω × A = V
dim_mul!(FaradsPerMeter, Meters, Farads); //     F/m × m = F   (width/length scaling)
dim_mul!(OhmsPerMeter, Meters, Ohms); //         Ω/m × m = Ω
dim_mul!(AmperesPerMeter, Meters, Amperes); //   A/m × m = A
dim_mul!(SiemensPerMeter, Meters, Siemens); //   S/m × m = S
dim_mul!(Ohms, Meters, OhmMeters); //            Ω × m = Ω·m  (R_on = Ω·m / m)
dim_mul!(OhmMeters, FaradsPerMeter, Seconds); // Ω·m × F/m = s (FO4 time constant)
dim_mul!(OhmsPerMeter, SquareMeters, OhmMeters); // Ω/m × m² = Ω·m (ρ / cross-section)
dim_mul!(Seconds, Siemens, Farads); //           s × S = F    (τ = C / g_m)
dim_sq!(Meters, SquareMeters); //                m × m = m²

impl SquareMeters {
    /// Side length of a square of this area.
    #[inline]
    #[must_use]
    pub fn sqrt(self) -> Meters {
        Meters(self.0.sqrt())
    }
}

/// The canonical switching energy `½·C·V²` \[J\].
///
/// Kept as a named helper (rather than `Farads × Volts × Volts` at call
/// sites) so the 0.5 activity factor is impossible to forget and the
/// multiplication order is fixed: `((0.5·C)·V)·V`, matching the historic
/// untyped formulas bit for bit.
#[inline]
#[must_use]
pub fn energy_cv2(c: Farads, v: Volts) -> Joules {
    Joules(0.5 * c.0 * v.0 * v.0)
}

impl Seconds {
    /// `x` picoseconds.
    #[must_use]
    pub const fn ps(x: f64) -> Self {
        Self(x * 1e-12)
    }
    /// `x` nanoseconds.
    #[must_use]
    pub const fn ns(x: f64) -> Self {
        Self(x * 1e-9)
    }
    /// `x` microseconds.
    #[must_use]
    pub const fn us(x: f64) -> Self {
        Self(x * 1e-6)
    }
    /// `x` milliseconds.
    #[must_use]
    pub const fn ms(x: f64) -> Self {
        Self(x * 1e-3)
    }
}

impl Meters {
    /// `x` nanometers.
    #[must_use]
    pub const fn nm(x: f64) -> Self {
        Self(x * NM)
    }
    /// `x` micrometers.
    #[must_use]
    pub const fn um(x: f64) -> Self {
        Self(x * UM)
    }
    /// `x` millimeters.
    #[must_use]
    pub const fn mm(x: f64) -> Self {
        Self(x * MM)
    }
}

impl SquareMeters {
    /// `x` square millimeters.
    #[must_use]
    pub const fn mm2(x: f64) -> Self {
        Self(x * (MM * MM))
    }
}

impl Farads {
    /// `x` femtofarads.
    #[must_use]
    pub const fn ff(x: f64) -> Self {
        Self(x * 1e-15)
    }
    /// `x` picofarads.
    #[must_use]
    pub const fn pf(x: f64) -> Self {
        Self(x * 1e-12)
    }
}

impl Ohms {
    /// `x` kiloohms.
    #[must_use]
    pub const fn kohm(x: f64) -> Self {
        Self(x * 1e3)
    }
}

impl Volts {
    /// `x` millivolts.
    #[must_use]
    pub const fn mv(x: f64) -> Self {
        Self(x * 1e-3)
    }
}

impl Amperes {
    /// `x` microamperes.
    #[must_use]
    pub const fn ua(x: f64) -> Self {
        Self(x * 1e-6)
    }
    /// `x` nanoamperes.
    #[must_use]
    pub const fn na(x: f64) -> Self {
        Self(x * 1e-9)
    }
}

impl Joules {
    /// `x` femtojoules.
    #[must_use]
    pub const fn fj(x: f64) -> Self {
        Self(x * 1e-15)
    }
    /// `x` picojoules.
    #[must_use]
    pub const fn pj(x: f64) -> Self {
        Self(x * 1e-12)
    }
    /// `x` nanojoules.
    #[must_use]
    pub const fn nj(x: f64) -> Self {
        Self(x * 1e-9)
    }
}

impl Watts {
    /// `x` microwatts.
    #[must_use]
    pub const fn uw(x: f64) -> Self {
        Self(x * 1e-6)
    }
    /// `x` milliwatts.
    #[must_use]
    pub const fn mw(x: f64) -> Self {
        Self(x * 1e-3)
    }
}

impl FaradsPerMeter {
    /// `x` femtofarads per micrometer — the customary unit of
    /// width-normalized device capacitance and per-length wire capacitance.
    #[must_use]
    pub const fn ff_per_um(x: f64) -> Self {
        Self(x * (1e-15 / UM))
    }
}

impl OhmsPerMeter {
    /// `x` ohms per micrometer — the customary unit of wire resistance.
    #[must_use]
    pub const fn ohm_per_um(x: f64) -> Self {
        Self(x * (1.0 / UM))
    }
}

impl OhmMeters {
    /// `x` ohm-micrometers — the customary unit of width-normalized
    /// effective transistor resistance.
    #[must_use]
    pub const fn ohm_um(x: f64) -> Self {
        Self(x * UM)
    }
}

impl AmperesPerMeter {
    /// `x` microamperes per micrometer of width.
    #[must_use]
    pub const fn ua_per_um(x: f64) -> Self {
        Self(x * (1e-6 / UM))
    }
    /// `x` nanoamperes per micrometer of width.
    #[must_use]
    pub const fn na_per_um(x: f64) -> Self {
        Self(x * (1e-9 / UM))
    }
    /// `x` picoamperes per micrometer of width.
    #[must_use]
    pub const fn pa_per_um(x: f64) -> Self {
        Self(x * (1e-12 / UM))
    }
}

impl SiemensPerMeter {
    /// `x` millisiemens per micrometer of width.
    ///
    /// Deliberately left-associated (`x · 1e-3 / 1e-6`) to stay bit-identical
    /// to the historic inline conversion in the device tables.
    #[must_use]
    pub const fn ms_per_um(x: f64) -> Self {
        Self(x * 1e-3 / UM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_seconds() {
        let r = Ohms::from_si(1.0e3);
        let c = Farads::pf(1.0);
        let t: Seconds = r * c;
        // Bit-identical to the raw product — the wrapper adds nothing.
        assert_eq!(t.value().to_bits(), (r.value() * c.value()).to_bits());
        assert!((t / Seconds::ns(1.0) - 1.0).abs() < 1e-12);
        // The quotients recover the factors (up to rounding).
        assert!(((t / r) / c - 1.0).abs() < 1e-12);
        assert!(((t / c) / r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_cv2_matches_untyped_formula() {
        let c = 37.5e-15;
        let v = 1.1;
        let e = energy_cv2(Farads::from_si(c), Volts::from_si(v));
        // Bit-for-bit identical to the historic ((0.5·C)·V)·V ordering.
        assert_eq!(e.value().to_bits(), (0.5 * c * v * v).to_bits());
    }

    #[test]
    fn full_cv2_decomposes_through_coulombs() {
        let c = Farads::ff(100.0);
        let v = Volts::from_si(0.9);
        let e: Joules = c * v * v; // (F × V) × V = C × V = J
        assert_eq!(e.value().to_bits(), (c.value() * 0.9 * 0.9).to_bits());
    }

    #[test]
    fn per_width_scaling() {
        let c_gate = FaradsPerMeter::ff_per_um(1.0); // 1 fF/µm
        let w = Meters::um(3.0);
        let c: Farads = c_gate * w;
        assert!((c.value() - 3.0e-15).abs() < 1e-27);

        let r_eff = OhmMeters::ohm_um(2000.0); // 2 kΩ·µm
        let r: Ohms = r_eff / w;
        assert!((r.value() - 2000.0 / 3.0).abs() < 1e-9);

        let i_off = AmperesPerMeter::na_per_um(0.25);
        let leak: Watts = i_off * w * Volts::from_si(1.0);
        assert!((leak.value() - 0.75e-9).abs() < 1e-21);
    }

    #[test]
    fn fo4_shape_ohm_meters_times_farads_per_meter() {
        let r = OhmMeters::ohm_um(1180.0);
        let c = FaradsPerMeter::ff_per_um(0.95 * 3.0);
        let tf: Seconds = r * c;
        assert!(tf > Seconds::ps(1.0) && tf < Seconds::ps(10.0), "{tf}");
    }

    #[test]
    fn power_energy_time_triangle() {
        let e = Joules::nj(2.0);
        let t = Seconds::ms(64.0);
        let p: Watts = e / t;
        assert!((p.value() - 2.0e-9 / 64.0e-3).abs() < 1e-18);
        assert_eq!((p * t).value().to_bits(), (p.value() * t.value()).to_bits());
    }

    #[test]
    fn discharge_time_farads_volts_over_amps() {
        let c = Farads::ff(80.0);
        let swing = Volts::mv(200.0);
        let i = Amperes::ua(36.0);
        let t: Seconds = c * swing / i;
        assert!(t > Seconds::ps(100.0) && t < Seconds::ns(1.0), "{t}");
    }

    #[test]
    fn dimensionless_ratio_and_scalar_ops() {
        let a = Seconds::ns(4.0);
        let b = Seconds::ns(2.0);
        assert!((a / b - 2.0).abs() < 1e-12);
        assert_eq!(2.0 * b, a);
        assert_eq!(a / 2.0, b);
        assert_eq!(a - b, b);
        let mut acc = Seconds::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc, b);
        assert_eq!(-b, Seconds::ns(-2.0));
    }

    #[test]
    fn area_algebra() {
        let w = Meters::um(2.0);
        let h = Meters::um(8.0);
        let a: SquareMeters = w * h;
        assert!((a.value() - 16.0e-12).abs() < 1e-24);
        assert_eq!(a / w, h);
        assert!((a.sqrt().value() - 4.0e-6).abs() < 1e-15);
    }

    #[test]
    fn constructors_match_historic_multipliers() {
        // The seed's `units.rs` computed hybrids as quotients of scale
        // constants; the constructors must be bit-identical.
        assert_eq!(
            FaradsPerMeter::ff_per_um(1.3).value().to_bits(),
            (1.3_f64 * (1e-15 / 1e-6)).to_bits()
        );
        assert_eq!(AmperesPerMeter::ua_per_um(1.0).value(), 1.0); // 1 µA/µm = 1 A/m
        assert_eq!(OhmsPerMeter::ohm_per_um(1.0).value(), 1e6);
        assert_eq!(SquareMeters::mm2(1.0).value(), 1e-6);
        assert_eq!(
            OhmMeters::ohm_um(3300.0).value().to_bits(),
            (3300.0_f64 * 1e-6).to_bits()
        );
    }

    #[test]
    fn ordering_and_reductions() {
        let xs = [Seconds::ps(3.0), Seconds::ps(1.0), Seconds::ps(2.0)];
        let sum: Seconds = xs.iter().copied().sum();
        assert!((sum / Seconds::ps(6.0) - 1.0).abs() < 1e-12);
        assert_eq!(xs[0].max(xs[1]), xs[0]);
        assert_eq!(xs[0].min(xs[1]), xs[1]);
        assert!(Seconds::ps(1.0) < Seconds::ns(1.0));
        assert!(!Seconds::from_si(f64::INFINITY).is_finite());
        assert_eq!(Seconds::from_si(-3.0e-12).abs(), Seconds::ps(3.0));
    }
}
