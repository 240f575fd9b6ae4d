//! Spec-stage rules `CD0001`–`CD0009`: capacity geometry, Table-1
//! parameter bounds, cell/node compatibility, and the main-memory
//! interface invariants.
//!
//! Every spec error comes from the core's one check list,
//! [`MemorySpec::violations`]: each rule but CD0006 reports the
//! violations [`code_of`] files under its code, adds the suggested fix
//! and its lint-only warnings, and so rejects exactly the specs
//! [`MemorySpec::validate`] rejects. CD0006 alone judges the resolved
//! Table-1 cell parameters.

use crate::context::LintContext;
use crate::lint::{Diagnostic, Location, Report};
use cactid_core::{MemorySpec, SpecViolation};
use cactid_tech::{CellTechnology, TechNode};
use cactid_units::{Amperes, Farads, Ohms, Seconds, Volts};

/// The spec-stage rule that reports `v`; `None` for the builder's and the
/// assemblies' misuse errors, which no spec check yields.
pub fn code_of(v: &SpecViolation) -> Option<&'static str> {
    use SpecViolation as V;
    Some(match v {
        V::CapacityZero
        | V::NotWholeSets { .. }
        | V::SetsNotPowerOfTwo { .. }
        | V::BankSplit { .. } => "CD0001",
        V::BlockSize(_) => "CD0002",
        V::BankCount(_) => "CD0003",
        V::AssociativityZero | V::CacheAssociativity(_) | V::DirectAssociativity(_) => "CD0004",
        V::MainMemoryCell(_) => "CD0005",
        V::IoWidth(_)
        | V::BurstLength(_)
        | V::PrefetchNotPowerOfTwo(_)
        | V::PrefetchShort { .. }
        | V::PageSize(_)
        | V::BurstPastPage { .. }
        | V::PagePastHalfBank { .. } => "CD0007",
        V::AddressWidth(_) | V::AddressTooNarrow { .. } => "CD0008",
        V::RepeaterRelax(_) | V::Overhead { .. } | V::Weight { .. } => "CD0009",
        V::MissingField(_) | V::NotMainMemory => return None,
    })
}

/// The single-field fix for `v`, where one exists.
fn suggestion(v: &SpecViolation) -> Option<String> {
    use SpecViolation as V;
    let pow2 = |n: u32| n.max(1).checked_next_power_of_two().map(|p| p.to_string());
    match *v {
        V::NotWholeSets {
            capacity_bytes,
            set_bytes,
        } => Some(
            (capacity_bytes / set_bytes * set_bytes)
                .max(set_bytes)
                .to_string(),
        ),
        V::SetsNotPowerOfTwo { sets, set_bytes } => sets
            .checked_next_power_of_two()?
            .checked_mul(set_bytes)
            .map(|c| c.to_string()),
        V::BlockSize(n)
        | V::BankCount(n)
        | V::PrefetchNotPowerOfTwo(n)
        | V::PrefetchShort {
            burst_length: n, ..
        } => pow2(n),
        V::AssociativityZero | V::DirectAssociativity(_) => Some("1".into()),
        V::CacheAssociativity(_) => Some("32".into()),
        V::MainMemoryCell(_) => Some("comm-dram".into()),
        V::AddressTooNarrow { needed, .. } => Some(needed.to_string()),
        V::RepeaterRelax(_) => Some("1.0".into()),
        _ => None,
    }
}

/// A spec rule but CD0006: reports the violations [`code_of`] files
/// under `code` as errors, then the rule's lint-only warnings.
pub(crate) fn violations(code: &'static str, ctx: &LintContext<'_>, report: &mut Report) {
    let mut errors = ctx.spec.violations();
    errors.retain(|v| code_of(v) == Some(code));
    for v in &errors {
        let at = Location::spec(v.field());
        let d = Diagnostic::error(code, at, v.to_string());
        report.push(match suggestion(v) {
            Some(value) => d.with_suggestion(at, value),
            None => d,
        });
    }
    // A field gets its error or its warning, never both.
    for (field, message) in warnings(code, ctx.spec) {
        if !errors.iter().any(|v| v.field() == field) {
            report.push(Diagnostic::warn(code, Location::spec(field), message));
        }
    }
}

/// Rule `code`'s lint-only warnings on `s`: legal but suspicious values,
/// each with the spec field it points at.
fn warnings(code: &str, s: &MemorySpec) -> Vec<(&'static str, String)> {
    let (b, n, o) = (s.block_bytes, s.n_banks, &s.opt);
    let mut out = Vec::new();
    match code {
        "CD0002" if s.kind.is_cache() && !(16..=256).contains(&b) => out.push((
            "block_bytes",
            format!("cache line of {b} B is outside the typical 16–256 B range"),
        )),
        "CD0003" if n > 64 => out.push((
            "n_banks",
            format!("{n} banks is beyond the bank counts the paper studies (≤ 64)"),
        )),
        "CD0005" if s.node == TechNode::N78 && s.cell_tech == CellTechnology::Sram => out.push((
            "node",
            "78 nm is the DRAM-process half node used for Table 2 validation; \
             SRAM parameters there are interpolated, not ITRS anchors"
                .into(),
        )),
        "CD0008" if s.address_bits > 52 => out.push((
            "address_bits",
            format!(
                "{} address bits exceeds today's physical address spaces (≤ 52); \
                 tags will be oversized",
                s.address_bits
            ),
        )),
        "CD0009" => {
            let weights = [
                o.weight_dynamic,
                o.weight_leakage,
                o.weight_cycle,
                o.weight_interleave,
            ];
            if weights.iter().all(|&w| w == 0.0) {
                out.push((
                    "opt.weight_dynamic",
                    "all objective weights are zero — stage 3 of the §2.4 optimization \
                     degenerates to an arbitrary pick"
                        .into(),
                ));
            }
            if o.repeater_relax > 4.0 {
                out.push((
                    "opt.repeater_relax",
                    format!(
                        "repeater relaxation {} is beyond the knob's useful range (≤ 4): \
                         wire delay dominates and energy savings saturate",
                        o.repeater_relax
                    ),
                ));
            }
            for (field, v) in [
                ("opt.max_area_overhead", o.max_area_overhead),
                ("opt.max_access_time_overhead", o.max_access_time_overhead),
            ] {
                if v > 10.0 {
                    let pct = v * 100.0;
                    out.push((
                        field,
                        format!("overhead cap {v} (+{pct:.0}%) effectively disables the filter"),
                    ));
                }
            }
        }
        _ => {}
    }
    out
}

/// `CD0006`: the resolved Table-1 cell parameters are within physical
/// bounds for the technology.
pub(crate) fn cell_table1_bounds(code: &'static str, ctx: &LintContext<'_>, report: &mut Report) {
    let c = &ctx.cell;
    if !(0.3..=3.0).contains(&c.vdd_cell.value()) {
        report.push(Diagnostic::error(
            code,
            Location::cell("vdd_cell"),
            format!(
                "cell VDD {:.2} V is outside the plausible 0.3–3.0 V band",
                c.vdd_cell.value()
            ),
        ));
    }
    if c.vpp < c.vdd_cell {
        report.push(Diagnostic::error(
            code,
            Location::cell("vpp"),
            format!(
                "boosted wordline voltage {:.2} V is below the cell VDD {:.2} V",
                c.vpp.value(),
                c.vdd_cell.value()
            ),
        ));
    }
    if !(c.v_sense_margin > Volts::ZERO && c.v_sense_margin <= c.vdd_cell / 2.0) {
        report.push(Diagnostic::error(
            code,
            Location::cell("v_sense_margin"),
            format!(
                "sense margin {:.0} mV must be positive and at most VDD/2 = {:.0} mV",
                c.v_sense_margin.value() * 1e3,
                c.vdd_cell.value() / 2.0 * 1e3
            ),
        ));
    }
    if c.technology.is_dram() {
        if !(c.c_storage > Farads::ZERO
            && c.retention_time.is_finite()
            && c.retention_time > Seconds::ZERO)
        {
            report.push(Diagnostic::error(
                code,
                Location::cell("retention_time"),
                "a DRAM cell needs a positive storage capacitance and a finite retention time",
            ));
        } else if !(5e-15..=100e-15).contains(&c.c_storage.value()) {
            report.push(Diagnostic::warn(
                code,
                Location::cell("c_storage"),
                format!(
                    "storage capacitance {:.1} fF is outside the 5–100 fF Table-1 band",
                    c.c_storage.value() * 1e15
                ),
            ));
        }
        if c.r_access_on <= Ohms::ZERO {
            report.push(Diagnostic::error(
                code,
                Location::cell("r_access_on"),
                "DRAM access-transistor on-resistance must be positive",
            ));
        }
    } else {
        if c.i_cell_read <= Amperes::ZERO {
            report.push(Diagnostic::error(
                code,
                Location::cell("i_cell_read"),
                "an SRAM cell must sink a positive read current",
            ));
        }
        if c.retention_time.is_finite() {
            report.push(Diagnostic::error(
                code,
                Location::cell("retention_time"),
                "SRAM is static: retention time must be infinite (no refresh)",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::check;
    use cactid_core::{AccessMode, MemoryKind, OptimizationOptions};

    fn cache_spec() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 20)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    fn mm_spec() -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(1 << 30)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8 << 10,
            })
            .build()
            .unwrap()
    }

    /// The report of the one rule `code` over `spec`.
    fn run(code: &str, spec: &MemorySpec) -> Report {
        check(code, &LintContext::for_spec(spec))
    }

    #[test]
    fn cd0001_triggers_on_non_pow2_sets_and_passes_valid() {
        let mut bad = cache_spec();
        bad.capacity_bytes = 3 << 19; // 1.5 MB → 3072 sets
        let r = run("CD0001", &bad);
        assert!(!r.is_clean());
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "CD0001");
        assert!(d.suggestion.is_some(), "suggests the next power of two");
        assert!(run("CD0001", &cache_spec()).is_empty());
    }

    #[test]
    fn cd0001_triggers_on_bad_bank_split() {
        let mut bad = cache_spec();
        bad.n_banks = 4096; // more banks than the 2048 sets
        assert!(!run("CD0001", &bad).is_clean());
    }

    #[test]
    fn cd0002_triggers_on_odd_block_and_passes_valid() {
        let mut bad = cache_spec();
        bad.block_bytes = 48;
        let r = run("CD0002", &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "64"
        );
        assert!(run("CD0002", &cache_spec()).is_empty());
        // Tiny cache lines only warn.
        let mut tiny = cache_spec();
        tiny.block_bytes = 8;
        let r = run("CD0002", &tiny);
        assert!(r.is_clean() && r.warn_count() == 1);
    }

    #[test]
    fn cd0003_triggers_on_three_banks_and_passes_valid() {
        let mut bad = cache_spec();
        bad.n_banks = 3;
        assert_eq!(run("CD0003", &bad).error_count(), 1);
        assert!(run("CD0003", &cache_spec()).is_empty());
    }

    #[test]
    fn cd0004_triggers_on_associative_ram_and_passes_valid() {
        let mut bad = cache_spec();
        bad.kind = MemoryKind::Ram;
        let r = run("CD0004", &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "1"
        );
        let mut wide = cache_spec();
        wide.associativity = 64;
        assert_eq!(run("CD0004", &wide).error_count(), 1);
        assert!(run("CD0004", &cache_spec()).is_empty());
    }

    #[test]
    fn cd0005_triggers_on_sram_main_memory_and_passes_valid() {
        let mut bad = mm_spec();
        bad.cell_tech = CellTechnology::Sram;
        let r = run("CD0005", &bad);
        assert!(!r.is_clean());
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "comm-dram"
        );
        assert!(run("CD0005", &mm_spec()).is_empty());
        // SRAM at the 78 nm half node warns.
        let mut half = cache_spec();
        half.node = TechNode::N78;
        let r = run("CD0005", &half);
        assert!(r.is_clean() && r.warn_count() == 1);
    }

    #[test]
    fn cd0006_triggers_on_corrupted_cell_and_passes_all_real_cells() {
        // Every real technology × node combination must be in bounds.
        for &node in TechNode::ALL {
            for &cell in CellTechnology::ALL {
                let mut s = cache_spec();
                s.cell_tech = cell;
                s.node = node;
                let r = run("CD0006", &s);
                assert!(r.is_empty(), "{cell} at {node:?}: {:?}", r.as_slice());
            }
        }
        // A corrupted context (vpp below vdd) triggers.
        let spec = cache_spec();
        let mut ctx = LintContext::for_spec(&spec);
        ctx.cell.vpp = ctx.cell.vdd_cell - Volts::from_si(0.2);
        assert!(!check("CD0006", &ctx).is_clean());
    }

    #[test]
    fn cd0007_triggers_on_prefetch_underrun_and_passes_valid() {
        let mut bad = mm_spec();
        bad.kind = MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 4, // cannot sustain the burst
            page_bits: 8 << 10,
        };
        let r = run("CD0007", &bad);
        assert_eq!(r.error_count(), 1);
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "CD0007");
        assert_eq!(d.suggestion.as_ref().unwrap().value, "8");
        // A prefetch past the burst that is not a power of two gets the
        // next one as its fix.
        if let MemoryKind::MainMemory { prefetch, .. } = &mut bad.kind {
            *prefetch = 12;
        }
        let r = run("CD0007", &bad);
        let d = r.iter().next().unwrap();
        assert!(d.message.contains("12 bits per pin is not a power of two"));
        assert_eq!(d.suggestion.as_ref().unwrap().value, "16");
        assert!(run("CD0007", &mm_spec()).is_empty());
        assert!(run("CD0007", &cache_spec()).is_empty(), "cache exempt");
    }

    #[test]
    fn cd0007_triggers_on_burst_wider_than_page() {
        let mut bad = mm_spec();
        bad.kind = MemoryKind::MainMemory {
            io_bits: 32,
            burst_length: 8,
            prefetch: 8,
            page_bits: 128, // 256-bit burst > 128-bit page
        };
        assert!(!run("CD0007", &bad).is_clean());
    }

    #[test]
    fn cd0008_triggers_on_narrow_address_and_passes_valid() {
        let mut bad = cache_spec();
        bad.address_bits = 16; // 1 MB needs 20
        let r = run("CD0008", &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "20"
        );
        assert!(run("CD0008", &cache_spec()).is_empty());
    }

    #[test]
    fn cd0009_triggers_on_negative_weight_and_passes_valid() {
        let mut bad = cache_spec();
        bad.opt.weight_leakage = -1.0;
        assert_eq!(run("CD0009", &bad).error_count(), 1);
        let mut tight = cache_spec();
        tight.opt.repeater_relax = 0.5;
        assert_eq!(run("CD0009", &tight).error_count(), 1);
        let mut zeroed = cache_spec();
        zeroed.opt = OptimizationOptions {
            weight_dynamic: 0.0,
            weight_leakage: 0.0,
            weight_cycle: 0.0,
            weight_interleave: 0.0,
            ..OptimizationOptions::default()
        };
        let r = run("CD0009", &zeroed);
        assert!(r.is_clean() && r.warn_count() == 1);
        assert!(run("CD0009", &cache_spec()).is_empty());
    }
}
