//! Spec-stage rules `CD0001`–`CD0009`: capacity geometry, Table-1
//! parameter bounds, cell/node compatibility, and the main-memory
//! interface invariants.

use crate::context::LintContext;
use crate::lint::{Diagnostic, Location, Report, Severity};
use crate::rule::{Rule, Stage};
use cactid_core::MemoryKind;
use cactid_tech::{CellTechnology, TechNode};
use cactid_units::{Amperes, Farads, Ohms, Seconds, Volts};

/// All nine spec-stage rules, ordered by code.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(CapacityGeometry),
        Box::new(BlockSize),
        Box::new(BankCount),
        Box::new(Associativity),
        Box::new(CellNodeCompat),
        Box::new(CellTable1Bounds),
        Box::new(DramInterface),
        Box::new(AddressBits),
        Box::new(OptimizationKnobs),
    ]
}

/// `CD0001`: capacity decomposes into a power-of-two number of sets, and
/// divides evenly across banks.
pub struct CapacityGeometry;

impl Rule for CapacityGeometry {
    fn code(&self) -> &'static str {
        "CD0001"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "capacity must be a power-of-two number of sets, split evenly across banks"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let s = ctx.spec;
        if s.capacity_bytes == 0 {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("capacity_bytes"),
                "capacity is zero",
            ));
            return;
        }
        let set_bytes = u64::from(s.block_bytes) * u64::from(s.associativity);
        if set_bytes == 0 {
            return; // CD0002 / CD0004 report the zero field.
        }
        if !s.capacity_bytes.is_multiple_of(set_bytes) {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("capacity_bytes"),
                    format!(
                        "capacity {} B is not a whole number of {set_bytes} B sets",
                        s.capacity_bytes
                    ),
                )
                .with_suggestion(
                    Location::spec("capacity_bytes"),
                    (s.capacity_bytes / set_bytes * set_bytes)
                        .max(set_bytes)
                        .to_string(),
                ),
            );
            return;
        }
        let sets = s.capacity_bytes / set_bytes;
        if !sets.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("capacity_bytes"),
                    format!("capacity implies {sets} sets, which is not a power of two"),
                )
                .with_suggestion(
                    Location::spec("capacity_bytes"),
                    (sets.next_power_of_two() * set_bytes).to_string(),
                ),
            );
            return;
        }
        if s.n_banks == 0 {
            return; // CD0003 reports it.
        }
        if !sets.is_multiple_of(u64::from(s.n_banks))
            || !(sets / u64::from(s.n_banks)).is_power_of_two()
        {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("n_banks"),
                format!(
                    "{sets} sets do not split into a power of two per bank across {} banks",
                    s.n_banks
                ),
            ));
        }
    }
}

/// `CD0002`: block size is a power of two within the modeled range.
pub struct BlockSize;

impl Rule for BlockSize {
    fn code(&self) -> &'static str {
        "CD0002"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "block size must be a nonzero power of two (16–256 B typical for caches)"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let b = ctx.spec.block_bytes;
        if b == 0 || !b.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("block_bytes"),
                    format!("block size {b} B is not a nonzero power of two"),
                )
                .with_suggestion(
                    Location::spec("block_bytes"),
                    b.max(1).next_power_of_two().to_string(),
                ),
            );
        } else if ctx.spec.kind.is_cache() && !(16..=256).contains(&b) {
            report.push(Diagnostic::warn(
                self.code(),
                Location::spec("block_bytes"),
                format!("cache line of {b} B is outside the typical 16–256 B range"),
            ));
        }
    }
}

/// `CD0003`: bank count is a power of two and not implausibly large.
pub struct BankCount;

impl Rule for BankCount {
    fn code(&self) -> &'static str {
        "CD0003"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "bank count must be a nonzero power of two (≤ 64 plausible)"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let n = ctx.spec.n_banks;
        if n == 0 || !n.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("n_banks"),
                    format!("bank count {n} is not a nonzero power of two"),
                )
                .with_suggestion(
                    Location::spec("n_banks"),
                    n.max(1).next_power_of_two().to_string(),
                ),
            );
        } else if n > 64 {
            report.push(Diagnostic::warn(
                self.code(),
                Location::spec("n_banks"),
                format!("{n} banks is beyond the bank counts the paper studies (≤ 64)"),
            ));
        }
    }
}

/// `CD0004`: associativity matches the memory kind (1 for RAM / main
/// memory, ≤ 32 for caches).
pub struct Associativity;

impl Rule for Associativity {
    fn code(&self) -> &'static str {
        "CD0004"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "associativity must be 1 for RAM/main memory and 1–32 for caches"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let a = ctx.spec.associativity;
        let loc = Location::spec("associativity");
        if a == 0 {
            report.push(
                Diagnostic::error(self.code(), loc, "associativity is zero")
                    .with_suggestion(loc, "1"),
            );
            return;
        }
        match ctx.spec.kind {
            MemoryKind::Cache { .. } => {
                if a > 32 {
                    report.push(
                        Diagnostic::error(
                            self.code(),
                            loc,
                            format!("associativity {a} exceeds the modeled maximum of 32"),
                        )
                        .with_suggestion(loc, "32"),
                    );
                }
            }
            MemoryKind::Ram | MemoryKind::MainMemory { .. } => {
                if a != 1 {
                    report.push(
                        Diagnostic::error(
                            self.code(),
                            loc,
                            format!("non-cache memories are direct-addressed; associativity {a} is meaningless"),
                        )
                        .with_suggestion(loc, "1"),
                    );
                }
            }
        }
    }
}

/// `CD0005`: cell technology is compatible with the memory kind and node.
pub struct CellNodeCompat;

impl Rule for CellNodeCompat {
    fn code(&self) -> &'static str {
        "CD0005"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "main memory requires COMM-DRAM cells; 78 nm is a DRAM-process half node"
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let s = ctx.spec;
        if matches!(s.kind, MemoryKind::MainMemory { .. })
            && s.cell_tech != CellTechnology::CommDram
        {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("cell_tech"),
                    format!(
                        "a commodity main-memory chip cannot be built from {} cells",
                        s.cell_tech
                    ),
                )
                .with_suggestion(Location::spec("cell_tech"), "comm-dram"),
            );
        }
        if s.node == TechNode::N78 && s.cell_tech == CellTechnology::Sram {
            report.push(Diagnostic::warn(
                self.code(),
                Location::spec("node"),
                "78 nm is the DRAM-process half node used for Table 2 validation; \
                 SRAM parameters there are interpolated, not ITRS anchors",
            ));
        }
    }
}

/// `CD0006`: the resolved Table-1 cell parameters are within physical
/// bounds for the technology.
pub struct CellTable1Bounds;

impl Rule for CellTable1Bounds {
    fn code(&self) -> &'static str {
        "CD0006"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "resolved cell parameters must lie in their Table-1 physical bounds"
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let c = &ctx.cell;
        if !(0.3..=3.0).contains(&c.vdd_cell.value()) {
            report.push(Diagnostic::error(
                self.code(),
                Location::cell("vdd_cell"),
                format!(
                    "cell VDD {:.2} V is outside the plausible 0.3–3.0 V band",
                    c.vdd_cell.value()
                ),
            ));
        }
        if c.vpp < c.vdd_cell {
            report.push(Diagnostic::error(
                self.code(),
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
                self.code(),
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
                    self.code(),
                    Location::cell("retention_time"),
                    "a DRAM cell needs a positive storage capacitance and a finite retention time",
                ));
            } else if !(5e-15..=100e-15).contains(&c.c_storage.value()) {
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::cell("c_storage"),
                    format!(
                        "storage capacitance {:.1} fF is outside the 5–100 fF Table-1 band",
                        c.c_storage.value() * 1e15
                    ),
                ));
            }
            if c.r_access_on <= Ohms::ZERO {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::cell("r_access_on"),
                    "DRAM access-transistor on-resistance must be positive",
                ));
            }
        } else {
            if c.i_cell_read <= Amperes::ZERO {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::cell("i_cell_read"),
                    "an SRAM cell must sink a positive read current",
                ));
            }
            if c.retention_time.is_finite() {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::cell("retention_time"),
                    "SRAM is static: retention time must be infinite (no refresh)",
                ));
            }
        }
    }
}

/// `CD0007`: the main-memory interface timing invariants — the internal
/// prefetch must be able to sustain the external burst, and a burst must
/// fit in the sensed page.
pub struct DramInterface;

impl Rule for DramInterface {
    fn code(&self) -> &'static str {
        "CD0007"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "prefetch ≥ burst length, and one burst (io·prefetch bits) must fit in the page"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let MemoryKind::MainMemory {
            io_bits,
            burst_length,
            prefetch,
            page_bits,
        } = ctx.spec.kind
        else {
            return;
        };
        if !io_bits.is_power_of_two() || io_bits > 32 {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("kind.io_bits"),
                format!("io width {io_bits} must be a power of two of at most 32 (x4/x8/x16)"),
            ));
        }
        if !burst_length.is_power_of_two() || burst_length > 16 {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("kind.burst_length"),
                format!("burst length {burst_length} must be a power of two of at most 16"),
            ));
        }
        if !prefetch.is_power_of_two() || prefetch < burst_length {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("kind.prefetch"),
                    format!(
                        "internal prefetch of {prefetch} bits per pin cannot sustain a burst of \
                         {burst_length} beats — the data pins would starve mid-burst"
                    ),
                )
                .with_suggestion(
                    Location::spec("kind.prefetch"),
                    burst_length.max(1).next_power_of_two().to_string(),
                ),
            );
        }
        if page_bits == 0 || !page_bits.is_power_of_two() {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("kind.page_bits"),
                format!("page size {page_bits} bits must be a nonzero power of two"),
            ));
            return;
        }
        let burst_bits = u64::from(io_bits) * u64::from(prefetch);
        if burst_bits > page_bits {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("kind.page_bits"),
                format!(
                    "one access fetches {burst_bits} bits but the open page holds only \
                     {page_bits} — a burst cannot span pages"
                ),
            ));
        }
        if ctx.spec.n_banks > 0 && page_bits * 2 > ctx.spec.bank_bytes() * 8 {
            report.push(Diagnostic::error(
                self.code(),
                Location::spec("kind.page_bits"),
                format!(
                    "page of {page_bits} bits exceeds half a bank ({} bits) — the folded \
                     bitline array needs at least two pages per bank",
                    ctx.spec.bank_bytes() * 8
                ),
            ));
        }
    }
}

/// `CD0008`: the physical address width covers the capacity.
pub struct AddressBits;

impl Rule for AddressBits {
    fn code(&self) -> &'static str {
        "CD0008"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "address width must cover the capacity and stay within 64 bits"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let s = ctx.spec;
        let loc = Location::spec("address_bits");
        if s.address_bits == 0 || s.address_bits > 64 {
            report.push(Diagnostic::error(
                self.code(),
                loc,
                format!("address width {} bits is outside 1–64", s.address_bits),
            ));
            return;
        }
        let needed = 64
            - s.capacity_bytes.max(1).leading_zeros()
            - u32::from(s.capacity_bytes.is_power_of_two());
        if s.address_bits < needed {
            report.push(
                Diagnostic::error(
                    self.code(),
                    loc,
                    format!(
                        "{} address bits cannot even index the {} B capacity ({needed} bits \
                         needed) — the tag field underflows",
                        s.address_bits, s.capacity_bytes
                    ),
                )
                .with_suggestion(loc, needed.to_string()),
            );
        } else if s.address_bits > 52 {
            report.push(Diagnostic::warn(
                self.code(),
                loc,
                format!(
                    "{} address bits exceeds today's physical address spaces (≤ 52); \
                     tags will be oversized",
                    s.address_bits
                ),
            ));
        }
    }
}

/// `CD0009`: the §2.4 optimization knobs are self-consistent.
pub struct OptimizationKnobs;

impl Rule for OptimizationKnobs {
    fn code(&self) -> &'static str {
        "CD0009"
    }
    fn stage(&self) -> Stage {
        Stage::Spec
    }
    fn summary(&self) -> &'static str {
        "objective weights non-negative (one positive), repeater relax ≥ 1, overheads ≥ 0"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.4"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let o = &ctx.spec.opt;
        let weights = [
            ("opt.weight_dynamic", o.weight_dynamic),
            ("opt.weight_leakage", o.weight_leakage),
            ("opt.weight_cycle", o.weight_cycle),
            ("opt.weight_interleave", o.weight_interleave),
        ];
        for (field, w) in weights {
            if !(w.is_finite() && w >= 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::spec(field),
                    format!("objective weight {w} must be finite and non-negative"),
                ));
            }
        }
        if weights.iter().all(|&(_, w)| w == 0.0) {
            report.push(Diagnostic::warn(
                self.code(),
                Location::spec("opt.weight_dynamic"),
                "all objective weights are zero — stage 3 of the §2.4 optimization \
                 degenerates to an arbitrary pick",
            ));
        }
        if o.repeater_relax.is_nan() || o.repeater_relax < 1.0 {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::spec("opt.repeater_relax"),
                    format!(
                        "repeater relaxation {} is below 1.0 — H-tree repeaters cannot be \
                         faster than delay-optimal",
                        o.repeater_relax
                    ),
                )
                .with_suggestion(Location::spec("opt.repeater_relax"), "1.0"),
            );
        } else if o.repeater_relax > 4.0 {
            report.push(Diagnostic::warn(
                self.code(),
                Location::spec("opt.repeater_relax"),
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
            if !(v.is_finite() && v >= 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::spec(field),
                    format!("optimization overhead {v} must be finite and non-negative"),
                ));
            } else if v > 10.0 {
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::spec(field),
                    format!(
                        "overhead cap {v} (+{:.0}%) effectively disables the filter",
                        v * 100.0
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_core::{AccessMode, MemorySpec, OptimizationOptions};

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

    fn run(rule: &dyn Rule, spec: &MemorySpec) -> Report {
        let ctx = LintContext::for_spec(spec);
        let mut report = Report::new();
        rule.check(&ctx, &mut report);
        report
    }

    #[test]
    fn cd0001_triggers_on_non_pow2_sets_and_passes_valid() {
        let mut bad = cache_spec();
        bad.capacity_bytes = 3 << 19; // 1.5 MB → 3072 sets
        let r = run(&CapacityGeometry, &bad);
        assert!(!r.is_clean());
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "CD0001");
        assert!(d.suggestion.is_some(), "suggests the next power of two");
        assert!(run(&CapacityGeometry, &cache_spec()).is_empty());
    }

    #[test]
    fn cd0001_triggers_on_bad_bank_split() {
        let mut bad = cache_spec();
        bad.n_banks = 4096; // more banks than the 2048 sets
        assert!(!run(&CapacityGeometry, &bad).is_clean());
    }

    #[test]
    fn cd0002_triggers_on_odd_block_and_passes_valid() {
        let mut bad = cache_spec();
        bad.block_bytes = 48;
        let r = run(&BlockSize, &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "64"
        );
        assert!(run(&BlockSize, &cache_spec()).is_empty());
        // Tiny cache lines only warn.
        let mut tiny = cache_spec();
        tiny.block_bytes = 8;
        let r = run(&BlockSize, &tiny);
        assert!(r.is_clean() && r.warn_count() == 1);
    }

    #[test]
    fn cd0003_triggers_on_three_banks_and_passes_valid() {
        let mut bad = cache_spec();
        bad.n_banks = 3;
        assert_eq!(run(&BankCount, &bad).error_count(), 1);
        assert!(run(&BankCount, &cache_spec()).is_empty());
    }

    #[test]
    fn cd0004_triggers_on_associative_ram_and_passes_valid() {
        let mut bad = cache_spec();
        bad.kind = MemoryKind::Ram;
        let r = run(&Associativity, &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "1"
        );
        let mut wide = cache_spec();
        wide.associativity = 64;
        assert_eq!(run(&Associativity, &wide).error_count(), 1);
        assert!(run(&Associativity, &cache_spec()).is_empty());
    }

    #[test]
    fn cd0005_triggers_on_sram_main_memory_and_passes_valid() {
        let mut bad = mm_spec();
        bad.cell_tech = CellTechnology::Sram;
        let r = run(&CellNodeCompat, &bad);
        assert!(!r.is_clean());
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "comm-dram"
        );
        assert!(run(&CellNodeCompat, &mm_spec()).is_empty());
        // SRAM at the 78 nm half node warns.
        let mut half = cache_spec();
        half.node = TechNode::N78;
        let r = run(&CellNodeCompat, &half);
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
                let r = run(&CellTable1Bounds, &s);
                assert!(r.is_empty(), "{cell} at {node:?}: {:?}", r.as_slice());
            }
        }
        // A corrupted context (vpp below vdd) triggers.
        let spec = cache_spec();
        let mut ctx = LintContext::for_spec(&spec);
        ctx.cell.vpp = ctx.cell.vdd_cell - Volts::from_si(0.2);
        let mut report = Report::new();
        CellTable1Bounds.check(&ctx, &mut report);
        assert!(!report.is_clean());
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
        let r = run(&DramInterface, &bad);
        assert_eq!(r.error_count(), 1);
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "CD0007");
        assert_eq!(d.suggestion.as_ref().unwrap().value, "8");
        assert!(run(&DramInterface, &mm_spec()).is_empty());
        assert!(
            run(&DramInterface, &cache_spec()).is_empty(),
            "cache exempt"
        );
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
        assert!(!run(&DramInterface, &bad).is_clean());
    }

    #[test]
    fn cd0008_triggers_on_narrow_address_and_passes_valid() {
        let mut bad = cache_spec();
        bad.address_bits = 16; // 1 MB needs 20
        let r = run(&AddressBits, &bad);
        assert_eq!(r.error_count(), 1);
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "20"
        );
        assert!(run(&AddressBits, &cache_spec()).is_empty());
    }

    #[test]
    fn cd0009_triggers_on_negative_weight_and_passes_valid() {
        let mut bad = cache_spec();
        bad.opt.weight_leakage = -1.0;
        assert_eq!(run(&OptimizationKnobs, &bad).error_count(), 1);
        let mut tight = cache_spec();
        tight.opt.repeater_relax = 0.5;
        assert_eq!(run(&OptimizationKnobs, &tight).error_count(), 1);
        let mut zeroed = cache_spec();
        zeroed.opt = OptimizationOptions {
            weight_dynamic: 0.0,
            weight_leakage: 0.0,
            weight_cycle: 0.0,
            weight_interleave: 0.0,
            ..OptimizationOptions::default()
        };
        let r = run(&OptimizationKnobs, &zeroed);
        assert!(r.is_clean() && r.warn_count() == 1);
        assert!(run(&OptimizationKnobs, &cache_spec()).is_empty());
    }
}
