//! Input specification for a memory to be modeled.

use crate::error::{CactiError, SpecViolation};
use cactid_tech::{CellTechnology, TechNode};
use std::ops::ControlFlow;

/// How a cache accesses its tag and data arrays (paper §3.4 and CACTI 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// Tags and data accessed concurrently; the whole set is read and the
    /// matching way late-selected. Fastest, highest energy.
    #[default]
    Normal,
    /// Data accessed only after tag lookup — only the matching way's data
    /// is read. Saves energy, serializes delay.
    Sequential,
    /// Tags and data in parallel but only one way read per data access
    /// (way prediction/fast mode): tag-path and data-path overlap.
    Fast,
}

/// What kind of memory is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// A cache with tag and data arrays.
    Cache {
        /// Tag/data access ordering.
        access_mode: AccessMode,
    },
    /// A plain RAM (scratchpad / directory / embedded memory): no tags,
    /// `block_bytes` is the access width.
    Ram,
    /// A main-memory DRAM chip on a DIMM (paper §2.1): banked, page-based,
    /// burst-oriented, narrow external interface.
    MainMemory {
        /// External data pins (x4 / x8 / x16).
        io_bits: u32,
        /// Burst length (4 or 8 typical).
        burst_length: u32,
        /// Internal prefetch width in bits per IO pin (8n for DDR3/DDR4).
        prefetch: u32,
        /// DRAM page (row) size in bits — constrains the number of sense
        /// amplifiers per activated stripe.
        page_bits: u64,
    },
}

impl MemoryKind {
    /// `true` if this is a cache (has a tag array).
    pub fn is_cache(&self) -> bool {
        matches!(self, MemoryKind::Cache { .. })
    }
}

/// Optimization knobs (paper §2.4).
///
/// The knobs split by which optimizer step reads them. The organization
/// sweep ([`crate::solve_with_stats`]) reads only `repeater_relax` and
/// `sleep_transistors`; the other six — the two overhead caps and the four
/// objective weights — are read by [`crate::select`] alone. So two specs
/// that differ only in those six sweep the same organizations to the same
/// solution set, and a batch engine may run one sweep and select once per
/// knob set ([`MemorySpec::sweep_key`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationOptions {
    /// Keep solutions with area within this fraction above the best-area
    /// solution (`max area constraint`); e.g. `0.4` allows +40 %.
    pub max_area_overhead: f64,
    /// Keep solutions with access time within this fraction above the best
    /// remaining access time (`max acctime constraint`).
    pub max_access_time_overhead: f64,
    /// Weight of dynamic read energy in the final objective.
    pub weight_dynamic: f64,
    /// Weight of leakage (+ refresh) power in the final objective.
    pub weight_leakage: f64,
    /// Weight of random cycle time in the final objective.
    pub weight_cycle: f64,
    /// Weight of multisubbank-interleave cycle time in the final objective.
    pub weight_interleave: f64,
    /// Repeater relaxation ≥ 1.0 (`max repeater delay constraint`): larger
    /// values trade H-tree delay for energy.
    pub repeater_relax: f64,
    /// Model sleep transistors that halve the leakage of mats not activated
    /// during an access (used for the Xeon-style SRAM L3, paper §2.5).
    pub sleep_transistors: bool,
}

impl Default for OptimizationOptions {
    fn default() -> Self {
        OptimizationOptions {
            max_area_overhead: 0.5,
            max_access_time_overhead: 0.5,
            weight_dynamic: 1.0,
            weight_leakage: 1.0,
            weight_cycle: 0.5,
            weight_interleave: 0.5,
            repeater_relax: 1.0,
            sleep_transistors: false,
        }
    }
}

impl OptimizationOptions {
    /// The paper's §3.1 "config ED" knobs: smaller mats, better energy and
    /// delay. Only the six select-only knobs differ from the default.
    pub fn ed() -> Self {
        OptimizationOptions {
            max_area_overhead: 0.60,
            max_access_time_overhead: 0.15,
            weight_dynamic: 1.5,
            weight_leakage: 0.3,
            weight_cycle: 2.0,
            weight_interleave: 1.0,
            ..OptimizationOptions::default()
        }
    }

    /// The paper's §3.1 "config C" knobs: the best density (a
    /// high-area-efficiency solution, as commodity DRAM chips are built).
    /// Only the six select-only knobs differ from the default.
    pub fn c() -> Self {
        OptimizationOptions {
            max_area_overhead: 0.20,
            max_access_time_overhead: 1.0,
            weight_dynamic: 0.5,
            weight_leakage: 1.0,
            weight_cycle: 0.3,
            weight_interleave: 0.3,
            ..OptimizationOptions::default()
        }
    }
}

/// Full input specification for one memory.
///
/// Construct with [`MemorySpec::builder`]; `build` validates the
/// combination.
///
/// # Example
///
/// ```
/// use cactid_core::{MemorySpec, MemoryKind, AccessMode};
/// use cactid_tech::{CellTechnology, TechNode};
///
/// # fn main() -> Result<(), cactid_core::CactiError> {
/// let l2 = MemorySpec::builder()
///     .capacity_bytes(1 << 20)
///     .block_bytes(64)
///     .associativity(8)
///     .banks(1)
///     .cell_tech(CellTechnology::Sram)
///     .node(TechNode::N32)
///     .kind(MemoryKind::Cache { access_mode: AccessMode::Normal })
///     .build()?;
/// assert_eq!(l2.sets(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Total capacity in bytes (across all banks).
    pub capacity_bytes: u64,
    /// Cache-line size (caches) or access word (RAM) in bytes.
    pub block_bytes: u32,
    /// Set associativity (1 for RAM / main memory).
    pub associativity: u32,
    /// Number of independently addressable banks.
    pub n_banks: u32,
    /// Memory kind.
    pub kind: MemoryKind,
    /// Cell technology of the data (and tag) arrays.
    pub cell_tech: CellTechnology,
    /// Technology node.
    pub node: TechNode,
    /// Physical address width used for tag sizing \[bits\].
    pub address_bits: u32,
    /// Optimization knobs.
    pub opt: OptimizationOptions,
}

impl MemorySpec {
    /// Starts building a specification.
    pub fn builder() -> MemorySpecBuilder {
        MemorySpecBuilder::default()
    }

    /// Capacity of one bank \[bytes\].
    pub fn bank_bytes(&self) -> u64 {
        self.capacity_bytes / u64::from(self.n_banks)
    }

    /// This spec with its six select-only knobs (`max_area_overhead`,
    /// `max_access_time_overhead` and the four `weight_*` fields) reset to
    /// [`OptimizationOptions::default`].
    ///
    /// Two specs with equal sweep keys have bitwise-identical
    /// [`crate::solve_with_stats`] outcomes — the same solution set in the
    /// same order, and the same [`crate::SolveStats`] — because the sweep
    /// never reads a select-only knob; only [`crate::select`] does.
    pub fn sweep_key(&self) -> MemorySpec {
        MemorySpec {
            opt: OptimizationOptions {
                repeater_relax: self.opt.repeater_relax,
                sleep_transistors: self.opt.sleep_transistors,
                ..OptimizationOptions::default()
            },
            ..self.clone()
        }
    }

    /// The bank geometry of this spec: its [`MemorySpec::sweep_key`] with
    /// the capacity of one bank and a bank count of one.
    ///
    /// The data-array half of a solve ([`crate::ArraySweep`]) reads no
    /// field this key drops: the organizations of [`crate::org`] and the
    /// array models see one bank, and only the per-spec half (tag design,
    /// main-memory assembly, the bank-count multiply in
    /// [`crate::Solution`]) reads the whole capacity and bank count. So
    /// specs with equal array keys share one data-array sweep exactly.
    pub fn array_key(&self) -> MemorySpec {
        MemorySpec {
            capacity_bytes: self.bank_bytes(),
            n_banks: 1,
            ..self.sweep_key()
        }
    }

    /// Number of sets (whole memory).
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.block_bytes) * u64::from(self.associativity))
    }

    /// Number of sets in one bank.
    pub fn sets_per_bank(&self) -> u64 {
        self.sets() / u64::from(self.n_banks)
    }

    /// Tag width in bits: address bits minus set-index and block-offset
    /// bits, plus two status bits (valid + coherence).
    pub fn tag_bits(&self) -> u32 {
        let index_bits = self.sets_per_bank().trailing_zeros() + self.n_banks.trailing_zeros();
        let offset_bits = self.block_bytes.trailing_zeros();
        self.address_bits.saturating_sub(index_bits + offset_bits) + 2
    }

    /// Bits delivered by one read access at the array interface: one block
    /// for caches (the way select happens at the subarray outputs, so the
    /// data H-tree carries a single line) and RAMs, one burst for main
    /// memory.
    pub fn output_bits(&self) -> u64 {
        match self.kind {
            MemoryKind::Cache { .. } | MemoryKind::Ram => u64::from(self.block_bytes) * 8,
            MemoryKind::MainMemory {
                io_bits, prefetch, ..
            } => u64::from(io_bits) * u64::from(prefetch),
        }
    }

    /// Fraction of the sensed stripe whose sense amplifiers actually fire.
    /// Sequential-mode SRAM caches enable only the selected way's amps;
    /// DRAM senses the whole open row regardless (destructive readout —
    /// the operational constraint discussed in paper §3.4).
    pub fn sense_fraction(&self) -> f64 {
        match self.kind {
            MemoryKind::Cache {
                access_mode: AccessMode::Sequential,
            } if self.cell_tech == CellTechnology::Sram => 1.0 / f64::from(self.associativity),
            _ => 1.0,
        }
    }

    /// Checks every structural invariant [`MemorySpecBuilder::build`]
    /// enforces, for a spec assembled field by field, stopping at the
    /// first broken one. Allocates nothing on a valid spec.
    ///
    /// # Errors
    ///
    /// [`CactiError::InvalidSpec`] carrying the first of
    /// [`MemorySpec::violations`].
    pub fn validate(&self) -> Result<(), CactiError> {
        match self.check(&mut ControlFlow::Break) {
            ControlFlow::Break(v) => Err(CactiError::InvalidSpec(v)),
            ControlFlow::Continue(()) => Ok(()),
        }
    }

    /// Every invariant this spec breaks, in check order; empty exactly
    /// when [`MemorySpec::validate`] accepts the spec. The lint rules
    /// `CD0001`–`CD0009` report these as their errors.
    pub fn violations(&self) -> Vec<SpecViolation> {
        let mut all = Vec::new();
        let _ = self.check(&mut |v| {
            all.push(v);
            ControlFlow::<()>::Continue(())
        });
        all
    }

    /// The one spec check list: hands each broken invariant to `found`, in
    /// order, until `found` breaks. A check whose inputs an earlier
    /// violation leaves meaningless (the sets of a zero capacity) is
    /// skipped, and no check can overflow or divide by zero.
    fn check<B>(&self, found: &mut impl FnMut(SpecViolation) -> ControlFlow<B>) -> ControlFlow<B> {
        use SpecViolation as V;
        let (capacity_bytes, block, assoc, banks) = (
            self.capacity_bytes,
            self.block_bytes,
            self.associativity,
            self.n_banks,
        );
        if capacity_bytes == 0 {
            found(V::CapacityZero)?;
        }
        if !block.is_power_of_two() {
            found(V::BlockSize(block))?;
        }
        if assoc == 0 {
            found(V::AssociativityZero)?;
        }
        let set_bytes = u64::from(block) * u64::from(assoc);
        let mut sets = None;
        if capacity_bytes != 0 && set_bytes != 0 {
            let n = capacity_bytes / set_bytes;
            if !capacity_bytes.is_multiple_of(set_bytes) {
                found(V::NotWholeSets {
                    capacity_bytes,
                    set_bytes,
                })?;
            } else if !n.is_power_of_two() {
                found(V::SetsNotPowerOfTwo { sets: n, set_bytes })?;
            } else {
                sets = Some(n);
            }
        }
        if !banks.is_power_of_two() {
            found(V::BankCount(banks))?;
        }
        if let Some(sets) = sets.filter(|_| banks != 0) {
            // A power-of-two set count splits into a power of two per bank
            // exactly when the bank count is a power of two no larger.
            if !banks.is_power_of_two() || sets < u64::from(banks) {
                found(V::BankSplit {
                    sets,
                    n_banks: banks,
                })?;
            }
        }
        match self.kind {
            MemoryKind::Cache { .. } if assoc > 32 => found(V::CacheAssociativity(assoc))?,
            MemoryKind::Ram | MemoryKind::MainMemory { .. } if assoc > 1 => {
                found(V::DirectAssociativity(assoc))?;
            }
            _ => {}
        }
        if let MemoryKind::MainMemory {
            io_bits,
            burst_length,
            prefetch,
            page_bits,
        } = self.kind
        {
            if self.cell_tech != CellTechnology::CommDram {
                found(V::MainMemoryCell(self.cell_tech))?;
            }
            if !io_bits.is_power_of_two() || io_bits > 32 {
                found(V::IoWidth(io_bits))?;
            }
            if !burst_length.is_power_of_two() || burst_length > 16 {
                found(V::BurstLength(burst_length))?;
            }
            if !prefetch.is_power_of_two() {
                found(V::PrefetchNotPowerOfTwo(prefetch))?;
            } else if prefetch < burst_length {
                found(V::PrefetchShort {
                    prefetch,
                    burst_length,
                })?;
            }
            if page_bits.is_power_of_two() {
                let burst_bits = u64::from(io_bits) * u64::from(prefetch);
                if burst_bits > page_bits {
                    found(V::BurstPastPage {
                        burst_bits,
                        page_bits,
                    })?;
                }
                // In 128 bits: a page past 2^62 bits must not wrap to fit.
                if banks != 0 && u128::from(page_bits) * 2 > u128::from(self.bank_bytes()) * 8 {
                    found(V::PagePastHalfBank {
                        page_bits,
                        bank_bytes: self.bank_bytes(),
                    })?;
                }
            } else {
                found(V::PageSize(page_bits))?;
            }
        }
        let address_bits = self.address_bits;
        if address_bits == 0 || address_bits > 64 {
            found(V::AddressWidth(address_bits))?;
        } else {
            let needed = 64 - capacity_bytes.saturating_sub(1).leading_zeros();
            if address_bits < needed {
                found(V::AddressTooNarrow {
                    address_bits,
                    capacity_bytes,
                    needed,
                })?;
            }
        }
        // A NaN knob fails every check below, as it must: it makes the spec
        // unequal to itself, so no memo could ever key on it.
        let o = &self.opt;
        if o.repeater_relax.is_nan() || o.repeater_relax < 1.0 {
            found(V::RepeaterRelax(o.repeater_relax))?;
        }
        let bad = |v: f64| !(v.is_finite() && v >= 0.0);
        for (field, value) in [
            ("opt.max_area_overhead", o.max_area_overhead),
            ("opt.max_access_time_overhead", o.max_access_time_overhead),
        ] {
            if bad(value) {
                found(V::Overhead { field, value })?;
            }
        }
        for (field, value) in [
            ("opt.weight_dynamic", o.weight_dynamic),
            ("opt.weight_leakage", o.weight_leakage),
            ("opt.weight_cycle", o.weight_cycle),
            ("opt.weight_interleave", o.weight_interleave),
        ] {
            if bad(value) {
                found(V::Weight { field, value })?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Builder for [`MemorySpec`].
#[derive(Debug, Clone, Default)]
pub struct MemorySpecBuilder {
    capacity_bytes: Option<u64>,
    block_bytes: Option<u32>,
    associativity: Option<u32>,
    n_banks: Option<u32>,
    kind: Option<MemoryKind>,
    cell_tech: Option<CellTechnology>,
    node: Option<TechNode>,
    address_bits: Option<u32>,
    opt: Option<OptimizationOptions>,
}

impl MemorySpecBuilder {
    /// Total capacity in bytes.
    pub fn capacity_bytes(mut self, v: u64) -> Self {
        self.capacity_bytes = Some(v);
        self
    }

    /// Line/word size in bytes.
    pub fn block_bytes(mut self, v: u32) -> Self {
        self.block_bytes = Some(v);
        self
    }

    /// Set associativity.
    pub fn associativity(mut self, v: u32) -> Self {
        self.associativity = Some(v);
        self
    }

    /// Number of banks.
    pub fn banks(mut self, v: u32) -> Self {
        self.n_banks = Some(v);
        self
    }

    /// Memory kind.
    pub fn kind(mut self, v: MemoryKind) -> Self {
        self.kind = Some(v);
        self
    }

    /// Cell technology.
    pub fn cell_tech(mut self, v: CellTechnology) -> Self {
        self.cell_tech = Some(v);
        self
    }

    /// Technology node.
    pub fn node(mut self, v: TechNode) -> Self {
        self.node = Some(v);
        self
    }

    /// Physical address width (default 40).
    pub fn address_bits(mut self, v: u32) -> Self {
        self.address_bits = Some(v);
        self
    }

    /// Optimization knobs (default [`OptimizationOptions::default`]).
    pub fn optimization(mut self, v: OptimizationOptions) -> Self {
        self.opt = Some(v);
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns [`CactiError::InvalidSpec`] when a required field is missing
    /// or the combination is inconsistent.
    pub fn build(self) -> Result<MemorySpec, CactiError> {
        let missing = |f| CactiError::InvalidSpec(SpecViolation::MissingField(f));
        let spec = MemorySpec {
            capacity_bytes: self
                .capacity_bytes
                .ok_or_else(|| missing("capacity_bytes"))?,
            block_bytes: self.block_bytes.ok_or_else(|| missing("block_bytes"))?,
            associativity: self.associativity.unwrap_or(1),
            n_banks: self.n_banks.unwrap_or(1),
            kind: self.kind.ok_or_else(|| missing("kind"))?,
            cell_tech: self.cell_tech.ok_or_else(|| missing("cell_tech"))?,
            node: self.node.ok_or_else(|| missing("node"))?,
            address_bits: self.address_bits.unwrap_or(40),
            opt: self.opt.unwrap_or_default(),
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_builder() -> MemorySpecBuilder {
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
    }

    #[test]
    fn valid_cache_builds() {
        let s = cache_builder().build().unwrap();
        assert_eq!(s.sets(), 2048);
        assert_eq!(s.output_bits(), 512);
        // 40 - 11 (index) - 6 (offset) + 2 status = 25.
        assert_eq!(s.tag_bits(), 25);
        assert_eq!(s.sense_fraction(), 1.0);
    }

    #[test]
    fn sequential_mode_reads_one_way() {
        let s = cache_builder()
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Sequential,
            })
            .build()
            .unwrap();
        assert_eq!(s.output_bits(), 512);
        assert_eq!(s.sense_fraction(), 1.0 / 8.0);
    }

    #[test]
    fn non_power_of_two_associativity_is_fine_if_sets_are() {
        // The paper's L3 configurations use 12/18/24-way associativity.
        let s = MemorySpec::builder()
            .capacity_bytes(24 << 20)
            .block_bytes(64)
            .associativity(12)
            .banks(8)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();
        assert_eq!(s.sets(), 32768);
        assert_eq!(s.sets_per_bank(), 4096);
    }

    #[test]
    fn dram_cache_senses_full_row_even_in_sequential_mode() {
        let s = MemorySpec::builder()
            .capacity_bytes(48 << 20)
            .block_bytes(64)
            .associativity(12)
            .banks(8)
            .cell_tech(CellTechnology::LpDram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Sequential,
            })
            .build()
            .unwrap();
        assert_eq!(s.sense_fraction(), 1.0, "destructive readout");
    }

    #[test]
    fn rejects_non_power_of_two_capacity() {
        let e = cache_builder().capacity_bytes(3 << 19).build().unwrap_err();
        assert!(matches!(e, CactiError::InvalidSpec(_)));
    }

    #[test]
    fn rejects_capacity_below_one_set() {
        let e = cache_builder()
            .capacity_bytes(256)
            .block_bytes(64)
            .associativity(8)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("sets"), "{e}");
    }

    #[test]
    fn rejects_ram_with_associativity() {
        let e = MemorySpec::builder()
            .capacity_bytes(1 << 16)
            .block_bytes(8)
            .associativity(2)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N45)
            .kind(MemoryKind::Ram)
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            CactiError::InvalidSpec(SpecViolation::DirectAssociativity(2))
        );
    }

    #[test]
    fn main_memory_requires_comm_dram() {
        let e = MemorySpec::builder()
            .capacity_bytes(1 << 30)
            .block_bytes(8)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8192,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            CactiError::InvalidSpec(SpecViolation::MainMemoryCell(CellTechnology::Sram))
        );
    }

    #[test]
    fn main_memory_output_is_one_burst() {
        let s = MemorySpec::builder()
            .capacity_bytes(1 << 30) // 1 GB = 8 Gb
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8192,
            })
            .build()
            .unwrap();
        assert_eq!(s.output_bits(), 64);
    }

    #[test]
    fn rejects_a_burst_wider_than_its_page() {
        let e = MemorySpec::builder()
            .capacity_bytes(1 << 30)
            .block_bytes(64)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 32,
                burst_length: 16,
                prefetch: 16,
                page_bits: 256, // a 512-bit burst
            })
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            CactiError::InvalidSpec(SpecViolation::BurstPastPage {
                burst_bits: 512,
                page_bits: 256
            })
        );
    }

    /// A 1 GiB main memory of x8 chips with 8-beat bursts and `prefetch`.
    fn prefetching(prefetch: u32) -> Result<MemorySpec, CactiError> {
        MemorySpec::builder()
            .capacity_bytes(1 << 30)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch,
                page_bits: 8 << 10,
            })
            .build()
    }

    #[test]
    fn a_prefetch_is_a_power_of_two_at_least_the_burst() {
        // 12 covers the 8-beat burst: only the power of two is broken.
        let e = prefetching(12).unwrap_err();
        let v = SpecViolation::PrefetchNotPowerOfTwo(12);
        assert_eq!(e, CactiError::InvalidSpec(v.clone()));
        assert_eq!(
            v.to_string(),
            "internal prefetch of 12 bits per pin is not a power of two"
        );
        let e = prefetching(4).unwrap_err();
        let v = SpecViolation::PrefetchShort {
            prefetch: 4,
            burst_length: 8,
        };
        assert_eq!(e, CactiError::InvalidSpec(v.clone()));
        assert!(v.to_string().contains("cannot sustain a burst of 8 beats"));
        assert!(prefetching(8).is_ok() && prefetching(16).is_ok());
    }

    #[test]
    fn rejects_page_bigger_than_half_bank() {
        let e = MemorySpec::builder()
            .capacity_bytes(1 << 20)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N32)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 1 << 20,
            })
            .build()
            .unwrap_err();
        // A 128 KiB bank is 1 Mbit; half of it is 524 288 bits.
        assert!(
            e.to_string()
                .contains("page of 1048576 bits exceeds half a bank (524288 bits)"),
            "{e}"
        );
    }

    fn main_memory(capacity_bytes: u64, page_bits: u64) -> MemorySpec {
        MemorySpec {
            capacity_bytes,
            block_bytes: 8,
            associativity: 1,
            n_banks: 8,
            kind: MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits,
            },
            cell_tech: CellTechnology::CommDram,
            node: TechNode::N32,
            address_bits: 40,
            opt: OptimizationOptions::default(),
        }
    }

    #[test]
    fn a_page_of_two_to_the_63_bits_is_past_half_a_bank() {
        // page_bits * 2 wraps to 0 in 64 bits; the check must not.
        let spec = main_memory(1 << 30, 1 << 63);
        assert_eq!(
            spec.validate(),
            Err(CactiError::InvalidSpec(SpecViolation::PagePastHalfBank {
                page_bits: 1 << 63,
                bank_bytes: 1 << 27
            }))
        );
        assert!(main_memory(1 << 30, 8 << 10).validate().is_ok());
    }

    #[test]
    fn the_address_width_must_cover_the_capacity() {
        let mut ram = main_memory(2 << 40, 8 << 10);
        ram.kind = MemoryKind::Ram;
        let narrow = SpecViolation::AddressTooNarrow {
            address_bits: 40,
            capacity_bytes: 2 << 40,
            needed: 41,
        };
        assert_eq!(ram.violations(), [narrow]);
        ram.capacity_bytes = 1 << 40; // exactly 2^40 bytes: 40 bits suffice
        assert!(ram.validate().is_ok());
        for bits in [0, 65] {
            ram.address_bits = bits;
            assert_eq!(ram.violations(), [SpecViolation::AddressWidth(bits)]);
        }
    }

    #[test]
    fn violations_list_every_broken_invariant_and_validate_the_first() {
        // 1.5 MB of 48 B x 8 sets is 4096 sets, which 3 banks cannot split.
        let spec = MemorySpec {
            capacity_bytes: 1536 << 10,
            block_bytes: 48,
            n_banks: 3,
            ..cache_builder().build().unwrap()
        };
        let all = spec.violations();
        assert_eq!(
            all,
            [
                SpecViolation::BlockSize(48),
                SpecViolation::BankCount(3),
                SpecViolation::BankSplit {
                    sets: 4096,
                    n_banks: 3
                },
            ]
        );
        assert_eq!(
            spec.validate(),
            Err(CactiError::InvalidSpec(all[0].clone()))
        );
        assert_eq!(all[2].field(), "n_banks");
        assert!(cache_builder().build().unwrap().violations().is_empty());
    }

    fn with_opt(edit: impl FnOnce(&mut OptimizationOptions)) -> Result<MemorySpec, CactiError> {
        let mut opt = OptimizationOptions::default();
        edit(&mut opt);
        cache_builder().optimization(opt).build()
    }

    /// The edit is rejected, naming the knob `field`.
    fn assert_rejected(edit: impl FnOnce(&mut OptimizationOptions), field: &str) {
        match with_opt(edit) {
            Err(CactiError::InvalidSpec(v)) => assert_eq!(v.field(), field, "{v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_nan_repeater_relax() {
        assert_rejected(|o| o.repeater_relax = f64::NAN, "opt.repeater_relax");
    }

    #[test]
    fn rejects_repeater_relax_below_one() {
        assert_rejected(|o| o.repeater_relax = 0.5, "opt.repeater_relax");
    }

    #[test]
    fn rejects_nan_area_overhead() {
        assert_rejected(|o| o.max_area_overhead = f64::NAN, "opt.max_area_overhead");
    }

    #[test]
    fn rejects_nan_access_time_overhead() {
        assert_rejected(
            |o| o.max_access_time_overhead = f64::NAN,
            "opt.max_access_time_overhead",
        );
    }

    #[test]
    fn rejects_infinite_overhead() {
        assert_rejected(
            |o| o.max_area_overhead = f64::INFINITY,
            "opt.max_area_overhead",
        );
    }

    #[test]
    fn rejects_negative_overhead() {
        assert_rejected(
            |o| o.max_access_time_overhead = -0.1,
            "opt.max_access_time_overhead",
        );
    }

    #[test]
    fn rejects_nan_weight() {
        assert_rejected(|o| o.weight_dynamic = f64::NAN, "opt.weight_dynamic");
    }

    #[test]
    fn rejects_infinite_weight() {
        assert_rejected(|o| o.weight_leakage = f64::INFINITY, "opt.weight_leakage");
    }

    #[test]
    fn rejects_negative_weight() {
        assert_rejected(|o| o.weight_cycle = -1.0, "opt.weight_cycle");
    }

    #[test]
    fn rejects_negative_interleave_weight() {
        assert_rejected(|o| o.weight_interleave = -0.5, "opt.weight_interleave");
    }

    #[test]
    fn accepts_zero_weights_and_large_relax() {
        // CD0009 only warns on these, so the builder accepts them.
        let s = with_opt(|o| {
            o.weight_dynamic = 0.0;
            o.weight_leakage = 0.0;
            o.weight_cycle = 0.0;
            o.weight_interleave = 0.0;
            o.repeater_relax = 8.0;
        })
        .unwrap();
        assert_eq!(s, s.clone(), "a valid spec equals itself");
    }

    #[test]
    fn sweep_key_resets_only_the_select_knobs() {
        let s = with_opt(|o| {
            o.max_area_overhead = 0.2;
            o.max_access_time_overhead = 1.0;
            o.weight_dynamic = 0.5;
            o.weight_leakage = 2.0;
            o.weight_cycle = 0.3;
            o.weight_interleave = 0.0;
            o.repeater_relax = 1.5;
            o.sleep_transistors = true;
        })
        .unwrap();
        let key = s.sweep_key();
        assert_eq!(
            key.opt,
            OptimizationOptions {
                repeater_relax: 1.5,
                sleep_transistors: true,
                ..OptimizationOptions::default()
            }
        );
        assert_eq!(key.opt, key.sweep_key().opt, "idempotent");
        assert_eq!(
            MemorySpec {
                opt: s.opt.clone(),
                ..key
            },
            s
        );
        // The sweep knobs stay in the key.
        let relaxed = with_opt(|o| o.repeater_relax = 2.0).unwrap();
        assert_ne!(
            relaxed.sweep_key(),
            cache_builder().build().unwrap().sweep_key()
        );
    }

    #[test]
    fn missing_field_is_reported() {
        let e = MemorySpec::builder().build().unwrap_err();
        assert!(e.to_string().contains("missing field"));
        assert_eq!(
            e,
            CactiError::InvalidSpec(SpecViolation::MissingField("capacity_bytes"))
        );
    }
}
