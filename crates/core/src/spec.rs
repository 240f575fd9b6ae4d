//! Input specification for a memory to be modeled.

use crate::error::CactiError;
use cactid_tech::{CellTechnology, TechNode};

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

    fn validate(&self) -> Result<(), CactiError> {
        let err = |m: &str| Err(CactiError::InvalidSpec(m.to_string()));
        if self.capacity_bytes == 0 {
            return err("capacity must be nonzero");
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return err("block size must be a nonzero power of two");
        }
        if self.associativity == 0 {
            return err("associativity must be nonzero");
        }
        let set_bytes = u64::from(self.block_bytes) * u64::from(self.associativity);
        if !self.capacity_bytes.is_multiple_of(set_bytes) {
            return err("capacity must be a whole number of sets");
        }
        let sets = self.capacity_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return err("the number of sets must be a power of two");
        }
        if self.n_banks == 0 || !self.n_banks.is_power_of_two() {
            return err("bank count must be a nonzero power of two");
        }
        if self.capacity_bytes < u64::from(self.block_bytes) * u64::from(self.associativity) {
            return err("capacity smaller than one set");
        }
        if self.bank_bytes() * u64::from(self.n_banks) != self.capacity_bytes {
            return err("capacity must divide evenly across banks");
        }
        if self.sets() == 0 {
            return err("associativity exceeds the number of lines");
        }
        if self.sets_per_bank() == 0 || !self.sets_per_bank().is_power_of_two() {
            return err("sets per bank must be a nonzero power of two");
        }
        match self.kind {
            MemoryKind::Cache { .. } => {
                if self.associativity > 32 {
                    return err("associativity above 32 is not modeled");
                }
            }
            MemoryKind::Ram => {
                if self.associativity != 1 {
                    return err("plain RAM must have associativity 1");
                }
            }
            MemoryKind::MainMemory {
                io_bits,
                burst_length,
                prefetch,
                page_bits,
            } => {
                if self.associativity != 1 {
                    return err("main memory must have associativity 1");
                }
                if self.cell_tech != CellTechnology::CommDram {
                    return err("main memory must use COMM-DRAM cells");
                }
                if !io_bits.is_power_of_two() || io_bits > 32 {
                    return err("io width must be a power of two ≤ 32");
                }
                if !burst_length.is_power_of_two() || burst_length > 16 {
                    return err("burst length must be a power of two ≤ 16");
                }
                if !prefetch.is_power_of_two() || prefetch < burst_length {
                    return err("prefetch must be a power of two ≥ burst length");
                }
                if page_bits == 0 || !page_bits.is_power_of_two() {
                    return err("page size must be a nonzero power of two");
                }
                if page_bits * 2 > self.bank_bytes() * 8 {
                    return err("page size larger than half a bank");
                }
            }
        }
        // The knob checks mirror lint CD0009's errors and must reject NaN,
        // which passes every plain `<` test: a NaN knob makes the spec
        // unequal to itself, so no memo could ever key on it.
        let o = &self.opt;
        if o.repeater_relax.is_nan() || o.repeater_relax < 1.0 {
            return err("repeater relaxation must be ≥ 1.0");
        }
        let finite_non_negative = |v: f64| v.is_finite() && v >= 0.0;
        if !(finite_non_negative(o.max_area_overhead)
            && finite_non_negative(o.max_access_time_overhead))
        {
            return err("optimization overheads must be finite and non-negative");
        }
        if ![
            o.weight_dynamic,
            o.weight_leakage,
            o.weight_cycle,
            o.weight_interleave,
        ]
        .into_iter()
        .all(finite_non_negative)
        {
            return err("objective weights must be finite and non-negative");
        }
        Ok(())
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
        let missing = |f: &str| CactiError::InvalidSpec(format!("missing field: {f}"));
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
        assert!(e.to_string().contains("associativity 1"));
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
        assert!(e.to_string().contains("COMM-DRAM"));
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
        assert!(e.to_string().contains("page size"));
    }

    fn with_opt(edit: impl FnOnce(&mut OptimizationOptions)) -> Result<MemorySpec, CactiError> {
        let mut opt = OptimizationOptions::default();
        edit(&mut opt);
        cache_builder().optimization(opt).build()
    }

    fn assert_rejected(edit: impl FnOnce(&mut OptimizationOptions), what: &str) {
        let e = with_opt(edit).unwrap_err();
        assert!(e.to_string().contains(what), "{e}");
    }

    #[test]
    fn rejects_nan_repeater_relax() {
        assert_rejected(|o| o.repeater_relax = f64::NAN, "repeater relaxation");
    }

    #[test]
    fn rejects_repeater_relax_below_one() {
        assert_rejected(|o| o.repeater_relax = 0.5, "repeater relaxation");
    }

    #[test]
    fn rejects_nan_area_overhead() {
        assert_rejected(|o| o.max_area_overhead = f64::NAN, "overheads");
    }

    #[test]
    fn rejects_nan_access_time_overhead() {
        assert_rejected(|o| o.max_access_time_overhead = f64::NAN, "overheads");
    }

    #[test]
    fn rejects_infinite_overhead() {
        assert_rejected(|o| o.max_area_overhead = f64::INFINITY, "overheads");
    }

    #[test]
    fn rejects_negative_overhead() {
        assert_rejected(|o| o.max_access_time_overhead = -0.1, "overheads");
    }

    #[test]
    fn rejects_nan_weight() {
        assert_rejected(|o| o.weight_dynamic = f64::NAN, "weights");
    }

    #[test]
    fn rejects_infinite_weight() {
        assert_rejected(|o| o.weight_leakage = f64::INFINITY, "weights");
    }

    #[test]
    fn rejects_negative_weight() {
        assert_rejected(|o| o.weight_cycle = -1.0, "weights");
    }

    #[test]
    fn rejects_negative_interleave_weight() {
        assert_rejected(|o| o.weight_interleave = -0.5, "weights");
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
    }
}
