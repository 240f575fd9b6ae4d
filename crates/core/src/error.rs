//! Error types for the CACTI-D core model.

use cactid_tech::CellTechnology;
use std::error::Error;
use std::fmt;

/// Errors returned by specification validation and the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum CactiError {
    /// The memory specification breaks the invariant the violation names.
    InvalidSpec(SpecViolation),
    /// The organization sweep found no feasible solution for the spec.
    NoFeasibleSolution,
}

impl fmt::Display for CactiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CactiError::InvalidSpec(v) => write!(f, "invalid memory specification: {v}"),
            CactiError::NoFeasibleSolution => {
                f.write_str("no feasible array organization for this specification")
            }
        }
    }
}

impl Error for CactiError {}

/// One broken §2.1/§2.4 spec invariant, with the values that break it.
///
/// [`crate::MemorySpec::violations`] yields every variant but the last
/// three, which the builder and the main-memory/DIMM assemblies return
/// when they are handed the wrong kind of spec. `Display` is the one
/// message every entry point prints: the CLI, explore and serve
/// `"invalid"` records, and the lint diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecViolation {
    /// The capacity is zero.
    CapacityZero,
    /// The block size \[bytes\] is zero or not a power of two.
    BlockSize(u32),
    /// The associativity is zero.
    AssociativityZero,
    /// The capacity is not a whole number of sets.
    NotWholeSets {
        /// The capacity \[bytes\].
        capacity_bytes: u64,
        /// One set, `block_bytes × associativity` \[bytes\].
        set_bytes: u64,
    },
    /// The capacity holds a number of sets that is not a power of two.
    SetsNotPowerOfTwo {
        /// The set count.
        sets: u64,
        /// One set \[bytes\].
        set_bytes: u64,
    },
    /// The bank count is zero or not a power of two.
    BankCount(u32),
    /// The sets do not split into a power of two per bank.
    BankSplit {
        /// The set count.
        sets: u64,
        /// The bank count.
        n_banks: u32,
    },
    /// A cache is more than 32-way associative.
    CacheAssociativity(u32),
    /// A RAM or main memory, with this associativity, is not
    /// direct-addressed.
    DirectAssociativity(u32),
    /// A main memory is built from cells other than COMM-DRAM.
    MainMemoryCell(CellTechnology),
    /// The io width \[bits\] is not a power of two of at most 32.
    IoWidth(u32),
    /// The burst length \[beats\] is not a power of two of at most 16.
    BurstLength(u32),
    /// The prefetch \[bits per pin\] is not a power of two.
    PrefetchNotPowerOfTwo(u32),
    /// The prefetch is shorter than the burst length.
    PrefetchShort {
        /// The prefetch \[bits per pin\].
        prefetch: u32,
        /// The burst length \[beats\].
        burst_length: u32,
    },
    /// The page size \[bits\] is zero or not a power of two.
    PageSize(u64),
    /// One burst (io width × prefetch) does not fit in the page.
    BurstPastPage {
        /// One burst \[bits\].
        burst_bits: u64,
        /// The page size \[bits\].
        page_bits: u64,
    },
    /// The page is larger than half a bank.
    PagePastHalfBank {
        /// The page size \[bits\].
        page_bits: u64,
        /// One bank \[bytes\].
        bank_bytes: u64,
    },
    /// The address width \[bits\] is outside 1–64.
    AddressWidth(u32),
    /// The address width cannot index every byte of the capacity.
    AddressTooNarrow {
        /// The address width \[bits\].
        address_bits: u32,
        /// The capacity \[bytes\].
        capacity_bytes: u64,
        /// The bits the capacity needs.
        needed: u32,
    },
    /// The repeater relaxation is NaN or below 1.
    RepeaterRelax(f64),
    /// An overhead cap is not finite and non-negative.
    Overhead {
        /// The knob, `opt.max_area_overhead` or
        /// `opt.max_access_time_overhead`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// An objective weight is not finite and non-negative.
    Weight {
        /// The knob, `opt.weight_*`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// The builder was not given a required field.
    MissingField(&'static str),
    /// A main-memory or DIMM assembly (named) was handed a spec of
    /// another kind.
    NotMainMemory(&'static str),
    /// The chip io width does not divide the DIMM channel.
    ChannelWidth {
        /// The chip io width \[bits\].
        io_bits: u32,
        /// The channel width \[bits\].
        channel_bits: u32,
    },
}

impl SpecViolation {
    /// The spec field at fault, as a path below the spec
    /// (`capacity_bytes`, `kind.page_bits`, `opt.weight_cycle`).
    pub fn field(&self) -> &'static str {
        use SpecViolation as V;
        match self {
            V::CapacityZero | V::NotWholeSets { .. } | V::SetsNotPowerOfTwo { .. } => {
                "capacity_bytes"
            }
            V::BlockSize(_) => "block_bytes",
            V::AssociativityZero | V::CacheAssociativity(_) | V::DirectAssociativity(_) => {
                "associativity"
            }
            V::BankCount(_) | V::BankSplit { .. } => "n_banks",
            V::MainMemoryCell(_) => "cell_tech",
            V::IoWidth(_) | V::ChannelWidth { .. } => "kind.io_bits",
            V::BurstLength(_) => "kind.burst_length",
            V::PrefetchNotPowerOfTwo(_) | V::PrefetchShort { .. } => "kind.prefetch",
            V::PageSize(_) | V::BurstPastPage { .. } | V::PagePastHalfBank { .. } => {
                "kind.page_bits"
            }
            V::AddressWidth(_) | V::AddressTooNarrow { .. } => "address_bits",
            V::RepeaterRelax(_) => "opt.repeater_relax",
            V::Overhead { field, .. } | V::Weight { field, .. } | V::MissingField(field) => field,
            V::NotMainMemory(_) => "kind",
        }
    }
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SpecViolation as V;
        match *self {
            V::CapacityZero => f.write_str("capacity is zero"),
            V::BlockSize(b) => write!(f, "block size {b} B is not a nonzero power of two"),
            V::AssociativityZero => f.write_str("associativity is zero"),
            V::NotWholeSets {
                capacity_bytes,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity_bytes} B is not a whole number of {set_bytes} B sets"
            ),
            V::SetsNotPowerOfTwo { sets, .. } => write!(
                f,
                "capacity implies {sets} sets, which is not a power of two"
            ),
            V::BankCount(n) => write!(f, "bank count {n} is not a nonzero power of two"),
            V::BankSplit { sets, n_banks } => write!(
                f,
                "{sets} sets do not split into a power of two per bank across {n_banks} banks"
            ),
            V::CacheAssociativity(a) => {
                write!(f, "associativity {a} exceeds the modeled maximum of 32")
            }
            V::DirectAssociativity(a) => write!(
                f,
                "non-cache memories are direct-addressed; associativity {a} is meaningless"
            ),
            V::MainMemoryCell(cell) => write!(
                f,
                "a commodity main-memory chip cannot be built from {cell} cells"
            ),
            V::IoWidth(io) => write!(
                f,
                "io width {io} must be a power of two of at most 32 (x4/x8/x16)"
            ),
            V::BurstLength(b) => write!(f, "burst length {b} must be a power of two of at most 16"),
            V::PrefetchNotPowerOfTwo(p) => {
                write!(
                    f,
                    "internal prefetch of {p} bits per pin is not a power of two"
                )
            }
            V::PrefetchShort {
                prefetch,
                burst_length,
            } => write!(
                f,
                "internal prefetch of {prefetch} bits per pin cannot sustain a burst of \
                 {burst_length} beats — the data pins would starve mid-burst"
            ),
            V::PageSize(p) => write!(f, "page size {p} bits must be a nonzero power of two"),
            V::BurstPastPage {
                burst_bits,
                page_bits,
            } => write!(
                f,
                "one access fetches {burst_bits} bits but the open page holds only \
                 {page_bits} — a burst cannot span pages"
            ),
            V::PagePastHalfBank {
                page_bits,
                bank_bytes,
            } => write!(
                f,
                "page of {page_bits} bits exceeds half a bank ({} bits) — the folded \
                 bitline array needs at least two pages per bank",
                u128::from(bank_bytes) * 4
            ),
            V::AddressWidth(a) => write!(f, "address width {a} bits is outside 1–64"),
            V::AddressTooNarrow {
                address_bits,
                capacity_bytes,
                needed,
            } => write!(
                f,
                "{address_bits} address bits cannot even index the {capacity_bytes} B \
                 capacity ({needed} bits needed) — the tag field underflows"
            ),
            V::RepeaterRelax(r) => write!(
                f,
                "repeater relaxation {r} is below 1.0 — H-tree repeaters cannot be faster \
                 than delay-optimal"
            ),
            V::Overhead { value, .. } => write!(
                f,
                "optimization overhead {value} must be finite and non-negative"
            ),
            V::Weight { value, .. } => write!(
                f,
                "objective weight {value} must be finite and non-negative"
            ),
            V::MissingField(field) => write!(f, "missing field: {field}"),
            V::NotMainMemory(assembly) => {
                write!(f, "{assembly} assembly requires a main-memory spec")
            }
            V::ChannelWidth {
                io_bits,
                channel_bits,
            } => write!(
                f,
                "chip IO width x{io_bits} must divide the {channel_bits}-bit channel"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CactiError::InvalidSpec(SpecViolation::SetsNotPowerOfTwo {
            sets: 3072,
            set_bytes: 512,
        });
        let s = e.to_string();
        assert!(s.starts_with("invalid memory specification"));
        assert!(s.contains("capacity"));
        assert_eq!(
            CactiError::NoFeasibleSolution.to_string(),
            "no feasible array organization for this specification"
        );
    }
}
