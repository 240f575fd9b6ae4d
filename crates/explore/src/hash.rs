//! Canonical FNV-1a fingerprints of memory specifications.
//!
//! The engine's spec grouping, the study's solve memo ([`crate::cache`])
//! and the `cactid-serve` store key on a stable 64-bit fingerprint of the
//! full [`MemorySpec`]. FNV-1a is used
//! because it is tiny, dependency-free and byte-order-explicit: every field
//! is serialized little-endian into the hash in a fixed order, so the
//! fingerprint is identical across runs, thread counts and platforms.

use cactid_core::{AccessMode, MemoryKind, MemorySpec, OptimizationOptions};
use cactid_tech::CellTechnology;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern, little-endian.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Finishes the hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn cell_code(cell: CellTechnology) -> u8 {
    match cell {
        CellTechnology::Sram => 0,
        CellTechnology::LpDram => 1,
        CellTechnology::CommDram => 2,
    }
}

fn access_mode_code(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::Normal => 0,
        AccessMode::Sequential => 1,
        AccessMode::Fast => 2,
    }
}

fn write_opt(h: &mut Fnv1a, opt: &OptimizationOptions) {
    h.write_f64(opt.max_area_overhead);
    h.write_f64(opt.max_access_time_overhead);
    h.write_f64(opt.weight_dynamic);
    h.write_f64(opt.weight_leakage);
    h.write_f64(opt.weight_cycle);
    h.write_f64(opt.weight_interleave);
    h.write_f64(opt.repeater_relax);
    h.write_u8(u8::from(opt.sleep_transistors));
}

/// The canonical fingerprint of a full [`MemorySpec`], covering every field
/// that influences the solve (capacity, geometry, kind, cell, node, address
/// bits and all optimization knobs).
///
/// Two specs compare equal iff their fingerprints were fed identical bytes,
/// so equal specs always collide; the memo additionally verifies spec
/// equality on lookup, making accidental 64-bit collisions harmless.
pub fn spec_fingerprint(spec: &MemorySpec) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(spec.capacity_bytes);
    h.write_u32(spec.block_bytes);
    h.write_u32(spec.associativity);
    h.write_u32(spec.n_banks);
    match spec.kind {
        MemoryKind::Cache { access_mode } => {
            h.write_u8(0);
            h.write_u8(access_mode_code(access_mode));
        }
        MemoryKind::Ram => h.write_u8(1),
        MemoryKind::MainMemory {
            io_bits,
            burst_length,
            prefetch,
            page_bits,
        } => {
            h.write_u8(2);
            h.write_u32(io_bits);
            h.write_u32(burst_length);
            h.write_u32(prefetch);
            h.write_u64(page_bits);
        }
    }
    h.write_u8(cell_code(spec.cell_tech));
    h.write_u32(spec.node.feature_nm() as u32);
    h.write_u32(spec.address_bits);
    write_opt(&mut h, &spec.opt);
    h.finish()
}

/// An **injective** single-line canonical encoding of a full
/// [`MemorySpec`], covering exactly the fields [`spec_fingerprint`]
/// hashes, in the same order.
///
/// Where the fingerprint compresses to 64 bits, this string loses
/// nothing: integers render in decimal, floats as their IEEE-754 bit
/// pattern in hex (so `0.0` and `-0.0`, or two knobs differing in the
/// last ulp, stay distinct), and the kind tag prefixes its own fields.
/// Two specs are equal **iff** their canonical strings are equal, which
/// is what makes the string usable as a collision guard: a
/// content-addressed store keyed by the 64-bit fingerprint compares
/// canonical strings on lookup, so a fingerprint collision degrades to a
/// miss instead of a wrong answer — the same discipline as
/// [`crate::cache::SolveCache`]'s full-spec equality check.
///
/// The encoding never contains tabs or newlines, so it embeds safely in
/// line- and TSV-oriented storage formats.
pub fn spec_canon(spec: &MemorySpec) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(192);
    let _ = write!(
        s,
        "cap={};blk={};asc={};bnk={}",
        spec.capacity_bytes, spec.block_bytes, spec.associativity, spec.n_banks
    );
    match spec.kind {
        MemoryKind::Cache { access_mode } => {
            let _ = write!(s, ";kind=cache:{}", access_mode_code(access_mode));
        }
        MemoryKind::Ram => s.push_str(";kind=ram"),
        MemoryKind::MainMemory {
            io_bits,
            burst_length,
            prefetch,
            page_bits,
        } => {
            let _ = write!(
                s,
                ";kind=mm:{io_bits}:{burst_length}:{prefetch}:{page_bits}"
            );
        }
    }
    let _ = write!(
        s,
        ";cell={};node={};adr={};opt=",
        cell_code(spec.cell_tech),
        spec.node.feature_nm() as u32,
        spec.address_bits
    );
    for v in [
        spec.opt.max_area_overhead,
        spec.opt.max_access_time_overhead,
        spec.opt.weight_dynamic,
        spec.opt.weight_leakage,
        spec.opt.weight_cycle,
        spec.opt.weight_interleave,
        spec.opt.repeater_relax,
    ] {
        let _ = write!(s, "{:016x}.", v.to_bits());
    }
    let _ = write!(s, "{}", u8::from(spec.opt.sleep_transistors));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_tech::TechNode;

    fn spec(capacity: u64, assoc: u32) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(capacity)
            .block_bytes(64)
            .associativity(assoc)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let fnv1a = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_specs_have_equal_fingerprints() {
        assert_eq!(
            spec_fingerprint(&spec(1 << 20, 8)),
            spec_fingerprint(&spec(1 << 20, 8))
        );
    }

    #[test]
    fn canon_is_injective_over_perturbed_specs() {
        let base = spec_canon(&spec(1 << 20, 8));
        assert_eq!(base, spec_canon(&spec(1 << 20, 8)), "equal specs agree");
        assert_ne!(base, spec_canon(&spec(2 << 20, 8)));
        assert_ne!(base, spec_canon(&spec(1 << 20, 4)));
        let mut knobs = spec(1 << 20, 8);
        knobs.opt.weight_dynamic = f64::from_bits(knobs.opt.weight_dynamic.to_bits() + 1);
        assert_ne!(base, spec_canon(&knobs), "one-ulp knob change is visible");
        let mut zero = spec(1 << 20, 8);
        zero.opt.weight_cycle = 0.0;
        let mut neg_zero = spec(1 << 20, 8);
        neg_zero.opt.weight_cycle = -0.0;
        assert_ne!(
            spec_canon(&zero),
            spec_canon(&neg_zero),
            "bit-level float encoding"
        );
        let mut node = spec(1 << 20, 8);
        node.node = TechNode::N45;
        assert_ne!(base, spec_canon(&node));
    }

    #[test]
    fn canon_is_line_and_tsv_safe() {
        let mut mm = spec(1 << 30, 1);
        mm.kind = MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        };
        for s in [spec_canon(&spec(1 << 20, 8)), spec_canon(&mm)] {
            assert!(!s.contains('\t') && !s.contains('\n'), "{s:?}");
            assert!(!s.is_empty());
        }
        assert!(spec_canon(&mm).contains("kind=mm:8:8:8:8192"));
    }

    #[test]
    fn every_axis_perturbs_the_fingerprint() {
        let base = spec_fingerprint(&spec(1 << 20, 8));
        assert_ne!(base, spec_fingerprint(&spec(2 << 20, 8)));
        assert_ne!(base, spec_fingerprint(&spec(1 << 20, 4)));
        let mut knobs = spec(1 << 20, 8);
        knobs.opt.weight_dynamic += 0.5;
        assert_ne!(base, spec_fingerprint(&knobs));
        let mut node = spec(1 << 20, 8);
        node.node = TechNode::N45;
        assert_ne!(base, spec_fingerprint(&node));
    }
}
