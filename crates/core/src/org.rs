//! Array-organization parameters and the candidate sweep (paper §2.1, §2.4).

use crate::spec::{MemoryKind, MemorySpec};

/// One candidate array organization for a bank.
///
/// A bank is a grid of `ndwl × ndbl` subarrays. An access activates one
/// horizontal *stripe* of `ndwl` subarrays; the wordline row of a stripe
/// holds `stripe_bits` (one DRAM page, or `nspd` cache sets). Column
/// multiplexing (`deg_bl_mux` before the sense amps, `deg_sa_mux` after)
/// reduces the stripe to the access's output width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrgParams {
    /// Subarrays per stripe (wordline-direction partitioning).
    pub ndwl: u32,
    /// Stripes per bank (bitline-direction partitioning).
    pub ndbl: u32,
    /// Sets mapped onto one stripe row (caches/RAM; fixed 1.0 for main
    /// memory where the page size sets the stripe width instead).
    pub nspd: f64,
    /// Bitline-mux degree (columns sharing a sense amp). Always 1 for DRAM:
    /// destructive readout requires sensing every cell on the open row.
    pub deg_bl_mux: u32,
    /// Sense-amp-mux (column-select) degree after sensing.
    pub deg_sa_mux: u32,
}

impl OrgParams {
    /// Bits on one activated stripe row.
    ///
    /// The cache/RAM stripe is `set_bits × nspd` with the rounding made
    /// explicit: the sweep only emits organizations whose product is
    /// exactly integral ([`enumerate_lazy`] rejects fractional stripes up
    /// front), so `round()` is the identity there, while a hand-built
    /// [`OrgParams`] with a fractional product — which the lint rules must
    /// still be able to inspect — rounds to the nearest bit instead of
    /// silently flooring.
    pub fn stripe_bits(&self, spec: &MemorySpec) -> u64 {
        match spec.kind {
            MemoryKind::MainMemory { page_bits, .. } => page_bits,
            _ => {
                let set_bits = u64::from(spec.block_bytes) * 8 * u64::from(spec.associativity);
                (set_bits as f64 * self.nspd).round() as u64
            }
        }
    }

    /// Columns per subarray.
    ///
    /// Enumerated organizations always divide the stripe evenly over
    /// `ndwl` ([`enumerate_lazy`] filters the rest out); hand-built orgs
    /// that do not are flagged by the lint rules, and this accessor floors
    /// for them like any integer division.
    pub fn cols(&self, spec: &MemorySpec) -> u64 {
        self.stripe_bits(spec) / u64::from(self.ndwl)
    }

    /// Rows per subarray.
    pub fn rows(&self, spec: &MemorySpec) -> u64 {
        let bank_bits = spec.bank_bytes() * 8;
        let stripe = self.stripe_bits(spec);
        if stripe == 0 {
            return 0;
        }
        bank_bits / stripe / u64::from(self.ndbl)
    }

    /// Total mux factor the organization provides.
    pub fn mux_factor(&self) -> u64 {
        u64::from(self.deg_bl_mux) * u64::from(self.deg_sa_mux)
    }
}

/// Upper sweep bound on `ndwl`.
pub const MAX_NDWL: u32 = 64;
/// Upper sweep bound on `ndbl`.
pub const MAX_NDBL: u32 = 512;
/// Fewest rows per subarray the sweep considers.
pub const MIN_ROWS: u64 = 16;
/// Most columns per subarray the sweep considers.
pub const MAX_COLS: u64 = 8192;
/// Fewest columns per subarray the sweep considers.
pub const MIN_COLS: u64 = 32;
/// Maximum sense-amp mux degree (column-select fan-in) we model.
const MAX_SA_MUX: u32 = 1024;
/// Maximum bitline-mux degree we model.
pub const MAX_BL_MUX: u32 = 8;

/// Powers of two `1, 2, 4, …` up to and including `max`.
fn powers_of_two(max: u32) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(1u32), |&x| x.checked_mul(2)).take_while(move |&x| x <= max)
}

/// Bitline-mux degrees to try for one stripe: DRAM's destructive readout
/// forbids any bitline mux (always 1); SRAM tries powers of two up to
/// [`MAX_BL_MUX`] that divide the required mux factor.
fn bl_mux_choices(is_dram: bool, mux_needed: u64) -> impl Iterator<Item = u32> {
    (0u32..=3).map(|s| 1u32 << s).filter(move |&d| {
        if is_dram {
            d == 1
        } else {
            d <= MAX_BL_MUX && mux_needed.is_multiple_of(u64::from(d))
        }
    })
}

/// Lazily enumerates every structurally feasible [`OrgParams`] for `spec`
/// (electrical feasibility — sense margins, wordline RC — is judged later
/// by the array model).
///
/// Candidates stream out in the exact order the historical eager sweep
/// produced them: `nspd` outermost, then `ndwl` and `ndbl` over powers of
/// two, then the bitline/sense-amp mux split. The solver's staged pipeline
/// consumes this iterator directly so rejected candidates never occupy
/// memory; [`enumerate`] collects it for callers that need a `Vec`.
///
/// Organizations whose stripe does not divide evenly — a fractional
/// `set_bits × nspd` product, or a stripe not divisible by `ndwl` — are
/// rejected here rather than silently truncated.
pub fn enumerate_lazy(spec: &MemorySpec) -> impl Iterator<Item = OrgParams> {
    let is_dram = spec.cell_tech.is_dram();
    let page_bits = match spec.kind {
        MemoryKind::MainMemory { page_bits, .. } => Some(page_bits),
        _ => None,
    };
    let set_bits = u64::from(spec.block_bytes) * 8 * u64::from(spec.associativity);
    let output_bits = spec.output_bits();
    let bank_bits = spec.bank_bytes() * 8;
    let nspd_choices: &'static [f64] = if page_bits.is_some() {
        &[1.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };

    nspd_choices
        .iter()
        .copied()
        .filter_map(move |nspd| {
            let stripe_bits = match page_bits {
                Some(p) => p,
                None => {
                    let s = set_bits as f64 * nspd;
                    if s.fract() != 0.0 {
                        return None;
                    }
                    s as u64
                }
            };
            (stripe_bits != 0
                && stripe_bits >= output_bits
                && stripe_bits <= bank_bits
                && stripe_bits % output_bits == 0)
                .then_some((nspd, stripe_bits))
        })
        .flat_map(move |(nspd, stripe_bits)| {
            let mux_needed = stripe_bits / output_bits;
            let total_rows = bank_bits / stripe_bits;
            powers_of_two(MAX_NDWL)
                // Columns shrink as ndwl doubles, so the first too-narrow
                // subarray ends the sweep (the eager loop's `break`).
                .take_while(move |&ndwl| stripe_bits / u64::from(ndwl) >= MIN_COLS)
                .filter(move |&ndwl| {
                    let cols = stripe_bits / u64::from(ndwl);
                    cols <= MAX_COLS && stripe_bits % u64::from(ndwl) == 0
                })
                .flat_map(move |ndwl| {
                    powers_of_two(MAX_NDBL)
                        // Once ndbl stops dividing the rows, or the
                        // subarray gets too short, doubling further can
                        // never recover — both conditions are monotone.
                        .take_while(move |&ndbl| {
                            total_rows.is_multiple_of(u64::from(ndbl))
                                && total_rows / u64::from(ndbl) >= MIN_ROWS
                        })
                        .filter(move |&ndbl| (total_rows / u64::from(ndbl)).is_power_of_two())
                        .flat_map(move |ndbl| {
                            // Split the mux factor between bitline mux and
                            // sense-amp mux.
                            bl_mux_choices(is_dram, mux_needed).filter_map(move |deg_bl| {
                                let deg_sa = mux_needed / u64::from(deg_bl);
                                (deg_sa != 0 && deg_sa <= u64::from(MAX_SA_MUX)).then_some(
                                    OrgParams {
                                        ndwl,
                                        ndbl,
                                        nspd,
                                        deg_bl_mux: deg_bl,
                                        deg_sa_mux: deg_sa as u32,
                                    },
                                )
                            })
                        })
                })
        })
}

/// Eagerly enumerates every structurally feasible [`OrgParams`] for `spec`:
/// [`enumerate_lazy`] collected into a `Vec`, in the same order.
pub fn enumerate(spec: &MemorySpec) -> Vec<OrgParams> {
    enumerate_lazy(spec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessMode, MemoryKind};
    use cactid_tech::{CellTechnology, TechNode};

    fn l2_spec() -> MemorySpec {
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

    #[test]
    fn enumeration_is_nonempty_and_consistent() {
        let spec = l2_spec();
        let orgs = enumerate(&spec);
        assert!(!orgs.is_empty());
        for org in &orgs {
            let rows = org.rows(&spec);
            let cols = org.cols(&spec);
            assert!(rows >= MIN_ROWS && rows.is_power_of_two());
            assert!(cols >= MIN_COLS);
            // Capacity conservation: rows × cols × subarrays == bank bits.
            let bits = rows * cols * u64::from(org.ndwl) * u64::from(org.ndbl);
            assert_eq!(bits, spec.bank_bytes() * 8, "org {org:?}");
            // Mux factor matches stripe/output ratio.
            assert_eq!(
                org.mux_factor(),
                org.stripe_bits(&spec) / spec.output_bits()
            );
        }
    }

    #[test]
    fn dram_never_uses_bitline_mux() {
        let spec = MemorySpec::builder()
            .capacity_bytes(8 << 20)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(CellTechnology::LpDram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();
        for org in enumerate(&spec) {
            assert_eq!(org.deg_bl_mux, 1, "destructive readout forbids bl-mux");
        }
    }

    #[test]
    fn main_memory_stripe_is_the_page() {
        let spec = MemorySpec::builder()
            .capacity_bytes(1 << 30)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(TechNode::N78)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8192,
            })
            .build()
            .unwrap();
        let orgs = enumerate(&spec);
        assert!(!orgs.is_empty());
        for org in &orgs {
            assert_eq!(org.stripe_bits(&spec), 8192);
            assert_eq!(org.deg_bl_mux, 1);
            // Column select covers page/burst-output.
            assert_eq!(org.deg_sa_mux, (8192 / 64) as u32);
        }
    }

    #[test]
    fn distinct_candidates() {
        let spec = l2_spec();
        let orgs = enumerate(&spec);
        for (i, a) in orgs.iter().enumerate() {
            for b in orgs.iter().skip(i + 1) {
                assert!(a != b, "duplicate organization {a:?}");
            }
        }
    }

    #[test]
    fn lazy_enumeration_matches_the_historical_eager_sweep() {
        // The candidate count of the 1 MB L2 sweep was pinned while
        // `enumerate` was still an eager nested loop; the lazy iterator
        // must reproduce it exactly (the golden-metrics suite pins the
        // per-candidate values, this pins the enumeration itself).
        let spec = l2_spec();
        assert_eq!(enumerate_lazy(&spec).count(), 973);
        // First candidate of the historical order: smallest nspd that
        // passes the stripe screens, ndwl = ndbl = 1.
        let first = enumerate_lazy(&spec).next().unwrap();
        assert_eq!((first.ndwl, first.ndbl), (1, 1));
    }

    /// Regression for the `stripe_bits` truncation fix: an odd
    /// associativity with fractional `nspd` exercises the float product.
    /// `set_bits = 64·8·3 = 1536` and `nspd = 0.25` gives exactly 384 bits
    /// — the old `as u64` floor and the explicit rounding agree on every
    /// exact product, and every emitted org must conserve capacity.
    #[test]
    fn fractional_nspd_with_odd_associativity_is_exact() {
        let spec = MemorySpec::builder()
            .capacity_bytes(3 << 16) // 192 KB = 64 B × 3 ways × 1024 sets
            .block_bytes(64)
            .associativity(3)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();
        let quarter = OrgParams {
            ndwl: 1,
            ndbl: 1,
            nspd: 0.25,
            deg_bl_mux: 1,
            deg_sa_mux: 1,
        };
        assert_eq!(quarter.stripe_bits(&spec), 384, "no silent floor");
        let orgs = enumerate(&spec);
        assert!(!orgs.is_empty());
        for org in &orgs {
            let stripe = org.stripe_bits(&spec);
            // The stripe divides evenly across the wordline partitions …
            assert_eq!(stripe % u64::from(org.ndwl), 0, "org {org:?}");
            assert_eq!(org.cols(&spec) * u64::from(org.ndwl), stripe);
            // … and capacity is conserved bit for bit.
            let bits =
                org.rows(&spec) * org.cols(&spec) * u64::from(org.ndwl) * u64::from(org.ndbl);
            assert_eq!(bits, spec.bank_bytes() * 8, "org {org:?}");
        }
    }
}
