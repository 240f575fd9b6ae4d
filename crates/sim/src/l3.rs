//! Banked shared L3 with multisubbank-interleaved timing and the cache-set
//! ↔ DRAM-page mappings of paper Figure 3.

use crate::cache::{Eviction, LineState, SetAssocCache, Slot};
use crate::config::{ConfigError, L3Config, L3Interface, L3PageTiming, SetMapping};

/// The operational interface with its timing resolved at construction, so
/// the per-access path never has to unwrap `page_timing`.
#[derive(Debug, Clone, Copy)]
enum Interface {
    SramLike,
    PageMode(L3PageTiming),
}

/// An L3 bank's tag array. A bank takes 2-byte slots when their reach,
/// `2^(14 + log2 sets + log2 line bytes + log2 banks)`, covers
/// [`PHYS_ADDR_BITS`]: every L3 of the study and of
/// `SystemConfig::many_core(n)` from 4 cores up. Smaller L3s keep 4-byte
/// slots.
#[derive(Debug)]
enum BankTags {
    Narrow(SetAssocCache<u16>),
    Wide(SetAssocCache<u32>),
}

/// Address bits every L3 holds with either slot width: the simulated
/// 16 GiB of physical memory, which `npbgen`'s layout fills to 15 GiB +
/// 4 MiB.
const PHYS_ADDR_BITS: u32 = 34;

/// `$body` on `$tags`'s array, whatever its slot width.
macro_rules! on_tags {
    ($tags:expr, $t:ident => $body:expr) => {
        match $tags {
            BankTags::Narrow($t) => $body,
            BankTags::Wide($t) => $body,
        }
    };
}

/// One L3 bank: a tag array plus its timing reservation state.
#[derive(Debug)]
struct L3Bank {
    /// Tag/state array of this bank.
    tags: BankTags,
    /// Per-subbank next-free cycle (random cycle time granularity).
    subbank_ready: Vec<u64>,
    /// Bank port next-free cycle (interleave cycle granularity).
    port_ready: u64,
    /// Open row per subbank (page-mode interface only).
    open_row: Vec<Option<u64>>,
}

/// The shared last-level cache.
#[derive(Debug)]
pub struct L3 {
    cfg: L3Config,
    iface: Interface,
    banks: Vec<L3Bank>,
    /// Address-split shifts, precomputed from the validated power-of-two
    /// geometry so the per-access path never divides.
    geo: Geometry,
}

/// `log2` shifts of the L3's power-of-two geometry.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// `log2(line bytes)`.
    line_shift: u32,
    /// `log2(n_banks)`.
    bank_shift: u32,
    /// `log2(sets per bank)`.
    set_shift: u32,
    /// `log2(n_subbanks)`.
    sub_shift: u32,
    /// `log2(max(sets / n_subbanks, 1))`: bank-local line → page-mode row.
    row_shift: u32,
}

impl Geometry {
    fn of(cfg: &L3Config) -> Geometry {
        let sets = cfg.bank.sets();
        let subs = u64::from(cfg.bank.n_subbanks);
        Geometry {
            line_shift: cfg.bank.line_bytes.trailing_zeros(),
            bank_shift: cfg.n_banks.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            sub_shift: subs.trailing_zeros(),
            row_shift: (sets / subs).max(1).trailing_zeros(),
        }
    }
}

impl L3 {
    /// Builds an idle L3 from its configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::PageModeWithoutTiming`] when `cfg` selects the
    /// page-mode interface without supplying [`L3PageTiming`]
    /// (see [`L3Config::validate`]).
    pub fn try_new(cfg: L3Config) -> Result<L3, ConfigError> {
        cfg.validate()?;
        let iface = match cfg.interface {
            L3Interface::SramLike => Interface::SramLike,
            L3Interface::PageMode => {
                Interface::PageMode(cfg.page_timing.ok_or(ConfigError::PageModeWithoutTiming)?)
            }
        };
        let geo = Geometry::of(&cfg);
        // The address bits 2-byte slots reach.
        let reach = u16::TAG_BITS + geo.set_shift + geo.line_shift + geo.bank_shift;
        let b = &cfg.bank;
        let (cap, line, ways) = (b.capacity_bytes, b.line_bytes, b.associativity);
        let banks = (0..cfg.n_banks)
            .map(|_| L3Bank {
                tags: if reach >= PHYS_ADDR_BITS {
                    BankTags::Narrow(SetAssocCache::new(cap, line, ways, 1))
                } else {
                    BankTags::Wide(SetAssocCache::new(cap, line, ways, 1))
                },
                subbank_ready: vec![0; cfg.bank.n_subbanks as usize],
                port_ready: 0,
                open_row: vec![None; cfg.bank.n_subbanks as usize],
            })
            .collect();
        Ok(L3 {
            banks,
            iface,
            geo,
            cfg,
        })
    }

    /// Builds an idle L3 from its configuration.
    ///
    /// # Panics
    ///
    /// On an invalid configuration; use [`L3::try_new`] to get the typed
    /// [`ConfigError`] instead.
    pub fn new(cfg: L3Config) -> L3 {
        L3::try_new(cfg).unwrap_or_else(|e| panic!("invalid L3 configuration: {e}"))
    }

    /// The configuration this L3 was built from.
    pub fn config(&self) -> &L3Config {
        &self.cfg
    }

    /// Bank an address maps to (line-interleaved, as the study's 8 L3 banks
    /// are line-interleaved across the crossbar).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> self.geo.line_shift) & ((1 << self.geo.bank_shift) - 1)) as usize
    }

    /// Subbank a set maps to under the configured set↔page mapping
    /// (Figure 3): consecutive sets share a page/subbank under
    /// [`SetMapping::SetsPerPage`]; they spread round-robin under
    /// [`SetMapping::StripedWays`].
    pub fn subbank_of(&self, set: u64) -> usize {
        // set × n_subbanks / sets and set mod n_subbanks, with both
        // counts powers of two.
        match self.cfg.set_mapping {
            SetMapping::SetsPerPage => ((set << self.geo.sub_shift) >> self.geo.set_shift) as usize,
            SetMapping::StripedWays => (set & ((1 << self.geo.sub_shift) - 1)) as usize,
        }
    }

    /// Bank-local address: lines are interleaved across banks, so each
    /// bank indexes its sets with the line address *divided by* the bank
    /// count (otherwise only 1/n_banks of the sets would ever be used).
    fn local_addr(&self, addr: u64) -> u64 {
        let Geometry {
            line_shift,
            bank_shift,
            ..
        } = self.geo;
        (addr >> line_shift >> bank_shift) << line_shift | addr & ((1 << line_shift) - 1)
    }

    /// Maps a bank-local line address back to the global address space.
    fn global_addr(&self, local: u64, bank: usize) -> u64 {
        let Geometry {
            line_shift,
            bank_shift,
            ..
        } = self.geo;
        ((local >> line_shift) << bank_shift | bank as u64) << line_shift
    }

    /// Looks up `addr` in its bank (refreshes LRU).
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let bank = self.bank_of(addr);
        let local = self.local_addr(addr);
        on_tags!(&mut self.banks[bank].tags, t => t.lookup(0, local, false))
    }

    /// Inserts `addr` in `state`; any eviction is reported with its
    /// *global* address.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        let bank = self.bank_of(addr);
        let local = self.local_addr(addr);
        let ev = on_tags!(&mut self.banks[bank].tags, t => t.insert(0, local, state));
        self.global_eviction(ev, bank)
    }

    /// [`L3::insert`] of a line [`L3::lookup`] has just missed on: its
    /// set is not searched again.
    pub fn fill(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        let bank = self.bank_of(addr);
        let local = self.local_addr(addr);
        let ev = on_tags!(&mut self.banks[bank].tags, t => t.fill(0, local, state));
        self.global_eviction(ev, bank)
    }

    /// `bank`'s eviction, at its global address.
    fn global_eviction(&self, ev: Option<Eviction>, bank: usize) -> Option<Eviction> {
        ev.map(|ev| Eviction {
            addr: self.global_addr(ev.addr, bank),
            state: ev.state,
        })
    }

    /// Reserves the timing resources for one access to `addr` starting no
    /// earlier than `now`; returns `(data_available_cycle, page_hit)`.
    /// `page_hit` is always `false` for the SRAM-like interface.
    pub fn reserve_detailed(&mut self, addr: u64, now: u64) -> (u64, bool) {
        let bank_idx = self.bank_of(addr);
        let local = self.local_addr(addr);
        let set = on_tags!(&self.banks[bank_idx].tags, t => t.set_index(local));
        let sub = self.subbank_of(set);
        match self.iface {
            Interface::SramLike => {
                let bank = &mut self.banks[bank_idx];
                // Bank port accepts a new access every interleave cycle…
                let start = now.max(bank.port_ready);
                bank.port_ready = start + self.cfg.bank.interleave_cycles;
                // …but the same subbank recovers only after a full random
                // cycle.
                let start = start.max(bank.subbank_ready[sub]);
                bank.subbank_ready[sub] = start + self.cfg.bank.cycle_cycles;
                (start + self.cfg.bank.access_cycles, false)
            }
            Interface::PageMode(pt) => {
                // Main-memory-like operation: a row (page) per subbank can
                // stay open; hits pay only the column access, misses pay
                // precharge + activate + column.
                // One DRAM row covers the lines the set↔page mapping groups
                // together; within a subbank the row is identified by the
                // set-group plus the way bits above it.
                let row = local >> self.geo.line_shift >> self.geo.row_shift;
                let bank = &mut self.banks[bank_idx];
                let start = now.max(bank.port_ready);
                bank.port_ready = start + self.cfg.bank.interleave_cycles;
                let start = start.max(bank.subbank_ready[sub]);
                let (done, hit) = if bank.open_row[sub] == Some(row) {
                    (start + pt.t_cas, true)
                } else {
                    let t = if bank.open_row[sub].is_some() {
                        pt.t_rp + pt.t_rcd + pt.t_cas
                    } else {
                        pt.t_rcd + pt.t_cas
                    };
                    bank.open_row[sub] = Some(row);
                    (start + t, false)
                };
                bank.subbank_ready[sub] = done;
                (done, hit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, SystemConfig};

    fn dram_l3(mapping: SetMapping) -> L3 {
        L3::new(L3Config {
            bank: CacheConfig {
                capacity_bytes: 12 << 20,
                line_bytes: 64,
                associativity: 12,
                access_cycles: 16,
                cycle_cycles: 5,
                interleave_cycles: 1,
                n_subbanks: 64,
            },
            n_banks: 8,
            xbar_cycles: 2,
            is_dram: true,
            set_mapping: mapping,
            interface: L3Interface::SramLike,
            page_timing: None,
        })
    }

    fn page_mode_l3(mapping: SetMapping) -> L3 {
        let mut cfg = dram_l3(mapping).cfg;
        cfg.interface = L3Interface::PageMode;
        cfg.page_timing = Some(crate::config::L3PageTiming {
            t_rcd: 8,
            t_cas: 6,
            t_rp: 7,
        });
        L3::new(cfg)
    }

    #[test]
    fn line_interleaving_across_banks() {
        let l3 = dram_l3(SetMapping::SetsPerPage);
        assert_eq!(l3.bank_of(0), 0);
        assert_eq!(l3.bank_of(64), 1);
        assert_eq!(l3.bank_of(64 * 8), 0);
    }

    #[test]
    fn interleaved_accesses_beat_random_cycle() {
        let mut l3 = dram_l3(SetMapping::StripedWays);
        // Two back-to-back accesses to *different* subbanks of bank 0.
        let a = l3.reserve_detailed(0, 100).0;
        let b = l3.reserve_detailed(8 * 64, 100).0; // next set, different subbank
        assert_eq!(a, 100 + 16);
        assert_eq!(b, 101 + 16, "initiation limited by interleave only");
        // Same subbank: limited by the random cycle time.
        let c = l3.reserve_detailed(0, 100).0;
        assert!(c >= 100 + 5 + 16);
    }

    #[test]
    fn mappings_spread_sets_differently() {
        let striped = dram_l3(SetMapping::StripedWays);
        let paged = dram_l3(SetMapping::SetsPerPage);
        // Consecutive sets: striped → different subbanks, paged → same.
        assert_ne!(striped.subbank_of(0), striped.subbank_of(1));
        assert_eq!(paged.subbank_of(0), paged.subbank_of(1));
        // Both cover the full subbank range.
        let sets = paged.config().bank.sets();
        assert_eq!(paged.subbank_of(sets - 1), 63);
        assert_eq!(striped.subbank_of(63), 63);
    }

    #[test]
    fn page_mode_rows_hit_and_conflict() {
        let mut l3 = page_mode_l3(SetMapping::SetsPerPage);
        // First touch: activate + column.
        let (a, hit_a) = l3.reserve_detailed(0, 100);
        assert!(!hit_a);
        assert_eq!(a, 100 + 8 + 6);
        // Same row (consecutive set under SetsPerPage): open-row hit.
        let next_set_addr = 8 * 64; // next line in bank 0
        let (b, hit_b) = l3.reserve_detailed(next_set_addr, a);
        assert!(hit_b, "consecutive sets share a page under Fig 3(a)");
        assert_eq!(b, a + 6);
        // A far-away row in the same subbank: precharge + activate.
        let sets = l3.config().bank.sets();
        let sets_per_sub = sets / 64;
        let far = 8 * 64 * sets_per_sub * 40; // same subbank? pick stride past the row
        let (c, hit_c) = l3.reserve_detailed(far, b);
        assert!(!hit_c);
        assert!(c >= b);
    }

    #[test]
    fn sram_like_interface_never_reports_page_hits() {
        let mut l3 = dram_l3(SetMapping::SetsPerPage);
        for i in 0..20u64 {
            let (_, hit) = l3.reserve_detailed(i * 64 * 8, 100 + i);
            assert!(!hit);
        }
    }

    #[test]
    fn bank_local_indexing_uses_every_set() {
        // Regression: with global line addresses, a bank only ever saw
        // lines ≡ bank (mod n_banks), so 7/8 of its sets stayed empty and
        // the effective capacity was 1/8th.
        let mut l3 = dram_l3(SetMapping::StripedWays);
        // Insert enough consecutive lines to fill 1/4 of total capacity.
        let lines = (12u64 << 20) * 8 / 64 / 4;
        for i in 0..lines {
            l3.insert(i * 64, LineState::Shared);
        }
        for b in 0..8 {
            let valid = on_tags!(&l3.banks[b].tags, t => t.valid_lines()) as u64;
            assert_eq!(valid, lines / 8, "bank {b} holds all its share");
        }
        // And every line is still found.
        for i in 0..lines {
            assert!(l3.lookup(i * 64).is_some(), "line {i} lost");
        }
    }

    #[test]
    fn eviction_reports_global_addresses() {
        let mut l3 = dram_l3(SetMapping::StripedWays);
        // Overfill one set of bank 0: stride = sets × banks × line.
        let sets = l3.config().bank.sets();
        let stride = sets * 8 * 64;
        for w in 0..13u64 {
            // 12-way: the 13th insert evicts.
            let ev = l3.insert(w * stride, LineState::Shared);
            if w < 12 {
                assert!(ev.is_none());
            } else {
                let ev = ev.expect("full set evicts");
                assert_eq!(ev.addr % stride, 0, "global address restored");
                assert_eq!(l3.bank_of(ev.addr), 0);
            }
        }
    }

    #[test]
    fn page_mode_without_timing_is_a_config_error_not_a_panic() {
        // Regression: this configuration used to build fine and then panic
        // on the first access inside reserve_detailed.
        let mut cfg = dram_l3(SetMapping::SetsPerPage).cfg;
        cfg.interface = L3Interface::PageMode;
        cfg.page_timing = None;
        assert_eq!(cfg.validate(), Err(ConfigError::PageModeWithoutTiming));
        assert_eq!(
            L3::try_new(cfg).err(),
            Some(ConfigError::PageModeWithoutTiming)
        );
    }

    #[test]
    fn config_error_display_names_the_fix() {
        let msg = ConfigError::PageModeWithoutTiming.to_string();
        assert!(msg.contains("page_timing"));
        assert!(msg.contains("SRAM-like"));
    }

    #[test]
    fn sram_baseline_config_reserves_quickly() {
        let cfg = SystemConfig::with_sram_l3();
        let mut l3 = L3::new(cfg.l3.unwrap());
        let t = l3.reserve_detailed(0x1234_0000, 50).0;
        assert_eq!(t, 50 + 5);
    }
}
