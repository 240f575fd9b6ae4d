//! Golden timing test for the page-mode DRAM L3 interface.
//!
//! Pins the tRCD / CAS / tRP decomposition of every row-buffer outcome so a
//! timing regression shows up as an exact cycle diff, not a drifting
//! average:
//!
//! * cold bank (no open row): activate + column        → tRCD + CAS
//! * open-row hit:            column only              → CAS
//! * row conflict:            precharge + activate + column → tRP + tRCD + CAS

use memsim::config::{CacheConfig, L3Config, L3Interface, L3PageTiming, SetMapping};
use memsim::l3::L3;

const T_RCD: u64 = 8;
const T_CAS: u64 = 6;
const T_RP: u64 = 7;

fn page_mode_cfg() -> L3Config {
    L3Config {
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
        set_mapping: SetMapping::SetsPerPage,
        interface: L3Interface::PageMode,
        page_timing: Some(L3PageTiming {
            t_rcd: T_RCD,
            t_cas: T_CAS,
            t_rp: T_RP,
        }),
    }
}

/// Address of the n-th consecutive line that maps to bank 0 (lines are
/// interleaved across the 8 banks at line granularity).
fn bank0_line(n: u64) -> u64 {
    n * 8 * 64
}

#[test]
fn cold_access_pays_activate_plus_column() {
    let mut l3 = L3::try_new(page_mode_cfg()).unwrap();
    let (done, page_hit) = l3.reserve_detailed(bank0_line(0), 1_000);
    assert!(!page_hit, "first touch cannot hit an open row");
    assert_eq!(done, 1_000 + T_RCD + T_CAS);
}

#[test]
fn open_row_hit_pays_column_only() {
    let mut l3 = L3::try_new(page_mode_cfg()).unwrap();
    let (a, _) = l3.reserve_detailed(bank0_line(0), 1_000);
    // Consecutive sets share a page under SetsPerPage (Figure 3(a)), so the
    // next line in the same bank lands in the same open row.
    let (b, hit) = l3.reserve_detailed(bank0_line(1), a);
    assert!(hit, "consecutive set must be an open-row hit");
    assert_eq!(b, a + T_CAS, "open-row hit pays exactly CAS");
}

#[test]
fn row_conflict_pays_precharge_activate_column() {
    let cfg = page_mode_cfg();
    let sets = cfg.bank.sets();
    let sets_per_subbank = sets / u64::from(cfg.bank.n_subbanks);
    let mut l3 = L3::try_new(cfg).unwrap();
    let (a, _) = l3.reserve_detailed(bank0_line(0), 1_000);
    // A line one full subbank-row-group further up wraps back to the same
    // subbank (way aliasing) with a different row id: a row conflict.
    let conflict_line = bank0_line(sets_per_subbank * sets);
    let (c, hit) = l3.reserve_detailed(conflict_line, a);
    assert!(!hit);
    assert_eq!(
        c,
        a + T_RP + T_RCD + T_CAS,
        "conflict pays precharge + activate + column"
    );
}

#[test]
fn hit_miss_sequence_matches_golden_schedule() {
    // One deterministic interleaving exercising all three outcomes
    // back-to-back on a single subbank, with the exact completion cycle of
    // every step pinned.
    let cfg = page_mode_cfg();
    let sets = cfg.bank.sets();
    let sets_per_subbank = sets / u64::from(cfg.bank.n_subbanks);
    let conflict_stride = sets_per_subbank * sets;
    let mut l3 = L3::try_new(cfg).unwrap();

    let mut now = 10_000;
    // (line index, expected page_hit, expected incremental latency)
    let steps = [
        (0, false, T_RCD + T_CAS), // subbank 0 cold: activate + column
        (sets_per_subbank, false, T_RCD + T_CAS), // subbank 1, cold
        (0, true, T_CAS),          // subbank 0 row 0 still open: hit
        (conflict_stride, false, T_RP + T_RCD + T_CAS), // conflict
        (conflict_stride, true, T_CAS), // new row now open: hit
        (0, false, T_RP + T_RCD + T_CAS), // conflict back to row 0
    ];
    for (i, (line, want_hit, want_lat)) in steps.into_iter().enumerate() {
        let (done, hit) = l3.reserve_detailed(bank0_line(line), now);
        assert_eq!(hit, want_hit, "step {i} hit/miss");
        assert_eq!(done, now + want_lat, "step {i} latency decomposition");
        now = done;
    }
}

#[test]
fn page_mode_l3_counts_row_hits() {
    // The row-buffer outcome must reach `SimStats`: a page-mode L3 scores
    // row hits under streaming traffic, and the SRAM-like interface
    // (which has no open row) scores none.
    use memsim::trace::StridedSource;
    use memsim::{Simulator, SystemConfig};
    for interface in [L3Interface::SramLike, L3Interface::PageMode] {
        let mut cfg = SystemConfig::with_sram_l3();
        if let Some(l3) = cfg.l3.as_mut() {
            l3.interface = interface;
            l3.page_timing = Some(L3PageTiming {
                t_rcd: T_RCD,
                t_cas: T_CAS,
                t_rp: T_RP,
            });
        }
        let trace = StridedSource::with_seed(cfg.n_threads(), 0.4, 4 << 20, 3);
        let stats = Simulator::try_new(cfg, trace).unwrap().run(40_000);
        let c = &stats.counts;
        assert!(c.l3_reads > 0, "{interface:?}: no L3 traffic");
        match interface {
            L3Interface::SramLike => assert_eq!(c.l3_page_hits, 0),
            L3Interface::PageMode => assert!(c.l3_page_hits > 0, "no row hits"),
        }
    }
}
