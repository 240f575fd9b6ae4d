//! Integration tests for the sharded epoch-synchronized simulator:
//! pinned statistics digests (the determinism contract), per-core trace
//! streams, protocol selection, and synchronization across cores.

use memsim::config::{L3Interface, L3PageTiming};
use memsim::record::Recorder;
use memsim::trace::{Instr, StridedSource, TraceSource};
use memsim::{
    CoherenceProtocol, ConfigError, ShardedSimulator, SimStats, Simulator, StallKind, SystemConfig,
};

/// The pinned digests below were taken from an engine that ticked every
/// thread before each issue scan and kept full 256-bit sharer sets in
/// every directory entry: the readiness test and the split directory
/// must reproduce them bit for bit.
const PINNED: &str = "statistics changed from the pinned digest";

fn run_sharded<T: TraceSource + Clone>(
    cfg: &SystemConfig,
    trace: T,
    instructions: u64,
) -> SimStats {
    let mut sim = ShardedSimulator::try_new(cfg.clone(), trace).unwrap();
    sim.run(instructions)
}

#[test]
fn sixteen_core_stats_are_pinned() {
    // The headline determinism contract: a 16-core run reproduces its
    // pinned SimStats digest bit for bit.
    let cfg = SystemConfig::many_core(16);
    let trace = StridedSource::with_seed(cfg.n_threads(), 0.3, 256 << 10, 42);
    let s = run_sharded(&cfg, trace, 30_000);
    assert_eq!(s.digest(), 0x4196_c0ec_485c_d179, "{PINNED}");
    assert!(s.instructions >= 30_000);
    assert!(s.counts.mem_reads > 0, "workload must reach memory");
}

#[test]
fn eight_core_stats_are_pinned() {
    let cfg = SystemConfig::with_sram_l3();
    let trace = StridedSource::with_seed(cfg.n_threads(), 0.4, 64 << 10, 7);
    let s = run_sharded(&cfg, trace, 20_000);
    assert_eq!(s.digest(), 0xed4f_5e13_0c39_5496, "{PINNED}");
}

#[test]
fn no_l3_stats_are_pinned() {
    // Without an L3 every miss goes to memory, and every dirty line a
    // remote read downgrades is written straight to DRAM.
    let cfg = SystemConfig::baseline_no_l3();
    let s = run_sharded(&cfg, SharedTrace::new(cfg.n_threads()), 20_000);
    assert!(s.counts.mem_reads > 0 && s.counts.mem_writes > 0);
    assert_eq!(s.digest(), 0x9fcd_40a1_bed0_7c2d, "{PINNED}");
}

#[test]
fn page_mode_l3_stats_are_pinned() {
    let mut cfg = SystemConfig::with_sram_l3();
    if let Some(l3) = cfg.l3.as_mut() {
        l3.interface = L3Interface::PageMode;
        l3.page_timing = Some(L3PageTiming {
            t_rcd: 8,
            t_cas: 6,
            t_rp: 7,
        });
    }
    let trace = StridedSource::with_seed(cfg.n_threads(), 0.4, 4 << 20, 3);
    let s = run_sharded(&cfg, trace, 40_000);
    assert!(s.counts.l3_page_hits > 0, "no open-row hit");
    assert_eq!(s.digest(), 0xc780_26c2_320f_f2dc, "{PINNED}");
}

#[test]
fn each_core_polls_only_its_own_threads() {
    // Per-core rng streams: each actor clones the Recorder, so core c's
    // clone captures exactly the streams of core c's threads, and each
    // captured stream is the one a fresh source yields for that thread.
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let tpc = n / 16;
    let mk = || StridedSource::with_seed(n, 0.3, 64 << 10, 9);
    let mut sim = ShardedSimulator::try_new(cfg.clone(), Recorder::new(mk(), n)).unwrap();
    sim.run(20_000);
    let recs = sim.into_trace_sources();
    assert_eq!(recs.len(), 16);
    let mut fresh = mk();
    let mut compared = 0usize;
    for (core, rec) in recs.iter().enumerate() {
        let mut replay = rec.clone().into_trace();
        for tid in 0..n {
            let len = rec.recorded(tid);
            if tid / tpc != core {
                assert_eq!(len, 0, "core {core} polled foreign tid {tid}");
                continue;
            }
            for i in 0..len {
                assert_eq!(
                    replay.next(tid),
                    fresh.next(tid),
                    "instruction {i} diverged for tid {tid}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 10_000, "compared only {compared} instructions");
}

/// All threads hammer a small shared region — maximal cross-core
/// coherence traffic. Per-thread state only, so clones replay each
/// thread's stream identically regardless of sharding.
#[derive(Clone)]
struct SharedTrace {
    state: Vec<u64>,
}

impl SharedTrace {
    fn new(n_threads: usize) -> SharedTrace {
        SharedTrace {
            state: (0..n_threads as u64)
                .map(|t| memsim::rng::splitmix64(t ^ 0xD1A6_0000) | 1)
                .collect(),
        }
    }
}

impl TraceSource for SharedTrace {
    fn next(&mut self, tid: usize) -> Instr {
        let s = &mut self.state[tid];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        let r = *s;
        let addr = ((r >> 8) % (8 << 10)) & !63;
        match r % 4 {
            0 => Instr::Store(addr),
            1 => Instr::Load(addr),
            _ => Instr::Fp,
        }
    }
}

#[test]
fn dragon_updates_where_mesi_invalidates() {
    // Protocol smoke: the same sharing-heavy workload drives write-update
    // traffic under Dragon and write-invalidate traffic under MESI.
    let mut mesi = SystemConfig::many_core(16);
    mesi.protocol = CoherenceProtocol::Mesi;
    let mut dragon = SystemConfig::many_core(16);
    dragon.protocol = CoherenceProtocol::Dragon;
    let n = mesi.n_threads();

    let mut sim_m = ShardedSimulator::try_new(mesi, SharedTrace::new(n)).unwrap();
    sim_m.run(20_000);
    assert!(sim_m.info().invalidations > 0, "MESI must invalidate");
    assert_eq!(sim_m.info().updates, 0, "MESI must never update in place");

    let mut sim_d = ShardedSimulator::try_new(dragon, SharedTrace::new(n)).unwrap();
    sim_d.run(20_000);
    assert!(sim_d.info().updates > 0, "Dragon must push updates");
    assert_eq!(sim_d.info().invalidations, 0, "Dragon must not invalidate");
}

#[test]
fn dragon_stats_are_pinned() {
    let mut cfg = SystemConfig::many_core(16);
    cfg.protocol = CoherenceProtocol::Dragon;
    let n = cfg.n_threads();
    let s = run_sharded(&cfg, SharedTrace::new(n), 15_000);
    assert_eq!(s.digest(), 0xfd5f_5f21_ec55_9e74, "{PINNED}");
}

#[test]
fn serial_engine_rejects_dragon_sharded_accepts_it() {
    let mut cfg = SystemConfig::with_sram_l3();
    cfg.protocol = CoherenceProtocol::Dragon;
    let n = cfg.n_threads();
    let err = Simulator::try_new(cfg.clone(), StridedSource::new(n, 0.3, 1 << 20)).err();
    assert_eq!(err, Some(ConfigError::ProtocolNeedsShardedEngine));
    assert!(ShardedSimulator::try_new(cfg, StridedSource::new(n, 0.3, 1 << 20)).is_ok());
}

#[test]
fn sharded_tracks_the_serial_reference_on_compute_only_work() {
    // With no memory operations there is no cross-shard traffic at all:
    // phase A is cycle-for-cycle the serial engine's issue logic, so IPC
    // must land within a whisker of the reference (stopping granularity —
    // epoch boundary vs. cycle — accounts for the slack).
    let cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let mut legacy = Simulator::new(cfg.clone(), StridedSource::new(n, 0.0, 1 << 20));
    let ref_stats = legacy.run(100_000);
    let stats = run_sharded(&cfg, StridedSource::new(n, 0.0, 1 << 20), 100_000);
    assert_eq!(stats.counts.mem_reads, 0);
    let (a, b) = (stats.ipc(), ref_stats.ipc());
    assert!(
        (a - b).abs() / b < 0.05,
        "sharded ipc {a} vs serial ipc {b}"
    );
}

/// Every thread hits the global barrier every 40 instructions.
#[derive(Clone)]
struct BarrierEvery(Vec<u64>);

impl TraceSource for BarrierEvery {
    fn next(&mut self, tid: usize) -> Instr {
        self.0[tid] += 1;
        if self.0[tid].is_multiple_of(40) {
            Instr::Barrier
        } else {
            Instr::Fp
        }
    }
}

#[test]
fn barriers_synchronize_across_shards() {
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let s = run_sharded(&cfg, BarrierEvery(vec![0; n]), 20_000);
    assert!(s.attributed(StallKind::Barrier) > 0);
    assert!(s.instructions >= 20_000);
    assert_eq!(s.digest(), 0x71cd_6dcf_0fa7_40d0, "{PINNED}");
}

/// Threads take a global lock, hold it for a few instructions, release.
#[derive(Clone)]
struct LockLoop(Vec<u64>);

impl TraceSource for LockLoop {
    fn next(&mut self, tid: usize) -> Instr {
        self.0[tid] += 1;
        match self.0[tid] % 16 {
            1 => Instr::Lock(0),
            5 => Instr::Unlock(0),
            _ => Instr::Other,
        }
    }
}

#[test]
fn locks_serialize_across_shards() {
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let s = run_sharded(&cfg, LockLoop(vec![0; n]), 10_000);
    assert!(s.attributed(StallKind::Lock) > 0);
    assert_eq!(s.digest(), 0xdaac_5e41_9044_b512, "{PINNED}");
}

#[test]
fn many_core_configs_run_at_scale() {
    // 64 cores (256 threads), briefly: the engine holds up at the scale
    // the config constructor targets.
    let cfg = SystemConfig::many_core(64);
    let n = cfg.n_threads();
    let trace = StridedSource::with_seed(n, 0.2, 32 << 10, 3);
    let mut sim = ShardedSimulator::try_new(cfg, trace).unwrap();
    let stats = sim.run(50_000);
    assert!(stats.instructions >= 50_000);
    assert!(sim.info().epochs > 0);
    assert!(sim.info().messages > 0);
    assert_eq!(stats.digest(), 0xd33e_0d1e_fb2d_74a3, "{PINNED}");
}

#[test]
fn sharers_beyond_core_63_are_tracked_at_full_scale() {
    // 128 and 256 cores hammering one small shared region: most sharer
    // sets span cores past the first 64, under both protocols.
    let pins = [
        (128, CoherenceProtocol::Mesi, 0xe4b5_e2e6_9f79_7469),
        (128, CoherenceProtocol::Dragon, 0x78ca_35fd_6c6f_51d7),
        (256, CoherenceProtocol::Mesi, 0xc85d_ce77_3400_03e8),
        (256, CoherenceProtocol::Dragon, 0x4cc2_c22a_7ffc_8b26),
    ];
    for (cores, protocol, digest) in pins {
        let mut cfg = SystemConfig::many_core(cores);
        cfg.protocol = protocol;
        let n = cfg.n_threads();
        let stats = run_sharded(&cfg, SharedTrace::new(n), 20_000);
        assert!(stats.instructions >= 20_000);
        assert_eq!(
            stats.digest(),
            digest,
            "{cores} cores {protocol:?}: {PINNED}"
        );
    }
}
