//! Integration tests for the simulator engine under Epoch timing
//! (`ShardedSimulator`) and Issue timing (`Simulator`): pinned statistics
//! digests (the determinism contract), per-thread trace streams, protocol
//! selection, and synchronization across cores.

use memsim::config::{L3Interface, L3PageTiming};
use memsim::record::Recorder;
use memsim::trace::{Instr, StridedSource, TraceSource};
use memsim::{CoherenceProtocol, ShardedSimulator, SimStats, Simulator, StallKind, SystemConfig};

/// The pinned digests below were taken from an engine that ticked every
/// thread before each issue scan and kept full 256-bit sharer sets in
/// every directory entry: the readiness test and the split directory
/// must reproduce them bit for bit.
const PINNED: &str = "statistics changed from the pinned digest";

fn run_sharded<T: TraceSource>(cfg: &SystemConfig, trace: T, instructions: u64) -> SimStats {
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
fn every_thread_sees_its_own_stream() {
    // One trace serves every core: each window polls it for its own
    // threads only, so each captured stream is the one a fresh source
    // yields for that thread, whatever order the cores polled in.
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let mk = || StridedSource::with_seed(n, 0.3, 64 << 10, 9);
    let mut sim = ShardedSimulator::try_new(cfg.clone(), Recorder::new(mk(), n)).unwrap();
    sim.run(20_000);
    let rec = sim.into_trace_source();
    let mut replay = rec.clone().into_trace();
    let mut fresh = mk();
    let mut compared = 0usize;
    for tid in 0..n {
        for i in 0..rec.recorded(tid) {
            assert_eq!(
                replay.next(tid),
                fresh.next(tid),
                "instruction {i} diverged for tid {tid}"
            );
            compared += 1;
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
fn both_engines_accept_dragon() {
    // Issue timing runs Dragon through the same protocol branches as
    // Epoch timing: a shared-store trace diverges from its MESI run. The
    // MESI digest is the one the serial loop produced before the engines
    // shared an issue stage.
    let mut cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let mesi = Simulator::new(cfg.clone(), SharedTrace::new(n)).run(50_000);
    cfg.protocol = CoherenceProtocol::Dragon;
    assert!(ShardedSimulator::try_new(cfg.clone(), StridedSource::new(n, 0.3, 1 << 20)).is_ok());
    let dragon = Simulator::try_new(cfg, SharedTrace::new(n))
        .unwrap()
        .run(50_000);
    assert_ne!(mesi.digest(), dragon.digest());
    assert_eq!(mesi.digest(), 0xc2ad_2c11_5257_4c4e, "{PINNED}");
    assert_eq!(dragon.digest(), 0xd874_d1c2_61cf_28ff, "{PINNED}");
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

/// Thread 0 takes lock 0, runs three more instructions and parks at the
/// barrier; every other thread queues on lock 0 after a short prologue,
/// so the barrier can never fill and the lock is never released.
struct LockedBarrier(Vec<u64>);

impl TraceSource for LockedBarrier {
    fn next(&mut self, tid: usize) -> Instr {
        let i = self.0[tid];
        self.0[tid] += 1;
        let prologue = (tid % 3) as u64;
        match (tid, i) {
            (0, 0) => Instr::Lock(0),
            (0, 1..=3) => Instr::Other,
            (0, _) => Instr::Barrier,
            (_, i) if i < prologue => Instr::Fp,
            (_, i) if i == prologue => Instr::Lock(0),
            _ => Instr::Unlock(0),
        }
    }
}

#[test]
fn synchronization_deadlock_stops_both_engines() {
    // Every thread parks, so nothing will ever wake: `run` stops long
    // before the cycle cap instead of spinning to it, and a second `run`
    // returns at once under either timing.
    let cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let mut issue = Simulator::new(cfg.clone(), LockedBarrier(vec![0; n]));
    let first = issue.run(10_000);
    assert_eq!(first.instructions, 67);
    assert_eq!(
        (issue.cycle(), first.digest()),
        (16, 0xe5e2_42ad_5c43_6783),
        "{PINNED}"
    );
    let again = issue.run(10_000);
    assert_eq!(
        (issue.cycle(), again.digest()),
        (16, 0xe5e2_42ad_5c43_6783),
        "{PINNED}"
    );

    let mut epoch = ShardedSimulator::try_new(cfg, LockedBarrier(vec![0; n])).unwrap();
    let first = epoch.run(10_000);
    assert_eq!(first.instructions, 67);
    assert_eq!(
        (epoch.cycle(), first.digest()),
        (31, 0x5d42_c2c1_6ef0_2119),
        "{PINNED}"
    );
    let again = epoch.run(10_000);
    assert_eq!(
        (epoch.cycle(), again.digest()),
        (31, 0x5d42_c2c1_6ef0_2119),
        "{PINNED}"
    );
}
