//! Integration tests for the simulator engine on the 8- to 256-core
//! configurations: pinned statistics digests (the determinism contract),
//! per-thread trace streams, protocol selection, and synchronization
//! across cores.

use memsim::config::{L3Interface, L3PageTiming};
use memsim::record::Recorder;
use memsim::trace::{Instr, StridedSource, TraceSource};
use memsim::{CoherenceProtocol, ShardedSimulator, SimStats, Simulator, StallKind, SystemConfig};

/// The pinned digests below were taken from the engine before its
/// epoch-edge timing was deleted, running each effect at its issuing
/// cycle as it does now.
const PINNED: &str = "statistics changed from the pinned digest";

fn run<T: TraceSource>(cfg: &SystemConfig, trace: T, instructions: u64) -> SimStats {
    Simulator::try_new(cfg.clone(), trace)
        .unwrap()
        .run(instructions)
}

#[test]
fn sixteen_core_stats_are_pinned() {
    // The headline determinism contract: a 16-core run reproduces its
    // pinned SimStats digest bit for bit.
    let cfg = SystemConfig::many_core(16);
    let trace = StridedSource::with_seed(cfg.n_threads(), 0.3, 256 << 10, 42);
    let s = run(&cfg, trace, 30_000);
    assert_eq!(s.digest(), 0x40ad_b260_8b03_1a8b, "{PINNED}");
    assert!(s.instructions >= 30_000);
    assert!(s.counts.mem_reads > 0, "workload must reach memory");
}

#[test]
fn eight_core_stats_are_pinned() {
    let cfg = SystemConfig::with_sram_l3();
    let trace = StridedSource::with_seed(cfg.n_threads(), 0.4, 64 << 10, 7);
    let s = run(&cfg, trace, 20_000);
    assert_eq!(s.digest(), 0x2b48_4317_6e45_7a4c, "{PINNED}");
}

#[test]
fn no_l3_stats_are_pinned() {
    // Without an L3 every miss goes to memory, and every dirty line a
    // remote read downgrades is written straight to DRAM.
    let cfg = SystemConfig::baseline_no_l3();
    let s = run(&cfg, SharedTrace::new(cfg.n_threads()), 20_000);
    assert!(s.counts.mem_reads > 0 && s.counts.mem_writes > 0);
    assert_eq!(s.digest(), 0x5075_47bb_c75d_8cea, "{PINNED}");
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
    let s = run(&cfg, trace, 40_000);
    assert!(s.counts.l3_page_hits > 0, "no open-row hit");
    assert_eq!(s.digest(), 0xa663_3929_cd71_d848, "{PINNED}");
}

#[test]
fn every_thread_sees_its_own_stream() {
    // One trace serves every core: each window polls it for its own
    // threads only, so each captured stream is the one a fresh source
    // yields for that thread, whatever order the cores polled in.
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let mk = || StridedSource::with_seed(n, 0.3, 64 << 10, 9);
    let mut sim = Simulator::try_new(cfg.clone(), Recorder::new(mk(), n)).unwrap();
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

    let mut sim_m = Simulator::try_new(mesi, SharedTrace::new(n)).unwrap();
    sim_m.run(20_000);
    assert!(sim_m.info().invalidations > 0, "MESI must invalidate");
    assert_eq!(sim_m.info().updates, 0, "MESI must never update in place");

    let mut sim_d = Simulator::try_new(dragon, SharedTrace::new(n)).unwrap();
    sim_d.run(20_000);
    assert!(sim_d.info().updates > 0, "Dragon must push updates");
    assert_eq!(sim_d.info().invalidations, 0, "Dragon must not invalidate");
}

#[test]
fn dragon_stats_are_pinned() {
    let mut cfg = SystemConfig::many_core(16);
    cfg.protocol = CoherenceProtocol::Dragon;
    let n = cfg.n_threads();
    let s = run(&cfg, SharedTrace::new(n), 15_000);
    assert_eq!(s.digest(), 0xf9e8_2721_1db8_cf3a, "{PINNED}");
}

#[test]
fn paper_config_runs_dragon() {
    // The paper's 8-core config runs Dragon too: a shared-store trace
    // diverges from its MESI run. The MESI digest is the one the serial
    // loop produced before the engines shared an issue stage.
    let mut cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let mesi = Simulator::new(cfg.clone(), SharedTrace::new(n)).run(50_000);
    cfg.protocol = CoherenceProtocol::Dragon;
    assert!(Simulator::try_new(cfg.clone(), StridedSource::new(n, 0.3, 1 << 20)).is_ok());
    let dragon = Simulator::try_new(cfg, SharedTrace::new(n))
        .unwrap()
        .run(50_000);
    assert_ne!(mesi.digest(), dragon.digest());
    assert_eq!(mesi.digest(), 0xc2ad_2c11_5257_4c4e, "{PINNED}");
    assert_eq!(dragon.digest(), 0xd874_d1c2_61cf_28ff, "{PINNED}");
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
    let s = run(&cfg, BarrierEvery(vec![0; n]), 20_000);
    assert!(s.attributed(StallKind::Barrier) > 0);
    assert!(s.instructions >= 20_000);
    assert_eq!(s.digest(), 0x0b5b_70c4_398e_5eeb, "{PINNED}");
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
    let mut sim = Simulator::new(cfg, LockLoop(vec![0; n]));
    let s = sim.run(10_000);
    assert!(s.attributed(StallKind::Lock) > 0);
    // Two of every 16 instructions a thread issues are lock operations,
    // and every stalled cycle is a lock wait.
    assert!(sim.info().messages > 1_000, "{:?}", sim.info());
    assert_eq!(sim.info().stall_cycles, s.attributed(StallKind::Lock));
    assert_eq!(s.digest(), 0x321a_d1f8_1898_9d1f, "{PINNED}");
}

#[test]
fn many_core_configs_run_at_scale() {
    // 64 cores (256 threads), briefly: the engine holds up at the scale
    // the config constructor targets.
    let cfg = SystemConfig::many_core(64);
    let n = cfg.n_threads();
    let trace = StridedSource::with_seed(n, 0.2, 32 << 10, 3);
    let mut sim = Simulator::try_new(cfg, trace).unwrap();
    let stats = sim.run(50_000);
    assert!(stats.instructions >= 50_000);
    assert!(sim.info().epochs > 0);
    // Only lock, unlock and barrier operations count, and a strided
    // trace has none.
    assert_eq!(sim.info().messages, 0);
    assert_eq!(stats.digest(), 0xbe29_d5f5_0cea_a066, "{PINNED}");
}

#[test]
fn sharers_beyond_core_63_are_tracked_at_full_scale() {
    // 128 and 256 cores hammering one small shared region: most sharer
    // sets span cores past the first 64, under both protocols.
    let pins = [
        (128, CoherenceProtocol::Mesi, 0xee20_e3a6_e5f1_ef40),
        (128, CoherenceProtocol::Dragon, 0x168f_5a6f_c986_0958),
        (256, CoherenceProtocol::Mesi, 0x848f_7584_9a3e_d032),
        (256, CoherenceProtocol::Dragon, 0xd470_406f_7cbe_dcef),
    ];
    for (cores, protocol, digest) in pins {
        let mut cfg = SystemConfig::many_core(cores);
        cfg.protocol = protocol;
        let n = cfg.n_threads();
        let stats = run(&cfg, SharedTrace::new(n), 20_000);
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
    // returns at once. The perfbench wrapper stops at the same digest.
    let cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let mut sim = Simulator::new(cfg.clone(), LockedBarrier(vec![0; n]));
    let first = sim.run(10_000);
    assert_eq!(first.instructions, 67);
    assert_eq!(
        (sim.cycle(), first.digest()),
        (16, 0xe5e2_42ad_5c43_6783),
        "{PINNED}"
    );
    let again = sim.run(10_000);
    assert_eq!(
        (sim.cycle(), again.digest()),
        (16, 0xe5e2_42ad_5c43_6783),
        "{PINNED}"
    );

    let mut wrapped = ShardedSimulator::new(cfg, LockedBarrier(vec![0; n]), 2);
    assert_eq!(
        wrapped.run(10_000).digest(),
        0xe5e2_42ad_5c43_6783,
        "{PINNED}"
    );
    assert_eq!(
        wrapped.run(10_000).digest(),
        0xe5e2_42ad_5c43_6783,
        "{PINNED}"
    );
}
