//! Pinned statistics for configurations the other digest pins do not
//! reach: thread counts other than the study's four per core, a
//! lock-heavy workload on the study's 8 cores, and a trace source whose
//! streams depend on the order the engine polls its threads in.
//!
//! The issue stage picks its issuing threads from ready masks; these
//! digests were taken from the loop that scanned every thread of a core
//! in round-robin order, so they pin that arbitration, the fetch order
//! and the order of effects bit for bit.

use memsim::trace::{Instr, TraceSource};
use memsim::{Simulator, SystemConfig};
use npbgen::{NpbApp, NpbTrace};

/// A system of `n_cores` cores of `threads_per_core` threads each, on
/// the paper's 24 MB SRAM L3.
fn with_threads(n_cores: u32, threads_per_core: u32) -> SystemConfig {
    let mut cfg = SystemConfig::with_sram_l3();
    cfg.n_cores = n_cores;
    cfg.threads_per_core = threads_per_core;
    cfg
}

/// The digest of `instructions` on `cfg`, driven by `app`'s trace.
fn npb(cfg: &SystemConfig, app: NpbApp, instructions: u64) -> u64 {
    let trace = NpbTrace::new(app, cfg.n_threads());
    let stats = Simulator::new(cfg.clone(), trace).run(instructions);
    assert!(stats.instructions >= instructions);
    stats.digest()
}

/// ua.C with a lock taken every 200 instructions instead of every
/// 4 000, so that its 16 locks are contended on the study's 8 × 4
/// threads.
fn lock_heavy_uac(instructions: u64) -> u64 {
    let cfg = SystemConfig::with_sram_l3();
    let mut profile = NpbApp::UaC.profile();
    profile.lock_interval = 200;
    let trace = NpbTrace::from_profile(profile, cfg.n_threads());
    let mut sim = Simulator::new(cfg, trace);
    let stats = sim.run(instructions);
    assert!(stats.instructions >= instructions);
    assert!(sim.info().messages > 1_000, "{:?}", sim.info());
    stats.digest()
}

/// Every thread draws from one shared generator, so each stream depends
/// on the order the engine polls the threads in. The source also folds
/// the polled thread ids into `polls`, which pins that order directly.
/// A thread holds at most one lock, and never reaches the barrier while
/// holding it, so the trace cannot deadlock.
struct SharedOrder {
    state: u64,
    polls: u64,
    held: Vec<Option<u32>>,
}

impl SharedOrder {
    fn new(n_threads: usize) -> SharedOrder {
        SharedOrder {
            state: 0x5EED_0F0D_DE55_0001,
            polls: 0,
            held: vec![None; n_threads],
        }
    }
}

impl TraceSource for SharedOrder {
    fn next(&mut self, tid: usize) -> Instr {
        self.polls = (self.polls ^ tid as u64).wrapping_mul(0x0000_0100_0000_01b3);
        self.state = memsim::rng::splitmix64(self.state);
        let r = self.state;
        let addr = ((r >> 16) % (64 << 10)) & !63;
        match (r % 64, self.held[tid]) {
            (0..=2, Some(id)) => {
                self.held[tid] = None;
                Instr::Unlock(id)
            }
            (3, None) => {
                let id = (r >> 8) as u32 % 4;
                self.held[tid] = Some(id);
                Instr::Lock(id)
            }
            (4, None) => Instr::Barrier,
            (5..=14, _) => Instr::Store(addr),
            (15..=30, _) => Instr::Load(addr),
            (31..=50, _) => Instr::Fp,
            _ => Instr::Other,
        }
    }
}

/// The statistics digest of a shared-order run, with the poll-order
/// fold mixed in.
fn shared_order(cfg: &SystemConfig, instructions: u64) -> u64 {
    let mut sim = Simulator::new(cfg.clone(), SharedOrder::new(cfg.n_threads()));
    let stats = sim.run(instructions);
    assert!(stats.instructions >= instructions, "deadlocked");
    stats.digest() ^ sim.into_trace_source().polls.rotate_left(32)
}

/// One pinned configuration: its name, how to compute its digest and
/// the digest itself.
type Pin = (&'static str, fn() -> u64, u64);

const PINS: &[Pin] = &[
    (
        "8 cores x 1 thread, ft.B",
        || npb(&with_threads(8, 1), NpbApp::FtB, 200_000),
        0x520d_a2b3_8fd1_9a4e,
    ),
    (
        "8 cores x 3 threads, bt.C",
        || npb(&with_threads(8, 3), NpbApp::BtC, 200_000),
        0x3a96_7812_69c9_935f,
    ),
    (
        "8 cores x 8 threads, is.C",
        || npb(&with_threads(8, 8), NpbApp::IsC, 200_000),
        0x579e_11b7_69fa_b714,
    ),
    (
        "1 core x 64 threads, mg.B",
        || npb(&with_threads(1, 64), NpbApp::MgB, 200_000),
        0x1151_73b3_8300_9749,
    ),
    (
        "8 cores x 4 threads, ua.C",
        || npb(&SystemConfig::with_sram_l3(), NpbApp::UaC, 400_000),
        0x6e5f_78ef_6ab4_af07,
    ),
    (
        "8 cores x 4 threads, lock-heavy ua.C",
        || lock_heavy_uac(300_000),
        0x2151_2c9a_4bd4_5601,
    ),
    (
        "8 cores x 3 threads, shared-order source",
        || shared_order(&with_threads(8, 3), 200_000),
        0x8e77_c600_5da1_26f3,
    ),
    (
        "2 cores x 5 threads, shared-order source",
        || shared_order(&with_threads(2, 5), 100_000),
        0xf287_6efe_7e39_54a7,
    ),
];

#[test]
fn issue_stage_digests_are_pinned() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, run, pinned)| {
            let got = run();
            (got != pinned).then(|| format!("{name}: {got:#018x}, pinned {pinned:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "statistics changed from the pinned digests:\n{}",
        moved.join("\n")
    );
}
