//! The simulator engine: one issue loop over the cycles where some
//! thread can issue, every memory-side effect landing at its issuing
//! cycle.
//!
//! Fine-grained multithreaded cores drive the coherent memory hierarchy
//! of `memsys.rs`. At each issuing cycle the engine runs the issue
//! stage of every core with an issuable thread, in core order, and each
//! core's ready threads in round-robin order from one start shared by
//! every core. An instruction's effects — L1/L2 hits, the L2-miss
//! service (coherence actions, fills, L3 and DRAM reservations), lock
//! grants and barrier release — are applied as it issues, so they land
//! in `(cycle, core, issue order)`. Cycles where no thread can issue are
//! skipped: each core keeps its exact next wake, and the loop jumps to
//! the soonest.
//!
//! The engine runs on one thread. Parallelism lives at the study level,
//! one simulation per pool job: DESIGN.md §18 records why the
//! multi-worker engine and its epoch-edge timing were deleted.

use crate::config::SystemConfig;
use crate::core::Threads;
use crate::memsys::MemSystem;
use crate::stats::SimStats;
use crate::trace::{Instr, TraceSource};

/// Run counters exposed by [`Simulator::info`] (cumulative since
/// construction).
#[derive(Debug, Default, Clone)]
pub struct ShardInfo {
    /// Issuing cycles stepped.
    pub epochs: u64,
    /// Lock, unlock and barrier operations applied.
    pub messages: u64,
    /// Thread-cycles spent waiting for a lock or at the barrier.
    pub stall_cycles: u64,
    /// Remote copies invalidated (MESI write-invalidate).
    pub invalidations: u64,
    /// Always 0: the engine has no multi-worker path to fall back from.
    /// Kept so existing readers of the field still build.
    pub serial_fallbacks: u64,
    /// Always 1: the engine runs on one thread. Kept so existing readers
    /// of the field still build.
    pub last_workers: usize,
}

/// The chip-level simulator. Construct with a [`SystemConfig`] and a
/// [`TraceSource`], then call [`Simulator::run`].
pub struct Simulator<T> {
    trace: T,
    threads: Threads,
    /// Threads per core, at most 64: a core's ready set is one word.
    tpc: usize,
    other_cycles: u64,
    /// Per core: the earliest cycle one of its threads can issue, the
    /// minimum of their wakes, `u64::MAX` when all are parked. Kept
    /// exact, not a lower bound: a visited cycle with no issuable thread
    /// would still advance the round-robin start.
    core_wake: Vec<u64>,
    /// The minimum of `core_wake`, folded after each step.
    soonest: u64,
    /// Round-robin start thread, shared by every core.
    rr: usize,
    mem: MemSystem,
    cycle: u64,
    stats_epoch: u64,
    info: ShardInfo,
}

/// The minimum of `wakes`, one compare and select per element. Written
/// as `iter().fold(u64::MAX, u64::min)`, the fold over the core wakes in
/// `step` becomes an SSE2 sequence that emulates 64-bit unsigned compares
/// with 32-bit ones.
fn earliest(wakes: &[u64]) -> u64 {
    let mut soonest = u64::MAX;
    for &wake in wakes {
        if wake < soonest {
            soonest = wake;
        }
    }
    soonest
}

impl<T: TraceSource> Simulator<T> {
    /// Builds an idle system.
    ///
    /// # Panics
    ///
    /// On an invalid configuration; use [`Simulator::try_new`] to get the
    /// typed [`crate::config::ConfigError`] instead.
    pub fn new(cfg: SystemConfig, trace: T) -> Simulator<T> {
        Simulator::try_new(cfg, trace)
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }

    /// Builds an idle system, validating the configuration.
    ///
    /// # Errors
    ///
    /// Any [`crate::config::ConfigError`] from
    /// [`SystemConfig::validate`] — e.g. a page-mode L3 without row
    /// timing, which previously panicked mid-simulation.
    pub fn try_new(
        cfg: SystemConfig,
        trace: T,
    ) -> Result<Simulator<T>, crate::config::ConfigError> {
        cfg.validate()?;
        Ok(Simulator {
            trace,
            threads: Threads::new(cfg.n_threads()),
            tpc: cfg.threads_per_core as usize,
            other_cycles: cfg.other_instr_cycles,
            core_wake: vec![0; cfg.n_cores as usize],
            soonest: 0,
            rr: 0,
            mem: MemSystem::new(&cfg)?,
            cycle: 0,
            stats_epoch: 0,
            info: ShardInfo {
                last_workers: 1,
                ..ShardInfo::default()
            },
        })
    }

    /// Current cycle (diagnostics).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative engine counters.
    pub fn info(&self) -> &ShardInfo {
        &self.info
    }

    /// Runs until `target_instructions` have retired (or a safety cap of
    /// 1000 cycles per requested instruction is hit), returning the
    /// statistics since construction or the last
    /// [`Simulator::reset_stats`]. A synchronization deadlock in the
    /// trace — every thread parked, so nothing will ever wake — stops the
    /// run early.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let _run = cactid_obs::span("sim.shard.run");
        let pre = self.info.clone();
        self.advance(target_instructions);
        self.info.invalidations += self.mem.publish_event_counters();
        cactid_obs::counter!("sim.shard.epochs").add(self.info.epochs - pre.epochs);
        cactid_obs::counter!("sim.shard.msgs").add(self.info.messages - pre.messages);
        cactid_obs::counter!("sim.shard.stall_cycles")
            .add(self.info.stall_cycles - pre.stall_cycles);
        self.mem.finalize(self.cycle - self.stats_epoch)
    }

    /// Steps the issuing cycles until `target_instructions` have issued,
    /// the cycle cap is reached or nothing can ever wake.
    fn advance(&mut self, target_instructions: u64) {
        if target_instructions == 0 || self.soonest == u64::MAX {
            // Nothing to issue, or a synchronization deadlock.
            return;
        }
        let cycle_cap = self
            .cycle
            .saturating_add(target_instructions.saturating_mul(1000).max(10_000));
        let mut left = target_instructions;
        // The first step of a run is an issuing cycle too.
        let mut cycle = self.cycle.max(self.soonest);
        let mut steps = 0;
        self.cycle = loop {
            left = left.saturating_sub(self.step(cycle));
            steps += 1;
            let wake = self.soonest;
            if left == 0 || cycle + 1 >= cycle_cap || wake == u64::MAX {
                break cycle + 1;
            }
            cycle = wake.max(cycle + 1);
        };
        self.info.epochs += steps;
    }

    /// One issuing cycle: every core with an issuable thread runs its
    /// issue stage, in core order. Returns the instructions issued.
    ///
    /// A step wakes no thread for its own cycle (grants and releases wake
    /// from the next one), so the cores that issue are read off one ready
    /// mask taken before the first of them runs.
    fn step(&mut self, cycle: u64) -> u64 {
        let mut ready = 0u64;
        for (core, &wake) in self.core_wake.iter().enumerate() {
            ready |= u64::from(wake <= cycle) << core;
        }
        let mut issued = 0;
        while ready != 0 {
            let core = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            issued += self.issue(core, cycle);
        }
        self.soonest = earliest(&self.core_wake);
        self.rr = if self.rr + 1 == self.tpc {
            0
        } else {
            self.rr + 1
        };
        issued
    }

    /// One core's issue stage for one cycle. Its ready threads, in
    /// round-robin order from `rr`, each fetch their next instruction if
    /// they have none; the first FP one, the first of any other kind but
    /// a barrier, and every barrier issue, each one's effects applied at
    /// `cycle` as it is met. Sets the core's wake and returns the
    /// instructions issued.
    ///
    /// The core's next wake is the earliest of its threads' wakes after
    /// the last turn. A later core's grant or release can only lower it,
    /// and does so itself.
    #[inline(never)]
    fn issue(&mut self, core: usize, cycle: u64) -> u64 {
        let first = core * self.tpc;
        let ready = self.threads.ready(first, self.tpc, cycle);
        let rr = self.rr;
        let mut issued = 0;
        let mut fp_free = true;
        let mut other_free = true;
        // Rotated right by `rr`, the mask lists the threads from `rr` up
        // in its low bits and those below `rr` in its top `rr` bits
        // (`rr < tpc <= 64`), so its bits in ascending order are the
        // round-robin order.
        let mut turn = ready.rotate_right(rr as u32);
        while turn != 0 {
            let tid = first + ((turn.trailing_zeros() as usize + rr) & 63);
            turn &= turn - 1;
            let instr = match self.threads.pending[tid] {
                Some(instr) => instr,
                None => self.trace.next(tid),
            };
            let issues = match instr {
                Instr::Fp => std::mem::replace(&mut fp_free, false),
                Instr::Barrier => true,
                _ => std::mem::replace(&mut other_free, false),
            };
            if issues {
                self.threads.pending[tid] = None;
                self.execute(core, tid, instr, cycle);
                issued += 1;
            } else {
                self.threads.pending[tid] = Some(instr);
            }
        }
        self.core_wake[core] = earliest(&self.threads.wake[first..first + self.tpc]);
        let stats = &mut self.mem.stats;
        stats.instructions += issued;
        stats.counts.l1i_reads += issued;
        issued
    }

    /// Applies the effects of `tid` (of `core`) issuing `instr` at
    /// `cycle`.
    #[inline(always)]
    fn execute(&mut self, core: usize, tid: usize, instr: Instr, cycle: u64) {
        let threads = &mut self.threads;
        let mem = &mut self.mem;
        match instr {
            // The FP unit takes one instruction per cycle; the thread
            // may issue again next cycle.
            Instr::Fp => {}
            Instr::Other => threads.wake[tid] = cycle + self.other_cycles,
            Instr::Load(addr) => {
                let (latency, kind) = match mem.access(core, addr, false) {
                    Some(hit) => (hit.latency, hit.kind),
                    None => mem.miss(core, addr, false, cycle),
                };
                mem.record_load(latency, kind);
                threads.wake[tid] = cycle + latency;
            }
            Instr::Store(addr) => {
                match mem.access(core, addr, true) {
                    Some(hit) => {
                        if hit.upgrade {
                            mem.upgrade(core, addr);
                        }
                    }
                    None => {
                        mem.miss(core, addr, true, cycle);
                    }
                }
                // Posted store: the thread continues next cycle.
                threads.wake[tid] = cycle + 1;
            }
            Instr::Barrier => {
                threads.park(tid, cycle);
                self.info.messages += 1;
                if mem.arrive_at_barrier() {
                    // The last arrival releases every thread.
                    self.info.stall_cycles += mem.release_barrier(threads, cycle);
                    for wake in &mut self.core_wake {
                        *wake = (*wake).min(cycle + 1);
                    }
                }
            }
            Instr::Lock(id) => {
                self.info.messages += 1;
                // A free lock is granted at once, with no wait.
                if mem.lock(id, tid) {
                    threads.wake[tid] = cycle + 1;
                } else {
                    threads.park(tid, cycle);
                }
            }
            Instr::Unlock(id) => {
                threads.wake[tid] = cycle + 1;
                self.info.messages += 1;
                if let Some(next) = mem.unlock(id, tid) {
                    self.info.stall_cycles += mem.grant_lock(threads, next, cycle);
                    let woken = &mut self.core_wake[next / self.tpc];
                    *woken = (*woken).min(cycle + 1);
                }
            }
        }
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept), so
    /// measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.mem.reset_stats();
        self.stats_epoch = self.cycle;
    }

    /// Consumes the simulator and hands back its trace source, with
    /// whatever state it gathered while the simulator polled it.
    pub fn into_trace_source(self) -> T {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::stats::StallKind;
    use crate::trace::{Instr, StridedSource};

    /// The pinned digests below are the statistics of a plain loop that
    /// scans every thread each cycle and divides addresses: per-core wake
    /// times and the shift/mask address split must reproduce them bit
    /// for bit.
    const PINNED: &str = "statistics changed from the pinned digest";

    /// The validator and the engine reject `cfg` with `want` instead of
    /// panicking mid-run.
    fn rejects(cfg: SystemConfig, want: ConfigError) {
        let trace = StridedSource::new(32, 0.3, 1 << 20);
        assert_eq!(cfg.validate(), Err(want.clone()));
        assert_eq!(Simulator::try_new(cfg, trace).err(), Some(want));
    }

    fn not_pow2(field: &'static str, value: u64) -> ConfigError {
        ConfigError::InterleaveNotPowerOfTwo { field, value }
    }

    #[test]
    fn try_new_rejects_page_mode_l3_without_timing() {
        // Regression: Simulator::new accepted this config and the first L3
        // access panicked inside reserve_detailed.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().interface = crate::config::L3Interface::PageMode;
        let trace = StridedSource::new(32, 0.3, 1 << 20);
        let err = Simulator::try_new(cfg, trace).err();
        assert_eq!(err, Some(crate::config::ConfigError::PageModeWithoutTiming));
    }

    #[test]
    fn both_engines_reject_bad_cache_geometry_instead_of_panicking() {
        // Regression: a bad geometry used to pass validate() and panic
        // inside SetAssocCache::new.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l2.associativity = 0;
        rejects(cfg, ConfigError::ZeroAssociativity { level: "L2" });
    }

    #[test]
    fn the_engine_rejects_l1_and_l2_lines_of_different_sizes() {
        // Regression: a 32 B L1 line under the 64 B L2 line validated and
        // ran, with coherence tracking L1 lines the L2 evicted whole.
        let mut cfg = SystemConfig::baseline_no_l3();
        cfg.l1.line_bytes = 32;
        rejects(cfg, ConfigError::LineSizeMismatch { l1: 32, l2: 64 });
    }

    #[test]
    fn both_engines_reject_zero_threads_per_core() {
        // Regression: a zero used to panic with a division by zero in the
        // round-robin `% tpc`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.threads_per_core = 0;
        rejects(cfg, ConfigError::ZeroThreadsPerCore);
    }

    #[test]
    fn both_engines_reject_a_bad_dram_channel_count() {
        // Regression: zero channels panicked in `channel_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.channels = 0;
        rejects(cfg.clone(), not_pow2("dram.channels", 0));
        cfg.dram.channels = 3;
        rejects(cfg, not_pow2("dram.channels", 3));
    }

    #[test]
    fn both_engines_reject_a_bad_dram_bank_count() {
        // Regression: zero banks panicked in `DramChannel::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.banks = 0;
        rejects(cfg.clone(), not_pow2("dram.banks", 0));
        cfg.dram.banks = 12;
        rejects(cfg, not_pow2("dram.banks", 12));
    }

    #[test]
    fn both_engines_reject_a_bad_dram_page_size() {
        // Regression: a zero page size panicked in `DramChannel::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.page_bytes = 0;
        rejects(cfg.clone(), not_pow2("dram.page_bytes", 0));
        cfg.dram.page_bytes = 6 << 10;
        rejects(cfg, not_pow2("dram.page_bytes", 6 << 10));
    }

    #[test]
    fn both_engines_reject_a_bad_l3_bank_count() {
        // Regression: zero banks panicked in `L3::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().n_banks = 0;
        rejects(cfg.clone(), not_pow2("l3.n_banks", 0));
        cfg.l3.as_mut().unwrap().n_banks = 6;
        rejects(cfg, not_pow2("l3.n_banks", 6));
    }

    #[test]
    fn both_engines_reject_a_bad_l3_subbank_count() {
        // Regression: zero subbanks panicked in `L3::subbank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().bank.n_subbanks = 0;
        rejects(cfg.clone(), not_pow2("l3.bank.n_subbanks", 0));
        cfg.l3.as_mut().unwrap().bank.n_subbanks = 5;
        rejects(cfg, not_pow2("l3.bank.n_subbanks", 5));
    }

    #[test]
    fn compute_only_workload_hits_peak_issue() {
        // No memory ops: every thread alternates FP/Other; the chip should
        // sustain a healthy IPC and attribute everything to Instruction.
        let cfg = SystemConfig::baseline_no_l3();
        let trace = StridedSource::new(32, 0.0, 1 << 20);
        let mut sim = Simulator::new(cfg, trace);
        let stats = sim.run(100_000);
        assert!(stats.ipc() > 4.0, "ipc = {}", stats.ipc());
        let f = stats.breakdown_fractions();
        assert!(f[0] > 0.9, "instruction fraction {}", f[0]);
        assert_eq!(stats.counts.mem_reads, 0);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let cfg = SystemConfig::baseline_no_l3();
        // 16 KB per thread × 4 threads = 64 KB per core… exceeds a 32 KB
        // L1 but fits L2 easily; most accesses should be L1/L2 hits.
        let trace = StridedSource::new(32, 0.3, 16 << 10);
        let mut sim = Simulator::new(cfg, trace);
        // Long enough to amortize the cold misses over the 16 KB regions.
        let stats = sim.run(1_500_000);
        let to_mem = stats.counts.mem_reads as f64 / stats.loads.max(1) as f64;
        assert!(to_mem < 0.05, "memory rate {to_mem}");
        // Steady state is L1/L2 hits (2–5 cycles); the average carries the
        // cold-start burst, where 8192 compulsory misses hammer a handful
        // of DRAM banks at full tRC each — so allow generous headroom.
        assert!(
            stats.avg_read_latency() < 35.0,
            "avg {}",
            stats.avg_read_latency()
        );
        assert!(stats.load_level_hits[0] + stats.load_level_hits[1] > stats.loads * 9 / 10);
    }

    #[test]
    fn huge_working_set_goes_to_memory_and_l3_filters_it() {
        // 64 MB per thread: misses everywhere without an L3.
        let mk = |cfg| {
            let trace = StridedSource::new(32, 0.3, 64 << 20);
            let mut sim = Simulator::new(cfg, trace);
            sim.run(150_000)
        };
        let no_l3 = mk(SystemConfig::baseline_no_l3());
        let with_l3 = mk(SystemConfig::with_sram_l3());
        assert!(no_l3.counts.mem_reads > 0);
        assert!(no_l3.avg_read_latency() > 20.0);
        // The 24 MB L3 can hold a fraction of the 2 GB working set only —
        // but reuse is random, so *some* hits occur and latency improves
        // at least marginally; mostly this checks the L3 path end-to-end.
        assert!(with_l3.counts.l3_reads > 0);
        assert!(with_l3.counts.mem_reads <= no_l3.counts.mem_reads * 11 / 10);
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        struct BarrierEvery(u64, Vec<u64>);
        impl TraceSource for BarrierEvery {
            fn next(&mut self, tid: usize) -> Instr {
                self.1[tid] += 1;
                if self.1[tid].is_multiple_of(self.0) {
                    Instr::Barrier
                } else {
                    Instr::Fp
                }
            }
        }
        let cfg = SystemConfig::baseline_no_l3();
        let mut sim = Simulator::new(cfg, BarrierEvery(50, vec![0; 32]));
        let stats = sim.run(50_000);
        assert!(stats.attributed(StallKind::Barrier) > 0);
        assert_eq!(stats.digest(), 0x627e_1392_38e4_2f78, "{PINNED}");
    }

    #[test]
    fn locks_serialize_and_attribute_wait() {
        struct LockLoop(Vec<u32>);
        impl TraceSource for LockLoop {
            fn next(&mut self, tid: usize) -> Instr {
                self.0[tid] += 1;
                match self.0[tid] % 8 {
                    1 => Instr::Lock(0),
                    5 => Instr::Unlock(0),
                    _ => Instr::Other,
                }
            }
        }
        let cfg = SystemConfig::baseline_no_l3();
        let mut sim = Simulator::new(cfg, LockLoop(vec![0; 32]));
        let stats = sim.run(50_000);
        assert!(stats.attributed(StallKind::Lock) > 0);
        assert_eq!(stats.digest(), 0xcc06_9065_3c53_e701, "{PINNED}");
    }

    #[test]
    fn shared_data_exercises_coherence() {
        // All threads hammer the same small region with stores: the
        // coherence path must bounce ownership around without deadlock.
        struct SharedWrites(u64);
        impl TraceSource for SharedWrites {
            fn next(&mut self, tid: usize) -> Instr {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(tid as u64);
                let addr = (self.0 >> 8) % (8 << 10);
                if self.0 & 1 == 0 {
                    Instr::Store(addr & !63)
                } else {
                    Instr::Load(addr & !63)
                }
            }
        }
        let cfg = SystemConfig::baseline_no_l3();
        let mut sim = Simulator::new(cfg, SharedWrites(1));
        let stats = sim.run(100_000);
        assert!(stats.instructions >= 100_000);
        assert!(stats.counts.l2_reads > 0);
        assert_eq!(stats.digest(), 0x7de5_7fdc_3f3c_d20a, "{PINNED}");
    }

    #[test]
    fn cycle_breakdown_conserves_thread_cycles() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.4, 8 << 20);
        let mut sim = Simulator::new(cfg, trace);
        let stats = sim.run(100_000);
        let total: u64 = stats.cycle_breakdown.iter().sum();
        assert_eq!(total, stats.cycles * 32);
        assert_eq!(stats.digest(), 0x1c46_2fd2_84b1_e60b, "{PINNED}");
    }

    #[test]
    fn run_zero_changes_nothing() {
        let cfg = SystemConfig::with_sram_l3();
        let mut sim = Simulator::new(cfg, StridedSource::new(32, 0.4, 4 << 20));
        let stats = sim.run(20_000);
        let cycle = sim.cycle();
        let info = sim.info().clone();
        assert_eq!(sim.run(0).digest(), stats.digest());
        assert_eq!(sim.cycle(), cycle);
        assert_eq!(sim.info().epochs, info.epochs);
    }

    #[test]
    fn determinism() {
        let run = || {
            let cfg = SystemConfig::with_sram_l3();
            let trace = StridedSource::new(32, 0.4, 4 << 20);
            let mut sim = Simulator::new(cfg, trace);
            sim.run(50_000)
        };
        let stats = run();
        assert_eq!(stats, run());
        assert_eq!(stats.digest(), 0x1c81_4e3d_0c16_b1b1, "{PINNED}");
    }
}
