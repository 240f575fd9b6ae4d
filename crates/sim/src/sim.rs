//! The simulator: fine-grained multithreaded cores driving the coherent
//! memory hierarchy.

use crate::coherence::Directory;
use crate::config::SystemConfig;
use crate::core::{Thread, ThreadState};
use crate::memsys::MemSystem;
use crate::stats::{SimStats, StallKind};
use crate::trace::{Instr, TraceSource};

/// The chip-level simulator. Construct with a [`SystemConfig`] and a
/// [`TraceSource`], then call [`Simulator::run`].
///
/// Every memory-side effect of an instruction (coherence actions, fills,
/// L3 and DRAM reservations, lock grants, barrier release) lands at the
/// cycle the instruction issues.
pub struct Simulator<T> {
    cfg: SystemConfig,
    trace: T,
    threads: Vec<Thread>,
    /// Per core: the earliest cycle one of its threads can issue
    /// ([`Thread::wake`] minimized over the core), `u64::MAX` when all
    /// are parked on a barrier or lock.
    wake: Vec<u64>,
    /// Issued instructions are counted in `mem.stats`, whose total the
    /// run loop polls.
    mem: MemSystem,
    /// Round-robin start thread, shared by every core: each step advances
    /// all of them in lockstep.
    rr: usize,
    cycle: u64,
    stats_epoch: u64,
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
    /// timing, which previously panicked mid-simulation — plus
    /// [`crate::config::ConfigError::ProtocolNeedsShardedEngine`] for a
    /// non-MESI protocol: this serial loop resolves coherence actions
    /// instantly and only implements write-invalidate; write-update lives
    /// in [`crate::shard::ShardedSimulator`].
    pub fn try_new(
        cfg: SystemConfig,
        trace: T,
    ) -> Result<Simulator<T>, crate::config::ConfigError> {
        cfg.validate()?;
        if cfg.protocol != crate::config::CoherenceProtocol::Mesi {
            return Err(crate::config::ConfigError::ProtocolNeedsShardedEngine);
        }
        let n_cores = cfg.n_cores as usize;
        // Every tracked line sits in some L2, so the total L2 line count
        // bounds the directory.
        let dir = Directory::with_capacity(
            n_cores * (cfg.l2.capacity_bytes / u64::from(cfg.l2.line_bytes)) as usize,
        );
        Ok(Simulator {
            rr: 0,
            threads: (0..cfg.n_threads()).map(|_| Thread::new()).collect(),
            wake: vec![0; n_cores],
            mem: MemSystem::new(&cfg, dir)?,
            cycle: 0,
            stats_epoch: 0,
            cfg,
            trace,
        })
    }

    /// Runs until `target_instructions` have retired (or a safety cap of
    /// 1000 cycles per requested instruction is hit), returning the
    /// statistics.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let cycle_cap = self.cycle + target_instructions.saturating_mul(1000).max(10_000);
        let target = self.mem.stats.instructions + target_instructions;
        while self.mem.stats.instructions < target && self.cycle < cycle_cap {
            // Fast-forward across stretches where every thread is blocked.
            let wake = self.wake.iter().copied().min().unwrap_or(u64::MAX);
            if wake == u64::MAX {
                // Nothing will ever wake: synchronization deadlock in the
                // trace — stop rather than spin to the cycle cap.
                break;
            }
            self.cycle = self.cycle.max(wake);
            self.step();
        }
        self.mem.publish_event_counters();
        self.mem.finalize(self.cycle - self.stats_epoch)
    }

    /// Advances one cycle. A core none of whose threads can issue this
    /// cycle (`wake > cycle`) would only have skipped every thread, so it
    /// is not visited. A visited core tests each thread once, `wake() <=
    /// cycle`, and folds every thread's wake after its turn into the
    /// core's next wake. Threads a turn parks or wakes elsewhere on the
    /// core (barrier release, lock grant) land on `cycle + 1`, as the
    /// issuing thread itself does, so the fold needs no second pass.
    fn step(&mut self) {
        let cycle = self.cycle;
        let tpc = self.cfg.threads_per_core as usize;
        for core in 0..self.wake.len() {
            if self.wake[core] > cycle {
                continue;
            }
            let mut next_wake = u64::MAX;
            let mut fp_free = true;
            let mut other_free = true;
            let mut mem_free = true;
            for k in 0..tpc {
                let mut lt = self.rr + k;
                if lt >= tpc {
                    lt -= tpc;
                }
                let tid = core * tpc + lt;
                let wake = self.threads[tid].wake();
                if wake > cycle {
                    next_wake = next_wake.min(wake);
                    continue;
                }
                if self.threads[tid].pending.is_none() {
                    self.threads[tid].pending = Some(self.trace.next(tid));
                }
                let Some(instr) = self.threads[tid].pending else {
                    unreachable!("a pending instruction was fetched just above")
                };
                let issued = match instr {
                    Instr::Fp if fp_free => {
                        fp_free = false;
                        true
                    }
                    Instr::Other if other_free => {
                        other_free = false;
                        self.threads[tid].state =
                            ThreadState::StalledUntil(cycle + self.cfg.other_instr_cycles);
                        true
                    }
                    Instr::Load(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        let (latency, kind) = self.mem_access(core, addr, false);
                        self.mem.cores[core].record_load(latency, kind);
                        self.threads[tid].state = ThreadState::StalledUntil(cycle + latency);
                        true
                    }
                    Instr::Store(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        // Posted store: resources are reserved and state is
                        // updated, but the thread continues next cycle.
                        let _ = self.mem_access(core, addr, true);
                        self.threads[tid].state = ThreadState::StalledUntil(cycle + 1);
                        true
                    }
                    Instr::Barrier => {
                        self.threads[tid].state = ThreadState::AtBarrier(cycle);
                        if self.mem.arrive_at_barrier() {
                            self.release_barrier();
                        }
                        true
                    }
                    Instr::Lock(id) if other_free => {
                        other_free = false;
                        self.threads[tid].state = if self.mem.lock(id, tid) {
                            ThreadState::StalledUntil(cycle + 1)
                        } else {
                            ThreadState::WaitingLock(id, cycle)
                        };
                        true
                    }
                    Instr::Unlock(id) if other_free => {
                        other_free = false;
                        if let Some(next) = self.mem.unlock(id, tid) {
                            self.mem.grant_lock(&mut self.threads[next], cycle);
                            // `next` was parked (no wake of its own), so its
                            // core's earliest wake is the old one or this
                            // grant.
                            let core = next / tpc;
                            self.wake[core] = self.wake[core].min(cycle + 1);
                        }
                        self.threads[tid].state = ThreadState::StalledUntil(cycle + 1);
                        true
                    }
                    _ => false,
                };
                if issued {
                    self.threads[tid].pending = None;
                    self.threads[tid].retired += 1;
                    self.mem.stats.instructions += 1;
                    self.mem.stats.counts.l1i_reads += 1;
                }
                next_wake = next_wake.min(self.threads[tid].wake());
            }
            self.wake[core] = next_wake;
        }
        self.rr += 1;
        if self.rr == tpc {
            self.rr = 0;
        }
        self.cycle += 1;
    }

    fn release_barrier(&mut self) {
        self.mem.release_barrier(&mut self.threads, self.cycle);
        // Every core may have had a thread parked; barriers are rare.
        let tpc = self.cfg.threads_per_core as usize;
        for (wake, threads) in self.wake.iter_mut().zip(self.threads.chunks(tpc)) {
            *wake = core_wake(threads);
        }
    }

    /// One memory operation through the hierarchy, every effect landing
    /// now; returns the load-to-use latency and the level that serviced
    /// it.
    fn mem_access(&mut self, core: usize, addr: u64, is_store: bool) -> (u64, StallKind) {
        match self.mem.cores[core].access(addr, is_store) {
            Some(hit) => {
                if hit.upgrade {
                    self.mem.upgrade(core, addr);
                }
                (hit.latency, hit.kind)
            }
            None => self.mem.miss(core, addr, is_store, self.cycle, self.cycle),
        }
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept),
    /// so measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.mem.reset_stats();
        self.stats_epoch = self.cycle;
    }

    /// Current cycle (diagnostics).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Consumes the simulator and hands back its trace source (e.g. a
    /// [`crate::record::Recorder`] whose capture you want).
    pub fn into_trace_source(self) -> T {
        self.trace
    }
}

/// The earliest cycle one of a core's `threads` can issue, or `u64::MAX`
/// when every one is parked on synchronization.
fn core_wake(threads: &[Thread]) -> u64 {
    threads.iter().map(Thread::wake).min().unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, SystemConfig};
    use crate::trace::StridedSource;

    /// The pinned digests below are the statistics of a plain loop that
    /// scans every thread each cycle and divides addresses: per-core wake
    /// times and the shift/mask address split must reproduce them bit
    /// for bit.
    const PINNED: &str = "statistics changed from the pinned digest";

    /// Both engines reject `cfg` with `want` instead of panicking mid-run.
    fn both_engines_reject(cfg: SystemConfig, want: ConfigError) {
        let trace = StridedSource::new(32, 0.3, 1 << 20);
        assert_eq!(cfg.validate(), Err(want.clone()));
        let legacy = Simulator::try_new(cfg.clone(), trace.clone()).err();
        assert_eq!(legacy, Some(want.clone()));
        let sharded = crate::shard::ShardedSimulator::try_new(cfg, trace).err();
        assert_eq!(sharded, Some(want));
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
        both_engines_reject(cfg, ConfigError::ZeroAssociativity { level: "L2" });
    }

    #[test]
    fn both_engines_reject_zero_threads_per_core() {
        // Regression: a zero used to panic with a division by zero in the
        // round-robin `% tpc`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.threads_per_core = 0;
        both_engines_reject(cfg, ConfigError::ZeroThreadsPerCore);
    }

    #[test]
    fn both_engines_reject_a_bad_dram_channel_count() {
        // Regression: zero channels panicked in `channel_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.channels = 0;
        both_engines_reject(cfg.clone(), not_pow2("dram.channels", 0));
        cfg.dram.channels = 3;
        both_engines_reject(cfg, not_pow2("dram.channels", 3));
    }

    #[test]
    fn both_engines_reject_a_bad_dram_bank_count() {
        // Regression: zero banks panicked in `DramChannel::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.banks = 0;
        both_engines_reject(cfg.clone(), not_pow2("dram.banks", 0));
        cfg.dram.banks = 12;
        both_engines_reject(cfg, not_pow2("dram.banks", 12));
    }

    #[test]
    fn both_engines_reject_a_bad_dram_page_size() {
        // Regression: a zero page size panicked in `DramChannel::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.dram.page_bytes = 0;
        both_engines_reject(cfg.clone(), not_pow2("dram.page_bytes", 0));
        cfg.dram.page_bytes = 6 << 10;
        both_engines_reject(cfg, not_pow2("dram.page_bytes", 6 << 10));
    }

    #[test]
    fn both_engines_reject_a_bad_l3_bank_count() {
        // Regression: zero banks panicked in `L3::bank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().n_banks = 0;
        both_engines_reject(cfg.clone(), not_pow2("l3.n_banks", 0));
        cfg.l3.as_mut().unwrap().n_banks = 6;
        both_engines_reject(cfg, not_pow2("l3.n_banks", 6));
    }

    #[test]
    fn both_engines_reject_a_bad_l3_subbank_count() {
        // Regression: zero subbanks panicked in `L3::subbank_of`.
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().bank.n_subbanks = 0;
        both_engines_reject(cfg.clone(), not_pow2("l3.bank.n_subbanks", 0));
        cfg.l3.as_mut().unwrap().bank.n_subbanks = 5;
        both_engines_reject(cfg, not_pow2("l3.bank.n_subbanks", 5));
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
        // directory must bounce ownership around without deadlock.
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
