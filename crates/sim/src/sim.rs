//! The simulator: fine-grained multithreaded cores driving the coherent
//! memory hierarchy.

use crate::cache::{LineState, SetAssocCache};
use crate::coherence::{CoreSet, Directory, ReadSource};
use crate::config::SystemConfig;
use crate::core::{Thread, ThreadState};
use crate::dram::DramChannel;
use crate::l3::L3;
use crate::stats::{SimStats, StallKind};
use crate::trace::{Instr, TraceSource};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Default)]
struct LockState {
    holder: Option<usize>,
    queue: VecDeque<usize>,
}

/// Where an L2 miss was ultimately serviced.
enum Source {
    RemoteL2,
    L3 { data_at: u64 },
    Memory { data_at: u64 },
}

/// The chip-level simulator. Construct with a [`SystemConfig`] and a
/// [`TraceSource`], then call [`Simulator::run`].
pub struct Simulator<T> {
    cfg: SystemConfig,
    trace: T,
    threads: Vec<Thread>,
    /// Per core: the earliest cycle one of its threads can issue
    /// ([`Thread::wake`] minimized over the core), `u64::MAX` when all
    /// are parked on a barrier or lock.
    wake: Vec<u64>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Option<L3>,
    dir: Directory,
    channels: Vec<DramChannel>,
    locks: HashMap<u32, LockState>,
    barrier_count: usize,
    /// Round-robin start thread, shared by every core: each step advances
    /// all of them in lockstep.
    rr: usize,
    /// `log2(L1 line bytes)`: byte address → line number.
    line_shift: u32,
    /// `channels - 1`: line number → DRAM channel.
    channel_mask: u64,
    /// Coherence invalidations not yet published to the obs counter.
    invalidations: u64,
    cycle: u64,
    stats_epoch: u64,
    stats: SimStats,
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
        let l1 = (0..n_cores)
            .map(|_| {
                SetAssocCache::new(
                    cfg.l1.capacity_bytes,
                    cfg.l1.line_bytes,
                    cfg.l1.associativity,
                )
            })
            .collect();
        let l2 = (0..n_cores)
            .map(|_| {
                SetAssocCache::new(
                    cfg.l2.capacity_bytes,
                    cfg.l2.line_bytes,
                    cfg.l2.associativity,
                )
            })
            .collect();
        let l3 = cfg.l3.clone().map(L3::try_new).transpose()?;
        let channels = (0..cfg.dram.channels)
            .map(|_| DramChannel::new(cfg.dram.clone()))
            .collect();
        let threads = (0..cfg.n_threads()).map(|_| Thread::new()).collect();
        Ok(Simulator {
            rr: 0,
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            channel_mask: u64::from(cfg.dram.channels) - 1,
            invalidations: 0,
            threads,
            wake: vec![0; n_cores],
            l1,
            l2,
            l3,
            // Every tracked line sits in some L2, so the total L2 line
            // count bounds the directory.
            dir: Directory::with_capacity(
                n_cores * (cfg.l2.capacity_bytes / u64::from(cfg.l2.line_bytes)) as usize,
            ),
            channels,
            locks: HashMap::new(),
            barrier_count: 0,
            cycle: 0,
            stats_epoch: 0,
            stats: SimStats::default(),
            cfg,
            trace,
        })
    }

    /// Runs until `target_instructions` have retired (or a safety cap of
    /// 1000 cycles per requested instruction is hit), returning the
    /// statistics.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let cycle_cap = self.cycle + target_instructions.saturating_mul(1000).max(10_000);
        let target = self.stats.instructions + target_instructions;
        while self.stats.instructions < target && self.cycle < cycle_cap {
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
        self.publish_event_counters();
        self.finalize()
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
                        self.stats.loads += 1;
                        self.stats.load_latency_sum += latency;
                        let level = match kind {
                            StallKind::Instruction => 0,
                            StallKind::L2Access => 1,
                            StallKind::L3Access => 2,
                            _ => 3,
                        };
                        self.stats.load_level_hits[level] += 1;
                        let stall = latency.saturating_sub(self.cfg.l1.access_cycles);
                        if stall > 0 && kind != StallKind::Instruction {
                            self.stats.attribute(kind, stall);
                        }
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
                        self.barrier_count += 1;
                        if self.barrier_count == self.threads.len() {
                            self.release_barrier();
                        }
                        true
                    }
                    Instr::Lock(id) if other_free => {
                        other_free = false;
                        let lock = self.locks.entry(id).or_default();
                        if lock.holder.is_none() {
                            lock.holder = Some(tid);
                            self.threads[tid].state = ThreadState::StalledUntil(cycle + 1);
                        } else {
                            lock.queue.push_back(tid);
                            self.threads[tid].state = ThreadState::WaitingLock(id, cycle);
                        }
                        true
                    }
                    Instr::Unlock(id) if other_free => {
                        other_free = false;
                        self.unlock(id, tid);
                        self.threads[tid].state = ThreadState::StalledUntil(cycle + 1);
                        true
                    }
                    _ => false,
                };
                if issued {
                    self.threads[tid].pending = None;
                    self.threads[tid].retired += 1;
                    self.stats.instructions += 1;
                    self.stats.counts.l1i_reads += 1;
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
        let cycle = self.cycle;
        for t in &mut self.threads {
            if let ThreadState::AtBarrier(since) = t.state {
                self.stats.attribute(StallKind::Barrier, cycle - since);
                t.state = ThreadState::StalledUntil(cycle + 1);
            }
        }
        self.barrier_count = 0;
        // Every core may have had a thread parked; barriers are rare.
        let tpc = self.cfg.threads_per_core as usize;
        for (wake, threads) in self.wake.iter_mut().zip(self.threads.chunks(tpc)) {
            *wake = core_wake(threads);
        }
    }

    fn unlock(&mut self, id: u32, tid: usize) {
        let cycle = self.cycle;
        let lock = self.locks.entry(id).or_default();
        debug_assert_eq!(lock.holder, Some(tid), "unlock by non-holder");
        lock.holder = None;
        if let Some(next) = lock.queue.pop_front() {
            lock.holder = Some(next);
            if let ThreadState::WaitingLock(_, since) = self.threads[next].state {
                self.stats.attribute(StallKind::Lock, cycle - since);
            }
            self.threads[next].state = ThreadState::StalledUntil(cycle + 1);
            // `next` was parked (no wake of its own), so its core's
            // earliest wake is the old one or this grant.
            let core = next / self.cfg.threads_per_core as usize;
            self.wake[core] = self.wake[core].min(cycle + 1);
        }
    }

    /// One memory operation through the hierarchy; returns the load-to-use
    /// latency and the level that serviced it.
    fn mem_access(&mut self, core: usize, addr: u64, is_store: bool) -> (u64, StallKind) {
        let now = self.cycle;
        let line = addr >> self.line_shift;
        self.stats.counts.l1_reads += 1;

        // ---- L1 ----
        if let Some(state) = self.l1[core].lookup(addr) {
            if is_store {
                self.stats.counts.l1_writes += 1;
                if state != LineState::Modified {
                    let mask = self.dir.write(line, core);
                    self.invalidate_remotes(mask, addr, core);
                    self.l1[core].set_state(addr, LineState::Modified);
                    self.l2[core].set_state(addr, LineState::Modified);
                }
            }
            return (self.cfg.l1.access_cycles, StallKind::Instruction);
        }

        // ---- L2 ----
        self.stats.counts.l2_reads += 1;
        let l2_lat = self.cfg.l1.access_cycles + self.cfg.l2.access_cycles;
        if let Some(state) = self.l2[core].lookup(addr) {
            let new_state = if is_store {
                let mask = self.dir.write(line, core);
                self.invalidate_remotes(mask, addr, core);
                self.stats.counts.l2_writes += 1;
                LineState::Modified
            } else {
                state
            };
            self.l2[core].set_state(addr, new_state);
            self.fill_l1(core, addr, new_state);
            return (l2_lat, StallKind::L2Access);
        }

        // ---- L2 miss: consult the directory ----
        let (from_remote, shared) = if is_store {
            let mask = self.dir.write(line, core);
            let dirty = self.invalidate_remotes(mask, addr, core);
            (dirty, false)
        } else {
            match self.dir.read(line, core) {
                ReadSource::RemoteOwner(owner) => {
                    self.downgrade_remote(owner, addr);
                    (true, true)
                }
                ReadSource::SharedClean => (false, true),
                ReadSource::Below => (false, false),
            }
        };

        let xbar = self.cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles);
        let source = if from_remote {
            Source::RemoteL2
        } else {
            self.fetch_below(addr, now + l2_lat + xbar)
        };

        let (latency, kind) = match source {
            Source::RemoteL2 => {
                // Cache-to-cache transfer over the crossbar.
                self.stats.counts.l2_reads += 1;
                self.stats.counts.xbar_transfers += 2;
                (
                    l2_lat + 2 * xbar + self.cfg.l2.access_cycles,
                    StallKind::L2Access,
                )
            }
            Source::L3 { data_at } => {
                self.stats.counts.xbar_transfers += 2;
                (data_at.saturating_sub(now) + xbar, StallKind::L3Access)
            }
            Source::Memory { data_at } => {
                if self.l3.is_some() {
                    self.stats.counts.xbar_transfers += 2;
                }
                (data_at.saturating_sub(now) + xbar, StallKind::MemoryAccess)
            }
        };

        let fill_state = if is_store {
            LineState::Modified
        } else if shared {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.fill_l2(core, addr, fill_state);
        self.fill_l1(core, addr, fill_state);
        if is_store {
            self.stats.counts.l2_writes += 1;
        }
        (latency, kind)
    }

    /// Fetches a line from the L3 (if present and hit) or main memory;
    /// reserves timing resources from `t_req` onward.
    fn fetch_below(&mut self, addr: u64, t_req: u64) -> Source {
        if let Some(l3) = self.l3.as_mut() {
            self.stats.counts.l3_reads += 1;
            if l3.lookup(addr).is_some() {
                let data_at = l3.reserve(addr, t_req);
                return Source::L3 { data_at };
            }
            // L3 miss: tag check occupied the bank, then go to memory.
            let t_mem = l3.reserve(addr, t_req);
            let done = self.dram_read(addr, t_mem);
            self.fill_l3(addr, LineState::Shared);
            Source::Memory { data_at: done }
        } else {
            let done = self.dram_read(addr, t_req);
            Source::Memory { data_at: done }
        }
    }

    fn channel_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.channel_mask) as usize
    }

    fn dram_read(&mut self, addr: u64, t_req: u64) -> u64 {
        let ch = self.channel_of(addr);
        let a = self.channels[ch].access(addr, t_req);
        self.stats.counts.mem_reads += 1;
        if a.activated {
            self.stats.counts.mem_activates += 1;
        }
        if a.page_hit {
            self.stats.counts.mem_page_hits += 1;
        }
        a.done_at
    }

    fn dram_write(&mut self, addr: u64) {
        let ch = self.channel_of(addr);
        let t = self.cycle;
        let a = self.channels[ch].access(addr, t);
        self.stats.counts.mem_writes += 1;
        if a.activated {
            self.stats.counts.mem_activates += 1;
        }
        if a.page_hit {
            self.stats.counts.mem_page_hits += 1;
        }
    }

    /// Writes a (dirty) line into the L3, or to memory when there is none.
    fn writeback_below(&mut self, addr: u64) {
        if self.l3.is_some() {
            self.stats.counts.xbar_transfers += 1;
            self.fill_l3(addr, LineState::Modified);
            self.stats.counts.l3_writes += 1;
        } else {
            self.dram_write(addr);
        }
    }

    fn fill_l3(&mut self, addr: u64, state: LineState) {
        let Some(l3) = self.l3.as_mut() else { return };
        self.stats.counts.l3_writes += 1;
        if let Some(ev) = l3.insert(addr, state) {
            if ev.state == LineState::Modified {
                self.dram_write(ev.addr);
            }
        }
    }

    fn fill_l1(&mut self, core: usize, addr: u64, state: LineState) {
        self.stats.counts.l1_writes += 1;
        if let Some(ev) = self.l1[core].insert(addr, state) {
            if ev.state == LineState::Modified {
                // Write the dirty L1 victim back into the (inclusive) L2.
                self.stats.counts.l2_writes += 1;
                self.l2[core].set_state(ev.addr, LineState::Modified);
            }
        }
    }

    fn fill_l2(&mut self, core: usize, addr: u64, state: LineState) {
        self.stats.counts.l2_writes += 1;
        if let Some(ev) = self.l2[core].insert(addr, state) {
            let ev_line = ev.addr >> self.line_shift;
            let was_owner = self.dir.evict(ev_line, core);
            // Inclusion: the L1 copy must go too.
            let l1_state = self.l1[core].invalidate(ev.addr);
            let dirty = ev.state == LineState::Modified
                || was_owner
                || l1_state == Some(LineState::Modified);
            if dirty {
                self.writeback_below(ev.addr);
            }
        }
    }

    /// Invalidates `mask` cores' copies; returns whether one of them held
    /// the line dirty (cache-to-cache source).
    fn invalidate_remotes(&mut self, mask: CoreSet, addr: u64, requester: usize) -> bool {
        let mut dirty = false;
        for other in mask.iter() {
            if other == requester {
                continue;
            }
            self.stats.counts.l2_reads += 1; // probe
            self.invalidations += 1;
            if self.l2[other].invalidate(addr) == Some(LineState::Modified) {
                dirty = true;
            }
            if self.l1[other].invalidate(addr) == Some(LineState::Modified) {
                dirty = true;
            }
        }
        dirty
    }

    /// Downgrades a dirty remote owner to Shared and pushes its data below.
    fn downgrade_remote(&mut self, owner: usize, addr: u64) {
        self.stats.counts.l2_reads += 1;
        self.l2[owner].set_state(addr, LineState::Shared);
        self.l1[owner].set_state(addr, LineState::Shared);
        self.writeback_below(addr);
    }

    /// Publishes the per-event counts gathered during a run — one atomic
    /// add per counter instead of one per event.
    fn publish_event_counters(&mut self) {
        if self.invalidations > 0 {
            cactid_obs::counter!("sim.coherence.invalidations").add(self.invalidations);
            self.invalidations = 0;
        }
        crate::dram::publish_refresh_stalls(&mut self.channels);
    }

    /// Closes out attribution: every unattributed thread-cycle was spent
    /// processing instructions.
    fn finalize(&mut self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.cycle - self.stats_epoch;
        let total = s.cycles * self.threads.len() as u64;
        let other: u64 = StallKind::ALL
            .iter()
            .skip(1)
            .map(|&k| s.attributed(k))
            .sum();
        s.cycle_breakdown[0] = total.saturating_sub(other);
        s
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept),
    /// so measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.stats_epoch = self.cycle;
    }

    /// Current cycle (diagnostics).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far without finalization (diagnostics).
    pub fn raw_stats(&self) -> &SimStats {
        &self.stats
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
