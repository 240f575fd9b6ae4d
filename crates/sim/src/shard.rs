//! Sharded simulator: deterministic epoch-synchronized actors.
//!
//! Each core (with its private L1/L2) is an actor; the shared fabric — L3
//! banks, coherence directory, DRAM channels, locks and the barrier —
//! lives at the *boundary*. The engine advances in epochs of a fixed
//! cycle quantum, each a two-phase step on one thread:
//!
//! * **Phase A**: every actor in turn simulates its own threads for the
//!   window `[t0, t0 + Q)` touching only actor-local state (L1/L2 hits,
//!   FP/other issue, round-robin arbitration). Anything that needs the
//!   shared fabric is appended to the actor's outbox as a message stamped
//!   `(cycle, core, seq)`.
//! * **Phase B**: the outboxes are drained in ascending
//!   `(cycle, core, seq)` order and applied to the boundary — directory
//!   lookups, invalidations/updates, L3 and DRAM reservations, lock
//!   grants, barrier release.
//!
//! Messages are processed in an order that is a pure function of
//! simulated time, so the results do not depend on the order in which
//! phase A visits the actors: each actor's window reads and writes only
//! its own state.
//!
//! The epoch quantum `Q` is chosen no larger than the minimum cross-core
//! response latency (`l1 + l2 + 2×xbar` cycles): a request issued inside
//! an epoch cannot receive its answer before the epoch ends, so deferring
//! all fabric interaction to the boundary loses no simulated-time
//! precision for remote traffic. Actor-local activity still advances
//! cycle by cycle inside the window.
//!
//! The engine runs on one thread. Splitting phase A across worker
//! threads measured slower: on a 2-CPU host two workers ran a 64-core
//! ft.B simulation at 0.60x the speed of one (DESIGN.md §18), because the
//! per-epoch barriers cost more than a window of work. Parallelism lives
//! at the study level instead, one simulation per pool job.
//!
//! This engine intentionally differs from the serial reference
//! [`crate::Simulator`] in *when* coherence actions land: the legacy loop
//! applies invalidations and fills instantly mid-cycle, while here they
//! land at epoch boundaries. Both are valid timing models; the legacy
//! loop remains the paper-study reference, and this engine is the one
//! that scales to 64–256 cores (and the only one implementing the Dragon
//! write-update protocol).

use crate::cache::{LineState, SetAssocCache};
use crate::coherence::{CoreSet, Directory, ReadSource};
use crate::config::{CoherenceProtocol, SystemConfig};
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

/// Where an L2 miss was ultimately serviced (boundary-side).
enum Source {
    RemoteL2,
    L3 { data_at: u64 },
    Memory { data_at: u64 },
}

/// A cross-core request, recorded during phase A and applied in phase B.
///
/// The `(cycle, core, seq)` triple is the canonical drain order: `seq` is
/// a per-actor monotone counter, so messages from one core replay in
/// issue order and ties across cores break by core index — exactly the
/// order the serial reference visits cores within a cycle.
#[derive(Debug, Clone, Copy)]
struct Msg {
    cycle: u64,
    core: u32,
    seq: u64,
    /// Core-local hardware-thread index of the issuer.
    tid: usize,
    kind: MsgKind,
}

#[derive(Debug, Clone, Copy)]
enum MsgKind {
    /// Blocking load missed L1+L2; the thread is parked in
    /// [`ThreadState::WaitingMem`] until the boundary answers.
    LoadMiss(u64),
    /// Posted store missed L1+L2; the thread already continued.
    StoreMiss(u64),
    /// Store hit a non-Modified local line; peers must be invalidated
    /// (MESI) or updated (Dragon).
    Upgrade(u64),
    Lock(u32),
    Unlock(u32),
    BarrierArrive,
}

/// Per-actor progress digest returned by each phase A window, so the
/// stop/fast-forward decision needs no second scan over every thread.
#[derive(Debug, Clone, Copy)]
struct ActorSummary {
    /// The earliest cycle one of the core's threads can issue
    /// ([`Thread::wake`]); `u64::MAX` when every one is parked.
    wake: u64,
    instructions: u64,
}

/// One core plus its private caches and threads.
struct CoreActor<T> {
    core: usize,
    trace: T,
    threads: Vec<Thread>,
    l1: SetAssocCache,
    l2: SetAssocCache,
    rr: usize,
    stats: SimStats,
    outbox: Vec<Msg>,
    seq: u64,
}

/// Shared-fabric state touched only in phase B.
struct Boundary {
    l3: Option<L3>,
    dir: Directory,
    channels: Vec<DramChannel>,
    /// `log2(L1 line bytes)`: byte address → line number.
    line_shift: u32,
    /// `channels - 1`: line number → DRAM channel.
    channel_mask: u64,
    locks: HashMap<u32, LockState>,
    barrier_count: usize,
    stats: SimStats,
}

/// Run counters exposed by [`ShardedSimulator::info`] (cumulative since
/// construction).
#[derive(Debug, Default, Clone)]
pub struct ShardInfo {
    /// Epochs executed (phase A + phase B pairs).
    pub epochs: u64,
    /// Cross-core messages drained at epoch boundaries.
    pub messages: u64,
    /// Thread-cycles spent blocked on boundary-resolved events (remote
    /// loads, lock waits, barrier waits).
    pub stall_cycles: u64,
    /// Remote copies invalidated (MESI write-invalidate).
    pub invalidations: u64,
    /// Remote copies updated in place (Dragon write-update).
    pub updates: u64,
    /// Always 0: the engine has no multi-worker path to fall back from.
    /// Kept so existing readers of the field still build.
    pub serial_fallbacks: u64,
    /// Always 1: the engine runs on one thread. Kept so existing readers
    /// of the field still build.
    pub last_workers: usize,
}

/// The epoch-synchronized actor simulator. Construct with
/// [`ShardedSimulator::try_new`], then call [`ShardedSimulator::run`].
///
/// `T` must be [`Clone`] because each actor owns a clone of the trace
/// source and polls only its own threads; sources in this workspace
/// derive every thread's stream from `(seed, tid)` alone, so the clones
/// yield exactly the streams the serial engine would see.
pub struct ShardedSimulator<T> {
    cfg: SystemConfig,
    quantum: u64,
    actors: Vec<CoreActor<T>>,
    boundary: Boundary,
    cycle: u64,
    stats_epoch: u64,
    info: ShardInfo,
}

impl<T: TraceSource + Clone> ShardedSimulator<T> {
    /// Builds an idle system; see [`ShardedSimulator::try_new`].
    ///
    /// `_workers` is ignored. It was the worker count of the removed
    /// multi-worker engine; the parameter stays for the `perfbench`
    /// package, which still passes one. Other callers use `try_new`.
    ///
    /// # Panics
    ///
    /// On an invalid configuration.
    pub fn new(cfg: SystemConfig, trace: T, _workers: usize) -> ShardedSimulator<T> {
        ShardedSimulator::try_new(cfg, trace)
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }

    /// Builds an idle system.
    ///
    /// # Errors
    ///
    /// Any [`crate::config::ConfigError`] from
    /// [`SystemConfig::validate`]. Both coherence protocols (MESI and
    /// Dragon) are accepted here.
    pub fn try_new(
        cfg: SystemConfig,
        trace: T,
    ) -> Result<ShardedSimulator<T>, crate::config::ConfigError> {
        cfg.validate()?;
        let tpc = cfg.threads_per_core as usize;
        let actors = (0..cfg.n_cores as usize)
            .map(|core| CoreActor {
                core,
                trace: trace.clone(),
                threads: (0..tpc).map(|_| Thread::new()).collect(),
                l1: SetAssocCache::new(
                    cfg.l1.capacity_bytes,
                    cfg.l1.line_bytes,
                    cfg.l1.associativity,
                ),
                l2: SetAssocCache::new(
                    cfg.l2.capacity_bytes,
                    cfg.l2.line_bytes,
                    cfg.l2.associativity,
                ),
                rr: 0,
                stats: SimStats::default(),
                outbox: Vec::new(),
                seq: 0,
            })
            .collect();
        let boundary = Boundary {
            l3: cfg.l3.clone().map(L3::try_new).transpose()?,
            dir: Directory::new(),
            channels: (0..cfg.dram.channels)
                .map(|_| DramChannel::new(cfg.dram.clone()))
                .collect(),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            channel_mask: u64::from(cfg.dram.channels) - 1,
            locks: HashMap::new(),
            barrier_count: 0,
            stats: SimStats::default(),
        };
        Ok(ShardedSimulator {
            quantum: epoch_quantum(&cfg),
            actors,
            boundary,
            cycle: 0,
            stats_epoch: 0,
            info: ShardInfo {
                last_workers: 1,
                ..ShardInfo::default()
            },
            cfg,
        })
    }

    /// The epoch quantum in cycles (diagnostics).
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative engine counters.
    pub fn info(&self) -> &ShardInfo {
        &self.info
    }

    /// Runs until `target_instructions` have retired (or the same safety
    /// cap as the serial engine: 1000 cycles per requested instruction),
    /// returning the merged statistics.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let _run = cactid_obs::span("sim.shard.run");
        let pre = self.info.clone();

        let start_cycle = self.cycle;
        let cycle_cap = start_cycle + target_instructions.saturating_mul(1000).max(10_000);
        let start_instr: u64 = self.actors.iter().map(|a| a.stats.instructions).sum();
        let target = start_instr + target_instructions;

        let Self {
            cfg,
            quantum,
            actors,
            boundary,
            info,
            ..
        } = self;
        let (cfg, quantum) = (&*cfg, *quantum);
        let mut t0 = start_cycle;
        let mut msgs: Vec<Msg> = Vec::new();
        let mut last_tick = std::time::Instant::now();
        let final_cycle = loop {
            let t_end = t0 + quantum;
            // Phase A, one actor at a time: run its window, take its
            // outbox and fold in its progress digest.
            let mut total_instr = 0;
            let mut wake = u64::MAX;
            for a in actors.iter_mut() {
                let s = a.run_window(cfg, t0, t_end);
                msgs.append(&mut a.outbox);
                total_instr += s.instructions;
                wake = wake.min(s.wake);
            }
            // Phase B. Draining resolves blocked threads into
            // StalledUntil; each such wake folds into `wake` as it
            // happens, so no post-drain rescan is needed.
            msgs.sort_unstable_by_key(|m| (m.cycle, m.core, m.seq));
            info.epochs += 1;
            info.messages += msgs.len() as u64;
            for m in msgs.drain(..) {
                process(cfg, actors, boundary, info, &m, t_end, &mut wake);
            }
            let now = std::time::Instant::now();
            cactid_obs::histogram!("sim.shard.epoch.ns")
                .record(now.duration_since(last_tick).as_nanos() as u64);
            last_tick = now;

            // `wake == u64::MAX`: nothing will ever wake, a
            // synchronization deadlock.
            if total_instr >= target || t_end >= cycle_cap || wake == u64::MAX {
                break t_end;
            }
            // A thread that could already issue resumes at the window
            // edge; otherwise skip ahead to the earliest stall's end.
            t0 = wake.max(t_end);
        };

        self.cycle = final_cycle;
        cactid_obs::counter!("sim.shard.epochs").add(self.info.epochs - pre.epochs);
        cactid_obs::counter!("sim.shard.msgs").add(self.info.messages - pre.messages);
        cactid_obs::counter!("sim.shard.stall_cycles")
            .add(self.info.stall_cycles - pre.stall_cycles);
        cactid_obs::counter!("sim.coherence.invalidations")
            .add(self.info.invalidations - pre.invalidations);
        cactid_obs::counter!("sim.coherence.updates").add(self.info.updates - pre.updates);
        crate::dram::publish_refresh_stalls(&mut self.boundary.channels);
        self.finalize()
    }

    /// Closes out attribution exactly like the serial engine: every
    /// unattributed thread-cycle was spent processing instructions.
    fn finalize(&mut self) -> SimStats {
        let mut s = self.boundary.stats.clone();
        for a in &self.actors {
            s.merge(&a.stats);
        }
        s.cycles = self.cycle - self.stats_epoch;
        let total = s.cycles * self.cfg.n_threads() as u64;
        let other: u64 = StallKind::ALL
            .iter()
            .skip(1)
            .map(|&k| s.attributed(k))
            .sum();
        s.cycle_breakdown[0] = total.saturating_sub(other);
        s
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept), so
    /// measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.boundary.stats = SimStats::default();
        for a in &mut self.actors {
            a.stats = SimStats::default();
        }
        self.stats_epoch = self.cycle;
    }

    /// Consumes the simulator and hands back each actor's trace source in
    /// core order (e.g. [`crate::record::Recorder`] clones whose captures
    /// you want to splice per owning core).
    pub fn into_trace_sources(self) -> Vec<T> {
        self.actors.into_iter().map(|a| a.trace).collect()
    }
}

/// The epoch quantum: the minimum latency of any cross-core response.
///
/// A remote answer to a request issued at cycle `c` arrives no earlier
/// than `c + l1 + l2 + 2×xbar` (cache-to-cache is `l2_lat + 2×xbar + l2`;
/// L3 and memory paths reserve from `c + l2_lat + xbar` and add `xbar` on
/// the return). With `Q` no larger than that bound, a thread blocked on
/// the fabric can never need waking *inside* the epoch that issued the
/// request, so resolving all cross-core traffic at the boundary is
/// timing-exact for remote requests.
fn epoch_quantum(cfg: &SystemConfig) -> u64 {
    let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;
    let xbar = cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles);
    (l2_lat + 2 * xbar).max(1)
}

impl<T: TraceSource> CoreActor<T> {
    fn push(&mut self, cycle: u64, tid: usize, kind: MsgKind) {
        self.outbox.push(Msg {
            cycle,
            core: self.core as u32,
            seq: self.seq,
            tid,
            kind,
        });
        self.seq += 1;
    }

    /// Phase A: simulates this core's threads for cycles `[t0, t1)`.
    fn run_window(&mut self, cfg: &SystemConfig, t0: u64, t1: u64) -> ActorSummary {
        let tpc = self.threads.len();
        // The earliest cycle one of this core's threads can issue. Within
        // a window no cross-core event can wake a thread (the epoch
        // quantum is bounded by the minimum cross-core latency) and a
        // turn changes only its own thread, so folding each thread's wake
        // after its turn keeps this exact without a rescan — and the
        // fast-forward below depends only on this actor's state.
        let mut wake = self
            .threads
            .iter()
            .map(Thread::wake)
            .min()
            .unwrap_or(u64::MAX);
        let mut cycle = t0;
        while cycle < t1 {
            // Fast-forward across stretches where every thread in this
            // core is blocked, exactly like the serial loop.
            if wake > cycle {
                // Everything parked on the boundary (`u64::MAX`) or
                // stalled past the window: nothing more can happen here
                // until the epoch-edge drain.
                if wake >= t1 {
                    break;
                }
                cycle = wake;
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
                let thread_wake = self.threads[lt].wake();
                if thread_wake > cycle {
                    next_wake = next_wake.min(thread_wake);
                    continue;
                }
                if self.threads[lt].pending.is_none() {
                    let gtid = self.core * tpc + lt;
                    self.threads[lt].pending = Some(self.trace.next(gtid));
                }
                let Some(instr) = self.threads[lt].pending else {
                    unreachable!("a pending instruction was fetched just above")
                };
                let issued = match instr {
                    Instr::Fp if fp_free => {
                        fp_free = false;
                        true
                    }
                    Instr::Other if other_free => {
                        other_free = false;
                        self.threads[lt].state =
                            ThreadState::StalledUntil(cycle + cfg.other_instr_cycles);
                        true
                    }
                    Instr::Load(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        match self.local_access(cfg, lt, addr, false, cycle) {
                            Some((latency, kind)) => {
                                self.stats.loads += 1;
                                self.stats.load_latency_sum += latency;
                                let level = match kind {
                                    StallKind::Instruction => 0,
                                    _ => 1,
                                };
                                self.stats.load_level_hits[level] += 1;
                                let stall = latency.saturating_sub(cfg.l1.access_cycles);
                                if stall > 0 && kind != StallKind::Instruction {
                                    self.stats.attribute(kind, stall);
                                }
                                self.threads[lt].state = ThreadState::StalledUntil(cycle + latency);
                            }
                            None => {
                                self.push(cycle, lt, MsgKind::LoadMiss(addr));
                                self.threads[lt].state = ThreadState::WaitingMem(cycle);
                            }
                        }
                        true
                    }
                    Instr::Store(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        if self.local_access(cfg, lt, addr, true, cycle).is_none() {
                            self.push(cycle, lt, MsgKind::StoreMiss(addr));
                        }
                        // Posted store: the thread continues next cycle.
                        self.threads[lt].state = ThreadState::StalledUntil(cycle + 1);
                        true
                    }
                    Instr::Barrier => {
                        self.threads[lt].state = ThreadState::AtBarrier(cycle);
                        self.push(cycle, lt, MsgKind::BarrierArrive);
                        true
                    }
                    Instr::Lock(id) if other_free => {
                        other_free = false;
                        self.threads[lt].state = ThreadState::WaitingLock(id, cycle);
                        self.push(cycle, lt, MsgKind::Lock(id));
                        true
                    }
                    Instr::Unlock(id) if other_free => {
                        other_free = false;
                        self.threads[lt].state = ThreadState::StalledUntil(cycle + 1);
                        self.push(cycle, lt, MsgKind::Unlock(id));
                        true
                    }
                    _ => false,
                };
                if issued {
                    self.threads[lt].pending = None;
                    self.threads[lt].retired += 1;
                    self.stats.instructions += 1;
                    self.stats.counts.l1i_reads += 1;
                }
                next_wake = next_wake.min(self.threads[lt].wake());
            }
            wake = next_wake;
            self.rr += 1;
            if self.rr == tpc {
                self.rr = 0;
            }
            cycle += 1;
        }
        // Digest this window's outcome for the epoch loop: a wake below
        // `t1` means a thread is issuable at the window edge.
        ActorSummary {
            wake,
            instructions: self.stats.instructions,
        }
    }

    /// The actor-local slice of a memory access: L1 and L2 hits are
    /// serviced entirely here; `None` means the request must go to the
    /// boundary. Stores that hit a non-Modified line emit an Upgrade
    /// message for phase B.
    fn local_access(
        &mut self,
        cfg: &SystemConfig,
        lt: usize,
        addr: u64,
        is_store: bool,
        cycle: u64,
    ) -> Option<(u64, StallKind)> {
        self.stats.counts.l1_reads += 1;
        if let Some(state) = self.l1.lookup(addr) {
            if is_store {
                self.stats.counts.l1_writes += 1;
                if state != LineState::Modified {
                    self.push(cycle, lt, MsgKind::Upgrade(addr));
                    self.l1.set_state(addr, LineState::Modified);
                    self.l2.set_state(addr, LineState::Modified);
                }
            }
            return Some((cfg.l1.access_cycles, StallKind::Instruction));
        }
        self.stats.counts.l2_reads += 1;
        let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;
        if let Some(state) = self.l2.lookup(addr) {
            let new_state = if is_store {
                self.push(cycle, lt, MsgKind::Upgrade(addr));
                self.stats.counts.l2_writes += 1;
                LineState::Modified
            } else {
                state
            };
            self.l2.set_state(addr, new_state);
            self.fill_l1(addr, new_state);
            return Some((l2_lat, StallKind::L2Access));
        }
        None
    }

    fn fill_l1(&mut self, addr: u64, state: LineState) {
        self.stats.counts.l1_writes += 1;
        if let Some(ev) = self.l1.insert(addr, state) {
            if ev.state == LineState::Modified {
                // Write the dirty L1 victim back into the (inclusive) L2.
                self.stats.counts.l2_writes += 1;
                self.l2.set_state(ev.addr, LineState::Modified);
            }
        }
    }
}

impl Boundary {
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

    fn dram_write(&mut self, addr: u64, now: u64) {
        let ch = self.channel_of(addr);
        let a = self.channels[ch].access(addr, now);
        self.stats.counts.mem_writes += 1;
        if a.activated {
            self.stats.counts.mem_activates += 1;
        }
        if a.page_hit {
            self.stats.counts.mem_page_hits += 1;
        }
    }

    /// Writes a (dirty) line into the L3, or to memory when there is none.
    fn writeback_below(&mut self, addr: u64, now: u64) {
        if self.l3.is_some() {
            self.stats.counts.xbar_transfers += 1;
            self.fill_l3(addr, LineState::Modified, now);
            self.stats.counts.l3_writes += 1;
        } else {
            self.dram_write(addr, now);
        }
    }

    fn fill_l3(&mut self, addr: u64, state: LineState, now: u64) {
        let Some(l3) = self.l3.as_mut() else { return };
        self.stats.counts.l3_writes += 1;
        if let Some(ev) = l3.insert(addr, state) {
            if ev.state == LineState::Modified {
                self.dram_write(ev.addr, now);
            }
        }
    }

    /// Fetches a line from the L3 (if present and hit) or main memory;
    /// reserves timing resources from `t_req` onward.
    fn fetch_below(&mut self, addr: u64, t_req: u64) -> Source {
        if let Some(l3) = self.l3.as_mut() {
            self.stats.counts.l3_reads += 1;
            let hit = l3.lookup(addr).is_some();
            let (t, page_hit) = l3.reserve_detailed(addr, t_req);
            self.stats.counts.l3_page_hits += u64::from(page_hit);
            if hit {
                return Source::L3 { data_at: t };
            }
            // L3 miss: tag check occupied the bank, then go to memory.
            let done = self.dram_read(addr, t);
            self.fill_l3(addr, LineState::Shared, t_req);
            Source::Memory { data_at: done }
        } else {
            let done = self.dram_read(addr, t_req);
            Source::Memory { data_at: done }
        }
    }
}

/// Invalidates `mask` cores' copies (MESI); returns whether one of them
/// held the line dirty (cache-to-cache source).
fn invalidate_remotes<T>(
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    info: &mut ShardInfo,
    mask: CoreSet,
    addr: u64,
    requester: usize,
) -> bool {
    let mut dirty = false;
    for other in mask.iter() {
        if other == requester {
            continue;
        }
        b.stats.counts.l2_reads += 1; // probe
        info.invalidations += 1;
        let a = &mut actors[other];
        if a.l2.invalidate(addr) == Some(LineState::Modified) {
            dirty = true;
        }
        if a.l1.invalidate(addr) == Some(LineState::Modified) {
            dirty = true;
        }
    }
    dirty
}

/// Pushes the written line into `peers`' caches in place (Dragon): their
/// copies stay valid in Shared state instead of being invalidated.
fn update_remotes<T>(
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    info: &mut ShardInfo,
    peers: CoreSet,
    addr: u64,
    requester: usize,
) {
    for other in peers.iter() {
        if other == requester {
            continue;
        }
        info.updates += 1;
        b.stats.counts.l2_writes += 1; // the update lands in the peer's L2
        b.stats.counts.xbar_transfers += 1;
        let a = &mut actors[other];
        a.l2.set_state(addr, LineState::Shared);
        a.l1.set_state(addr, LineState::Shared);
    }
}

/// Downgrades a dirty remote owner to Shared and pushes its data below.
fn downgrade_remote<T>(
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    owner: usize,
    addr: u64,
    now: u64,
) {
    b.stats.counts.l2_reads += 1;
    {
        let a = &mut actors[owner];
        a.l2.set_state(addr, LineState::Shared);
        a.l1.set_state(addr, LineState::Shared);
    }
    b.writeback_below(addr, now);
}

/// Phase B: applies one drained message to the boundary. Every thread it
/// resolves into [`ThreadState::StalledUntil`] is folded into
/// `wake`, keeping the epoch loop's fast-forward bound exact
/// without a post-drain rescan.
#[allow(clippy::too_many_arguments)]
fn process<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    info: &mut ShardInfo,
    m: &Msg,
    t_end: u64,
    wake: &mut u64,
) {
    let core = m.core as usize;
    let tpc = cfg.threads_per_core as usize;
    match m.kind {
        MsgKind::Upgrade(addr) => {
            let line = addr >> b.line_shift;
            match cfg.protocol {
                CoherenceProtocol::Mesi => {
                    let mask = b.dir.write(line, core);
                    invalidate_remotes(actors, b, info, mask, addr, core);
                }
                CoherenceProtocol::Dragon => {
                    let (peers, _) = b.dir.write_update(line, core);
                    update_remotes(actors, b, info, peers, addr, core);
                }
            }
        }
        MsgKind::LoadMiss(addr) => miss(cfg, actors, b, info, m, addr, false, wake),
        MsgKind::StoreMiss(addr) => miss(cfg, actors, b, info, m, addr, true, wake),
        MsgKind::Lock(id) => {
            let gtid = core * tpc + m.tid;
            let lock = b.locks.entry(id).or_default();
            if lock.holder.is_none() {
                lock.holder = Some(gtid);
                let wait = t_end - m.cycle;
                b.stats.attribute(StallKind::Lock, wait);
                info.stall_cycles += wait;
                actors[core].threads[m.tid].state = ThreadState::StalledUntil(t_end + 1);
                *wake = (*wake).min(t_end + 1);
            } else {
                lock.queue.push_back(gtid);
            }
        }
        MsgKind::Unlock(id) => {
            let gtid = core * tpc + m.tid;
            let lock = b.locks.entry(id).or_default();
            debug_assert_eq!(lock.holder, Some(gtid), "unlock by non-holder");
            lock.holder = None;
            if let Some(next) = lock.queue.pop_front() {
                lock.holder = Some(next);
                let a = &mut actors[next / tpc];
                if let ThreadState::WaitingLock(_, since) = a.threads[next % tpc].state {
                    let wait = t_end - since;
                    b.stats.attribute(StallKind::Lock, wait);
                    info.stall_cycles += wait;
                }
                a.threads[next % tpc].state = ThreadState::StalledUntil(t_end + 1);
                *wake = (*wake).min(t_end + 1);
            }
        }
        MsgKind::BarrierArrive => {
            b.barrier_count += 1;
            if b.barrier_count == cfg.n_threads() {
                for a in actors.iter_mut() {
                    for t in &mut a.threads {
                        if let ThreadState::AtBarrier(since) = t.state {
                            let wait = t_end - since;
                            b.stats.attribute(StallKind::Barrier, wait);
                            info.stall_cycles += wait;
                            t.state = ThreadState::StalledUntil(t_end + 1);
                            *wake = (*wake).min(t_end + 1);
                        }
                    }
                }
                b.barrier_count = 0;
            }
        }
    }
}

/// Phase B handling of an L2 miss — the boundary-side tail of the serial
/// engine's `mem_access`, anchored at the message's issue cycle.
#[allow(clippy::too_many_arguments)]
fn miss<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    info: &mut ShardInfo,
    m: &Msg,
    addr: u64,
    is_store: bool,
    wake: &mut u64,
) {
    let core = m.core as usize;
    let now = m.cycle;
    let line = addr >> b.line_shift;
    let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;

    // Re-probe: an earlier message this epoch (another thread on the same
    // core missing the same line) may already have filled the L2. Service
    // it as the L2 hit it now is — mirroring what the serial engine sees
    // when the first miss fills instantly.
    let refill = actors[core].l2.lookup(addr);
    if let Some(state) = refill {
        if is_store {
            match cfg.protocol {
                CoherenceProtocol::Mesi => {
                    let mask = b.dir.write(line, core);
                    invalidate_remotes(actors, b, info, mask, addr, core);
                }
                CoherenceProtocol::Dragon => {
                    let (peers, _) = b.dir.write_update(line, core);
                    update_remotes(actors, b, info, peers, addr, core);
                }
            }
            let a = &mut actors[core];
            a.stats.counts.l2_writes += 1;
            a.l2.set_state(addr, LineState::Modified);
            a.fill_l1(addr, LineState::Modified);
        } else {
            let a = &mut actors[core];
            a.l2.set_state(addr, state);
            a.fill_l1(addr, state);
            b.stats.loads += 1;
            b.stats.load_latency_sum += l2_lat;
            b.stats.load_level_hits[1] += 1;
            let stall = l2_lat.saturating_sub(cfg.l1.access_cycles);
            if stall > 0 {
                b.stats.attribute(StallKind::L2Access, stall);
            }
            info.stall_cycles += l2_lat;
            a.threads[m.tid].state = ThreadState::StalledUntil(now + l2_lat);
            *wake = (*wake).min(now + l2_lat);
        }
        return;
    }

    let (from_remote, shared) = if is_store {
        match cfg.protocol {
            CoherenceProtocol::Mesi => {
                let mask = b.dir.write(line, core);
                let dirty = invalidate_remotes(actors, b, info, mask, addr, core);
                (dirty, false)
            }
            CoherenceProtocol::Dragon => {
                let (peers, prev) = b.dir.write_update(line, core);
                update_remotes(actors, b, info, peers, addr, core);
                (prev.is_some_and(|o| o != core), false)
            }
        }
    } else {
        let src = match cfg.protocol {
            CoherenceProtocol::Mesi => b.dir.read(line, core),
            CoherenceProtocol::Dragon => b.dir.read_keep_owner(line, core),
        };
        match src {
            ReadSource::RemoteOwner(owner) => {
                match cfg.protocol {
                    CoherenceProtocol::Mesi => {
                        downgrade_remote(actors, b, owner, addr, now);
                    }
                    // Dragon: the owner supplies data cache-to-cache but
                    // keeps ownership — no downgrade, no writeback.
                    CoherenceProtocol::Dragon => {
                        b.stats.counts.l2_reads += 1;
                    }
                }
                (true, true)
            }
            ReadSource::SharedClean => (false, true),
            ReadSource::Below => (false, false),
        }
    };

    let xbar = cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles);
    let source = if from_remote {
        Source::RemoteL2
    } else {
        b.fetch_below(addr, now + l2_lat + xbar)
    };
    let (latency, kind) = match source {
        Source::RemoteL2 => {
            // Cache-to-cache transfer over the crossbar.
            b.stats.counts.l2_reads += 1;
            b.stats.counts.xbar_transfers += 2;
            (
                l2_lat + 2 * xbar + cfg.l2.access_cycles,
                StallKind::L2Access,
            )
        }
        Source::L3 { data_at } => {
            b.stats.counts.xbar_transfers += 2;
            (data_at.saturating_sub(now) + xbar, StallKind::L3Access)
        }
        Source::Memory { data_at } => {
            if b.l3.is_some() {
                b.stats.counts.xbar_transfers += 2;
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
    fill_l2_boundary(actors, b, core, addr, fill_state, now);
    actors[core].fill_l1(addr, fill_state);
    if is_store {
        b.stats.counts.l2_writes += 1;
    } else {
        b.stats.loads += 1;
        b.stats.load_latency_sum += latency;
        let level = match kind {
            StallKind::L2Access => 1,
            StallKind::L3Access => 2,
            _ => 3,
        };
        b.stats.load_level_hits[level] += 1;
        let stall = latency.saturating_sub(cfg.l1.access_cycles);
        if stall > 0 {
            b.stats.attribute(kind, stall);
        }
        info.stall_cycles += latency;
        let a = &mut actors[core];
        debug_assert!(
            matches!(a.threads[m.tid].state, ThreadState::WaitingMem(_)),
            "a load-miss message must find its thread parked"
        );
        a.threads[m.tid].state = ThreadState::StalledUntil(now + latency);
        *wake = (*wake).min(now + latency);
    }
}

/// Inserts into the requester's L2, handling the eviction against the
/// directory and the inclusive L1 exactly like the serial engine.
fn fill_l2_boundary<T: TraceSource>(
    actors: &mut [CoreActor<T>],
    b: &mut Boundary,
    core: usize,
    addr: u64,
    state: LineState,
    now: u64,
) {
    let ev = {
        let a = &mut actors[core];
        a.stats.counts.l2_writes += 1;
        a.l2.insert(addr, state)
    };
    if let Some(ev) = ev {
        let ev_line = ev.addr >> b.line_shift;
        let was_owner = b.dir.evict(ev_line, core);
        // Inclusion: the L1 copy must go too.
        let l1_state = actors[core].l1.invalidate(ev.addr);
        let dirty =
            ev.state == LineState::Modified || was_owner || l1_state == Some(LineState::Modified);
        if dirty {
            b.writeback_below(ev.addr, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedSource;

    #[test]
    fn quantum_is_the_min_cross_shard_latency() {
        let no_l3 = SystemConfig::baseline_no_l3();
        assert_eq!(
            epoch_quantum(&no_l3),
            no_l3.l1.access_cycles + no_l3.l2.access_cycles + 4
        );
        let with_l3 = SystemConfig::with_sram_l3();
        let xbar = with_l3.l3.as_ref().unwrap().xbar_cycles;
        assert_eq!(
            epoch_quantum(&with_l3),
            with_l3.l1.access_cycles + with_l3.l2.access_cycles + 2 * xbar
        );
    }

    #[test]
    fn run_makes_progress_and_reports_epochs() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = ShardedSimulator::try_new(cfg, trace).unwrap();
        let stats = sim.run(20_000);
        assert!(stats.instructions >= 20_000);
        assert!(sim.info().epochs > 0);
        assert!(sim.cycle() > 0);
        let total: u64 = stats.cycle_breakdown.iter().sum();
        assert_eq!(total, stats.cycles * 32);
    }

    #[test]
    fn reset_stats_starts_a_fresh_measurement_window() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = ShardedSimulator::try_new(cfg, trace).unwrap();
        sim.run(5_000);
        sim.reset_stats();
        let stats = sim.run(5_000);
        assert!(stats.instructions >= 5_000);
        assert!(stats.instructions < 11_000, "warm-up must be discarded");
    }
}
