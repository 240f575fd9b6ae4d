//! The simulator engine: one issue stage, two timing policies.
//!
//! Each core (with its private L1/L2) is an actor; the shared fabric — L3
//! banks, coherence directory, DRAM channels, locks and the barrier —
//! lives at the *boundary*. The engine advances in windows, each a
//! two-phase step on one thread:
//!
//! * **Phase A**: every actor in turn simulates its own threads for the
//!   window, touching only actor-local state (L1/L2 hits, FP/other issue,
//!   round-robin arbitration). Anything that needs the shared fabric is
//!   appended to the outbox as a message stamped with its cycle and core.
//! * **Phase B**: the outbox is drained in ascending `(cycle, core, issue
//!   order)` and applied to the boundary — directory lookups,
//!   invalidations/updates, L3 and DRAM reservations, lock grants,
//!   barrier release.
//!
//! The one issue stage (`Cores::issue`, one core for one cycle) serves
//! both timing policies; the constructor fixes which one a simulator
//! runs:
//!
//! * **Epoch** ([`ShardedSimulator::try_new`]): a window is a quantum of
//!   `Q` cycles, no larger than the minimum cross-core response latency
//!   (`l1 + l2 + 2×xbar`), so a request issued inside a window cannot
//!   receive its answer before the window ends. Every actor runs its
//!   whole window, then the edge drains every message. This is the engine
//!   that scales to 64–256 cores.
//! * **Issue** ([`crate::Simulator`]): the paper study's timing. A window
//!   is one cycle, the issue stage services L2 misses and upgrades
//!   itself, each core's lock and barrier messages are drained right
//!   after its own window, and every effect lands at the issuing cycle.
//!   DESIGN.md §8 lists the six ways it differs from Epoch timing.
//!
//! Messages are processed in an order that is a pure function of
//! simulated time, so the results do not depend on the order in which
//! phase A visits the actors under Epoch timing: each actor's window
//! reads and writes only its own state, and every trace in this
//! workspace derives each thread's stream from `(seed, tid)` alone.
//!
//! The engine runs on one thread. Splitting phase A across worker
//! threads measured slower: on a 2-CPU host two workers ran a 64-core
//! ft.B simulation at 0.60x the speed of one (DESIGN.md §18), because the
//! per-epoch barriers cost more than a window of work. Parallelism lives
//! at the study level instead, one simulation per pool job.

use crate::coherence::Directory;
use crate::config::SystemConfig;
use crate::core::{Thread, ThreadState};
use crate::memsys::MemSystem;
use crate::stats::{SimStats, StallKind};
use crate::trace::{Instr, TraceSource};

/// When a memory-side effect lands; fixed by the constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timing {
    /// At the edge of an epoch of [`epoch_quantum`] cycles.
    Epoch,
    /// At the issuing cycle.
    Issue,
}

/// A cross-core request, recorded during phase A and applied in phase B.
///
/// Each core pushes its messages in issue order and the cores' windows
/// run in core order, so a stable sort by `cycle` yields the canonical
/// drain order `(cycle, core, issue order)` — exactly the order the
/// cores issue in under Issue timing.
#[derive(Debug, Clone, Copy)]
struct Msg {
    cycle: u64,
    core: u32,
    /// Global hardware-thread index of the issuer.
    tid: u32,
    kind: MsgKind,
}

/// Under Issue timing the issue stage services the three memory kinds
/// itself, so only the lock and barrier kinds are sent.
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

/// Every core's threads, the one trace they fetch from, and the outbox
/// their fabric requests wait in; each core's private caches are
/// `MemSystem::cores[core]`.
struct Cores<T> {
    trace: T,
    /// Indexed by global thread id: core `c` owns `c * tpc..(c + 1) * tpc`.
    threads: Vec<Thread>,
    outbox: Vec<Msg>,
    tpc: usize,
    other_cycles: u64,
}

/// When each core can next issue.
struct Wakes {
    /// Per core: the earliest cycle one of its threads can issue
    /// ([`Thread::wake`] minimized over the core), `u64::MAX` when all are
    /// parked. Kept exact, not a lower bound: a visited cycle with no
    /// issuable thread would still advance the round-robin start.
    core: Vec<u64>,
    /// The minimum of `core`, exact between steps. A step folds it in a
    /// local as it passes each core; the drain lowers it with every
    /// thread it resolves.
    soonest: u64,
}

impl Wakes {
    /// A thread of `core` was resolved to issue from `at`.
    fn lower(&mut self, core: usize, at: u64) {
        self.core[core] = self.core[core].min(at);
        self.soonest = self.soonest.min(at);
    }
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
/// [`ShardedSimulator::try_new`], then call [`ShardedSimulator::run`];
/// [`crate::Simulator`] runs the same engine under Issue timing.
pub struct ShardedSimulator<T> {
    timing: Timing,
    /// Window length: the epoch quantum, or 1 under Issue timing.
    quantum: u64,
    cores: Cores<T>,
    wakes: Wakes,
    /// Round-robin start thread: one per core under Epoch timing, one
    /// shared by every core under Issue timing.
    rr: Vec<usize>,
    /// Phase A touches only `mem.cores[core]` of each actor; phase B
    /// touches everything.
    mem: MemSystem,
    cycle: u64,
    stats_epoch: u64,
    info: ShardInfo,
}

impl<T: TraceSource> ShardedSimulator<T> {
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

    /// Builds an idle system under Epoch timing.
    ///
    /// # Errors
    ///
    /// Any [`crate::config::ConfigError`] from
    /// [`SystemConfig::validate`].
    pub fn try_new(
        cfg: SystemConfig,
        trace: T,
    ) -> Result<ShardedSimulator<T>, crate::config::ConfigError> {
        ShardedSimulator::with_timing(cfg, trace, Timing::Epoch)
    }

    pub(crate) fn with_timing(
        cfg: SystemConfig,
        trace: T,
        timing: Timing,
    ) -> Result<ShardedSimulator<T>, crate::config::ConfigError> {
        cfg.validate()?;
        let n_cores = cfg.n_cores as usize;
        let (quantum, n_rr, dir) = match timing {
            Timing::Epoch => (epoch_quantum(&cfg), n_cores, Directory::new()),
            // Every tracked line sits in some L2, so the total L2 line
            // count bounds the directory; presized, it never rehashes.
            Timing::Issue => (
                1,
                1,
                Directory::with_capacity(
                    n_cores * (cfg.l2.capacity_bytes / u64::from(cfg.l2.line_bytes)) as usize,
                ),
            ),
        };
        Ok(ShardedSimulator {
            timing,
            quantum,
            cores: Cores {
                trace,
                threads: (0..cfg.n_threads()).map(|_| Thread::new()).collect(),
                outbox: Vec::new(),
                tpc: cfg.threads_per_core as usize,
                other_cycles: cfg.other_instr_cycles,
            },
            wakes: Wakes {
                core: vec![0; n_cores],
                soonest: 0,
            },
            rr: vec![0; n_rr],
            mem: MemSystem::new(&cfg, dir)?,
            cycle: 0,
            stats_epoch: 0,
            info: ShardInfo {
                last_workers: 1,
                ..ShardInfo::default()
            },
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

    /// Runs until `target_instructions` have retired (or a safety cap of
    /// 1000 cycles per requested instruction is hit), returning the
    /// merged statistics. A synchronization deadlock in the trace — every
    /// thread parked, so nothing will ever wake — stops the run early.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let _run = cactid_obs::span("sim.shard.run");
        let pre = self.info.clone();
        self.advance(target_instructions);
        let (invalidations, updates) = self.mem.publish_event_counters();
        self.info.invalidations += invalidations;
        self.info.updates += updates;
        cactid_obs::counter!("sim.shard.epochs").add(self.info.epochs - pre.epochs);
        cactid_obs::counter!("sim.shard.msgs").add(self.info.messages - pre.messages);
        cactid_obs::counter!("sim.shard.stall_cycles")
            .add(self.info.stall_cycles - pre.stall_cycles);
        self.mem.finalize(self.cycle - self.stats_epoch)
    }

    /// Steps until `target_instructions` have issued, the cycle cap is
    /// reached or nothing can ever wake.
    fn advance(&mut self, target_instructions: u64) {
        let cycle_cap = self.cycle + target_instructions.saturating_mul(1000).max(10_000);
        let issue = self.timing == Timing::Issue;
        let mut left = target_instructions;
        let mut t0 = self.cycle;
        if self.wakes.soonest == u64::MAX {
            // Nothing will ever wake: a synchronization deadlock.
            return;
        }
        if issue {
            // Issue timing steps only at cycles where a thread can issue,
            // the first step of a run included.
            if left == 0 {
                return;
            }
            t0 = t0.max(self.wakes.soonest);
        }
        let mut epochs = 0;
        self.cycle = loop {
            let t_end = t0 + self.quantum;
            let issued = if issue {
                self.step(t0)
            } else {
                self.epoch(t0, t_end)
            };
            epochs += 1;
            left = left.saturating_sub(issued);
            let wake = self.wakes.soonest;
            // `wake == u64::MAX`: nothing will ever wake, a
            // synchronization deadlock.
            if left == 0 || t_end >= cycle_cap || wake == u64::MAX {
                break t_end;
            }
            // A thread that could already issue resumes at the window
            // edge; otherwise skip ahead to the earliest stall's end.
            t0 = wake.max(t_end);
        };
        self.info.epochs += epochs;
    }

    /// One Epoch-timing window `[t0, t_end)`: every core runs its threads
    /// through it, fast-forwarding across cycles where none can issue,
    /// then the edge drains the outbox. Returns the instructions issued.
    fn epoch(&mut self, t0: u64, t_end: u64) -> u64 {
        let tpc = self.cores.tpc;
        let mut issued = 0;
        let mut soonest = u64::MAX;
        for core in 0..self.wakes.core.len() {
            // Within a window no cross-core event can wake a thread (the
            // quantum is bounded by the minimum cross-core latency), so
            // the wake carried from cycle to cycle stays exact, and a core
            // none of whose threads can issue before the edge is skipped.
            let mut wake = self.wakes.core[core];
            if wake < t_end {
                let mut rr = self.rr[core];
                let mut cycle = t0;
                while cycle < t_end {
                    if wake > cycle {
                        if wake >= t_end {
                            break;
                        }
                        cycle = wake;
                    }
                    let (w, n) = self.cores.issue::<false>(&mut self.mem, core, cycle, rr);
                    wake = w;
                    issued += n;
                    rr = if rr + 1 == tpc { 0 } else { rr + 1 };
                    cycle += 1;
                }
                self.wakes.core[core] = wake;
                self.rr[core] = rr;
            }
            soonest = soonest.min(wake);
        }
        self.wakes.soonest = soonest;
        self.cores.outbox.sort_by_key(|m| m.cycle);
        self.drain(Some(t_end));
        issued
    }

    /// One Issue-timing cycle: every core with an issuable thread runs
    /// its issue stage, which services its memory accesses, and its lock
    /// and barrier messages are applied before the next core issues.
    /// Returns the instructions issued.
    fn step(&mut self, cycle: u64) -> u64 {
        let rr = self.rr[0];
        let mut issued = 0;
        // Folded in a local; the field carries it across a drain, which
        // lowers it for every thread it resolves.
        let mut soonest = u64::MAX;
        for core in 0..self.wakes.core.len() {
            let mut wake = self.wakes.core[core];
            if wake <= cycle {
                let n;
                (wake, n) = self.cores.issue::<true>(&mut self.mem, core, cycle, rr);
                self.wakes.core[core] = wake;
                issued += n;
                if !self.cores.outbox.is_empty() {
                    self.wakes.soonest = soonest;
                    self.drain(None);
                    soonest = self.wakes.soonest;
                    wake = self.wakes.core[core];
                }
            }
            soonest = soonest.min(wake);
        }
        self.wakes.soonest = soonest;
        self.rr[0] = if rr + 1 == self.cores.tpc { 0 } else { rr + 1 };
        issued
    }

    /// Phase B: applies the outbox in order and empties it. Effects land
    /// at the epoch edge `edge`, or at each message's own cycle under
    /// Issue timing (`None`).
    #[inline(never)]
    fn drain(&mut self, edge: Option<u64>) {
        self.info.messages += self.cores.outbox.len() as u64;
        for i in 0..self.cores.outbox.len() {
            let m = self.cores.outbox[i];
            self.process(m, edge);
        }
        self.cores.outbox.clear();
    }

    /// Applies one message. Every thread it resolves into
    /// [`ThreadState::StalledUntil`] lowers its core's wake, keeping
    /// `wakes` exact without a rescan.
    fn process(&mut self, m: Msg, edge: Option<u64>) {
        let (core, tid) = (m.core as usize, m.tid as usize);
        // Lock grants and barrier release land here.
        let at = edge.unwrap_or(m.cycle);
        let mem = &mut self.mem;
        let threads = &mut self.cores.threads;
        match m.kind {
            MsgKind::Upgrade(addr) => {
                mem.upgrade(core, addr);
            }
            MsgKind::StoreMiss(addr) => {
                miss(mem, core, addr, true, m.cycle);
            }
            MsgKind::LoadMiss(addr) => {
                let (latency, kind) = miss(mem, core, addr, false, m.cycle);
                mem.cores[core].record_load(latency, kind);
                let t = &mut threads[tid];
                debug_assert!(
                    matches!(t.state, ThreadState::WaitingMem(_)),
                    "a load-miss message must find its thread parked"
                );
                t.state = ThreadState::StalledUntil(m.cycle + latency);
                self.info.stall_cycles += latency;
                self.wakes.lower(core, m.cycle + latency);
            }
            MsgKind::Lock(id) => {
                if mem.lock(id, tid) {
                    self.info.stall_cycles += mem.grant_lock(&mut threads[tid], at);
                    self.wakes.lower(core, at + 1);
                }
            }
            MsgKind::Unlock(id) => {
                if let Some(next) = mem.unlock(id, tid) {
                    self.info.stall_cycles += mem.grant_lock(&mut threads[next], at);
                    self.wakes.lower(next / self.cores.tpc, at + 1);
                }
            }
            MsgKind::BarrierArrive => {
                if mem.arrive_at_barrier() {
                    self.info.stall_cycles += mem.release_barrier(threads.iter_mut(), at);
                    // Every core may have had a thread parked; barriers
                    // are rare.
                    for (core, ts) in threads.chunks(self.cores.tpc).enumerate() {
                        let wake = ts.iter().map(Thread::wake).min().unwrap_or(u64::MAX);
                        self.wakes.lower(core, wake);
                    }
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

    /// Consumes the simulator and hands back its trace source (e.g. a
    /// [`crate::record::Recorder`] whose capture you want).
    pub fn into_trace_source(self) -> T {
        self.cores.trace
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

impl<T: TraceSource> Cores<T> {
    /// Phase A for one cycle of one core: its threads in round-robin
    /// order from `rr`, at most one FP, one other and one memory
    /// instruction issued. L1 and L2 hits are serviced here, and so,
    /// under Issue timing (`SERVE`), are L2 misses and upgrades, at the
    /// issuing cycle; anything else goes to the outbox. Returns the
    /// core's next wake and the instructions issued.
    ///
    /// Under Epoch timing this touches only `mem.cores[core]`. A turn
    /// changes only its own thread, so folding each thread's wake after
    /// its turn gives the core's next wake without a rescan.
    #[inline(never)]
    fn issue<const SERVE: bool>(
        &mut self,
        mem: &mut MemSystem,
        core: usize,
        cycle: u64,
        rr: usize,
    ) -> (u64, u64) {
        let tpc = self.tpc;
        let mut next_wake = u64::MAX;
        let mut issued = 0;
        let mut fp_free = true;
        let mut other_free = true;
        let mut mem_free = true;
        for k in 0..tpc {
            let mut lt = rr + k;
            if lt >= tpc {
                lt -= tpc;
            }
            let tid = core * tpc + lt;
            let t = &mut self.threads[tid];
            let thread_wake = t.wake();
            if thread_wake > cycle {
                next_wake = next_wake.min(thread_wake);
                continue;
            }
            let instr = *t.pending.get_or_insert_with(|| self.trace.next(tid));
            let msg = |kind| Msg {
                cycle,
                core: core as u32,
                tid: tid as u32,
                kind,
            };
            let issues = match instr {
                Instr::Fp if fp_free => {
                    fp_free = false;
                    true
                }
                Instr::Other if other_free => {
                    other_free = false;
                    t.state = ThreadState::StalledUntil(cycle + self.other_cycles);
                    true
                }
                Instr::Load(addr) if other_free && mem_free => {
                    other_free = false;
                    mem_free = false;
                    let serviced = match mem.cores[core].access(addr, false) {
                        Some(hit) => Some((hit.latency, hit.kind)),
                        None if SERVE => Some(mem.miss(core, addr, false, cycle, cycle)),
                        None => None,
                    };
                    match serviced {
                        Some((latency, kind)) => {
                            mem.cores[core].record_load(latency, kind);
                            t.state = ThreadState::StalledUntil(cycle + latency);
                        }
                        None => {
                            self.outbox.push(msg(MsgKind::LoadMiss(addr)));
                            t.state = ThreadState::WaitingMem(cycle);
                        }
                    }
                    true
                }
                Instr::Store(addr) if other_free && mem_free => {
                    other_free = false;
                    mem_free = false;
                    match mem.cores[core].access(addr, true) {
                        Some(hit) if hit.upgrade && SERVE => {
                            mem.upgrade(core, addr);
                        }
                        Some(hit) if hit.upgrade => self.outbox.push(msg(MsgKind::Upgrade(addr))),
                        Some(_) => {}
                        None if SERVE => {
                            mem.miss(core, addr, true, cycle, cycle);
                        }
                        None => self.outbox.push(msg(MsgKind::StoreMiss(addr))),
                    }
                    // Posted store: the thread continues next cycle.
                    t.state = ThreadState::StalledUntil(cycle + 1);
                    true
                }
                Instr::Barrier => {
                    t.state = ThreadState::AtBarrier(cycle);
                    self.outbox.push(msg(MsgKind::BarrierArrive));
                    true
                }
                Instr::Lock(id) if other_free => {
                    other_free = false;
                    t.state = ThreadState::WaitingLock(id, cycle);
                    self.outbox.push(msg(MsgKind::Lock(id)));
                    true
                }
                Instr::Unlock(id) if other_free => {
                    other_free = false;
                    t.state = ThreadState::StalledUntil(cycle + 1);
                    self.outbox.push(msg(MsgKind::Unlock(id)));
                    true
                }
                _ => false,
            };
            if issues {
                t.pending = None;
                issued += 1;
            }
            next_wake = next_wake.min(t.wake());
        }
        let stats = &mut mem.cores[core].stats;
        stats.instructions += issued;
        stats.counts.l1i_reads += issued;
        (next_wake, issued)
    }
}

/// Services an L2 miss issued at `now` under Epoch timing, at the edge.
///
/// An earlier message this epoch (another thread on the same core
/// missing the same line) may already have filled the L2, so it is
/// re-probed first and a hit is serviced as the L2 hit it now is; a
/// dirty L3 victim is written to memory at the fetch's request cycle.
/// Issue timing never gets here: its issue stage services the miss
/// before any other can fill the line.
fn miss(mem: &mut MemSystem, core: usize, addr: u64, is_store: bool, now: u64) -> (u64, StallKind) {
    match mem.cores[core].l2_hit(addr, is_store) {
        Some(hit) => {
            if hit.upgrade {
                mem.upgrade(core, addr);
            }
            (hit.latency, hit.kind)
        }
        None => mem.miss(core, addr, is_store, now, mem.request_cycle(now)),
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
