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
//! Both engines drive one memory system (`crate::memsys`): the same
//! private caches, fabric and miss service. This engine differs from the
//! serial reference [`crate::Simulator`] only in *when* a memory-side
//! effect lands: the legacy loop applies it at the issuing cycle, while
//! here it lands at the epoch edge. Both are valid timing models; the
//! legacy loop remains the paper-study reference, and this engine is the
//! one that scales to 64–256 cores (and the only one implementing the
//! Dragon write-update protocol).

use crate::coherence::Directory;
use crate::config::SystemConfig;
use crate::core::{Thread, ThreadState};
use crate::memsys::{CoreCaches, MemSystem};
use crate::stats::{SimStats, StallKind};
use crate::trace::{Instr, TraceSource};

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

/// One core's threads; its private caches are `MemSystem::cores[core]`.
struct CoreActor<T> {
    core: usize,
    trace: T,
    threads: Vec<Thread>,
    rr: usize,
    outbox: Vec<Msg>,
    seq: u64,
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
    /// Phase A touches only `mem.cores[core]` of each actor; phase B
    /// touches everything.
    mem: MemSystem,
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
                rr: 0,
                outbox: Vec::new(),
                seq: 0,
            })
            .collect();
        Ok(ShardedSimulator {
            quantum: epoch_quantum(&cfg),
            actors,
            mem: MemSystem::new(&cfg, Directory::new())?,
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
        let start_instr: u64 = self.mem.cores.iter().map(|c| c.stats.instructions).sum();
        let target = start_instr + target_instructions;

        let Self {
            cfg,
            quantum,
            actors,
            mem,
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
            for (a, caches) in actors.iter_mut().zip(&mut mem.cores) {
                let s = a.run_window(caches, cfg, t0, t_end);
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
                process(cfg, actors, mem, info, &m, t_end, &mut wake);
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
        let (invalidations, updates) = self.mem.publish_event_counters();
        self.info.invalidations += invalidations;
        self.info.updates += updates;
        cactid_obs::counter!("sim.shard.epochs").add(self.info.epochs - pre.epochs);
        cactid_obs::counter!("sim.shard.msgs").add(self.info.messages - pre.messages);
        cactid_obs::counter!("sim.shard.stall_cycles")
            .add(self.info.stall_cycles - pre.stall_cycles);
        self.mem.finalize(self.cycle - self.stats_epoch)
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept), so
    /// measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.mem.reset_stats();
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

    /// Phase A: simulates this core's threads, against its own `caches`,
    /// for cycles `[t0, t1)`. L1 and L2 hits are serviced here; anything
    /// else goes to the outbox.
    fn run_window(
        &mut self,
        caches: &mut CoreCaches,
        cfg: &SystemConfig,
        t0: u64,
        t1: u64,
    ) -> ActorSummary {
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
                        match caches.access(addr, false) {
                            Some(hit) => {
                                caches.record_load(hit.latency, hit.kind);
                                self.threads[lt].state =
                                    ThreadState::StalledUntil(cycle + hit.latency);
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
                        match caches.access(addr, true) {
                            Some(hit) if hit.upgrade => {
                                self.push(cycle, lt, MsgKind::Upgrade(addr));
                            }
                            Some(_) => {}
                            None => self.push(cycle, lt, MsgKind::StoreMiss(addr)),
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
                    caches.stats.instructions += 1;
                    caches.stats.counts.l1i_reads += 1;
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
            instructions: caches.stats.instructions,
        }
    }
}

/// Phase B: applies one drained message at the epoch edge `t_end`. Every
/// thread it resolves into [`ThreadState::StalledUntil`] is folded into
/// `wake`, keeping the epoch loop's fast-forward bound exact without a
/// post-drain rescan.
fn process<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut [CoreActor<T>],
    mem: &mut MemSystem,
    info: &mut ShardInfo,
    m: &Msg,
    t_end: u64,
    wake: &mut u64,
) {
    let core = m.core as usize;
    let tpc = cfg.threads_per_core as usize;
    let gtid = core * tpc + m.tid;
    // The cycle a thread this message resolves may issue again.
    let resumed = match m.kind {
        MsgKind::Upgrade(addr) => {
            mem.upgrade(core, addr);
            None
        }
        MsgKind::StoreMiss(addr) => {
            miss(mem, core, addr, true, m.cycle);
            None
        }
        MsgKind::LoadMiss(addr) => {
            let (latency, kind) = miss(mem, core, addr, false, m.cycle);
            mem.cores[core].record_load(latency, kind);
            let t = &mut actors[core].threads[m.tid];
            debug_assert!(
                matches!(t.state, ThreadState::WaitingMem(_)),
                "a load-miss message must find its thread parked"
            );
            t.state = ThreadState::StalledUntil(m.cycle + latency);
            info.stall_cycles += latency;
            Some(m.cycle + latency)
        }
        MsgKind::Lock(id) => mem.lock(id, gtid).then(|| {
            info.stall_cycles += mem.grant_lock(&mut actors[core].threads[m.tid], t_end);
            t_end + 1
        }),
        MsgKind::Unlock(id) => mem.unlock(id, gtid).map(|next| {
            let t = &mut actors[next / tpc].threads[next % tpc];
            info.stall_cycles += mem.grant_lock(t, t_end);
            t_end + 1
        }),
        MsgKind::BarrierArrive => mem.arrive_at_barrier().then(|| {
            let threads = actors.iter_mut().flat_map(|a| &mut a.threads);
            info.stall_cycles += mem.release_barrier(threads, t_end);
            t_end + 1
        }),
    };
    if let Some(at) = resumed {
        *wake = (*wake).min(at);
    }
}

/// Services an L2 miss issued at `now`. An earlier message this epoch
/// (another thread on the same core missing the same line) may already
/// have filled the L2, so it is re-probed first and a hit is serviced as
/// the L2 hit it now is — what the serial engine sees when the first miss
/// fills instantly. A dirty L3 victim is written to memory at the fetch's
/// request cycle.
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
