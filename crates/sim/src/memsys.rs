//! The memory system the simulator engine drives: each core's private
//! L1/L2 pair, the shared fabric (L3, coherence directory, DRAM channels,
//! locks and the barrier) and the L2-miss service between them.
//!
//! The engine calls in from the issue stage at the issuing cycle, in
//! `(cycle, core, issue order)`: for a miss or upgrade, a lock operation
//! or a barrier arrival. Every function here takes the cycles it needs
//! as arguments.
//!
//! The directory records only which L2s hold a line; the MESI state lives
//! in the L2 tags alone. Between two calls from the engine the directory's
//! holders of a line are exactly the cores whose L2 holds it, and at most
//! one of them holds it Modified: that one is the dirty owner. So a read
//! miss finds the owner by probing the other holder's L2, and an L2
//! victim needs a writeback exactly when its own slot (or its L1 copy) is
//! Modified.

use crate::cache::{LineState, SetAssocCache};
use crate::coherence::{CoreSet, Directory};
use crate::config::{ConfigError, SystemConfig};
use crate::core::{Thread, ThreadState};
use crate::dram::DramChannel;
use crate::l3::L3;
use crate::stats::{SimStats, StallKind};
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

/// A load or store serviced by the issuing core's own L1 or L2.
pub(crate) struct LocalHit {
    pub(crate) latency: u64,
    /// [`StallKind::Instruction`] for an L1 hit, [`StallKind::L2Access`]
    /// for an L2 hit.
    pub(crate) kind: StallKind,
    /// The peers' copies must be invalidated through
    /// [`MemSystem::upgrade`]: set for a store that hits a non-Modified
    /// L1 line or hits in the L2.
    pub(crate) upgrade: bool,
}

/// One core's private caches; the L2 is inclusive of the L1.
pub(crate) struct CoreCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// L1 hit latency.
    l1_lat: u64,
    /// L2 hit latency (L1 + L2 access cycles).
    l2_lat: u64,
    /// What this core's private caches and loads count.
    pub(crate) stats: SimStats,
}

impl CoreCaches {
    /// One memory operation against the L1, then the L2. `None` is an L2
    /// miss, for [`MemSystem::miss`].
    pub(crate) fn access(&mut self, addr: u64, is_store: bool) -> Option<LocalHit> {
        self.stats.counts.l1_reads += 1;
        if let Some(state) = self.l1.lookup(addr) {
            let upgrade = is_store && state != LineState::Modified;
            if is_store {
                self.stats.counts.l1_writes += 1;
                if upgrade {
                    self.l1.set_state(addr, LineState::Modified);
                    self.l2.set_state(addr, LineState::Modified);
                }
            }
            return Some(LocalHit {
                latency: self.l1_lat,
                kind: StallKind::Instruction,
                upgrade,
            });
        }
        self.stats.counts.l2_reads += 1;
        self.l2_hit(addr, is_store)
    }

    /// The L2 half of [`CoreCaches::access`]: a hit refills the L1.
    fn l2_hit(&mut self, addr: u64, is_store: bool) -> Option<LocalHit> {
        let state = self.l2.lookup(addr)?;
        let new_state = if is_store {
            self.stats.counts.l2_writes += 1;
            LineState::Modified
        } else {
            state
        };
        self.l2.set_state(addr, new_state);
        self.fill_l1(addr, new_state);
        Some(LocalHit {
            latency: self.l2_lat,
            kind: StallKind::L2Access,
            upgrade: is_store,
        })
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

    /// Counts a load serviced in `latency` cycles by the level `kind`,
    /// attributing its stall beyond an L1 hit to that level.
    pub(crate) fn record_load(&mut self, latency: u64, kind: StallKind) {
        let s = &mut self.stats;
        s.loads += 1;
        s.load_latency_sum += latency;
        let level = match kind {
            StallKind::Instruction => 0,
            StallKind::L2Access => 1,
            StallKind::L3Access => 2,
            _ => 3,
        };
        s.load_level_hits[level] += 1;
        let stall = latency.saturating_sub(self.l1_lat);
        if stall > 0 && kind != StallKind::Instruction {
            s.attribute(kind, stall);
        }
    }
}

/// The private caches of every core plus the shared fabric.
pub(crate) struct MemSystem {
    /// Indexed by core.
    pub(crate) cores: Vec<CoreCaches>,
    l3: Option<L3>,
    dir: Directory,
    channels: Vec<DramChannel>,
    locks: HashMap<u32, LockState>,
    barrier_count: usize,
    n_threads: usize,
    l2_cycles: u64,
    /// L2 hit latency (L1 + L2 access cycles).
    l2_lat: u64,
    xbar: u64,
    /// `log2(line bytes)`: byte address → line number (the L1 and L2
    /// lines are one size).
    line_shift: u32,
    /// `channels - 1`: line number → DRAM channel.
    channel_mask: u64,
    /// Remote copies invalidated since the last
    /// [`MemSystem::publish_event_counters`].
    invalidations: u64,
    /// What the fabric and the threads' synchronization count.
    pub(crate) stats: SimStats,
}

impl MemSystem {
    /// Builds cold caches and an idle fabric, for a `cfg` that has passed
    /// [`SystemConfig::validate`].
    pub(crate) fn new(cfg: &SystemConfig) -> Result<MemSystem, ConfigError> {
        let cache = |c: &crate::config::CacheConfig| {
            SetAssocCache::new(c.capacity_bytes, c.line_bytes, c.associativity)
        };
        let cores = (0..cfg.n_cores)
            .map(|_| CoreCaches {
                l1: cache(&cfg.l1),
                l2: cache(&cfg.l2),
                l1_lat: cfg.l1.access_cycles,
                l2_lat: cfg.l1.access_cycles + cfg.l2.access_cycles,
                stats: SimStats::default(),
            })
            .collect();
        // Every tracked line sits in some L2, so a directory set holds at
        // most every core's ways of that L2 set, plus the line a miss
        // records before its fill evicts the victim.
        let dir_ways = cfg.n_cores as usize * cfg.l2.associativity as usize + 1;
        Ok(MemSystem {
            cores,
            l3: cfg.l3.clone().map(L3::try_new).transpose()?,
            dir: Directory::new(cfg.l2.sets(), dir_ways),
            channels: (0..cfg.dram.channels)
                .map(|_| DramChannel::new(cfg.dram.clone()))
                .collect(),
            locks: HashMap::new(),
            barrier_count: 0,
            n_threads: cfg.n_threads(),
            l2_cycles: cfg.l2.access_cycles,
            l2_lat: cfg.l1.access_cycles + cfg.l2.access_cycles,
            xbar: cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            channel_mask: u64::from(cfg.dram.channels) - 1,
            invalidations: 0,
            stats: SimStats::default(),
        })
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

    /// Fetches a line from the L3 (if present and hit) or main memory,
    /// reserving timing resources from `t_req` onward; a dirty L3 victim
    /// is written to memory at `now`.
    fn fetch_below(&mut self, addr: u64, t_req: u64, now: u64) -> Source {
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
            self.fill_l3(addr, LineState::Shared, now);
            Source::Memory { data_at: done }
        } else {
            let done = self.dram_read(addr, t_req);
            Source::Memory { data_at: done }
        }
    }

    /// Inserts into `core`'s L2, handling the victim against the directory
    /// and the inclusive L1; a dirty victim is written below at `now`.
    fn fill_l2(&mut self, core: usize, addr: u64, state: LineState, now: u64) {
        let c = &mut self.cores[core];
        c.stats.counts.l2_writes += 1;
        let Some(ev) = c.l2.insert(addr, state) else {
            return;
        };
        self.dir.leave(ev.addr >> self.line_shift, core);
        // Inclusion: the L1 copy must go too.
        let l1_state = self.cores[core].l1.invalidate(ev.addr);
        if ev.state == LineState::Modified || l1_state == Some(LineState::Modified) {
            self.writeback_below(ev.addr, now);
        }
    }

    /// Invalidates `peers`' copies; returns whether one of them
    /// held the line dirty (cache-to-cache source).
    fn invalidate_remotes(&mut self, peers: CoreSet, addr: u64) -> bool {
        let mut dirty = false;
        for other in peers.iter() {
            self.stats.counts.l2_reads += 1; // probe
            self.invalidations += 1;
            let c = &mut self.cores[other];
            dirty |= c.l2.invalidate(addr) == Some(LineState::Modified);
            dirty |= c.l1.invalidate(addr) == Some(LineState::Modified);
        }
        dirty
    }

    /// The one of `holders` whose L2 holds `addr`'s line Modified.
    fn dirty_owner(&self, holders: CoreSet, addr: u64) -> Option<usize> {
        if holders.count() != 1 {
            // A Modified line has no other holder.
            return None;
        }
        holders
            .iter()
            .find(|&c| self.cores[c].l2.probe(addr) == Some(LineState::Modified))
    }

    /// Downgrades a dirty remote owner to Shared and pushes its data below
    /// at `now`.
    fn downgrade_remote(&mut self, owner: usize, addr: u64, now: u64) {
        self.stats.counts.l2_reads += 1;
        let c = &mut self.cores[owner];
        c.l2.set_state(addr, LineState::Shared);
        c.l1.set_state(addr, LineState::Shared);
        self.writeback_below(addr, now);
    }

    /// `core` writes `addr`'s line: every peer copy is invalidated.
    /// Returns whether a peer supplies the data: it held the line dirty.
    pub(crate) fn upgrade(&mut self, core: usize, addr: u64) -> bool {
        let peers = self.dir.claim(addr >> self.line_shift, core);
        self.invalidate_remotes(peers, addr)
    }

    /// Services `core`'s L2 miss on `addr`, issued at `now`: consults the
    /// directory, fetches from a remote L2, the L3 or memory, and fills
    /// the L2 and L1. Returns the load-to-use latency and the level that
    /// serviced it. Dirty victims and downgraded lines are written below
    /// at `now`.
    pub(crate) fn miss(
        &mut self,
        core: usize,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> (u64, StallKind) {
        let (from_remote, shared) = if is_store {
            (self.upgrade(core, addr), false)
        } else {
            let peers = self.dir.join(addr >> self.line_shift, core);
            let owner = self.dirty_owner(peers, addr);
            if let Some(owner) = owner {
                self.downgrade_remote(owner, addr, now);
            }
            // Any peer makes the fill Shared; only a dirty owner sends
            // the data itself.
            (owner.is_some(), !peers.is_empty())
        };

        let (l2_lat, xbar) = (self.l2_lat, self.xbar);
        let source = if from_remote {
            Source::RemoteL2
        } else {
            // The request reaches the L3 or memory after the L1 and L2
            // lookups and one crossbar hop.
            self.fetch_below(addr, now + l2_lat + xbar, now)
        };
        let (latency, kind) = match source {
            Source::RemoteL2 => {
                // Cache-to-cache transfer over the crossbar.
                self.stats.counts.l2_reads += 1;
                self.stats.counts.xbar_transfers += 2;
                (l2_lat + 2 * xbar + self.l2_cycles, StallKind::L2Access)
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
        self.fill_l2(core, addr, fill_state, now);
        self.cores[core].fill_l1(addr, fill_state);
        if is_store {
            self.stats.counts.l2_writes += 1;
        }
        (latency, kind)
    }

    /// Global thread `tid` asks for lock `id`: true when the lock was free
    /// and `tid` now holds it, false when `tid` queues behind the holder.
    pub(crate) fn lock(&mut self, id: u32, tid: usize) -> bool {
        let lock = self.locks.entry(id).or_default();
        if lock.holder.is_none() {
            lock.holder = Some(tid);
            true
        } else {
            lock.queue.push_back(tid);
            false
        }
    }

    /// `tid` releases lock `id`; returns the queued thread now holding it,
    /// for [`MemSystem::grant_lock`].
    pub(crate) fn unlock(&mut self, id: u32, tid: usize) -> Option<usize> {
        let lock = self.locks.entry(id).or_default();
        debug_assert_eq!(lock.holder, Some(tid), "unlock by non-holder");
        lock.holder = lock.queue.pop_front();
        lock.holder
    }

    /// Lets `t`, which holds a lock it queued for, issue from `at + 1`,
    /// attributing its wait; returns the cycles waited.
    pub(crate) fn grant_lock(&mut self, t: &mut Thread, at: u64) -> u64 {
        let mut wait = 0;
        if let ThreadState::WaitingLock(_, since) = t.state {
            wait = at - since;
            self.stats.attribute(StallKind::Lock, wait);
        }
        t.state = ThreadState::StalledUntil(at + 1);
        wait
    }

    /// A thread reaches the global barrier: true when it was the last,
    /// which starts the count over for the next barrier.
    pub(crate) fn arrive_at_barrier(&mut self) -> bool {
        self.barrier_count += 1;
        let last = self.barrier_count == self.n_threads;
        if last {
            self.barrier_count = 0;
        }
        last
    }

    /// Lets every one of `threads` parked at the barrier issue from
    /// `at + 1`, attributing its wait; returns the cycles waited in all.
    pub(crate) fn release_barrier<'a>(
        &mut self,
        threads: impl IntoIterator<Item = &'a mut Thread>,
        at: u64,
    ) -> u64 {
        let mut waited = 0;
        for t in threads {
            if let ThreadState::AtBarrier(since) = t.state {
                self.stats.attribute(StallKind::Barrier, at - since);
                waited += at - since;
                t.state = ThreadState::StalledUntil(at + 1);
            }
        }
        waited
    }

    /// Publishes the per-event counts gathered since the last call — one
    /// atomic add per counter instead of one per event — and returns the
    /// remote copies invalidated.
    pub(crate) fn publish_event_counters(&mut self) -> u64 {
        let invalidations = std::mem::take(&mut self.invalidations);
        if invalidations > 0 {
            cactid_obs::counter!("sim.coherence.invalidations").add(invalidations);
        }
        crate::dram::publish_refresh_stalls(&mut self.channels);
        invalidations
    }

    /// The statistics of the `cycles` since the last
    /// [`MemSystem::reset_stats`]: every count summed, and every
    /// thread-cycle no stall claimed attributed to processing
    /// instructions.
    pub(crate) fn finalize(&self, cycles: u64) -> SimStats {
        let mut s = self.stats.clone();
        for c in &self.cores {
            s.merge(&c.stats);
        }
        s.cycles = cycles;
        let total = cycles * self.n_threads as u64;
        let other: u64 = StallKind::ALL
            .iter()
            .skip(1)
            .map(|&k| s.attributed(k))
            .sum();
        s.cycle_breakdown[0] = total.saturating_sub(other);
        s
    }

    /// Discards every count (cache, directory and DRAM state is kept).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        for c in &mut self.cores {
            c.stats = SimStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    /// `n_cores` cores with no L3.
    fn system(n_cores: u32) -> MemSystem {
        let mut cfg = SystemConfig::baseline_no_l3();
        cfg.n_cores = n_cores;
        MemSystem::new(&cfg).unwrap()
    }

    /// One load or store as the engine issues it; returns the level that
    /// serviced it.
    fn issue(m: &mut MemSystem, core: usize, addr: u64, is_store: bool) -> StallKind {
        match m.cores[core].access(addr, is_store) {
            Some(hit) => {
                if hit.upgrade {
                    m.upgrade(core, addr);
                }
                hit.kind
            }
            None => m.miss(core, addr, is_store, 0).1,
        }
    }

    fn l2_state(m: &MemSystem, core: usize, addr: u64) -> Option<LineState> {
        m.cores[core].l2.probe(addr)
    }

    #[test]
    fn the_directory_agrees_with_the_l2_tags() {
        // Random cores load and store 256 lines that fall in four L2 sets
        // (64 lines each against 8 ways), so lines are shared, written,
        // downgraded, invalidated and evicted all the time.
        let addr_of = |k: u64| (k / 4) * (128 << 10) + (k % 4) * 64;
        for n_cores in [8, 64] {
            let mut m = system(n_cores);
            let mut rng = XorShift64Star::new(u64::from(n_cores));
            let mut dirty_seen = 0;
            for round in 0..40 {
                for _ in 0..300 {
                    let core = rng.next_below(u64::from(n_cores)) as usize;
                    let addr = addr_of(rng.next_below(256));
                    issue(&mut m, core, addr, rng.next_below(3) == 0);
                }
                let mut lines = 0;
                for addr in (0..256).map(addr_of) {
                    let line = addr >> m.line_shift;
                    let held: Vec<usize> = (0..m.cores.len())
                        .filter(|&c| l2_state(&m, c, addr).is_some())
                        .collect();
                    let ctx = format!("{n_cores} cores, round {round}, line {line}");
                    assert_eq!(m.dir.holders(line), CoreSet::of(&held), "{ctx}");
                    lines += usize::from(!held.is_empty());
                    let dirty = held
                        .iter()
                        .filter(|&&c| l2_state(&m, c, addr) == Some(LineState::Modified))
                        .count();
                    assert!(dirty <= 1, "{ctx}: {dirty} dirty copies");
                    if dirty == 1 {
                        assert_eq!(held.len(), 1, "{ctx}: a Modified line is shared");
                    }
                    dirty_seen += dirty;
                }
                assert_eq!(m.dir.len(), lines, "{n_cores} cores, round {round}");
            }
            assert!(dirty_seen > 0, "{n_cores} cores: nothing was dirty");
        }
    }

    #[test]
    fn a_dirty_victim_is_written_back() {
        // Core 5 writes a line. Eight lines of its L1 set push the dirty
        // copy down into the L2, then eight clean lines of its L2 set evict
        // it: the victim's own Modified slot asks for the writeback.
        let mut m = system(8);
        issue(&mut m, 5, 0, true);
        for k in 1..=8 {
            issue(&mut m, 5, k * (4 << 10), false);
        }
        assert_eq!(m.cores[5].l1.probe(0), None);
        assert_eq!(m.stats.counts.mem_writes, 0);
        for k in 1..=8 {
            issue(&mut m, 5, k * (128 << 10), false);
        }
        assert_eq!(l2_state(&m, 5, 0), None);
        assert!(m.dir.holders(0).is_empty());
        assert_eq!(m.stats.counts.mem_writes, 1);
    }
}
