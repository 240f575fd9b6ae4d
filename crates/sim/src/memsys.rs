//! The memory system the simulator engine drives: every core's private
//! L1/L2 pair, the shared fabric (L3, DRAM channels, locks and the
//! barrier) and the L2-miss service between them.
//!
//! The engine calls in from the issue stage at the issuing cycle, in
//! `(cycle, core, issue order)`: for a load or store, a miss or upgrade,
//! a lock operation or a barrier arrival. Every function here takes the
//! cycles it needs as arguments.
//!
//! The L2 tags are the coherence directory: every core's L2 lives in one
//! set-major array, and a line's holders are the cores whose L2 ways of
//! its set hold it ([`SetAssocCache::holders`]). The MESI state lives in
//! the same slots, and at most one holder has a line Modified: that one
//! is the dirty owner, and then the only holder. So a read miss finds the
//! owner by probing the one other holder's L2, and an L2 victim needs a
//! writeback exactly when its own slot (or its L1 copy) is Modified.

use crate::cache::{Eviction, LineState, SetAssocCache};
use crate::coherence::CoreSet;
use crate::config::{ConfigError, SystemConfig};
use crate::core::Threads;
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
    /// [`MemSystem::upgrade`]: set for a store that hits a Shared line.
    pub(crate) upgrade: bool,
}

/// The private caches of every core plus the shared fabric.
pub(crate) struct MemSystem {
    /// Every core's L1 tags, `[set][core][way]`.
    l1: SetAssocCache,
    /// Every core's L2 tags, `[set][core][way]`; each L2 is inclusive of
    /// its core's L1.
    l2: SetAssocCache,
    /// L1 hit latency.
    l1_lat: u64,
    /// L2 hit latency (L1 + L2 access cycles).
    l2_lat: u64,
    l3: Option<L3>,
    channels: Vec<DramChannel>,
    locks: HashMap<u32, LockState>,
    barrier_count: usize,
    n_threads: usize,
    l2_cycles: u64,
    xbar: u64,
    /// `log2(line bytes)`: byte address → line number (the L1 and L2
    /// lines are one size).
    line_shift: u32,
    /// `channels - 1`: line number → DRAM channel.
    channel_mask: u64,
    /// Remote copies invalidated since the last
    /// [`MemSystem::publish_event_counters`].
    invalidations: u64,
    /// What the caches, the fabric and the threads count.
    pub(crate) stats: SimStats,
}

impl MemSystem {
    /// Builds cold caches and an idle fabric, for a `cfg` that has passed
    /// [`SystemConfig::validate`].
    pub(crate) fn new(cfg: &SystemConfig) -> Result<MemSystem, ConfigError> {
        let cores = |c: &crate::config::CacheConfig| {
            SetAssocCache::new(
                c.capacity_bytes,
                c.line_bytes,
                c.associativity,
                cfg.n_cores as usize,
            )
        };
        Ok(MemSystem {
            l1: cores(&cfg.l1),
            l2: cores(&cfg.l2),
            l1_lat: cfg.l1.access_cycles,
            l2_lat: cfg.l1.access_cycles + cfg.l2.access_cycles,
            l3: cfg.l3.clone().map(L3::try_new).transpose()?,
            channels: (0..cfg.dram.channels)
                .map(|_| DramChannel::new(cfg.dram.clone()))
                .collect(),
            locks: HashMap::new(),
            barrier_count: 0,
            n_threads: cfg.n_threads(),
            l2_cycles: cfg.l2.access_cycles,
            xbar: cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            channel_mask: u64::from(cfg.dram.channels) - 1,
            invalidations: 0,
            stats: SimStats::default(),
        })
    }

    /// One memory operation of `core` against its L1, then its L2. `None`
    /// is an L2 miss, for [`MemSystem::miss`].
    pub(crate) fn access(&mut self, core: usize, addr: u64, is_store: bool) -> Option<LocalHit> {
        let counts = &mut self.stats.counts;
        counts.l1_reads += 1;
        let (state, latency, kind) = if let Some(state) = self.l1.lookup(core, addr, is_store) {
            if is_store {
                counts.l1_writes += 1;
                if state != LineState::Modified {
                    self.l2.set_state(core, addr, LineState::Modified);
                }
            }
            (state, self.l1_lat, StallKind::Instruction)
        } else {
            counts.l2_reads += 1;
            // An L2 hit refills the L1.
            let state = self.l2.lookup(core, addr, is_store)?;
            counts.l2_writes += u64::from(is_store);
            let l1_state = if is_store { LineState::Modified } else { state };
            self.fill_l1(core, addr, l1_state);
            (state, self.l2_lat, StallKind::L2Access)
        };
        // A store to a Shared line must invalidate the peers' copies. An
        // Exclusive or Modified line has none: the store upgrades it
        // silently.
        let upgrade = is_store && state == LineState::Shared;
        debug_assert!(
            upgrade || !is_store || self.l2.holders(addr).without(core).is_empty(),
            "core {core} stores to {addr:#x}, held {state:?}, while a peer holds it"
        );
        Some(LocalHit {
            latency,
            kind,
            upgrade,
        })
    }

    /// Fills `core`'s L1 after an L1 miss; a dirty victim is written back
    /// into the (inclusive) L2.
    fn fill_l1(&mut self, core: usize, addr: u64, state: LineState) {
        self.stats.counts.l1_writes += 1;
        if let Some(ev) = self.l1.fill(core, addr, state) {
            if ev.state == LineState::Modified {
                self.stats.counts.l2_writes += 1;
                self.l2.set_state(core, ev.addr, LineState::Modified);
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
        match self.l3.as_mut() {
            Some(l3) => {
                self.stats.counts.xbar_transfers += 1;
                // Counted twice, as an L3 fill and as an L3 write: a
                // known double count (ROADMAP item 4) whose fix moves
                // every statistics digest.
                self.stats.counts.l3_writes += 2;
                let ev = l3.insert(addr, LineState::Modified);
                self.evicted_from_l3(ev, now);
            }
            None => self.dram_write(addr, now),
        }
    }

    /// Writes a dirty L3 victim to memory at `now`.
    fn evicted_from_l3(&mut self, ev: Option<Eviction>, now: u64) {
        if let Some(ev) = ev.filter(|ev| ev.state == LineState::Modified) {
            self.dram_write(ev.addr, now);
        }
    }

    /// Fetches a line from the L3 (if present and hit) or main memory,
    /// reserving timing resources from `t_req` onward; a dirty L3 victim
    /// is written to memory at `now`.
    fn fetch_below(&mut self, addr: u64, t_req: u64, now: u64) -> Source {
        let Some(l3) = self.l3.as_mut() else {
            let done = self.dram_read(addr, t_req);
            return Source::Memory { data_at: done };
        };
        self.stats.counts.l3_reads += 1;
        let hit = l3.lookup(addr).is_some();
        let (t, page_hit) = l3.reserve_detailed(addr, t_req);
        self.stats.counts.l3_page_hits += u64::from(page_hit);
        if hit {
            return Source::L3 { data_at: t };
        }
        // L3 miss: tag check occupied the bank, then go to memory.
        let done = self.dram_read(addr, t);
        self.stats.counts.l3_writes += 1;
        let ev = self
            .l3
            .as_mut()
            .and_then(|l3| l3.fill(addr, LineState::Shared));
        self.evicted_from_l3(ev, now);
        Source::Memory { data_at: done }
    }

    /// Fills `core`'s L2 after an L2 miss, handling the victim against the
    /// inclusive L1; a dirty victim is written below at `now`. Evicting
    /// the victim's slot is all it takes to drop the core from the
    /// victim's holders.
    fn fill_l2(&mut self, core: usize, addr: u64, state: LineState, now: u64) {
        self.stats.counts.l2_writes += 1;
        let Some(ev) = self.l2.fill(core, addr, state) else {
            return;
        };
        // Inclusion: the L1 copy must go too.
        let l1_state = self.l1.invalidate(core, ev.addr);
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
            dirty |= self.l2.invalidate(other, addr) == Some(LineState::Modified);
            dirty |= self.l1.invalidate(other, addr) == Some(LineState::Modified);
        }
        dirty
    }

    /// Makes the lone holder among `peers` share `addr`'s line: only a
    /// sole holder can hold it Modified or Exclusive, so with two or more
    /// every copy is already Shared. A Modified copy is written below at
    /// `now`, and its holder sends the data: returns whether it was one.
    fn downgrade_remote(&mut self, peers: CoreSet, addr: u64, now: u64) -> bool {
        let Some(peer) = peers.iter().next().filter(|_| peers.count() == 1) else {
            return false;
        };
        let state = self.l2.probe(peer, addr);
        if !matches!(state, Some(LineState::Modified | LineState::Exclusive)) {
            return false;
        }
        self.l2.set_state(peer, addr, LineState::Shared);
        self.l1.set_state(peer, addr, LineState::Shared);
        let dirty = state == Some(LineState::Modified);
        if dirty {
            self.stats.counts.l2_reads += 1;
            self.writeback_below(addr, now);
        }
        dirty
    }

    /// `core` writes `addr`'s line: every peer copy is invalidated.
    /// Returns whether a peer supplies the data: it held the line dirty.
    pub(crate) fn upgrade(&mut self, core: usize, addr: u64) -> bool {
        let peers = self.l2.holders(addr).without(core);
        self.invalidate_remotes(peers, addr)
    }

    /// Services `core`'s L2 miss on `addr`, issued at `now`: reads the
    /// line's holders from the L2 tags, fetches from a remote L2, the L3
    /// or memory, and fills the L2 and L1. Returns the load-to-use latency
    /// and the level that serviced it. Dirty victims and downgraded lines
    /// are written below at `now`.
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
            // `core` missed, so it is not among the holders. Any peer
            // makes the fill Shared.
            let peers = self.l2.holders(addr);
            (self.downgrade_remote(peers, addr, now), !peers.is_empty())
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
        self.fill_l1(core, addr, fill_state);
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

    /// Lets the parked `tid`, which now holds a lock it queued for, issue
    /// from `at + 1`, attributing its wait; returns the cycles waited.
    pub(crate) fn grant_lock(&mut self, threads: &mut Threads, tid: usize, at: u64) -> u64 {
        let wait = threads.unpark(tid, at);
        self.stats.attribute(StallKind::Lock, wait);
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

    /// Lets every thread, each parked at the barrier once the last one
    /// arrives, issue from `at + 1`, attributing its wait; returns the
    /// cycles waited in all.
    pub(crate) fn release_barrier(&mut self, threads: &mut Threads, at: u64) -> u64 {
        let waited = (0..self.n_threads).map(|tid| threads.unpark(tid, at)).sum();
        self.stats.attribute(StallKind::Barrier, waited);
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

    /// Discards every count (cache and DRAM state is kept).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    /// `n_cores` cores with no L3.
    pub(crate) fn system(n_cores: u32) -> MemSystem {
        let mut cfg = SystemConfig::baseline_no_l3();
        cfg.n_cores = n_cores;
        MemSystem::new(&cfg).unwrap()
    }

    /// One load or store as the engine issues it; returns the level that
    /// serviced it.
    pub(crate) fn issue(m: &mut MemSystem, core: usize, addr: u64, is_store: bool) -> StallKind {
        match m.access(core, addr, is_store) {
            Some(hit) => {
                if hit.upgrade {
                    m.upgrade(core, addr);
                }
                hit.kind
            }
            None => m.miss(core, addr, is_store, 0).1,
        }
    }

    /// The cores whose L2 holds `addr`'s line, as the coherence path
    /// reads them.
    pub(crate) fn holders(m: &MemSystem, addr: u64) -> CoreSet {
        m.l2.holders(addr)
    }

    fn l2_state(m: &MemSystem, core: usize, addr: u64) -> Option<LineState> {
        m.l2.probe(core, addr)
    }

    #[test]
    fn the_directory_agrees_with_the_l2_tags() {
        // Random cores load and store 256 lines that fall in four L2 sets
        // (64 lines each against 8 ways), so lines are shared, written,
        // downgraded, invalidated and evicted all the time. The holder set
        // the one-pass scan reads must be the cores whose own L2 a probe
        // finds the line in.
        let addr_of = |k: u64| (k / 4) * (128 << 10) + (k % 4) * 64;
        for n_cores in [8, 64] {
            let mut m = system(n_cores);
            let mut rng = XorShift64Star::new(u64::from(n_cores));
            let (mut dirty_seen, mut shared_seen) = (0, 0);
            for round in 0..40 {
                for _ in 0..300 {
                    let core = rng.next_below(u64::from(n_cores)) as usize;
                    let addr = addr_of(rng.next_below(256));
                    issue(&mut m, core, addr, rng.next_below(3) == 0);
                }
                for addr in (0..256).map(addr_of) {
                    let held: Vec<usize> = (0..n_cores as usize)
                        .filter(|&c| l2_state(&m, c, addr).is_some())
                        .collect();
                    let ctx = format!("{n_cores} cores, round {round}, address {addr:#x}");
                    assert_eq!(holders(&m, addr), CoreSet::of(&held), "{ctx}");
                    let dirty = held
                        .iter()
                        .filter(|&&c| l2_state(&m, c, addr) == Some(LineState::Modified))
                        .count();
                    assert!(dirty <= 1, "{ctx}: {dirty} dirty copies");
                    if dirty == 1 {
                        assert_eq!(held.len(), 1, "{ctx}: a Modified line is shared");
                    }
                    if held
                        .iter()
                        .any(|&c| l2_state(&m, c, addr) == Some(LineState::Exclusive))
                    {
                        assert_eq!(held.len(), 1, "{ctx}: an Exclusive line is shared");
                    }
                    dirty_seen += dirty;
                    shared_seen += usize::from(held.len() > 1);
                }
            }
            assert!(dirty_seen > 0, "{n_cores} cores: nothing was dirty");
            assert!(shared_seen > 0, "{n_cores} cores: nothing was shared");
        }
    }

    #[test]
    fn a_second_reader_makes_both_copies_shared() {
        let mut m = system(8);
        issue(&mut m, 0, 0x4000, false);
        assert_eq!(l2_state(&m, 0, 0x4000), Some(LineState::Exclusive));
        issue(&mut m, 1, 0x4000, false);
        for core in [0, 1] {
            assert_eq!(l2_state(&m, core, 0x4000), Some(LineState::Shared));
            assert_eq!(m.l1.probe(core, 0x4000), Some(LineState::Shared));
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
        assert_eq!(m.l1.probe(5, 0), None);
        assert_eq!(m.stats.counts.mem_writes, 0);
        for k in 1..=8 {
            issue(&mut m, 5, k * (128 << 10), false);
        }
        assert_eq!(l2_state(&m, 5, 0), None);
        assert!(holders(&m, 0).is_empty());
        assert_eq!(m.stats.counts.mem_writes, 1);
    }
}
