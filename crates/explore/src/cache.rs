//! Evaluation-memo pooling, and the solve memo the study drivers share.
//!
//! A [`MemoPool`] lends [`EvalMemo`]s by device context — the spec's
//! technology node and cell technology, which fix every circuit and tag
//! design a solve of that spec looks up — and takes each back afterwards.
//! So every solve through one pool reuses the circuits and tag designs
//! earlier solves designed in its context, and each design lives in one
//! memo whatever the thread count. A memo keys each design by everything
//! it reads, so which memo a solve gets changes no output bit. The
//! exploration engine and `cactid-serve` solve through a pool and keep no
//! answers of their own: the engine folds duplicate specs before it
//! solves, and the service answers from its one solution store.
//!
//! [`SolveCache`] adds an answer memo on top of a pool for callers that
//! re-optimize the same specs many times over, as the study's
//! configurations do with their L1/L2 specs. Its entries are keyed by
//! [`crate::hash::spec_fingerprint`] and verified by full spec equality on
//! lookup, so a 64-bit collision degrades to a miss instead of a wrong
//! answer. The solve itself runs with the mutex *released*, so concurrent
//! callers do not serialize on each other; two threads racing on the same
//! cold spec may both solve it, and the first insert wins (solves are
//! deterministic).

use crate::hash::spec_fingerprint;
use cactid_core::{ArraySweep, CactiError, EvalMemo, MemorySpec, Solution, SolveStats};
use cactid_tech::{CellTechnology, TechNode};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One solve's answer: the §2.4 winner (or why there is none) plus the
/// sweep counters of producing it.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The selected winner, or the solve/select failure.
    pub result: Result<Solution, CactiError>,
    /// Counters from the underlying organization sweep.
    pub stats: SolveStats,
}

/// A thread-safe pool of idle evaluation memos, at most one per device
/// context. See the module docs.
#[derive(Debug, Default)]
pub struct MemoPool {
    /// Idle memos by device context. A solve takes its context's memo
    /// and puts it back; the model's nodes and cells make 15 contexts, so
    /// a scan finds one.
    memos: Mutex<Vec<(DeviceContext, EvalMemo)>>,
}

/// The part of a spec every design its solve looks up is keyed under:
/// the technology node and the cell technology.
type DeviceContext = (TechNode, CellTechnology);

impl MemoPool {
    /// An empty pool: its first solve starts from a cold memo.
    pub fn new() -> Self {
        MemoPool::default()
    }

    /// Runs `f` on the idle memo of `spec`'s device context, or on a
    /// fresh one when there is none (never used, or lent out to another
    /// solve right now), and takes the memo back afterwards. When two
    /// memos of one context come back, the pool keeps the one that
    /// designed more and drops the other.
    pub fn with<R>(&self, spec: &MemorySpec, f: impl FnOnce(&mut EvalMemo) -> R) -> R {
        let context = (spec.node, spec.cell_tech);
        let idle = {
            let mut memos = lock(&self.memos);
            let at = memos.iter().position(|(c, _)| *c == context);
            at.map(|i| memos.swap_remove(i).1)
        };
        let mut memo = idle.unwrap_or_default();
        let out = f(&mut memo);
        // The memo left over is dropped after the lock is released.
        let _spare = {
            let mut memos = lock(&self.memos);
            match memos.iter_mut().find(|(c, _)| *c == context) {
                None => {
                    memos.push((context, memo));
                    None
                }
                Some((_, kept)) if memo.designs() > kept.designs() => {
                    Some(std::mem::replace(kept, memo))
                }
                Some(_) => Some(memo),
            }
        };
        out
    }

    /// Solves `spec` (solve → §2.4 select) with one one-spec
    /// [`ArraySweep::select`] on a pooled memo.
    pub fn solve(&self, spec: &MemorySpec) -> CachedSolve {
        let winners = self.with(spec, |memo| ArraySweep::new(spec).select(&[spec], memo));
        let stats = winners.stats;
        CachedSolve {
            result: winners.into_first(),
            stats,
        }
    }

    /// Drops every idle memo, so the next solve starts cold (benchmarks
    /// use this to re-run cold).
    pub fn clear(&self) {
        lock(&self.memos).clear();
    }
}

/// A thread-safe solve memo over a [`MemoPool`]. See the module docs for
/// the locking contract.
#[derive(Debug, Default)]
pub struct SolveCache {
    map: Mutex<HashMap<u64, Vec<(MemorySpec, CachedSolve)>>>,
    memos: MemoPool,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// The process-global cache, for callers that want process-wide
    /// sharing (pass it to [`optimize_cached_in`]).
    pub fn global() -> &'static SolveCache {
        static GLOBAL: OnceLock<SolveCache> = OnceLock::new();
        GLOBAL.get_or_init(SolveCache::new)
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Vec<(MemorySpec, CachedSolve)>>> {
        lock(&self.map)
    }

    /// The number of memoized specs.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and every pooled memo (benchmarks use this to
    /// re-run cold).
    pub fn clear(&self) {
        self.lock().clear();
        self.memos.clear();
    }

    /// Solves `spec` (solve → §2.4 select) through the memo. Returns the
    /// entry and whether it was served from cache; a miss runs
    /// [`MemoPool::solve`].
    pub fn solve_point(&self, spec: &MemorySpec) -> (CachedSolve, bool) {
        let key = spec_fingerprint(spec);
        let found = self
            .lock()
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(s, _)| s == spec))
            .map(|(_, entry)| entry.clone());
        if let Some(entry) = found {
            cactid_obs::counter!("explore.cache.hits").inc();
            return (entry, true);
        }
        cactid_obs::counter!("explore.cache.misses").inc();
        // Sweep and select outside the lock; an expensive spec must not
        // serialize the other callers.
        let entry = self.memos.solve(spec);
        let mut map = self.lock();
        let bucket = map.entry(key).or_default();
        if let Some((_, first)) = bucket.iter().find(|(s, _)| s == spec) {
            // Lost a cold-spec race; keep the first insert so every
            // caller observes one entry.
            cactid_obs::counter!("explore.cache.cold_races").inc();
            return (first.clone(), true);
        }
        if !bucket.is_empty() {
            // Same 64-bit fingerprint, different spec: equality
            // verification turned a would-be wrong answer into a miss.
            cactid_obs::counter!("explore.cache.collisions").inc();
        }
        bucket.push((spec.clone(), entry.clone()));
        (entry, false)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`cactid_core::optimize`] through an explicit, caller-owned memo: the
/// first call per distinct spec solves, every later call against the same
/// `cache` is a lookup. Study drivers pass the handle they want shared
/// instead of implicitly coupling through process state; pass
/// [`SolveCache::global`] for process-wide sharing.
///
/// # Errors
///
/// Exactly those of [`cactid_core::optimize`].
pub fn optimize_cached_in(cache: &SolveCache, spec: &MemorySpec) -> Result<Solution, CactiError> {
    cache.solve_point(spec).0.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_core::{optimize, AccessMode, MemoryKind};
    use cactid_tech::{CellTechnology, TechNode};

    fn spec(capacity: u64) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(capacity)
            .block_bytes(64)
            .associativity(4)
            .banks(1)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn second_solve_is_a_hit_with_identical_result() {
        let cache = SolveCache::new();
        let s = spec(64 << 10);
        let (a, hit_a) = cache.solve_point(&s);
        let (b, hit_b) = cache.solve_point(&s);
        assert!(!hit_a && hit_b);
        assert_eq!(cache.len(), 1);
        assert_eq!(a.result.unwrap(), b.result.unwrap());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn cached_winner_matches_optimize() {
        let s = spec(128 << 10);
        let via_cache = optimize_cached_in(SolveCache::global(), &s).unwrap();
        assert_eq!(via_cache, optimize(&s).unwrap());
        // And the global memo now serves it without re-solving.
        let (_, hit) = SolveCache::global().solve_point(&s);
        assert!(hit);
    }

    #[test]
    fn injectable_handles_are_independent() {
        let a = SolveCache::new();
        let b = SolveCache::new();
        let s = spec(64 << 10);
        optimize_cached_in(&a, &s).unwrap();
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "separate handles share nothing");
        let (_, hit) = b.solve_point(&s);
        assert!(!hit);
    }

    #[test]
    fn cache_handle_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveCache>();
        assert_send_sync::<MemoPool>();
    }

    #[test]
    fn clear_makes_the_next_solve_cold() {
        let cache = SolveCache::new();
        let s = spec(64 << 10);
        cache.solve_point(&s);
        cache.clear();
        assert!(cache.is_empty());
        let (_, hit) = cache.solve_point(&s);
        assert!(!hit);
    }

    #[test]
    fn a_pool_takes_its_memo_back_and_clear_drops_it() {
        let pool = MemoPool::new();
        let s = spec(64 << 10);
        assert_eq!(pool.solve(&s).result.unwrap(), optimize(&s).unwrap());
        let designs = pool.with(&s, |memo| memo.designs());
        assert!(designs > 0);
        // The same memo comes back: a repeat solve designs nothing new.
        pool.solve(&s);
        assert_eq!(pool.with(&s, |memo| memo.designs()), designs);
        // While that memo is lent out, a second borrower gets a cold one.
        pool.with(&s, |_| {
            pool.with(&s, |inner| assert_eq!(inner.designs(), 0));
        });
        pool.clear();
        pool.with(&s, |memo| assert_eq!(memo.designs(), 0));
    }

    /// The idle memos of each device context in `pool`, in any order.
    fn idle(pool: &MemoPool) -> Vec<DeviceContext> {
        lock(&pool.memos).iter().map(|(c, _)| *c).collect()
    }

    #[test]
    fn memos_are_lent_by_device_context() {
        let pool = MemoPool::new();
        let sram = spec(64 << 10);
        let sram_id = (TechNode::N32, CellTechnology::Sram);
        // Same context, other capacity and knobs: the memo that holds the
        // context's designs comes back.
        let mut sibling = spec(128 << 10);
        sibling.opt.repeater_relax = 1.5;
        pool.solve(&sram);
        let designs = pool.with(&sibling, |memo| memo.designs());
        assert!(designs > 0);
        assert_eq!(idle(&pool), [sram_id]);

        // Another node, and another cell, each get a memo of their own;
        // the first context's memo stays as it was.
        let mut other_node = sram.clone();
        other_node.node = TechNode::N45;
        let mut other_cell = sram.clone();
        other_cell.cell_tech = CellTechnology::LpDram;
        for other in [&other_node, &other_cell] {
            pool.with(other, |memo| assert_eq!(memo.designs(), 0));
            pool.solve(other);
        }
        assert_eq!(pool.with(&sram, |memo| memo.designs()), designs);
        assert_eq!(idle(&pool).len(), 3);

        // Two borrowers of one context at once: the second gets a fresh
        // memo and returns it first; when the first comes back the pool
        // keeps one memo, the one that designed more.
        pool.with(&sram, |outer| {
            assert_eq!(outer.designs(), designs);
            pool.with(&sram, |inner| assert_eq!(inner.designs(), 0));
            assert_eq!(idle(&pool).len(), 3);
        });
        assert_eq!(idle(&pool).len(), 3, "one idle memo per context");
        assert_eq!(pool.with(&sram, |memo| memo.designs()), designs);

        // `clear` empties every context's memo.
        pool.clear();
        assert!(idle(&pool).is_empty());
        for s in [&sram, &other_node, &other_cell] {
            pool.with(s, |memo| assert_eq!(memo.designs(), 0));
        }
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let cache = SolveCache::new();
        let (a, _) = cache.solve_point(&spec(64 << 10));
        let (b, _) = cache.solve_point(&spec(128 << 10));
        assert_eq!(cache.len(), 2);
        assert_ne!(a.result.unwrap().area, b.result.unwrap().area);
    }
}
