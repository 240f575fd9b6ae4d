//! A solve memo keyed by canonical spec fingerprints.
//!
//! Exploration grids routinely contain duplicate specs (two opt variants
//! with identical knobs, overlapping sub-sweeps) and study configurations
//! re-optimize the same L1/L2 specs many times over. [`SolveCache`] makes
//! every distinct spec cost at most one select: entries are keyed by
//! [`crate::hash::spec_fingerprint`] and verified by full spec equality on
//! lookup, so a 64-bit collision degrades to a miss instead of a wrong
//! answer.
//!
//! Specs that differ only in their select-only knobs share one
//! organization sweep ([`MemorySpec::sweep_key`]): [`SolveCache::solve_group`]
//! takes such a family and runs one winners-only [`ArraySweep::select`] for
//! its memo misses: one solve, then one §2.4 ranking per miss, and a
//! [`Solution`] only for each winner. That solve draws on a caller-owned
//! [`ArraySweep`], so families with the same bank geometry
//! ([`MemorySpec::array_key`]) share one data-array sweep too. Both are exact, not heuristics — the
//! sweep never reads a select-only knob and its data-array half reads only
//! one bank, so every member's own [`cactid_core::solve_with_stats`] would
//! return the same bits. [`SolveCache::solve_point`] is the one-member case.
//!
//! A cache also lends [`EvalMemo`]s from a small pool, one per concurrent
//! solve, so every solve through one cache reuses the circuits and tag
//! designs earlier solves designed in the same technology. A memo keys
//! each design by everything it reads, so this changes no output bit.
//!
//! The solve itself runs with the mutex *released* — only lookup and
//! insert take the lock — so concurrent workers memoize without
//! serializing on each other. Two threads racing on the same cold spec may
//! both solve it; the first insert wins and both observe the same entry
//! (solves are deterministic). The exploration engine avoids even that
//! duplicated work by pre-grouping its points per sweep key and spec.

use crate::hash::spec_fingerprint;
use cactid_core::{ArraySweep, CactiError, EvalMemo, MemorySpec, Solution, SolveStats};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One memoized solve: the §2.4 winner (or why there is none) plus the
/// sweep counters of producing it.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The selected winner, or the solve/select failure.
    pub result: Result<Solution, CactiError>,
    /// Counters from the underlying organization sweep.
    pub stats: SolveStats,
}

/// What one [`SolveCache::solve_group`] call produced.
#[derive(Debug, Clone)]
pub struct GroupSolve {
    /// One entry per member spec, in member order, each paired with
    /// whether it was served from the memo.
    pub members: Vec<(CachedSolve, bool)>,
    /// The counters of the organization sweep this call ran, or `None`
    /// when every member was a memo hit and nothing was swept.
    pub sweep: Option<SolveStats>,
}

/// A thread-safe solve memo. See the module docs for the locking contract.
#[derive(Debug, Default)]
pub struct SolveCache {
    map: Mutex<HashMap<u64, Vec<(MemorySpec, CachedSolve)>>>,
    /// Idle evaluation memos; a solve takes one and puts it back, so the
    /// pool holds at most one per solve that ever ran concurrently.
    memos: Mutex<Vec<EvalMemo>>,
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
        lock(&self.memos).clear();
    }

    /// Solves `spec` (solve → §2.4 select) through the memo. Returns the
    /// entry and whether it was served from cache. This is
    /// [`SolveCache::solve_group`] with one member and a sweep of its own.
    pub fn solve_point(&self, spec: &MemorySpec) -> (CachedSolve, bool) {
        let sweep = ArraySweep::new(spec);
        let Some(member) = self.solve_group(&[spec], &sweep).members.pop() else {
            unreachable!("a one-member group answers one member")
        };
        member
    }

    /// Solves a family of specs that share one [`MemorySpec::sweep_key`]
    /// through the memo: each member is looked up, and the misses go to one
    /// [`ArraySweep::select`] (which solves the first miss's spec and ranks
    /// once per miss). The solve draws on `sweep`, which runs its
    /// data-array sweep on first use only, so a caller that passes one
    /// sweep to every family of a bank geometry sweeps that geometry at
    /// most once, and not at all on a warm memo.
    ///
    /// Each member's entry is exactly what [`SolveCache::solve_point`]
    /// alone would have produced for it, stats included. The caller must
    /// pass distinct members with equal sweep keys, and a `sweep` of their
    /// bank geometry.
    pub fn solve_group(&self, specs: &[&MemorySpec], sweep: &ArraySweep) -> GroupSolve {
        debug_assert!(
            specs
                .windows(2)
                .all(|w| w[0].sweep_key() == w[1].sweep_key()),
            "solve_group members must share one sweep key"
        );
        let keys: Vec<u64> = specs.iter().map(|s| spec_fingerprint(s)).collect();
        let mut found: Vec<Option<(CachedSolve, bool)>> = {
            let map = self.lock();
            specs
                .iter()
                .zip(&keys)
                .map(|(spec, key)| {
                    map.get(key)
                        .and_then(|bucket| bucket.iter().find(|(s, _)| s == *spec))
                        .map(|(_, entry)| (entry.clone(), true))
                })
                .collect()
        };
        let misses: Vec<usize> = (0..specs.len()).filter(|&i| found[i].is_none()).collect();
        if misses.len() < specs.len() {
            cactid_obs::counter!("explore.cache.hits").add((specs.len() - misses.len()) as u64);
        }
        if misses.is_empty() {
            return GroupSolve {
                members: found.into_iter().flatten().collect(),
                sweep: None,
            };
        }
        cactid_obs::counter!("explore.cache.misses").add(misses.len() as u64);
        // Sweep and select outside the lock; expensive points must not
        // serialize the rest of the pool.
        let miss_specs: Vec<&MemorySpec> = misses.iter().map(|&i| specs[i]).collect();
        let mut memo = lock(&self.memos).pop().unwrap_or_default();
        let winners = sweep.select(&miss_specs, &mut memo);
        lock(&self.memos).push(memo);
        let stats = winners.stats;
        let solved = winners
            .results
            .into_iter()
            .map(|result| CachedSolve { result, stats });
        let mut map = self.lock();
        for (&i, entry) in misses.iter().zip(solved) {
            let bucket = map.entry(keys[i]).or_default();
            if let Some((_, first)) = bucket.iter().find(|(s, _)| s == specs[i]) {
                // Lost a cold-spec race; keep the first insert so every
                // caller observes one entry.
                cactid_obs::counter!("explore.cache.cold_races").inc();
                found[i] = Some((first.clone(), true));
                continue;
            }
            if !bucket.is_empty() {
                // Same 64-bit fingerprint, different spec: equality
                // verification turned a would-be wrong answer into a miss.
                cactid_obs::counter!("explore.cache.collisions").inc();
            }
            bucket.push((specs[i].clone(), entry.clone()));
            found[i] = Some((entry, false));
        }
        GroupSolve {
            members: found.into_iter().flatten().collect(),
            sweep: Some(stats),
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`cactid_core::optimize`] through an explicit, caller-owned memo: the
/// first call per distinct spec solves, every later call against the same
/// `cache` is a lookup. The exploration engine
/// ([`crate::ExploreConfig::cache`]), study drivers, and long-lived
/// services each pass the handle they want shared, instead of implicitly
/// coupling through process state; pass [`SolveCache::global`] for
/// process-wide sharing.
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
    fn a_group_sweeps_once_for_its_misses_and_matches_single_solves() {
        let base = spec(64 << 10);
        let knobs = |weight_dynamic: f64, max_area_overhead: f64| MemorySpec {
            opt: cactid_core::OptimizationOptions {
                weight_dynamic,
                max_area_overhead,
                ..base.opt.clone()
            },
            ..base.clone()
        };
        let members = [base.clone(), knobs(100.0, 1.0), knobs(0.0, 0.1)];
        let cache = SolveCache::new();
        cache.solve_point(&members[0]);
        let calls = cactid_obs::counter!("core.solve.calls").get();
        let refs: Vec<&MemorySpec> = members.iter().collect();
        let group = cache.solve_group(&refs, &ArraySweep::new(&base));
        assert!(group.sweep.is_some(), "two members missed");
        assert!(cactid_obs::counter!("core.solve.calls").get() > calls);
        let hits: Vec<bool> = group.members.iter().map(|(_, hit)| *hit).collect();
        assert_eq!(hits, [true, false, false]);
        for (spec, (entry, _)) in members.iter().zip(&group.members) {
            let alone = SolveCache::new().solve_point(spec).0;
            assert_eq!(entry.stats, alone.stats);
            assert_eq!(entry.result, alone.result);
        }
        assert_eq!(cache.len(), 3);
        let sweep = ArraySweep::new(&base);
        let again = cache.solve_group(&refs, &sweep);
        assert!(again.sweep.is_none(), "a warm group runs no sweep");
        assert!(!sweep.has_run(), "nor a data-array sweep");
        assert!(again.members.iter().all(|(_, hit)| *hit));
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
