//! A hermetic work-claiming thread pool.
//!
//! The workspace is registry-dependency-free, so instead of rayon this
//! module provides the one scheduling primitive the engine needs: N scoped
//! `std::thread` workers claiming indices off a shared atomic cursor. Each
//! claim is a single `fetch_add`, which makes the queue naturally
//! work-stealing-balanced — a worker stuck on an expensive point simply
//! claims fewer subsequent points while its peers drain the rest.
//!
//! Completed results are handed to a sink callback under a mutex in
//! completion order; callers that need deterministic ordering (the engine's
//! final JSONL, [`parallel_map`]) place results into index-addressed slots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The most workers one pool starts. Each worker is an OS thread, so a
/// mistyped count must not ask for thousands; the CLIs refuse larger
/// `--threads` values and [`run_indexed`] clamps to this.
pub const MAX_THREADS: usize = 1024;

/// The number of worker threads to use when the caller does not care:
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `work(i)` for every `i in 0..n` on `threads` workers and feeds each
/// result to `sink(i, result)` as it completes.
///
/// * `threads == 0` is taken as [`default_threads`]; the effective count is
///   clamped to `n` and to [`MAX_THREADS`].
/// * `work` runs concurrently on the workers; `sink` runs under a mutex,
///   one call at a time, in completion order (not index order).
/// * With one effective thread everything runs on the caller's thread in
///   index order — no spawning, which keeps single-threaded runs exactly
///   deterministic and cheap.
pub fn run_indexed<R, W, S>(threads: usize, n: usize, work: W, mut sink: S)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    }
    .min(n.max(1))
    .min(MAX_THREADS);
    if threads <= 1 {
        for i in 0..n {
            cactid_obs::counter!("explore.pool.claims").inc();
            let t0 = Instant::now();
            let r = work(i);
            record_ns(cactid_obs::histogram!("explore.pool.work_ns"), t0);
            sink(i, r);
        }
        cactid_obs::histogram!("explore.pool.claims_per_worker").record(n as u64);
        return;
    }

    let cursor = AtomicUsize::new(0);
    let sink = Mutex::new(sink);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut claimed = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    claimed += 1;
                    cactid_obs::counter!("explore.pool.claims").inc();
                    let t0 = Instant::now();
                    let r = work(i);
                    let t1 = Instant::now();
                    cactid_obs::histogram!("explore.pool.work_ns").record(ns_between(t0, t1));
                    // Completion-order delivery serializes on this mutex;
                    // time spent queueing here is pool overhead, not work.
                    let mut sink = sink
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    record_ns(cactid_obs::histogram!("explore.pool.sink_wait_ns"), t1);
                    sink(i, r);
                }
                cactid_obs::histogram!("explore.pool.claims_per_worker").record(claimed);
            });
        }
    });
}

/// Nanoseconds elapsed from `t0`, saturating into `u64`.
fn ns_between(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Records the nanoseconds elapsed since `t0` into `h`.
fn record_ns(h: &cactid_obs::Histogram, t0: Instant) {
    h.record(ns_between(t0, Instant::now()));
}

/// Maps `f` over `items` on `threads` workers, returning results in item
/// order regardless of completion order. `threads == 0` means
/// [`default_threads`].
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    run_indexed(
        threads,
        items.len(),
        |i| f(i, &items[i]),
        |i, r| slots[i] = Some(r),
    );
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("every index is claimed exactly once")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_index_is_claimed_exactly_once() {
        for threads in [1, 2, 8] {
            let calls = AtomicUsize::new(0);
            let mut seen = HashSet::new();
            run_indexed(
                threads,
                100,
                |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i * 3
                },
                |i, r| {
                    assert_eq!(r, i * 3);
                    assert!(seen.insert(i), "index {i} delivered twice");
                },
            );
            assert_eq!(calls.load(Ordering::Relaxed), 100);
            assert_eq!(seen.len(), 100);
        }
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 3, 16] {
            assert_eq!(parallel_map(threads, &items, |_, &x| x * x), seq);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map::<u32, u32, _>(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_clamped() {
        // Would deadlock or panic if workers raced past the queue end.
        let out = parallel_map(64, &[1u32, 2, 3], |i, &x| (i, x));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }
}
