//! The trace generator: turns a [`Profile`] into per-thread instruction
//! streams implementing [`memsim::TraceSource`].
//!
//! # Draws as integer compares
//!
//! Every probability draw compares the top 53 bits of one xorshift64*
//! output, `k = rng >> 11`, against a threshold computed once per trace:
//!
//! ```text
//! k / 2^53 < p   ⟺   k < p · 2^53   ⟺   k < ⌈p · 2^53⌉
//! ```
//!
//! The float form is what the generator once computed as `unif() < p`.
//! `k < 2^53` converts to `f64` exactly, and multiplying or dividing by a
//! power of two is exact, so the first step holds bit for bit; the second
//! holds because `k` is an integer. The cast of `⌈p · 2^53⌉` to `u64`
//! saturates, which keeps the edge cases: `p ≥ 1` passes every `k`, and a
//! negative or NaN `p` none. A cumulative threshold such as `p_hot +
//! p_warm` is the same `f64` sum the float draw compared against. So the
//! streams are bit-identical to the float draws'; `tests/streams.rs` pins
//! them. The region line counts and the run span are precomputed the
//! same way, once per trace.

use crate::apps::{NpbApp, NpbClass};
use crate::profile::{Profile, SHARED_BYTES};
use memsim::{Instr, TraceSource};

/// Address-space layout (16 GB physical):
/// per-thread hot regions, then warm, cold and shared regions.
const HOT_BASE: u64 = 0;
const HOT_STRIDE: u64 = 32 << 20; // 32 MB per thread slot
const WARM_BASE: u64 = 1 << 30; // 1 GB
const COLD_BASE: u64 = 8 << 30; // 8 GB
/// Base of the shared region, the highest region of the layout; it ends
/// at `SHARED_BASE + SHARED_BYTES` (15 GB + 4 MB).
pub const SHARED_BASE: u64 = 15 << 30;
const LINE: u64 = 64;

/// The integer threshold `⌈p · 2^53⌉` of a draw `unif() < p` (module
/// doc).
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A profile as the generator reads it: draw thresholds, region sizes
/// in lines and the cadences, all fixed for the trace.
#[derive(Debug, Clone, Copy)]
struct Table {
    /// Instruction mix: memory below `mem`, FP below `mem_fp`.
    mem: u64,
    mem_fp: u64,
    store: u64,
    /// Region mix: hot below `hot`, warm below `warm`, cold below `cold`,
    /// shared above.
    hot: u64,
    warm: u64,
    cold: u64,
    neighbor: u64,
    hot_lines: u64,
    /// Bytes and lines of one thread's slice of the warm region.
    slice_bytes: u64,
    slice_lines: u64,
    cold_lines: u64,
    /// A sequential run continues for `rng % run_span` more lines.
    run_span: u64,
    barrier_interval: u64,
    lock_interval: u64,
    lock_hold: u64,
}

impl Table {
    fn new(p: &Profile, n_threads: usize) -> Table {
        let slice_bytes = (p.warm_bytes / n_threads as u64).max(LINE * 16);
        let lines = |bytes: u64| (bytes / LINE).max(1);
        Table {
            mem: threshold(p.p_mem),
            mem_fp: threshold(p.p_mem + p.p_fp),
            store: threshold(p.store_frac),
            hot: threshold(p.p_hot),
            warm: threshold(p.p_hot + p.p_warm),
            cold: threshold(p.p_hot + p.p_warm + p.p_cold),
            neighbor: threshold(p.p_neighbor),
            hot_lines: lines(p.hot_bytes),
            slice_bytes,
            slice_lines: lines(slice_bytes),
            cold_lines: lines(p.cold_bytes),
            run_span: 2 * u64::from(p.seq_run_lines.max(1)),
            barrier_interval: p.barrier_interval,
            lock_interval: p.lock_interval,
            lock_hold: p.lock_hold.max(1),
        }
    }
}

#[derive(Debug, Clone)]
struct ThreadGen {
    rng: u64,
    /// Instructions until the next barrier, and until the next lock
    /// attempt: each counts down to 1 and reloads its interval (0 for an
    /// interval of 0, never due).
    to_barrier: u64,
    to_lock: u64,
    /// Remaining lines in the current sequential run and its cursor.
    run_left: u32,
    cursor: u64,
    /// Instructions until the held lock is released (0 = not holding).
    lock_release_in: u64,
    held_lock: Option<u32>,
}

/// Deterministic synthetic trace for one application across `n_threads`
/// hardware threads.
#[derive(Debug, Clone)]
pub struct NpbTrace {
    profile: Profile,
    table: Table,
    n_threads: usize,
    threads: Vec<ThreadGen>,
}

impl NpbTrace {
    /// Creates the trace for `app` with `n_threads` threads (the study
    /// uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is 0 or the profile fails validation.
    pub fn new(app: NpbApp, n_threads: usize) -> NpbTrace {
        NpbTrace::from_profile(app.profile(), n_threads)
    }

    /// Creates the trace for `app` rescaled to `class`.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is 0.
    pub fn with_class(app: NpbApp, class: NpbClass, n_threads: usize) -> NpbTrace {
        NpbTrace::from_profile(app.profile_for_class(class), n_threads)
    }

    /// Creates a trace from an explicit profile (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is 0 or the profile fails validation.
    pub fn from_profile(profile: Profile, n_threads: usize) -> NpbTrace {
        NpbTrace::from_profile_seeded(profile, n_threads, 0)
    }

    /// [`NpbTrace::from_profile`] with an explicit global seed.
    ///
    /// Per-thread generator states are `(seed, tid)` splitmix expansions
    /// (`memsim::rng::splitmix64`), replacing the old affine
    /// `(tid + 1) × golden-ratio` seeding whose streams were linearly
    /// related. Each thread's stream is a pure function of the pair, so
    /// workload generation is independent of thread polling order —
    /// bitwise identical under both of the simulator's timing policies,
    /// whatever order its cores poll in.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is 0 or the profile fails validation.
    pub fn from_profile_seeded(profile: Profile, n_threads: usize, seed: u64) -> NpbTrace {
        assert!(n_threads > 0);
        if let Err(e) = profile.validate() {
            panic!("profile must be consistent: {e}");
        }
        let mixed = memsim::rng::splitmix64(seed);
        let threads = (0..n_threads)
            .map(|t| ThreadGen {
                rng: memsim::rng::splitmix64(mixed ^ t as u64) | 1,
                to_barrier: profile.barrier_interval,
                to_lock: profile.lock_interval,
                run_left: 0,
                cursor: 0,
                lock_release_in: 0,
                held_lock: None,
            })
            .collect();
        NpbTrace {
            table: Table::new(&profile, n_threads),
            profile,
            n_threads,
            threads,
        }
    }

    /// The profile driving this trace.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn rng(t: &mut ThreadGen) -> u64 {
        t.rng ^= t.rng << 13;
        t.rng ^= t.rng >> 7;
        t.rng ^= t.rng << 17;
        t.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw on `[0, 2^53)`, compared against a [`threshold`].
    fn draw(t: &mut ThreadGen) -> u64 {
        Self::rng(t) >> 11
    }

    /// Picks the next memory address for thread `tid`.
    fn address(&mut self, tid: usize) -> u64 {
        let d = self.table;
        let t = &mut self.threads[tid];

        // Continue a sequential run for spatial locality.
        if t.run_left > 0 {
            t.run_left -= 1;
            t.cursor += LINE;
            return t.cursor;
        }

        let r = Self::draw(t);
        let (base, lines) = if r < d.hot {
            (HOT_BASE + tid as u64 * HOT_STRIDE, d.hot_lines)
        } else if r < d.warm {
            // Partitioned warm region: mostly own slice, sometimes a
            // neighbour's (halo exchange).
            let owner = if Self::draw(t) < d.neighbor {
                (tid + 1) % self.n_threads
            } else {
                tid
            };
            (WARM_BASE + owner as u64 * d.slice_bytes, d.slice_lines)
        } else if r < d.cold {
            (COLD_BASE, d.cold_lines)
        } else {
            (SHARED_BASE, SHARED_BYTES / LINE)
        };

        let line = Self::rng(t) % lines;
        let addr = base + line * LINE;
        // Start a sequential run from here.
        t.run_left = (Self::rng(t) % d.run_span) as u32;
        t.cursor = addr;
        addr
    }
}

/// Counts one instruction off `left`: true on every `interval`-th call,
/// when it reloads `left`. An interval of 0 leaves `left` at 0, never due.
/// A countdown, not `instructions % interval`: the generator runs once per
/// simulated instruction, and the two divisions showed in its profile.
fn due(left: &mut u64, interval: u64) -> bool {
    if *left == 1 {
        *left = interval;
        return true;
    }
    *left = left.saturating_sub(1);
    false
}

impl TraceSource for NpbTrace {
    fn next(&mut self, tid: usize) -> Instr {
        // A copy, not a borrow: its fields load once, before the writes to
        // the thread's state (a borrowed profile measured ~30 % slower).
        let d = self.table;
        {
            let t = &mut self.threads[tid];
            // Every instruction counts toward both cadences, whatever it
            // turns out to be.
            let barrier_due = due(&mut t.to_barrier, d.barrier_interval);
            let lock_due = due(&mut t.to_lock, d.lock_interval);

            // Release a held lock when its hold time elapses.
            if let Some(id) = t.held_lock {
                t.lock_release_in = t.lock_release_in.saturating_sub(1);
                if t.lock_release_in == 0 {
                    t.held_lock = None;
                    return Instr::Unlock(id);
                }
            }
            // Barrier cadence.
            if barrier_due {
                return Instr::Barrier;
            }
            // Lock cadence (only when not already holding one).
            if lock_due && t.held_lock.is_none() {
                let id = (Self::rng(t) % 16) as u32;
                t.held_lock = Some(id);
                t.lock_release_in = d.lock_hold;
                return Instr::Lock(id);
            }
        }

        let r = Self::draw(&mut self.threads[tid]);
        if r < d.mem {
            let addr = self.address(tid);
            if Self::draw(&mut self.threads[tid]) < d.store {
                Instr::Store(addr)
            } else {
                Instr::Load(addr)
            }
        } else if r < d.mem_fp {
            Instr::Fp
        } else {
            Instr::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn class_a_addresses_stay_in_smaller_warm_region() {
        let mut t = NpbTrace::with_class(NpbApp::BtC, NpbClass::A, 4);
        let warm_size = t.profile().warm_bytes;
        assert!(warm_size < NpbApp::BtC.profile().warm_bytes);
        for _ in 0..50_000 {
            if let Instr::Load(a) | Instr::Store(a) = t.next(1) {
                if (WARM_BASE..COLD_BASE).contains(&a) {
                    assert!(a < WARM_BASE + warm_size + (1 << 20));
                }
            }
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = NpbTrace::new(NpbApp::FtB, 8);
        let mut b = NpbTrace::new(NpbApp::FtB, 8);
        for tid in 0..8 {
            for _ in 0..1000 {
                assert_eq!(a.next(tid), b.next(tid));
            }
        }
    }

    #[test]
    fn thread_streams_are_polling_order_independent() {
        // A core that polls only its own threads, in whatever order the
        // engine runs the cores, must see the same streams as one
        // polling everyone: each thread's stream depends only on
        // (seed, tid).
        let mut solo = NpbTrace::new(NpbApp::FtB, 8);
        let mut interleaved = NpbTrace::new(NpbApp::FtB, 8);
        for step in 0..2000 {
            let want = solo.next(3);
            for tid in (0..8).filter(|&t| t != 3) {
                if (step + tid) % 3 == 0 {
                    let _ = interleaved.next(tid);
                }
            }
            assert_eq!(want, interleaved.next(3));
        }
    }

    #[test]
    fn seeded_traces_differ_but_are_reproducible() {
        let p = NpbApp::FtB.profile();
        let mut a = NpbTrace::from_profile_seeded(p.clone(), 4, 11);
        let mut b = NpbTrace::from_profile_seeded(p.clone(), 4, 11);
        let mut c = NpbTrace::from_profile_seeded(p, 4, 12);
        let mut same = true;
        for _ in 0..500 {
            let x = a.next(2);
            assert_eq!(x, b.next(2));
            same &= x == c.next(2);
        }
        assert!(!same, "different seeds must yield different streams");
    }

    #[test]
    fn mix_matches_profile_statistically() {
        let mut t = NpbTrace::new(NpbApp::BtC, 4);
        let p = t.profile().clone();
        let n = 200_000;
        let mut mem = 0;
        let mut fp = 0;
        for _ in 0..n {
            match t.next(0) {
                Instr::Load(_) | Instr::Store(_) => mem += 1,
                Instr::Fp => fp += 1,
                _ => {}
            }
        }
        let mem_frac = f64::from(mem) / f64::from(n);
        let fp_frac = f64::from(fp) / f64::from(n);
        assert!((mem_frac - p.p_mem).abs() < 0.02, "mem {mem_frac}");
        assert!((fp_frac - p.p_fp).abs() < 0.02, "fp {fp_frac}");
    }

    #[test]
    fn addresses_land_in_expected_regions() {
        let mut t = NpbTrace::new(NpbApp::LuC, 32);
        let p = t.profile().clone();
        let mut warm = 0u64;
        let mut total = 0u64;
        for _ in 0..300_000 {
            if let Instr::Load(a) | Instr::Store(a) = t.next(3) {
                total += 1;
                assert!(a < 16 << 30, "address beyond 16 GB: {a:#x}");
                if (WARM_BASE..COLD_BASE).contains(&a) {
                    warm += 1;
                }
            }
        }
        let frac = warm as f64 / total as f64;
        // Warm fraction ≈ p_warm (sequential runs keep it approximate).
        assert!((frac - p.p_warm).abs() < 0.12, "warm fraction {frac}");
    }

    #[test]
    fn barriers_arrive_on_schedule() {
        let mut t = NpbTrace::new(NpbApp::IsC, 2);
        let interval = t.profile().barrier_interval;
        let mut count = 0u64;
        let n = interval * 5;
        for _ in 0..n {
            if t.next(1) == Instr::Barrier {
                count += 1;
            }
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn ua_locks_are_balanced() {
        let mut t = NpbTrace::new(NpbApp::UaC, 4);
        let mut held: Option<u32> = None;
        let mut locks = 0;
        for _ in 0..100_000 {
            match t.next(2) {
                Instr::Lock(id) => {
                    assert!(held.is_none(), "nested lock");
                    held = Some(id);
                    locks += 1;
                }
                Instr::Unlock(id) => {
                    assert_eq!(held, Some(id), "unlock mismatch");
                    held = None;
                }
                _ => {}
            }
        }
        assert!(locks > 10, "ua.C should take locks ({locks})");
    }

    #[test]
    fn warm_working_set_spans_the_declared_size() {
        let mut t = NpbTrace::new(NpbApp::FtB, 32);
        let mut pages = HashSet::new();
        for tid in 0..32 {
            for _ in 0..20_000 {
                if let Instr::Load(a) | Instr::Store(a) = t.next(tid) {
                    if (WARM_BASE..COLD_BASE).contains(&a) {
                        pages.insert(a >> 20); // 1 MB granules
                    }
                }
            }
        }
        let covered_mb = pages.len() as u64;
        let declared_mb = t.profile().warm_bytes >> 20;
        assert!(
            covered_mb > declared_mb / 2,
            "covered {covered_mb} MB of {declared_mb} MB"
        );
    }

    #[test]
    fn perfbench_wrapper_is_the_engine() {
        // perfbench's many-core workload builds `ShardedSimulator` with a
        // worker count and checks its digest against a 1-worker run; both
        // are `Simulator`'s, whatever the count.
        use memsim::{ShardedSimulator, Simulator, SystemConfig};
        let cfg = SystemConfig::many_core(64);
        let trace = NpbTrace::new(NpbApp::FtB, cfg.n_threads());
        let want = Simulator::new(cfg.clone(), trace.clone())
            .run(20_000)
            .digest();
        for workers in [0, 1, 8] {
            let mut sim = ShardedSimulator::new(cfg.clone(), trace.clone(), workers);
            assert_eq!(sim.run(20_000).digest(), want, "{workers} workers");
        }
    }
}
