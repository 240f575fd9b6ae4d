//! Instruction-stream abstraction consumed by the simulator.
//!
//! The LLC study feeds synthetic NPB-like streams (crate `npbgen`); tests
//! use the simple generators here.

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Floating-point (SIMD) arithmetic — issues every cycle.
    Fp,
    /// Any other non-memory instruction — 4 cycles on average.
    Other,
    /// Load from a byte address (blocking).
    Load(u64),
    /// Store to a byte address (posted).
    Store(u64),
    /// Global barrier across all threads.
    Barrier,
    /// Acquire lock `id`.
    Lock(u32),
    /// Release lock `id`.
    Unlock(u32),
}

/// A per-thread instruction source.
///
/// Implementations must be deterministic for reproducible simulations.
pub trait TraceSource {
    /// Produces the next instruction for hardware thread `tid`.
    fn next(&mut self, tid: usize) -> Instr;
}

/// Simple deterministic source for tests: each thread interleaves FP and
/// other instructions with a configurable fraction of loads striding
/// through a private region of the given size.
#[derive(Debug, Clone)]
pub struct StridedSource {
    mem_fraction_permille: u32,
    region_bytes: u64,
    state: Vec<u64>,
}

impl StridedSource {
    /// Creates a source for `n_threads` threads, issuing memory operations
    /// with probability `mem_fraction` (0–1), striding through
    /// `region_bytes` per thread.
    ///
    /// # Panics
    ///
    /// Panics if `mem_fraction` is outside [0, 1] or `region_bytes` is 0.
    pub fn new(n_threads: usize, mem_fraction: f64, region_bytes: u64) -> StridedSource {
        StridedSource::with_seed(n_threads, mem_fraction, region_bytes, 0)
    }

    /// [`StridedSource::new`] with an explicit global seed. Per-thread
    /// streams are derived as `(seed, tid)` splitmix expansions
    /// ([`crate::rng::XorShift64Star::for_stream`]), so each thread's
    /// stream is a pure function of the pair — independent of the order
    /// threads are polled in, and therefore identical under either of
    /// the simulator's timing policies.
    ///
    /// # Panics
    ///
    /// Panics if `mem_fraction` is outside [0, 1] or `region_bytes` is 0.
    pub fn with_seed(
        n_threads: usize,
        mem_fraction: f64,
        region_bytes: u64,
        seed: u64,
    ) -> StridedSource {
        assert!((0.0..=1.0).contains(&mem_fraction));
        assert!(region_bytes > 0);
        StridedSource {
            mem_fraction_permille: (mem_fraction * 1000.0) as u32,
            region_bytes,
            state: (0..n_threads as u64)
                .map(|t| crate::rng::splitmix64(crate::rng::splitmix64(seed) ^ t) | 1)
                .collect(),
        }
    }

    fn rng(&mut self, tid: usize) -> u64 {
        // xorshift64* — deterministic, cheap.
        let s = &mut self.state[tid];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        s.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl TraceSource for StridedSource {
    fn next(&mut self, tid: usize) -> Instr {
        let r = self.rng(tid);
        if (r % 1000) < u64::from(self.mem_fraction_permille) {
            // Sequential stride within the thread's private region.
            let offset = (r >> 10) % (self.region_bytes / 64) * 64;
            let base = tid as u64 * self.region_bytes;
            if r & (1 << 9) != 0 {
                Instr::Store(base + offset)
            } else {
                Instr::Load(base + offset)
            }
        } else if r & 1 == 0 {
            Instr::Fp
        } else {
            Instr::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_source_is_deterministic() {
        let mut a = StridedSource::new(4, 0.3, 1 << 20);
        let mut b = StridedSource::new(4, 0.3, 1 << 20);
        for tid in 0..4 {
            for _ in 0..100 {
                assert_eq!(a.next(tid), b.next(tid));
            }
        }
    }

    #[test]
    fn seeds_select_distinct_streams_and_default_is_seed_zero() {
        let mut d = StridedSource::new(2, 1.0, 1 << 20);
        let mut z = StridedSource::with_seed(2, 1.0, 1 << 20, 0);
        let mut s7 = StridedSource::with_seed(2, 1.0, 1 << 20, 7);
        let mut same = true;
        for _ in 0..50 {
            let a = d.next(0);
            assert_eq!(a, z.next(0));
            same &= a == s7.next(0);
        }
        assert!(!same, "seed 7 must produce a different stream");
    }

    #[test]
    fn thread_streams_are_order_independent() {
        // Polling tid 1 must not perturb tid 0's stream: the per-thread
        // states are pure functions of (seed, tid). This is the property
        // the engine relies on when each actor's window polls the one
        // source for its own threads only.
        let mut solo = StridedSource::new(2, 0.5, 1 << 20);
        let mut interleaved = StridedSource::new(2, 0.5, 1 << 20);
        for _ in 0..100 {
            let a = solo.next(0);
            let _ = interleaved.next(1);
            assert_eq!(a, interleaved.next(0));
        }
    }

    #[test]
    fn threads_have_disjoint_regions() {
        let mut s = StridedSource::new(2, 1.0, 1 << 16);
        for _ in 0..200 {
            for tid in 0..2 {
                match s.next(tid) {
                    Instr::Load(a) | Instr::Store(a) => {
                        let region = a / (1 << 16);
                        assert_eq!(region, tid as u64);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn mem_fraction_zero_yields_no_memory_ops() {
        let mut s = StridedSource::new(1, 0.0, 64);
        for _ in 0..500 {
            assert!(!matches!(s.next(0), Instr::Load(_) | Instr::Store(_)));
        }
    }
}
