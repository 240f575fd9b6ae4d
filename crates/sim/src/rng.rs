//! A tiny deterministic pseudo-random number generator.
//!
//! The workspace builds hermetically (no registry dependencies), so tests
//! and workload generators that need randomness use this xorshift64*
//! generator instead of the `rand` crate. xorshift64* (Vigna, 2016) passes
//! the usual statistical batteries far beyond what trace generation or
//! property sampling needs, and its determinism keeps every test and
//! generated workload exactly reproducible from a seed.

/// One step of the splitmix64 output function: a bijective avalanche mixer
/// (Steele et al., "Fast splittable pseudorandom number generators"). Used
/// to expand a `(seed, stream)` pair into decorrelated generator states —
/// nearby inputs (stream 0, 1, 2, …) land on unrelated outputs, unlike the
/// affine `id * constant` seeding it replaces.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xorshift64* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use memsim::rng::XorShift64Star;
///
/// let mut rng = XorShift64Star::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// // Same seed, same stream.
/// assert_eq!(XorShift64Star::new(42).next_u64(), a);
/// ```
#[derive(Debug, Clone)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from a seed. A zero seed is remapped (the
    /// all-zero state is a fixed point of the xorshift recurrence).
    pub fn new(seed: u64) -> Self {
        XorShift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Creates the generator for logical stream `stream` of `seed`: the
    /// state is a two-round [`splitmix64`] expansion of the pair, so
    /// every `(seed, stream)` combination gets a statistically independent
    /// sequence. This is how per-core workload streams are derived —
    /// stream = core/thread id — making trace generation independent of
    /// the order in which cores consume randomness (each of the engine's
    /// actors polls the one source for its own threads only).
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        XorShift64Star::new(splitmix64(splitmix64(seed) ^ stream))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift range reduction: keeps the high bits, which are
        // the strong ones for this generator.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = XorShift64Star::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift64Star::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = XorShift64Star::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn bounds_are_respected() {
        let mut r = XorShift64Star::new(1234);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
            let v = r.next_in_range(5, 9);
            assert!((5..=9).contains(&v));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn splitmix_decorrelates_adjacent_streams() {
        // The old affine seeding (`id * constant`) made adjacent streams
        // start from linearly related states. Adjacent splitmix-derived
        // streams must differ in roughly half their bits, immediately.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut total = 0u32;
            for stream in 0..16u64 {
                let a = XorShift64Star::for_stream(seed, stream).next_u64();
                let b = XorShift64Star::for_stream(seed, stream + 1).next_u64();
                total += (a ^ b).count_ones();
            }
            let avg = f64::from(total) / 16.0;
            assert!((20.0..44.0).contains(&avg), "avg hamming distance {avg}");
        }
    }

    #[test]
    fn for_stream_is_deterministic_and_seed_sensitive() {
        let a = XorShift64Star::for_stream(7, 3).next_u64();
        assert_eq!(a, XorShift64Star::for_stream(7, 3).next_u64());
        assert_ne!(a, XorShift64Star::for_stream(8, 3).next_u64());
        assert_ne!(a, XorShift64Star::for_stream(7, 4).next_u64());
    }

    #[test]
    fn roughly_uniform() {
        let mut r = XorShift64Star::new(99);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[r.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            // Each bucket expects n/8 = 10k; allow ±5 %.
            assert!((9_500..=10_500).contains(&b), "bucket count {b}");
        }
    }
}
