//! Sharer sets: which private L2s hold a line.
//!
//! There is no directory of its own. Every core's L2 tags live in one
//! set-major array (`[set][core][way]`), so the holders of a line are the
//! cores whose L2 ways of its set hold it, and
//! [`SetAssocCache::holders`](crate::cache::SetAssocCache::holders) reads
//! them in one pass over the set. The MESI state lives in the L2 tags too:
//! the dirty owner of a line is the holder whose copy is Modified (a
//! Modified line has no other holder). A [`CoreSet`] is one word, a bit
//! per core, which bounds the simulator at [`MAX_CORES`] cores.

/// Maximum number of cores a sharer set can track: one bit of a `u64`
/// per core.
pub const MAX_CORES: usize = 64;

/// A set of core ids below [`MAX_CORES`], one bit each in a `u64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet(pub(crate) u64);

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// The set containing exactly `core`.
    pub fn only(core: usize) -> CoreSet {
        let mut s = CoreSet::EMPTY;
        s.insert(core);
        s
    }

    /// The set containing the listed cores (tests/diagnostics).
    pub fn of(cores: &[usize]) -> CoreSet {
        let mut s = CoreSet::EMPTY;
        for &c in cores {
            s.insert(c);
        }
        s
    }

    /// Adds `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= MAX_CORES`: a release build masks the shift
    /// amount, so core 64 would otherwise alias core 0.
    pub fn insert(&mut self, core: usize) {
        assert!(core < MAX_CORES, "core {core} outside 0..{MAX_CORES}");
        self.0 |= 1 << core;
    }

    /// Removes `core`.
    pub fn remove(&mut self, core: usize) {
        debug_assert!(core < MAX_CORES);
        self.0 &= !(1 << core);
    }

    /// Membership test.
    pub fn contains(&self, core: usize) -> bool {
        debug_assert!(core < MAX_CORES);
        self.0 & (1 << core) != 0
    }

    /// `true` when no core is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of cores in the set.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// This set minus `core`.
    pub fn without(mut self, core: usize) -> CoreSet {
        self.remove(core);
        self
    }

    /// Iterates the member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::tests::{holders, issue, system};

    // Sharer tracking through the memory system of a 64-core chip with
    // no L3: each test works on one line, `k << 6` is line `k`.

    #[test]
    fn single_writer_invariant() {
        let mut m = system(64);
        issue(&mut m, 0, 10 << 6, false);
        issue(&mut m, 1, 10 << 6, false);
        assert_eq!(holders(&m, 10 << 6), CoreSet::of(&[0, 1]));
        // Core 2 writes: both holders are invalidated.
        issue(&mut m, 2, 10 << 6, true);
        assert_eq!(m.publish_event_counters(), 2);
        assert_eq!(holders(&m, 10 << 6), CoreSet::only(2));
    }

    #[test]
    fn dirty_owner_services_reads() {
        // A read after a write finds the writer as the one holder whose
        // L2 it probes for the dirty copy; both then share the line.
        let mut m = system(64);
        issue(&mut m, 3, 42 << 6, true);
        assert_eq!(issue(&mut m, 0, 42 << 6, false), crate::StallKind::L2Access);
        assert_eq!(holders(&m, 42 << 6), CoreSet::of(&[0, 3]));
    }

    #[test]
    fn eviction_cleans_up() {
        // Eight lines of line 7's L2 set (128 KiB apart) evict it.
        let mut m = system(64);
        issue(&mut m, 0, 7 << 6, false);
        issue(&mut m, 1, 7 << 6, false);
        let evict = |m: &mut crate::memsys::MemSystem, core| {
            for k in 1..=8 {
                issue(m, core, (7 << 6) + k * (128 << 10), false);
            }
        };
        evict(&mut m, 0);
        assert_eq!(holders(&m, 7 << 6), CoreSet::only(1));
        evict(&mut m, 1);
        assert!(holders(&m, 7 << 6).is_empty(), "last holder gone");
    }

    #[test]
    fn write_by_sole_sharer_invalidates_nobody() {
        let mut m = system(64);
        issue(&mut m, 4, 1 << 6, false);
        issue(&mut m, 4, 1 << 6, true);
        assert_eq!(m.publish_event_counters(), 0);
        assert_eq!(holders(&m, 1 << 6), CoreSet::only(4));
    }

    #[test]
    fn cores_beyond_word_boundaries_are_tracked() {
        // Regression guard for the u32 mask a u64 replaced: core ids 32+
        // silently aliased (1u32 << 33 panics or wraps). The set must hold
        // the full 0..64 range.
        let mut m = system(64);
        for core in [0usize, 31, 32, 63] {
            issue(&mut m, core, 99 << 6, false);
        }
        let held = holders(&m, 99 << 6);
        assert_eq!(held.count(), 4);
        assert_eq!(held.iter().collect::<Vec<_>>(), vec![0, 31, 32, 63]);
        assert_eq!(held.without(63).iter().collect::<Vec<_>>(), vec![0, 31, 32]);
        issue(&mut m, 63, 99 << 6, true);
        assert_eq!(m.publish_event_counters(), 3);
        assert_eq!(holders(&m, 99 << 6), CoreSet::only(63));
    }

    #[test]
    #[should_panic(expected = "core 64 outside 0..64")]
    fn a_core_past_the_set_is_refused() {
        // Unchecked, `1u64 << 64` masks the shift to bit 0 in release
        // builds, and core 64 would alias core 0.
        CoreSet::only(MAX_CORES);
    }
}
