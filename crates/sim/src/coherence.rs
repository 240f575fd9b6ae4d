//! Coherence directory tracking which private L2s hold each line.
//!
//! The directory is shaped like the L2 tag arrays it covers. It has one
//! set per L2 set, indexed by the same line bits and tagged with the L2's
//! own tag, and each set has room for every line the L2s can hold there at
//! once: `n_cores × L2 ways`, plus one for the line an L2 miss records
//! before its fill evicts the victim. The live entries of a set are packed
//! at its front. The table is allocated once and never grows.
//!
//! An entry records only which L2s hold the line, as a [`CoreSet`]: one
//! word next to the tag, a bit per core, which bounds the simulator at
//! [`MAX_CORES`] cores. There is no owner and no line state: the L2 tags
//! keep those, and the dirty owner of a line is the holder whose L2 copy
//! is Modified (a Modified line has no other holder).
//!
//! Three operations, each one set lookup:
//! * [`Directory::join`] — an L2 miss reads the line;
//! * [`Directory::claim`] — a store makes the writer the only holder;
//! * [`Directory::leave`] — an L2 evicts the line.
//!
//! `join` and `claim` return the other holders: the L2s a read probes for
//! a dirty copy, or that a store invalidates.

/// Maximum number of cores a sharer set can track: one bit of a `u64`
/// per core.
pub const MAX_CORES: usize = 64;

/// A set of core ids below [`MAX_CORES`], one bit each in a `u64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet(u64);

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
        self.add(core);
    }

    /// Adds `core`, checked in debug builds only: the directory's hot
    /// path, whose cores a validated configuration bounds.
    fn add(&mut self, core: usize) {
        debug_assert!(core < MAX_CORES);
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

/// The coherence directory: which private L2s hold each line.
#[derive(Debug)]
pub struct Directory {
    /// `sets - 1`: line number → set index, as in the L2.
    set_mask: u64,
    /// `log2(sets)`: line number → tag, as in the L2.
    set_shift: u32,
    /// Entries per set.
    ways: usize,
    /// Per set: its live entries, packed at the front of the set.
    live: Vec<u32>,
    /// Per entry: the line's tag.
    tags: Vec<u32>,
    /// Per entry: the line's holders.
    holders: Vec<CoreSet>,
}

impl Directory {
    /// An empty directory indexed like an L2 of `sets` sets, with room
    /// for `ways` lines in each set.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two.
    pub fn new(sets: u64, ways: usize) -> Directory {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let entries = sets as usize * ways;
        Directory {
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            ways,
            live: vec![0; sets as usize],
            tags: vec![0; entries],
            holders: vec![CoreSet::EMPTY; entries],
        }
    }

    /// `line`'s set, its tag, and its entry if the line is tracked.
    fn find(&self, line: u64) -> (usize, u32, Option<usize>) {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        debug_assert!(
            tag >> crate::cache::TAG_BITS == 0,
            "line {line:#x} past the L2 tags"
        );
        let tag = tag as u32;
        let base = set * self.ways;
        let live = &self.tags[base..base + self.live[set] as usize];
        let hit = live.iter().position(|&t| t == tag);
        (set, tag, hit.map(|i| base + i))
    }

    /// `line`'s entry, appended to its set when the line is not tracked.
    ///
    /// # Panics
    ///
    /// Panics if the set is full: the L2s hold more lines of one set than
    /// the directory was built for.
    fn entry(&mut self, line: u64) -> usize {
        let (set, tag, hit) = self.find(line);
        if let Some(i) = hit {
            return i;
        }
        let live = self.live[set] as usize;
        assert!(live < self.ways, "directory set overflow at line {line:#x}");
        let i = set * self.ways + live;
        self.tags[i] = tag;
        self.holders[i] = CoreSet::EMPTY;
        self.live[set] += 1;
        i
    }

    /// Core `core` comes to hold `line`: an L2 miss that reads it. Returns
    /// the other holders, whose L2s may hold the line dirty.
    pub fn join(&mut self, line: u64, core: usize) -> CoreSet {
        let i = self.entry(line);
        let others = self.holders[i].without(core);
        self.holders[i].add(core);
        others
    }

    /// Core `core` becomes the only holder of `line`: a store. Returns the
    /// other holders, whose copies must be invalidated.
    pub fn claim(&mut self, line: u64, core: usize) -> CoreSet {
        let i = self.entry(line);
        let others = self.holders[i].without(core);
        self.holders[i] = CoreSet::EMPTY;
        self.holders[i].add(core);
        others
    }

    /// Core `core` no longer holds `line` (its L2 evicted it); the line is
    /// forgotten when nobody holds it. A core that does not hold the line
    /// changes nothing.
    pub fn leave(&mut self, line: u64, core: usize) {
        let (set, _, Some(i)) = self.find(line) else {
            return;
        };
        self.holders[i].remove(core);
        if self.holders[i].is_empty() {
            // Keep the live entries packed: the set's last one fills the gap.
            self.live[set] -= 1;
            let last = set * self.ways + self.live[set] as usize;
            self.tags[i] = self.tags[last];
            self.holders[i] = self.holders[last];
        }
    }

    /// The cores whose L2 holds `line` (diagnostics and tests).
    pub fn holders(&self, line: u64) -> CoreSet {
        match self.find(line) {
            (_, _, Some(i)) => self.holders[i],
            _ => CoreSet::EMPTY,
        }
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.live.iter().map(|&n| n as usize).sum()
    }

    /// `true` when no line is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;
    use std::collections::HashMap;

    /// A small directory: 4 sets of 8 entries, so lines 0..32 fill it.
    fn small() -> Directory {
        Directory::new(4, 8)
    }

    #[test]
    fn the_study_directory_fits_in_two_megabytes() {
        // The paper's 8 cores, each with a 2048-set 8-way L2: 65 entries
        // of a 4 B tag and an 8 B holder word per set.
        let d = Directory::new(2048, 8 * 8 + 1);
        let bytes = std::mem::size_of_val(&d.tags[..])
            + std::mem::size_of_val(&d.holders[..])
            + std::mem::size_of_val(&d.live[..]);
        assert_eq!(bytes, 2048 * 65 * 12 + 2048 * 4);
        assert!(bytes <= 2 << 20, "{bytes} B");
    }

    #[test]
    fn split_directory_matches_the_full_set_map() {
        // The oracle is the directory as a map from line to its full
        // holder set; every line of the 4 × 8 directory can be live at once.
        const LINES: u64 = 32;
        for (n_cores, seed) in [(8u64, 1u64), (64, 2)] {
            let mut rng = XorShift64Star::new(seed);
            let mut dir = small();
            let mut map: HashMap<u64, CoreSet> = HashMap::new();
            for step in 0..50_000 {
                let line = rng.next_below(LINES);
                let mut core = rng.next_below(n_cores) as usize;
                let ctx = format!("{n_cores} cores, step {step}, line {line}, core {core}");
                let held = map.get(&line).copied().unwrap_or_default();
                match rng.next_below(4) {
                    0 | 1 => {
                        assert_eq!(dir.join(line, core), held.without(core), "{ctx}");
                        map.entry(line).or_default().insert(core);
                    }
                    2 => {
                        assert_eq!(dir.claim(line, core), held.without(core), "{ctx}");
                        map.insert(line, CoreSet::only(core));
                    }
                    _ => {
                        // Mostly a real holder leaves, so sets drain and
                        // entries are dropped, not just grown.
                        let held: Vec<usize> = held.iter().collect();
                        if !held.is_empty() && rng.next_below(4) != 0 {
                            core = held[rng.next_below(held.len() as u64) as usize];
                        }
                        dir.leave(line, core);
                        if let Some(set) = map.get_mut(&line) {
                            set.remove(core);
                            if set.is_empty() {
                                map.remove(&line);
                            }
                        }
                    }
                }
                assert_eq!(
                    dir.holders(line),
                    map.get(&line).copied().unwrap_or_default()
                );
                assert_eq!(dir.len(), map.len(), "{ctx}");
            }
            for line in 0..LINES {
                let held = map.get(&line).copied().unwrap_or_default();
                assert_eq!(dir.holders(line), held, "line {line}");
            }
        }
    }

    #[test]
    fn a_full_set_fills_to_its_last_entry_and_drains() {
        // Set 1 of the 4 × 8 directory takes lines 1, 5, ..., 29; line k
        // is held by cores k and 63 - k. They leave from the middle out,
        // so the packing moves the set's last entry into every gap.
        let mut d = small();
        let lines: Vec<u64> = (0..8).map(|k| 4 * k + 1).collect();
        for (k, &line) in lines.iter().enumerate() {
            assert!(d.join(line, k).is_empty());
            assert_eq!(d.join(line, 63 - k), CoreSet::only(k));
        }
        assert_eq!(d.len(), 8);
        assert_eq!(d.live[1], 8);
        let mut left: Vec<usize> = (0..8).collect();
        for k in [3, 4, 0, 7, 5, 1, 6, 2] {
            d.leave(lines[k], 63 - k);
            assert_eq!(d.holders(lines[k]), CoreSet::only(k));
            d.leave(lines[k], k);
            left.retain(|&j| j != k);
            assert!(d.holders(lines[k]).is_empty());
            for &j in &left {
                assert_eq!(
                    d.holders(lines[j]),
                    CoreSet::of(&[j, 63 - j]),
                    "line {}",
                    lines[j]
                );
            }
            assert_eq!(d.len(), left.len());
        }
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "directory set overflow")]
    fn a_line_past_a_full_set_is_refused() {
        let mut d = small();
        for k in 0..9 {
            d.join(4 * k, 0);
        }
    }

    #[test]
    fn single_writer_invariant() {
        let mut d = small();
        assert!(d.join(10, 0).is_empty());
        assert_eq!(d.join(10, 1), CoreSet::only(0));
        // Core 2 writes: both holders must be invalidated.
        assert_eq!(d.claim(10, 2), CoreSet::of(&[0, 1]));
        assert_eq!(d.holders(10), CoreSet::only(2));
    }

    #[test]
    fn dirty_owner_services_reads() {
        // The directory keeps no owner: a read after a write gets the
        // writer as the one holder whose L2 it probes for the dirty copy.
        let mut d = small();
        d.claim(42, 3);
        assert_eq!(d.join(42, 0), CoreSet::only(3));
        assert_eq!(d.holders(42), CoreSet::of(&[0, 3]));
    }

    #[test]
    fn eviction_cleans_up() {
        let mut d = small();
        d.join(7, 0);
        d.join(7, 1);
        d.leave(7, 0);
        assert_eq!(d.holders(7), CoreSet::only(1));
        assert!(!d.is_empty());
        d.leave(7, 1);
        assert!(d.is_empty(), "last holder gone → entry dropped");
    }

    #[test]
    fn write_by_sole_sharer_invalidates_nobody() {
        let mut d = small();
        d.join(1, 4);
        assert!(d.claim(1, 4).is_empty());
    }

    #[test]
    fn cores_beyond_word_boundaries_are_tracked() {
        // Regression guard for the u32 mask a u64 replaced: core ids 32+
        // silently aliased (1u32 << 33 panics or wraps). The set must hold
        // the full 0..64 range.
        let mut d = small();
        for core in [0usize, 31, 32, 63] {
            d.join(99, core);
        }
        assert_eq!(d.holders(99).count(), 4);
        let inval = d.claim(99, 63);
        assert_eq!(inval.count(), 3);
        assert!(inval.contains(32) && !inval.contains(63));
        assert_eq!(inval.iter().collect::<Vec<_>>(), vec![0, 31, 32]);
        assert_eq!(d.holders(99), CoreSet::only(63));
    }

    #[test]
    #[should_panic(expected = "core 64 outside 0..64")]
    fn a_core_past_the_set_is_refused() {
        // Unchecked, `1u64 << 64` masks the shift to bit 0 in release
        // builds, and core 64 would alias core 0.
        CoreSet::only(MAX_CORES);
    }
}
