//! Coherence directory tracking which private L2s hold each line.
//!
//! The directory is shaped like the L2 tag arrays it covers. It has one
//! set per L2 set, indexed by the same line bits and tagged with the L2's
//! own tag, and each set has room for every line the L2s can hold there at
//! once: `n_cores × L2 ways`, plus one for the line an L2 miss records
//! before its fill evicts the victim. The live entries of a set are packed
//! at its front. The table is allocated once and never grows.
//!
//! An entry records only which L2s hold the line, as a [`CoreSet`]: the
//! holders among cores 0–63 sit inline as one word next to the tag, and
//! cores 64–255 spill to a side map touched only for lines such a core
//! holds, so the same directory serves the paper's 8-core chip and the
//! 64–256-core configurations. There is no owner and no line state: the
//! L2 tags keep those, and the dirty owner of a line is the holder whose
//! L2 copy is Modified (at most one under either protocol).
//!
//! Three operations, each one set lookup, serve both protocols:
//! * [`Directory::join`] — an L2 miss reads the line, or a write-update
//!   (Dragon) store pushes new data to the other holders;
//! * [`Directory::claim`] — a write-invalidate (MESI) store makes the
//!   writer the only holder;
//! * [`Directory::leave`] — an L2 evicts the line.
//!
//! `join` and `claim` return the other holders: the L2s a read probes for
//! a dirty copy, or that a store invalidates or updates.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of cores a sharer set can track.
pub const MAX_CORES: usize = 256;

/// A set of core ids, fixed 256-bit bitset — wide enough for the
/// simulator's largest configuration, four words instead of a heap
/// allocation per directory entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet([u64; 4]);

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet([0; 4]);

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
    /// Panics if `core >= MAX_CORES` (debug builds index-check anyway).
    pub fn insert(&mut self, core: usize) {
        self.0[core / 64] |= 1 << (core % 64);
    }

    /// Removes `core`.
    pub fn remove(&mut self, core: usize) {
        self.0[core / 64] &= !(1 << (core % 64));
    }

    /// Membership test.
    pub fn contains(&self, core: usize) -> bool {
        self.0[core / 64] & (1 << (core % 64)) != 0
    }

    /// `true` when no core is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of cores in the set.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// This set minus `core`.
    pub fn without(mut self, core: usize) -> CoreSet {
        self.remove(core);
        self
    }

    /// Iterates the member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

/// Hashes a line number with one multiply (Fibonacci hashing). The side
/// map is keyed by simulated line numbers, never by outside input, and is
/// never iterated, so the hash affects speed only — not results.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, line: u64) {
        self.0 = (self.0 ^ line).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The product's high bits mix every input bit; rotate them down
        // to where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// `Directory::tags` bit marking an entry whose line is also held by
/// some of cores 64–255; the tag itself fits below it.
const SPILLED: u32 = 1 << 31;

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
    /// Per entry: the line's tag, with [`SPILLED`] set when one of cores
    /// 64–255 holds it.
    tags: Vec<u32>,
    /// Per entry: the holders among cores 0–63.
    low: Vec<u64>,
    /// Holder bits for cores 64–255 (words 1–3 of the [`CoreSet`]) of the
    /// lines whose entry is spilled, and of no others.
    high: LineMap<[u64; 3]>,
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
            low: vec![0; entries],
            high: LineMap::default(),
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
        let hit = live.iter().position(|&t| t & !SPILLED == tag);
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
        self.low[i] = 0;
        self.live[set] += 1;
        i
    }

    /// The holders of entry `i`, which tracks `line`.
    fn holders_at(&self, i: usize, line: u64) -> CoreSet {
        let [a, b, c] = if self.tags[i] & SPILLED != 0 {
            self.high[&line]
        } else {
            [0; 3]
        };
        CoreSet([self.low[i], a, b, c])
    }

    fn add(&mut self, i: usize, line: u64, core: usize) {
        if core < 64 {
            self.low[i] |= 1 << core;
        } else {
            self.high.entry(line).or_default()[core / 64 - 1] |= 1 << (core % 64);
            self.tags[i] |= SPILLED;
        }
    }

    /// Core `core` comes to hold `line`: an L2 miss that reads it, or a
    /// write-update (Dragon) store. Returns the other holders, whose L2s
    /// may hold the line dirty or take the update.
    pub fn join(&mut self, line: u64, core: usize) -> CoreSet {
        let i = self.entry(line);
        let others = self.holders_at(i, line).without(core);
        self.add(i, line, core);
        others
    }

    /// Core `core` becomes the only holder of `line`: a write-invalidate
    /// (MESI) store. Returns the other holders, whose copies must be
    /// invalidated.
    pub fn claim(&mut self, line: u64, core: usize) -> CoreSet {
        let i = self.entry(line);
        let others = self.holders_at(i, line).without(core);
        if self.tags[i] & SPILLED != 0 {
            self.high.remove(&line);
            self.tags[i] &= !SPILLED;
        }
        self.low[i] = 0;
        self.add(i, line, core);
        others
    }

    /// Core `core` no longer holds `line` (its L2 evicted it); the line is
    /// forgotten when nobody holds it. A core that does not hold the line
    /// changes nothing.
    pub fn leave(&mut self, line: u64, core: usize) {
        let (set, _, Some(i)) = self.find(line) else {
            return;
        };
        if core < 64 {
            self.low[i] &= !(1 << core);
        } else if self.tags[i] & SPILLED != 0 {
            let words = self
                .high
                .get_mut(&line)
                .unwrap_or_else(|| unreachable!("a spilled line has high holders"));
            words[core / 64 - 1] &= !(1 << (core % 64));
            if *words == [0; 3] {
                self.high.remove(&line);
                self.tags[i] &= !SPILLED;
            }
        }
        if self.low[i] == 0 && self.tags[i] & SPILLED == 0 {
            // Keep the live entries packed: the set's last one fills the gap.
            self.live[set] -= 1;
            let last = set * self.ways + self.live[set] as usize;
            self.tags[i] = self.tags[last];
            self.low[i] = self.low[last];
        }
    }

    /// The cores whose L2 holds `line` (diagnostics and tests).
    pub fn holders(&self, line: u64) -> CoreSet {
        match self.find(line) {
            (_, _, Some(i)) => self.holders_at(i, line),
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
            + std::mem::size_of_val(&d.low[..])
            + std::mem::size_of_val(&d.live[..]);
        assert_eq!(bytes, 2048 * 65 * 12 + 2048 * 4);
        assert!(bytes <= 2 << 20, "{bytes} B");
    }

    #[test]
    fn split_directory_matches_the_full_set_map() {
        // The oracle is the directory as a map from line to its full
        // holder set; every line of the 4 × 8 directory can be live at once.
        const LINES: u64 = 32;
        for (n_cores, seed) in [(8u64, 1u64), (64, 2), (256, 3)] {
            let mut rng = XorShift64Star::new(seed);
            let mut dir = small();
            let mut map: HashMap<u64, CoreSet> = HashMap::new();
            let (mut spills, mut unspills) = (0, 0);
            for step in 0..50_000 {
                let line = rng.next_below(LINES);
                let mut core = rng.next_below(n_cores) as usize;
                let spilled_before = dir.high.len();
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
                        // entries (and spills) are dropped, not just grown.
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
                spills += usize::from(dir.high.len() > spilled_before);
                unspills += usize::from(dir.high.len() < spilled_before);
            }
            for line in 0..LINES {
                let held = map.get(&line).copied().unwrap_or_default();
                assert_eq!(dir.holders(line), held, "line {line}");
            }
            if n_cores <= 64 {
                assert_eq!(spills, 0, "cores below 64 never touch the side map");
            } else {
                assert!(
                    spills > 100 && unspills > 100,
                    "{spills} spills, {unspills} unspills"
                );
            }
        }
    }

    #[test]
    fn a_full_set_fills_to_its_last_entry_and_drains() {
        // Set 1 of the 4 × 8 directory takes lines 1, 5, ..., 29; each is
        // held by one low and one spilled core. They leave from the middle
        // out, so the packing moves the set's last entry into every gap.
        let mut d = small();
        let lines: Vec<u64> = (0..8).map(|k| 4 * k + 1).collect();
        for (k, &line) in lines.iter().enumerate() {
            assert!(d.join(line, k).is_empty());
            assert_eq!(d.join(line, 64 + k), CoreSet::only(k));
        }
        assert_eq!(d.len(), 8);
        assert_eq!(d.live[1], 8);
        let mut left: Vec<usize> = (0..8).collect();
        for k in [3, 4, 0, 7, 5, 1, 6, 2] {
            d.leave(lines[k], 64 + k);
            assert_eq!(d.holders(lines[k]), CoreSet::only(k));
            d.leave(lines[k], k);
            left.retain(|&j| j != k);
            assert!(d.holders(lines[k]).is_empty());
            for &j in &left {
                assert_eq!(
                    d.holders(lines[j]),
                    CoreSet::of(&[j, 64 + j]),
                    "line {}",
                    lines[j]
                );
            }
            assert_eq!(d.len(), left.len());
        }
        assert!(d.is_empty() && d.high.is_empty());
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
        // Regression guard for the u32 mask this replaced: core ids 32+
        // silently aliased (1u32 << 33 panics or wraps). The widened set
        // must hold the full 0..256 range.
        let mut d = small();
        for core in [0usize, 31, 32, 63, 64, 127, 128, 255] {
            d.join(99, core);
        }
        assert_eq!(d.holders(99).count(), 8);
        let inval = d.claim(99, 255);
        assert_eq!(inval.count(), 7);
        assert!(inval.contains(64) && inval.contains(128) && !inval.contains(255));
        assert_eq!(
            inval.iter().collect::<Vec<_>>(),
            vec![0, 31, 32, 63, 64, 127, 128]
        );
        assert_eq!(d.holders(99), CoreSet::only(255));
    }
}
