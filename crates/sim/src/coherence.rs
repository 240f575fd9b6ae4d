//! Coherence directory tracking which private L2s hold each line.
//!
//! The directory covers only lines resident in some L2 (the L2s are small,
//! so the map stays bounded); it is consulted on every L2 miss and on every
//! store that needs ownership. Sharer sets are 256-bit [`CoreSet`]s, so the
//! same directory serves the paper's 8-core chip and the engine's
//! 64–256-core configurations. Each entry stores only the
//! sharers among cores 0–63, inline as one word next to the owner; cores
//! 64–255 spill to a side map touched only for lines such a core shares.
//!
//! Two protocols share the directory state:
//! * **MESI** (write-invalidate) — [`Directory::read`] / [`Directory::write`],
//!   the paper's protocol.
//! * **Dragon-style write-update** — [`Directory::read_keep_owner`] /
//!   [`Directory::write_update`]: a write pushes the new data to the other
//!   sharers instead of invalidating them, and a read from a dirty owner
//!   does not downgrade it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of cores a sharer set can track.
pub const MAX_CORES: usize = 256;

/// A set of core ids, fixed 256-bit bitset — wide enough for the sharded
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

/// Outcome of a directory read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// No L2 holds it — fetch from L3/memory.
    Below,
    /// A peer L2 holds it dirty; cache-to-cache transfer.
    RemoteOwner(usize),
    /// One or more peers hold it clean; data still comes from below, the
    /// requester joins the sharers.
    SharedClean,
}

/// Hashes a line number with one multiply (Fibonacci hashing). The
/// directory is keyed by simulated line numbers, never by outside input,
/// and is never iterated, so the hash affects speed only — not results.
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

/// [`Entry::owner`] when no core owns the line dirty.
const NO_OWNER: u16 = u16::MAX;

/// One tracked line: the sharers among cores 0–63 as a bitmask, whether
/// cores 64–255 share it too (their bits then sit in
/// [`Directory::high`]), and the dirty owner. 16 bytes where a full
/// [`CoreSet`] entry takes 40, so the table an Issue-timing run presizes is under
/// half the size and every L2 miss touches less of it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    low: u64,
    owner: u16,
    spilled: bool,
}

impl Default for Entry {
    fn default() -> Entry {
        Entry {
            low: 0,
            owner: NO_OWNER,
            spilled: false,
        }
    }
}

impl Entry {
    fn owner(&self) -> Option<usize> {
        (self.owner != NO_OWNER).then_some(usize::from(self.owner))
    }

    /// The full sharer set; `high` is consulted only when the line spilled.
    fn sharers(&self, high: &LineMap<[u64; 3]>, line: u64) -> CoreSet {
        let [a, b, c] = if self.spilled { high[&line] } else { [0; 3] };
        CoreSet([self.low, a, b, c])
    }

    /// `true` when some core other than `core` shares the line.
    fn shared_beyond(&self, high: &LineMap<[u64; 3]>, line: u64, core: usize) -> bool {
        let low = if core < 64 {
            self.low & !(1 << core)
        } else {
            self.low
        };
        low != 0 || (self.spilled && !self.sharers(high, line).without(core).is_empty())
    }

    fn add(&mut self, high: &mut LineMap<[u64; 3]>, line: u64, core: usize) {
        if core < 64 {
            self.low |= 1 << core;
        } else {
            high.entry(line).or_default()[core / 64 - 1] |= 1 << (core % 64);
            self.spilled = true;
        }
    }

    fn remove(&mut self, high: &mut LineMap<[u64; 3]>, line: u64, core: usize) {
        if core < 64 {
            self.low &= !(1 << core);
        } else if self.spilled {
            let words = high
                .get_mut(&line)
                .unwrap_or_else(|| unreachable!("a spilled line has high sharers"));
            words[core / 64 - 1] &= !(1 << (core % 64));
            if *words == [0; 3] {
                high.remove(&line);
                self.spilled = false;
            }
        }
    }

    /// Makes `core` the only sharer.
    fn set_only(&mut self, high: &mut LineMap<[u64; 3]>, line: u64, core: usize) {
        if self.spilled {
            high.remove(&line);
            self.spilled = false;
        }
        self.low = 0;
        self.add(high, line, core);
    }
}

/// The coherence directory.
#[derive(Debug, Default)]
pub struct Directory {
    entries: LineMap<Entry>,
    /// Sharer bits for cores 64–255 (words 1–3 of the [`CoreSet`]) of the
    /// lines whose entry is `spilled`, and of no others.
    high: LineMap<[u64; 3]>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Creates an empty directory that tracks up to `lines` lines without
    /// rehashing, so its old and new tables are never live at once.
    pub fn with_capacity(lines: usize) -> Directory {
        Directory {
            entries: HashMap::with_capacity_and_hasher(lines, BuildHasherDefault::default()),
            high: LineMap::default(),
        }
    }

    /// Number of tracked lines (bounded by total L2 capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no lines are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Core `core` reads `line` (L2 miss): updates sharers and reports
    /// where the data comes from. MESI semantics — a dirty remote owner
    /// downgrades to Shared.
    pub fn read(&mut self, line: u64, core: usize) -> ReadSource {
        self.read_as(line, core, true)
    }

    /// Core `core` reads `line` under the write-update protocol: like
    /// [`Directory::read`] but a dirty owner keeps ownership — it supplies
    /// the data cache-to-cache without a downgrade or writeback.
    pub fn read_keep_owner(&mut self, line: u64, core: usize) -> ReadSource {
        self.read_as(line, core, false)
    }

    fn read_as(&mut self, line: u64, core: usize, downgrade: bool) -> ReadSource {
        let e = self.entries.entry(line).or_default();
        let src = if let Some(owner) = e.owner() {
            if owner != core {
                if downgrade {
                    e.owner = NO_OWNER; // owner downgrades to Shared
                }
                ReadSource::RemoteOwner(owner)
            } else {
                ReadSource::Below // shouldn't happen (owner re-reading)
            }
        } else if e.shared_beyond(&self.high, line, core) {
            ReadSource::SharedClean
        } else {
            ReadSource::Below
        };
        e.add(&mut self.high, line, core);
        src
    }

    /// Core `core` writes `line` (MESI): all other sharers must be
    /// invalidated. Returns the set of cores that need an invalidation
    /// probe.
    pub fn write(&mut self, line: u64, core: usize) -> CoreSet {
        let e = self.entries.entry(line).or_default();
        let invalidate = e.sharers(&self.high, line).without(core);
        e.set_only(&mut self.high, line, core);
        e.owner = core as u16;
        invalidate
    }

    /// Core `core` writes `line` under the write-update protocol: the
    /// other sharers receive the new data and *stay* sharers. Returns
    /// `(peers_to_update, previous_dirty_owner)` — the previous owner (if
    /// any, and not the writer) sources the line cache-to-cache on a
    /// write miss.
    pub fn write_update(&mut self, line: u64, core: usize) -> (CoreSet, Option<usize>) {
        let e = self.entries.entry(line).or_default();
        let prev_owner = e.owner().filter(|&o| o != core);
        let peers = e.sharers(&self.high, line).without(core);
        e.add(&mut self.high, line, core);
        e.owner = core as u16;
        (peers, prev_owner)
    }

    /// Core `core` evicted `line` from its L2: drop it from the sharers and
    /// forget the line when nobody holds it. Returns `true` if the evicting
    /// core was the dirty owner (writeback needed).
    pub fn evict(&mut self, line: u64, core: usize) -> bool {
        let mut was_owner = false;
        if let Some(e) = self.entries.get_mut(&line) {
            e.remove(&mut self.high, line, core);
            if e.owner() == Some(core) {
                e.owner = NO_OWNER;
                was_owner = true;
            }
            if e.low == 0 && !e.spilled {
                self.entries.remove(&line);
            }
        }
        was_owner
    }

    /// Current sharers of a line (diagnostics/tests).
    pub fn sharers(&self, line: u64) -> CoreSet {
        self.entries
            .get(&line)
            .map_or(CoreSet::EMPTY, |e| e.sharers(&self.high, line))
    }

    /// Current owner, if dirty-owned.
    pub fn owner(&self, line: u64) -> Option<usize> {
        self.entries.get(&line).and_then(Entry::owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    /// The directory before its sharer sets were split: one map entry per
    /// line holding the full [`CoreSet`]. The differential test drives it
    /// and [`Directory`] with the same request stream.
    #[derive(Debug, Default)]
    struct MapDirectory {
        entries: HashMap<u64, DirEntry>,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct DirEntry {
        sharers: CoreSet,
        owner: Option<u16>,
    }

    impl MapDirectory {
        fn read(&mut self, line: u64, core: usize) -> ReadSource {
            let e = self.entries.entry(line).or_default();
            let src = if let Some(owner) = e.owner {
                if usize::from(owner) != core {
                    e.owner = None;
                    ReadSource::RemoteOwner(usize::from(owner))
                } else {
                    ReadSource::Below
                }
            } else if !e.sharers.without(core).is_empty() {
                ReadSource::SharedClean
            } else {
                ReadSource::Below
            };
            e.sharers.insert(core);
            src
        }

        fn read_keep_owner(&mut self, line: u64, core: usize) -> ReadSource {
            let e = self.entries.entry(line).or_default();
            let src = if let Some(owner) = e.owner {
                if usize::from(owner) != core {
                    ReadSource::RemoteOwner(usize::from(owner))
                } else {
                    ReadSource::Below
                }
            } else if !e.sharers.without(core).is_empty() {
                ReadSource::SharedClean
            } else {
                ReadSource::Below
            };
            e.sharers.insert(core);
            src
        }

        fn write(&mut self, line: u64, core: usize) -> CoreSet {
            let e = self.entries.entry(line).or_default();
            let invalidate = e.sharers.without(core);
            e.sharers = CoreSet::only(core);
            e.owner = Some(core as u16);
            invalidate
        }

        fn write_update(&mut self, line: u64, core: usize) -> (CoreSet, Option<usize>) {
            let e = self.entries.entry(line).or_default();
            let prev_owner = e.owner.map(usize::from).filter(|&o| o != core);
            let peers = e.sharers.without(core);
            e.sharers.insert(core);
            e.owner = Some(core as u16);
            (peers, prev_owner)
        }

        fn evict(&mut self, line: u64, core: usize) -> bool {
            let mut was_owner = false;
            if let Some(e) = self.entries.get_mut(&line) {
                e.sharers.remove(core);
                if e.owner == Some(core as u16) {
                    e.owner = None;
                    was_owner = true;
                }
                if e.sharers.is_empty() {
                    self.entries.remove(&line);
                }
            }
            was_owner
        }

        fn sharers(&self, line: u64) -> CoreSet {
            self.entries
                .get(&line)
                .map_or(CoreSet::EMPTY, |e| e.sharers)
        }

        fn owner(&self, line: u64) -> Option<usize> {
            self.entries
                .get(&line)
                .and_then(|e| e.owner)
                .map(usize::from)
        }
    }

    #[test]
    fn an_entry_is_two_words() {
        // The table an Issue-timing run presizes holds (line, Entry) buckets:
        // 24 B each, where a full-CoreSet entry made them 48 B.
        assert_eq!(std::mem::size_of::<(u64, Entry)>(), 24);
    }

    #[test]
    fn split_directory_matches_the_full_set_map() {
        const LINES: u64 = 32;
        for (n_cores, seed) in [(8u64, 1u64), (64, 2), (256, 3)] {
            let mut rng = XorShift64Star::new(seed);
            let mut dir = Directory::new();
            let mut map = MapDirectory::default();
            let (mut spills, mut unspills) = (0, 0);
            for step in 0..50_000 {
                let line = rng.next_below(LINES);
                let mut core = rng.next_below(n_cores) as usize;
                let spilled_before = dir.high.len();
                let ctx = format!("{n_cores} cores, step {step}, line {line}, core {core}");
                match rng.next_below(5) {
                    0 => assert_eq!(dir.read(line, core), map.read(line, core), "{ctx}"),
                    1 => assert_eq!(
                        dir.read_keep_owner(line, core),
                        map.read_keep_owner(line, core),
                        "{ctx}"
                    ),
                    2 => assert_eq!(dir.write(line, core), map.write(line, core), "{ctx}"),
                    3 => assert_eq!(
                        dir.write_update(line, core),
                        map.write_update(line, core),
                        "{ctx}"
                    ),
                    _ => {
                        // Mostly evict a real sharer, so sets drain and
                        // entries (and spills) are dropped, not just grown.
                        let held: Vec<usize> = map.sharers(line).iter().collect();
                        if !held.is_empty() && rng.next_below(4) != 0 {
                            core = held[rng.next_below(held.len() as u64) as usize];
                        }
                        assert_eq!(dir.evict(line, core), map.evict(line, core), "{ctx}");
                    }
                }
                assert_eq!(dir.sharers(line), map.sharers(line), "{ctx}");
                assert_eq!(dir.owner(line), map.owner(line), "{ctx}");
                assert_eq!(dir.len(), map.entries.len(), "{ctx}");
                spills += usize::from(dir.high.len() > spilled_before);
                unspills += usize::from(dir.high.len() < spilled_before);
            }
            for line in 0..LINES {
                assert_eq!(dir.sharers(line), map.sharers(line));
                assert_eq!(dir.owner(line), map.owner(line));
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
    fn single_writer_invariant() {
        let mut d = Directory::new();
        assert_eq!(d.read(10, 0), ReadSource::Below);
        assert_eq!(d.read(10, 1), ReadSource::SharedClean);
        // Core 2 writes: both sharers must be invalidated.
        let inval = d.write(10, 2);
        assert_eq!(inval, CoreSet::of(&[0, 1]));
        assert_eq!(d.owner(10), Some(2));
        assert_eq!(d.sharers(10), CoreSet::only(2));
    }

    #[test]
    fn dirty_owner_services_reads() {
        let mut d = Directory::new();
        d.write(42, 3);
        assert_eq!(d.read(42, 0), ReadSource::RemoteOwner(3));
        // After the transfer both share it cleanly.
        assert_eq!(d.owner(42), None);
        assert_eq!(d.sharers(42), CoreSet::of(&[0, 3]));
    }

    #[test]
    fn eviction_cleans_up() {
        let mut d = Directory::new();
        d.read(7, 0);
        d.read(7, 1);
        assert!(!d.evict(7, 0), "clean eviction");
        assert_eq!(d.sharers(7), CoreSet::only(1));
        assert!(!d.is_empty());
        d.evict(7, 1);
        assert!(d.is_empty(), "last sharer gone → entry dropped");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut d = Directory::new();
        d.write(9, 5);
        assert!(d.evict(9, 5));
        assert!(d.is_empty());
    }

    #[test]
    fn write_by_sole_sharer_invalidates_nobody() {
        let mut d = Directory::new();
        d.read(1, 4);
        assert!(d.write(1, 4).is_empty());
    }

    #[test]
    fn cores_beyond_word_boundaries_are_tracked() {
        // Regression guard for the u32 mask this replaced: core ids 32+
        // silently aliased (1u32 << 33 panics or wraps). The widened set
        // must hold the full 0..256 range.
        let mut d = Directory::new();
        for core in [0usize, 31, 32, 63, 64, 127, 128, 255] {
            d.read(99, core);
        }
        assert_eq!(d.sharers(99).count(), 8);
        let inval = d.write(99, 255);
        assert_eq!(inval.count(), 7);
        assert!(inval.contains(64) && inval.contains(128) && !inval.contains(255));
        assert_eq!(
            inval.iter().collect::<Vec<_>>(),
            vec![0, 31, 32, 63, 64, 127, 128]
        );
        assert_eq!(d.owner(99), Some(255));
    }

    #[test]
    fn write_update_keeps_sharers_and_transfers_ownership() {
        let mut d = Directory::new();
        d.read(5, 0);
        d.read(5, 1);
        let (peers, prev) = d.write_update(5, 2);
        assert_eq!(
            peers,
            CoreSet::of(&[0, 1]),
            "peers get updates, not invalidations"
        );
        assert_eq!(prev, None, "no dirty owner yet");
        assert_eq!(d.sharers(5), CoreSet::of(&[0, 1, 2]));
        assert_eq!(d.owner(5), Some(2));
        // A second writer: previous owner sources the data, everyone stays.
        let (peers, prev) = d.write_update(5, 0);
        assert_eq!(peers, CoreSet::of(&[1, 2]));
        assert_eq!(prev, Some(2));
        assert_eq!(d.sharers(5).count(), 3);
    }

    #[test]
    fn read_keep_owner_does_not_downgrade() {
        let mut d = Directory::new();
        d.write(6, 3);
        assert_eq!(d.read_keep_owner(6, 1), ReadSource::RemoteOwner(3));
        assert_eq!(d.owner(6), Some(3), "owner keeps the dirty line");
        assert_eq!(d.sharers(6), CoreSet::of(&[1, 3]));
    }
}
