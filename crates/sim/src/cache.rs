//! Set-associative tag arrays with true-LRU replacement and MESI line
//! states.
//!
//! Each way is one packed slot, `tag << 2 | state`, with 0 meaning
//! Invalid. A set's slots are kept in recency order — most recently used
//! first, invalid slots last — so a hit or insert rotates the line to the
//! front, the LRU victim is always the last way, and invalidation shifts
//! the less recent lines left. No timestamps are stored.
//!
//! One array can hold several private caches of one geometry, set-major
//! (`[set][cache][way]`): the L2s of every core share one array, so the
//! copies of a line all sit in one contiguous run of slots, and
//! [`SetAssocCache::holders`] names the caches holding it in one pass.
//!
//! The slot is a `u16` or a `u32` ([`Slot`]). It leaves [`Slot::TAG_BITS`]
//! bits for the tag, so a cache holds byte addresses below
//! `2^(TAG_BITS + log2 sets + log2 line bytes)`: 4 TiB for a 64-set
//! `u32` cache of 64 B lines. An address past that limit panics rather
//! than alias another line's tag.

use crate::coherence::{CoreSet, MAX_CORES};

/// MESI coherence state of a cached line. The discriminant is the state's
/// two-bit code in a packed tag slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Clean, possibly in other caches.
    Shared,
    /// Clean, only copy among peer caches.
    Exclusive,
    /// Dirty, only copy.
    Modified,
}

impl LineState {
    fn of_slot(slot: u32) -> LineState {
        match slot & 3 {
            0 => LineState::Invalid,
            1 => LineState::Shared,
            2 => LineState::Exclusive,
            _ => LineState::Modified,
        }
    }
}

/// The width of a packed tag slot: `u16` or `u32`.
pub trait Slot: Copy + Default + Into<u32> {
    /// Tag bits of a slot: its width less the two state bits.
    const TAG_BITS: u32;
    /// The slot holding `packed`, a `tag << 2 | state` that fits in it.
    fn pack(packed: u32) -> Self;
}

impl Slot for u16 {
    const TAG_BITS: u32 = u16::BITS - 2;
    fn pack(packed: u32) -> u16 {
        packed as u16
    }
}

impl Slot for u32 {
    const TAG_BITS: u32 = u32::BITS - 2;
    fn pack(packed: u32) -> u32 {
        packed
    }
}

/// A set-associative tag array of `S` slots, holding one or more private
/// caches of one geometry. Addresses are byte addresses; the array derives
/// line/set/tag internally, and a cache is named by its index. Every
/// method that takes an address panics if the address is at or past the
/// limit of `2^(S::TAG_BITS + log2 sets + log2 line bytes)` bytes.
#[derive(Debug, Clone)]
pub struct SetAssocCache<S = u32> {
    /// `log2(line bytes)`: byte address → line address.
    line_shift: u32,
    /// `sets - 1`: line address → set index.
    set_mask: u64,
    /// `log2(sets)`: line address → tag.
    set_shift: u32,
    /// Ways of one cache.
    assoc: usize,
    /// Slots of one set: the ways of every cache.
    set_len: usize,
    slots: Vec<S>,
}

/// Result of an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// State the victim was in.
    pub state: LineState,
}

/// Whether `slot` holds the line of `tag`: an invalid slot is 0.
fn holds(slot: u32, tag: u32) -> bool {
    (slot != 0) & (slot >> 2 == tag)
}

impl<S: Slot> SetAssocCache<S> {
    /// Creates `caches` empty caches of one geometry in one array.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is outside `1..=MAX_CORES` or the geometry is
    /// degenerate: zero ways, a line size that is not a power of two of
    /// at least 4 B (the packed slot needs the two low tag bits free), or
    /// a set count that is zero or not a power of two.
    /// [`crate::config::SystemConfig::validate`] reports these as a typed
    /// error.
    pub fn new(
        capacity_bytes: u64,
        line_bytes: u32,
        associativity: u32,
        caches: usize,
    ) -> SetAssocCache<S> {
        assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
        assert!(associativity > 0);
        assert!(
            (1..=MAX_CORES).contains(&caches),
            "{caches} caches outside 1..={MAX_CORES}"
        );
        let sets = capacity_bytes / (u64::from(line_bytes) * u64::from(associativity));
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let set_len = caches * associativity as usize;
        SetAssocCache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            assoc: associativity as usize,
            set_len,
            slots: vec![S::default(); sets as usize * set_len],
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Set index for an address — exposed for bank/subbank steering.
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & self.set_mask
    }

    /// `addr`'s set and tag. Line size and set count are powers of two,
    /// so the split is shifts and a mask.
    fn split(&self, addr: u64) -> (usize, u32) {
        let line = addr >> self.line_shift;
        let tag = line >> self.set_shift;
        assert!(
            tag >> S::TAG_BITS == 0,
            "address {addr:#x} is past this cache's limit of 2^{} bytes",
            S::TAG_BITS + self.set_shift + self.line_shift
        );
        ((line & self.set_mask) as usize, tag as u32)
    }

    /// The slot range of `cache`'s ways of `set`.
    fn ways(&self, cache: usize, set: usize) -> std::ops::Range<usize> {
        debug_assert!(cache < self.set_len / self.assoc, "cache {cache}");
        let start = set * self.set_len + cache * self.assoc;
        start..start + self.assoc
    }

    /// The slot range of `addr`'s set in `cache`, its tag, and the
    /// recency position of its line within the set if it is present.
    fn find(&self, cache: usize, addr: u64) -> (std::ops::Range<usize>, u32, Option<usize>) {
        let (set, tag) = self.split(addr);
        let range = self.ways(cache, set);
        let pos = self.slots[range.clone()]
            .iter()
            .position(|&s| holds(s.into(), tag));
        (range, tag, pos)
    }

    /// Looks up `addr` in `cache`; on a hit makes it the MRU line, marks
    /// it Modified for a `store`, and returns the state it was in. The
    /// set is scanned once.
    pub fn lookup(&mut self, cache: usize, addr: u64, store: bool) -> Option<LineState> {
        let (range, tag, pos) = self.find(cache, addr);
        let ways = &mut self.slots[range];
        to_front(ways, pos?);
        let state = LineState::of_slot(ways[0].into());
        if store {
            ways[0] = pack(tag, LineState::Modified);
        }
        Some(state)
    }

    /// Looks up without touching LRU (probe).
    pub fn probe(&self, cache: usize, addr: u64) -> Option<LineState> {
        let (range, _, pos) = self.find(cache, addr);
        Some(LineState::of_slot(self.slots[range.start + pos?].into()))
    }

    /// Inserts `addr` in `state` as the MRU line of `cache`, evicting the
    /// LRU line of the set if needed. Returns the eviction, if any.
    pub fn insert(&mut self, cache: usize, addr: u64, state: LineState) -> Option<Eviction> {
        let (range, tag, hit) = self.find(cache, addr);
        let Some(pos) = hit else {
            return self.push(cache, addr, tag, state);
        };
        // Already present: rotate it to the front.
        let ways = &mut self.slots[range];
        to_front(ways, pos);
        ways[0] = pack(tag, state);
        None
    }

    /// [`SetAssocCache::insert`] of a line the caller has just missed on:
    /// the set is not searched again.
    pub fn fill(&mut self, cache: usize, addr: u64, state: LineState) -> Option<Eviction> {
        debug_assert!(self.probe(cache, addr).is_none(), "{addr:#x} is present");
        let (_, tag) = self.split(addr);
        self.push(cache, addr, tag, state)
    }

    /// Inserts an absent line: the last way (an invalid slot, or the LRU
    /// line) makes room.
    fn push(&mut self, cache: usize, addr: u64, tag: u32, state: LineState) -> Option<Eviction> {
        let set = self.set_index(addr);
        let range = self.ways(cache, set as usize);
        let ways = &mut self.slots[range];
        let last = ways.len() - 1;
        let victim: u32 = ways[last].into();
        to_front(ways, last);
        ways[0] = pack(tag, state);
        (victim != 0).then(|| Eviction {
            addr: (u64::from(victim >> 2) << self.set_shift | set) << self.line_shift,
            state: LineState::of_slot(victim),
        })
    }

    /// Changes the state of a line present in `cache` without touching
    /// LRU; no-op if absent. Setting [`LineState::Invalid`] invalidates
    /// the line.
    pub fn set_state(&mut self, cache: usize, addr: u64, state: LineState) {
        if state == LineState::Invalid {
            self.invalidate(cache, addr);
        } else if let (range, tag, Some(pos)) = self.find(cache, addr) {
            self.slots[range.start + pos] = pack(tag, state);
        }
    }

    /// Invalidates a line of `cache` if present; returns its previous
    /// state.
    pub fn invalidate(&mut self, cache: usize, addr: u64) -> Option<LineState> {
        let (range, _, pos) = self.find(cache, addr);
        let ways = &mut self.slots[range.start + pos?..range.end];
        let prev = LineState::of_slot(ways[0].into());
        ways.rotate_left(1);
        ways[ways.len() - 1] = S::default();
        Some(prev)
    }

    /// The caches holding `addr`'s line, in any state: one branch-free
    /// compare of every slot of its set.
    pub fn holders(&self, addr: u64) -> CoreSet {
        let (set, tag) = self.split(addr);
        let slots = &self.slots[set * self.set_len..(set + 1) * self.set_len];
        let mut bits = 0;
        for (cache, ways) in slots.chunks_exact(self.assoc).enumerate() {
            let held = ways
                .iter()
                .fold(false, |held, &s| held | holds(s.into(), tag));
            bits |= u64::from(held) << cache;
        }
        CoreSet(bits)
    }

    /// Number of valid lines across every cache (test/diagnostic helper).
    pub fn valid_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s.into() != 0).count()
    }
}

/// The slot of `tag` in `state`.
fn pack<S: Slot>(tag: u32, state: LineState) -> S {
    assert!(state != LineState::Invalid, "cannot insert an invalid line");
    S::pack(tag << 2 | state as u32)
}

/// `ways[..=pos].rotate_right(1)`: way `pos` moves to the front and the
/// more recent ways shift back by one. The value is carried in a register
/// from way to way; the library rotate calls `memmove` for every shift,
/// and most shifts here are a few ways long.
fn to_front<S: Copy>(ways: &mut [S], pos: usize) {
    let mut carry = ways[pos];
    for way in &mut ways[..=pos] {
        carry = std::mem::replace(way, carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(512, 64, 2, 1)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert_eq!(c.lookup(0, 0x1000, false), None);
        assert_eq!(c.insert(0, 0x1000, LineState::Exclusive), None);
        assert_eq!(c.lookup(0, 0x1000, false), Some(LineState::Exclusive));
        // Same line, different byte offset.
        assert_eq!(c.lookup(0, 0x103F, false), Some(LineState::Exclusive));
        // Different line.
        assert_eq!(c.lookup(0, 0x1040, false), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (set stride = 4 sets × 64 B = 256 B).
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.insert(0, a, LineState::Shared);
        c.insert(0, b, LineState::Shared);
        c.lookup(0, a, false); // make `b` the LRU
        let ev = c.insert(0, d, LineState::Shared).expect("must evict");
        assert_eq!(ev.addr, b);
        assert_eq!(c.probe(0, a), Some(LineState::Shared));
        assert_eq!(c.probe(0, b), None);
    }

    #[test]
    fn eviction_reports_state_and_line_address() {
        let mut c = small();
        c.insert(0, 0x0040, LineState::Modified);
        c.insert(0, 0x0140, LineState::Shared);
        let ev = c.insert(0, 0x0240, LineState::Shared).unwrap();
        assert_eq!(ev.addr, 0x0040);
        assert_eq!(ev.state, LineState::Modified);
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small();
        c.insert(0, 0x2000, LineState::Shared);
        assert_eq!(c.insert(0, 0x2000, LineState::Modified), None);
        assert_eq!(c.probe(0, 0x2000), Some(LineState::Modified));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0, 0x3000, LineState::Exclusive);
        assert_eq!(c.invalidate(0, 0x3000), Some(LineState::Exclusive));
        assert_eq!(c.probe(0, 0x3000), None);
        assert_eq!(c.invalidate(0, 0x3000), None);
    }

    #[test]
    fn a_slot_is_four_bytes() {
        assert_eq!(std::mem::size_of_val(&small().slots[0]), 4);
        let narrow: SetAssocCache<u16> = SetAssocCache::new(512, 64, 2, 1);
        assert_eq!(std::mem::size_of_val(&narrow.slots[0]), 2);
    }

    #[test]
    #[should_panic(expected = "address 0x4000000000 is past this cache's limit of 2^38 bytes")]
    fn the_first_line_past_the_limit_is_refused() {
        // 4 sets × 64 B lines: 14 tag bits reach 2^(14 + 2 + 6) bytes in a
        // 2-byte slot, 30 reach 2^(30 + 2 + 6) in a 4-byte one. The last
        // line below the limit is held, and its eviction is reported at
        // its full address; the first line past it panics.
        fn last_lines<S: Slot>(limit: u64) -> SetAssocCache<S> {
            let mut c = SetAssocCache::<S>::new(512, 64, 2, 1);
            c.insert(0, limit - 64, LineState::Modified);
            c.insert(0, limit - 64 - 256, LineState::Shared);
            let ev = c.fill(0, limit - 64 - 512, LineState::Shared);
            let ev = ev.map(|e| (e.addr, e.state));
            assert_eq!(ev, Some((limit - 64, LineState::Modified)));
            c
        }
        let narrow = last_lines::<u16>(1 << 22);
        let refused = std::panic::catch_unwind(|| narrow.probe(0, 1 << 22)).unwrap_err();
        assert_eq!(
            refused.downcast_ref::<String>().map(String::as_str),
            Some("address 0x400000 is past this cache's limit of 2^22 bytes")
        );
        last_lines::<u32>(1 << 38).probe(0, 1 << 38);
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn rejects_degenerate_geometry() {
        SetAssocCache::<u32>::new(64, 64, 2, 1);
    }

    /// The previous tag array: one `(tag, state, lru)` per way, victim by
    /// the oldest `lru` timestamp. Kept as the oracle the packed
    /// recency-ordered array must match operation for operation.
    struct Oracle {
        sets: u64,
        assoc: usize,
        line_bytes: u64,
        lines: Vec<(u64, LineState, u32)>,
        clock: u32,
    }

    impl Oracle {
        fn new(capacity: u64, line_bytes: u32, assoc: u32) -> Oracle {
            let sets = capacity / (u64::from(line_bytes) * u64::from(assoc));
            Oracle {
                sets,
                assoc: assoc as usize,
                line_bytes: u64::from(line_bytes),
                lines: vec![(0, LineState::Invalid, 0); (sets * u64::from(assoc)) as usize],
                clock: 0,
            }
        }

        /// The set's index range, `addr`'s set and tag, and its way if valid.
        fn find(&self, addr: u64) -> (std::ops::Range<usize>, u64, u64, Option<usize>) {
            let line = addr / self.line_bytes;
            let (set, tag) = (line & (self.sets - 1), line >> self.sets.trailing_zeros());
            let r = set as usize * self.assoc..(set as usize + 1) * self.assoc;
            let hit = r
                .clone()
                .find(|&i| self.lines[i].1 != LineState::Invalid && self.lines[i].0 == tag);
            (r, set, tag, hit)
        }

        fn lookup(&mut self, addr: u64) -> Option<LineState> {
            self.clock += 1;
            let i = self.find(addr).3?;
            self.lines[i].2 = self.clock;
            Some(self.lines[i].1)
        }

        fn probe(&self, addr: u64) -> Option<LineState> {
            self.find(addr).3.map(|i| self.lines[i].1)
        }

        fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
            self.clock += 1;
            let (r, set, tag, hit) = self.find(addr);
            let free = r.clone().find(|&i| self.lines[i].1 == LineState::Invalid);
            let clock = self.clock;
            let i = hit.or(free).unwrap_or_else(|| {
                r.max_by_key(|&i| clock - self.lines[i].2)
                    .expect("a set has a way")
            });
            let old = std::mem::replace(&mut self.lines[i], (tag, state, clock));
            (hit.is_none() && free.is_none()).then(|| Eviction {
                addr: ((old.0 << self.sets.trailing_zeros()) | set) * self.line_bytes,
                state: old.1,
            })
        }

        fn set_state(&mut self, addr: u64, state: LineState) {
            if let Some(i) = self.find(addr).3 {
                self.lines[i].1 = state;
            }
        }

        fn invalidate(&mut self, addr: u64) -> Option<LineState> {
            let i = self.find(addr).3?;
            Some(std::mem::replace(&mut self.lines[i].1, LineState::Invalid))
        }

        fn valid_lines(&self) -> usize {
            self.lines
                .iter()
                .filter(|l| l.1 != LineState::Invalid)
                .count()
        }
    }

    /// Drives `caches` caches of one `S` array and one oracle per cache
    /// through the same seeded stream; `fill` stands in for `insert` on
    /// most misses, as the memory system calls it.
    fn match_the_oracle<S: Slot>(seed: u64, (cap, line, ways, top): (u64, u32, u32, bool)) {
        const STATES: [LineState; 4] = [
            LineState::Invalid,
            LineState::Shared,
            LineState::Exclusive,
            LineState::Modified,
        ];
        let caches = 1 + seed as usize % 3;
        let mut rng = XorShift64Star::new(0x7A6_A77A + seed);
        let mut c = SetAssocCache::<S>::new(cap, line, ways, caches);
        let mut o: Vec<Oracle> = (0..caches).map(|_| Oracle::new(cap, line, ways)).collect();
        // Four times the capacity in distinct lines keeps every set
        // under conflict pressure; offsets exercise sub-line bytes.
        let span = 4 * cap;
        let limit = 1 << (S::TAG_BITS + c.set_shift + c.line_shift);
        for step in 0..20_000 {
            let high = if top && rng.next_below(2) == 1 {
                limit - span
            } else {
                0
            };
            let addr = high + rng.next_below(span);
            let state = STATES[1 + rng.next_below(3) as usize];
            let k = rng.next_below(caches as u64) as usize;
            let (c, o) = (&mut c, &mut o);
            let ctx = format!("{cap}/{line}/{ways}/{caches} step {step} cache {k} addr {addr:#x}");
            match rng.next_below(8) {
                0..=2 => {
                    // A store hit marks the line Modified in the same scan.
                    let store = rng.next_below(2) == 1;
                    let hit = o[k].lookup(addr);
                    if store {
                        o[k].set_state(addr, LineState::Modified);
                    }
                    assert_eq!(c.lookup(k, addr, store), hit, "{ctx}");
                }
                3 => assert_eq!(c.probe(k, addr), o[k].probe(addr), "{ctx}"),
                4 | 5 => {
                    let ev = if c.probe(k, addr).is_none() && rng.next_below(4) != 0 {
                        c.fill(k, addr, state)
                    } else {
                        c.insert(k, addr, state)
                    };
                    assert_eq!(ev, o[k].insert(addr, state), "{ctx}");
                }
                6 => {
                    let s = STATES[rng.next_below(4) as usize];
                    c.set_state(k, addr, s);
                    o[k].set_state(addr, s);
                }
                _ => assert_eq!(c.invalidate(k, addr), o[k].invalidate(addr), "{ctx}"),
            }
            let held: Vec<usize> = (0..caches)
                .filter(|&j| o[j].probe(addr).is_some())
                .collect();
            assert_eq!(c.holders(addr), CoreSet::of(&held), "{ctx}");
            let valid: usize = o.iter().map(Oracle::valid_lines).sum();
            assert_eq!(c.valid_lines(), valid, "{ctx}");
        }
    }

    #[test]
    fn packed_recency_order_matches_the_timestamp_oracle() {
        // (capacity, line bytes, ways, top): one set, one way, 24 ways, the
        // smallest line the packed slot allows, and the paper's L1 geometry
        // (64 sets × 64 B lines). With `top`, half the addresses fall in
        // the last `span` bytes below the cache's limit, so tags reach the
        // slot's top bit (13 or 29) and share sets with low tags; evicting
        // one rebuilds the full address from its tag. Arrays hold one to
        // three caches, and their holder sets are checked on every step.
        let geometries = [
            (1 << 10, 64, 16, false),
            (64 << 10, 64, 1, false),
            (96 << 10, 64, 24, false),
            (24 * 4 * 8, 4, 24, false),
            (256, 4, 4, false),
            (256, 4, 4, true),
            (32 << 10, 64, 8, true),
        ];
        for (seed, &geometry) in geometries.iter().enumerate() {
            match_the_oracle::<u32>(seed as u64, geometry);
            match_the_oracle::<u16>(seed as u64, geometry);
        }
    }
}
