//! Set-associative cache tag array with true-LRU replacement and MESI
//! line states.
//!
//! Each way is one packed `u32` slot, `tag << 2 | state`, with 0 meaning
//! Invalid (4 B per line). A set's slots are kept in recency order — most
//! recently used first, invalid slots last — so a hit or insert rotates
//! the line to the front, the LRU victim is always the last way, and
//! invalidation shifts the less recent lines left. No timestamps are stored.
//!
//! The slot leaves [`TAG_BITS`] bits for the tag, so a cache holds byte
//! addresses below `2^(TAG_BITS + log2 sets + log2 line bytes)`: 4 TiB for
//! a 64-set cache of 64 B lines. An address past that limit panics rather
//! than alias another line's tag.

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

/// Tag bits of a packed slot: a `u32` less the two state bits.
pub const TAG_BITS: u32 = u32::BITS - 2;

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

/// A set-associative tag array. Addresses are byte addresses; the cache
/// derives line/set/tag internally. Every method that takes an address
/// panics if the address is at or past the cache's limit of
/// `2^(TAG_BITS + log2 sets + log2 line bytes)` bytes.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `log2(line bytes)`: byte address → line address.
    line_shift: u32,
    /// `sets - 1`: line address → set index.
    set_mask: u64,
    /// `log2(sets)`: line address → tag.
    set_shift: u32,
    assoc: usize,
    slots: Vec<u32>,
}

/// Result of an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// State the victim was in.
    pub state: LineState,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate: zero ways, a line size that is
    /// not a power of two of at least 4 B (the packed slot needs the two
    /// low tag bits free), or a set count that is zero or not a power of
    /// two. [`crate::config::SystemConfig::validate`] reports these as a
    /// typed error.
    pub fn new(capacity_bytes: u64, line_bytes: u32, associativity: u32) -> SetAssocCache {
        assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
        assert!(associativity > 0);
        let sets = capacity_bytes / (u64::from(line_bytes) * u64::from(associativity));
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SetAssocCache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            assoc: associativity as usize,
            slots: vec![0; (sets * u64::from(associativity)) as usize],
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

    /// The slot range of `addr`'s set, its tag, and the recency position
    /// of its line within the set if it is present. Line size and set
    /// count are powers of two, so the split is shifts and a mask.
    fn find(&self, addr: u64) -> (std::ops::Range<usize>, u32, Option<usize>) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        assert!(
            tag >> TAG_BITS == 0,
            "address {addr:#x} is past this cache's limit of 2^{} bytes",
            TAG_BITS + self.set_shift + self.line_shift
        );
        let tag = tag as u32;
        let range = set * self.assoc..(set + 1) * self.assoc;
        let pos = self.slots[range.clone()]
            .iter()
            .position(|&s| s != 0 && s >> 2 == tag);
        (range, tag, pos)
    }

    /// Looks up `addr`; on hit returns its state and makes it the MRU line.
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let (range, _, pos) = self.find(addr);
        let ways = &mut self.slots[range];
        to_front(ways, pos?);
        Some(LineState::of_slot(ways[0]))
    }

    /// Looks up without touching LRU (probe).
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        let (range, _, pos) = self.find(addr);
        Some(LineState::of_slot(self.slots[range.start + pos?]))
    }

    /// Inserts `addr` in `state` as the MRU line, evicting the LRU line of
    /// the set if needed. Returns the eviction, if any.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        assert!(state != LineState::Invalid, "cannot insert an invalid line");
        let (range, tag, hit) = self.find(addr);
        let set = self.set_index(addr);
        // Already present: rotate it to the front. Otherwise the last way
        // (an invalid slot, or the LRU line) makes room.
        let pos = hit.unwrap_or(self.assoc - 1);
        let ways = &mut self.slots[range];
        let victim = ways[pos];
        to_front(ways, pos);
        ways[0] = tag << 2 | state as u32;
        (hit.is_none() && victim != 0).then(|| Eviction {
            addr: (u64::from(victim >> 2) << self.set_shift | set) << self.line_shift,
            state: LineState::of_slot(victim),
        })
    }

    /// Changes the state of a present line without touching LRU; no-op if
    /// absent. Setting [`LineState::Invalid`] invalidates the line.
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        if state == LineState::Invalid {
            self.invalidate(addr);
        } else if let (range, tag, Some(pos)) = self.find(addr) {
            self.slots[range.start + pos] = tag << 2 | state as u32;
        }
    }

    /// Invalidates a line if present; returns its previous state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let (range, _, pos) = self.find(addr);
        let ways = &mut self.slots[range.start + pos?..range.end];
        let prev = LineState::of_slot(ways[0]);
        ways.rotate_left(1);
        ways[ways.len() - 1] = 0;
        Some(prev)
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn valid_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }
}

/// `ways[..=pos].rotate_right(1)`: way `pos` moves to the front and the
/// more recent ways shift back by one. The value is carried in a register
/// from way to way; the library rotate calls `memmove` for every shift,
/// and most shifts here are a few ways long.
fn to_front(ways: &mut [u32], pos: usize) {
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
        SetAssocCache::new(512, 64, 2)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert_eq!(c.lookup(0x1000), None);
        assert_eq!(c.insert(0x1000, LineState::Exclusive), None);
        assert_eq!(c.lookup(0x1000), Some(LineState::Exclusive));
        // Same line, different byte offset.
        assert_eq!(c.lookup(0x103F), Some(LineState::Exclusive));
        // Different line.
        assert_eq!(c.lookup(0x1040), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (set stride = 4 sets × 64 B = 256 B).
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.lookup(a); // make `b` the LRU
        let ev = c.insert(d, LineState::Shared).expect("must evict");
        assert_eq!(ev.addr, b);
        assert_eq!(c.probe(a), Some(LineState::Shared));
        assert_eq!(c.probe(b), None);
    }

    #[test]
    fn eviction_reports_state_and_line_address() {
        let mut c = small();
        c.insert(0x0040, LineState::Modified);
        c.insert(0x0140, LineState::Shared);
        let ev = c.insert(0x0240, LineState::Shared).unwrap();
        assert_eq!(ev.addr, 0x0040);
        assert_eq!(ev.state, LineState::Modified);
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small();
        c.insert(0x2000, LineState::Shared);
        assert_eq!(c.insert(0x2000, LineState::Modified), None);
        assert_eq!(c.probe(0x2000), Some(LineState::Modified));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0x3000, LineState::Exclusive);
        assert_eq!(c.invalidate(0x3000), Some(LineState::Exclusive));
        assert_eq!(c.probe(0x3000), None);
        assert_eq!(c.invalidate(0x3000), None);
    }

    #[test]
    fn a_slot_is_four_bytes() {
        assert_eq!(std::mem::size_of_val(&small().slots[0]), 4);
    }

    #[test]
    #[should_panic(expected = "address 0x4000000000 is past this cache's limit of 2^38 bytes")]
    fn the_first_line_past_the_limit_is_refused() {
        // 4 sets × 64 B lines: 30 tag bits reach 2^(30 + 2 + 6) bytes.
        // The last line below the limit is held, and its eviction is
        // reported at its full address.
        let mut c = small();
        let limit = 1 << 38;
        c.insert(limit - 64, LineState::Modified);
        c.insert(limit - 64 - 256, LineState::Shared);
        let ev = c.insert(limit - 64 - 512, LineState::Shared);
        let ev = ev.map(|e| (e.addr, e.state));
        assert_eq!(ev, Some((limit - 64, LineState::Modified)));
        c.probe(limit);
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn rejects_degenerate_geometry() {
        SetAssocCache::new(64, 64, 2);
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

    #[test]
    fn packed_recency_order_matches_the_timestamp_oracle() {
        const STATES: [LineState; 4] = [
            LineState::Invalid,
            LineState::Shared,
            LineState::Exclusive,
            LineState::Modified,
        ];
        // (capacity, line bytes, ways, top): one set, one way, 24 ways, the
        // smallest line the packed slot allows, and the paper's L1 geometry
        // (64 sets × 64 B lines). With `top`, half the addresses fall in
        // the last `span` bytes below the cache's limit, so tags reach bit
        // 29 and share sets with low tags; evicting one rebuilds a 36- or
        // 42-bit address from its 30-bit tag.
        for (seed, &(cap, line, ways, top)) in [
            (1 << 10, 64, 16, false),
            (64 << 10, 64, 1, false),
            (96 << 10, 64, 24, false),
            (24 * 4 * 8, 4, 24, false),
            (256, 4, 4, false),
            (256, 4, 4, true),
            (32 << 10, 64, 8, true),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = XorShift64Star::new(0x7A6_A77A + seed as u64);
            let (mut c, mut o) = (
                SetAssocCache::new(cap, line, ways),
                Oracle::new(cap, line, ways),
            );
            // Four times the capacity in distinct lines keeps every set
            // under conflict pressure; offsets exercise sub-line bytes.
            let span = 4 * cap;
            let limit = 1 << (TAG_BITS + c.set_shift + c.line_shift);
            for step in 0..20_000 {
                let high = if top && rng.next_below(2) == 1 {
                    limit - span
                } else {
                    0
                };
                let addr = high + rng.next_below(span);
                let state = STATES[1 + rng.next_below(3) as usize];
                let ctx = format!("{cap}/{line}/{ways} step {step} addr {addr:#x}");
                match rng.next_below(8) {
                    0..=2 => assert_eq!(c.lookup(addr), o.lookup(addr), "{ctx}"),
                    3 => assert_eq!(c.probe(addr), o.probe(addr), "{ctx}"),
                    4 | 5 => assert_eq!(c.insert(addr, state), o.insert(addr, state), "{ctx}"),
                    6 => {
                        let s = STATES[rng.next_below(4) as usize];
                        c.set_state(addr, s);
                        o.set_state(addr, s);
                    }
                    _ => assert_eq!(c.invalidate(addr), o.invalidate(addr), "{ctx}"),
                }
                assert_eq!(c.valid_lines(), o.valid_lines(), "{ctx}");
            }
        }
    }
}
