//! Hardware-thread state for the fine-grained multithreaded cores, kept
//! as a struct of arrays indexed by global thread id: core `c` of `tpc`
//! threads per core owns `c * tpc..(c + 1) * tpc`.

use crate::trace::Instr;

/// Every hardware thread of the chip.
///
/// A thread stalled until `t` may issue at every cycle `≥ t`, so the
/// issue stage tests `wake <= cycle`; nothing changes when a stall merely
/// expires. A parked thread has `wake == u64::MAX` and issues again only
/// when another thread's lock release or barrier arrival wakes it.
#[derive(Debug)]
pub(crate) struct Threads {
    /// The earliest cycle each thread can issue: the end of its stall, or
    /// `u64::MAX` while it waits for a lock or at the barrier.
    pub(crate) wake: Vec<u64>,
    /// The cycle each parked thread parked at; stale while it runs.
    parked_at: Vec<u64>,
    /// Each thread's next instruction, if already fetched.
    pub(crate) pending: Vec<Option<Instr>>,
}

impl Threads {
    /// `n` fresh threads, each issuable from cycle 0.
    pub(crate) fn new(n: usize) -> Threads {
        Threads {
            wake: vec![0; n],
            parked_at: vec![0; n],
            pending: vec![None; n],
        }
    }

    /// The threads `first..first + n` (`n ≤ 64`) that may issue at
    /// `cycle`, bit `k` for thread `first + k`.
    #[inline]
    pub(crate) fn ready(&self, first: usize, n: usize, cycle: u64) -> u64 {
        let mut ready = 0;
        for (k, &wake) in self.wake[first..first + n].iter().enumerate() {
            ready |= u64::from(wake <= cycle) << k;
        }
        ready
    }

    /// Parks `tid` at cycle `at`, on a lock or at the barrier.
    #[inline]
    pub(crate) fn park(&mut self, tid: usize, at: u64) {
        self.wake[tid] = u64::MAX;
        self.parked_at[tid] = at;
    }

    /// Lets the parked `tid` issue from `at + 1`; returns the cycles it
    /// waited.
    #[inline]
    pub(crate) fn unpark(&mut self, tid: usize, at: u64) -> u64 {
        debug_assert_eq!(self.wake[tid], u64::MAX, "thread {tid} was not parked");
        self.wake[tid] = at + 1;
        at - self.parked_at[tid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thread_issues_at_cycle_zero() {
        let t = Threads::new(3);
        assert_eq!(t.ready(0, 3, 0), 0b111);
        assert!(t.pending.iter().all(Option::is_none));
    }

    #[test]
    fn stall_ends_exactly_at_its_end_cycle() {
        let mut t = Threads::new(2);
        t.wake[1] = 10;
        assert_eq!(
            t.ready(0, 2, 9),
            0b01,
            "still stalled one cycle before the end"
        );
        assert_eq!(t.ready(0, 2, 10), 0b11, "issuable at the end cycle");
        assert_eq!(t.ready(0, 2, 11), 0b11, "and at every later cycle");
        assert_eq!(
            t.ready(1, 1, 10),
            0b1,
            "a core's mask starts at its first thread"
        );
    }

    #[test]
    fn parked_threads_are_never_issuable_by_time_alone() {
        let mut t = Threads::new(64);
        t.park(63, 5);
        // The engine stops rather than fast-forward to `u64::MAX`.
        assert_eq!(t.ready(0, 64, u64::MAX - 1), !0 >> 1);
        assert_eq!(t.unpark(63, 9), 4, "waited from cycle 5 to 9");
        assert_eq!(t.ready(0, 64, 10), !0);
    }
}
