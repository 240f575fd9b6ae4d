//! Hardware-thread state for the fine-grained multithreaded cores.

use crate::trace::Instr;

/// What a hardware thread is doing right now.
///
/// A thread stalled until `t` may issue at every cycle `≥ t`, so the
/// simulators ask [`Thread::wake`] whether it can issue now; no state
/// changes when a stall merely expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Blocked until the given cycle (instruction latency or a load miss);
    /// issuable from that cycle on.
    StalledUntil(u64),
    /// Parked at the global barrier since the given cycle.
    AtBarrier(u64),
    /// Queued on a lock since the given cycle.
    WaitingLock(u32, u64),
    /// Blocked on an L2 miss issued at the given cycle, until the epoch
    /// edge drains its message and resolves it into
    /// [`ThreadState::StalledUntil`]; never woken by time alone. Issue
    /// timing services a miss as it issues and never parks a thread here.
    WaitingMem(u64),
}

/// One hardware thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Current state.
    pub state: ThreadState,
    /// The next instruction to issue, if already fetched.
    pub pending: Option<Instr>,
}

impl Thread {
    /// A fresh thread, issuable from cycle 0.
    pub fn new() -> Thread {
        Thread {
            state: ThreadState::StalledUntil(0),
            pending: None,
        }
    }

    /// The earliest cycle the thread can issue: the end of its stall, or
    /// `u64::MAX` when it is parked until another thread (or the engine's
    /// drain) wakes it. The thread may issue at `cycle` exactly
    /// when `wake() <= cycle`.
    pub fn wake(&self) -> u64 {
        match self.state {
            ThreadState::StalledUntil(t) => t,
            _ => u64::MAX,
        }
    }
}

impl Default for Thread {
    fn default() -> Self {
        Thread::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thread_issues_at_cycle_zero() {
        assert_eq!(Thread::new().wake(), 0);
    }

    #[test]
    fn stall_ends_exactly_at_its_end_cycle() {
        let mut t = Thread::new();
        t.state = ThreadState::StalledUntil(10);
        assert!(t.wake() > 9, "still stalled one cycle before the end");
        assert!(t.wake() <= 10, "issuable at the end cycle");
        assert!(t.wake() <= 11, "and at every later cycle");
    }

    #[test]
    fn parked_threads_are_never_issuable_by_time_alone() {
        for state in [
            ThreadState::AtBarrier(5),
            ThreadState::WaitingLock(3, 5),
            ThreadState::WaitingMem(5),
        ] {
            let mut t = Thread::new();
            t.state = state;
            // Both timings stop rather than fast-forward to `u64::MAX`.
            assert_eq!(t.wake(), u64::MAX, "{state:?} must wait for a wake-up");
        }
    }
}
