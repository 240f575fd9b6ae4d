//! Hardware-thread state for the fine-grained multithreaded cores.

use crate::trace::Instr;

/// What a hardware thread is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to issue its pending instruction.
    Ready,
    /// Blocked until the given cycle (instruction latency or a load miss).
    StalledUntil(u64),
    /// Parked at the global barrier since the given cycle.
    AtBarrier(u64),
    /// Queued on a lock since the given cycle.
    WaitingLock(u32, u64),
    /// Blocked on a cross-shard memory response issued at the given cycle
    /// (sharded engine only; resolved into [`ThreadState::StalledUntil`]
    /// at the next epoch boundary, never woken by [`Thread::tick`]).
    WaitingMem(u64),
}

/// One hardware thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Current state.
    pub state: ThreadState,
    /// The next instruction to issue, if already fetched.
    pub pending: Option<Instr>,
    /// Instructions retired by this thread.
    pub retired: u64,
}

impl Thread {
    /// A fresh, ready thread.
    pub fn new() -> Thread {
        Thread {
            state: ThreadState::Ready,
            pending: None,
            retired: 0,
        }
    }

    /// Wakes the thread if its stall has expired at `cycle`.
    pub fn tick(&mut self, cycle: u64) {
        if let ThreadState::StalledUntil(t) = self.state {
            if cycle >= t {
                self.state = ThreadState::Ready;
            }
        }
    }

    /// `true` when the thread can issue this cycle.
    pub fn ready(&self) -> bool {
        self.state == ThreadState::Ready
    }

    /// The earliest cycle the thread can issue: 0 when it is ready now,
    /// the end of its stall, or `u64::MAX` when it is parked until another
    /// thread (or the sharded engine's boundary) wakes it.
    pub fn wake(&self) -> u64 {
        match self.state {
            ThreadState::Ready => 0,
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
    fn stall_expires_exactly_on_time() {
        let mut t = Thread::new();
        t.state = ThreadState::StalledUntil(10);
        t.tick(9);
        assert!(!t.ready());
        t.tick(10);
        assert!(t.ready());
    }

    #[test]
    fn barrier_state_is_not_woken_by_tick() {
        let mut t = Thread::new();
        t.state = ThreadState::AtBarrier(5);
        t.tick(100);
        assert!(!t.ready());
    }
}
