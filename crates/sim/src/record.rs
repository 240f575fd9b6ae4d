//! Trace recording and replay.
//!
//! Wraps any [`TraceSource`] to capture the per-thread instruction streams
//! it produces, and replays captures deterministically. Useful for
//! regression-pinning a workload, for cross-configuration studies that
//! must see *identical* instruction streams, and for exporting traces to
//! other tools.

use crate::trace::{Instr, TraceSource};

/// Records everything an inner source produces.
#[derive(Debug, Clone)]
pub struct Recorder<T> {
    inner: T,
    streams: Vec<Vec<Instr>>,
}

impl<T: TraceSource> Recorder<T> {
    /// Wraps `inner`, recording `n_threads` streams.
    pub fn new(inner: T, n_threads: usize) -> Recorder<T> {
        Recorder {
            inner,
            streams: vec![Vec::new(); n_threads],
        }
    }

    /// Finishes recording and returns the capture.
    pub fn into_trace(self) -> RecordedTrace {
        RecordedTrace {
            streams: self.streams,
            cursors: Vec::new(),
        }
    }

    /// Instructions recorded so far for thread `tid`.
    pub fn recorded(&self, tid: usize) -> usize {
        self.streams[tid].len()
    }
}

impl<T: TraceSource> TraceSource for Recorder<T> {
    fn next(&mut self, tid: usize) -> Instr {
        let i = self.inner.next(tid);
        self.streams[tid].push(i);
        i
    }
}

/// A captured set of per-thread instruction streams, replayable as a
/// [`TraceSource`]. When a stream is exhausted the replay pads with
/// [`Instr::Other`] (and reports it via [`RecordedTrace::exhausted`]).
#[derive(Debug, Clone, Default)]
pub struct RecordedTrace {
    streams: Vec<Vec<Instr>>,
    cursors: Vec<usize>,
}

impl RecordedTrace {
    /// Number of threads captured.
    pub fn n_threads(&self) -> usize {
        self.streams.len()
    }

    /// Total instructions captured across threads.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once any thread has replayed past its captured stream.
    pub fn exhausted(&self) -> bool {
        self.cursors
            .iter()
            .zip(&self.streams)
            .any(|(&c, s)| c > s.len())
    }

    /// Rewinds the replay to the beginning.
    pub fn rewind(&mut self) {
        self.cursors.clear();
    }
}

impl TraceSource for RecordedTrace {
    fn next(&mut self, tid: usize) -> Instr {
        if self.cursors.len() < self.streams.len() {
            self.cursors.resize(self.streams.len(), 0);
        }
        let cur = &mut self.cursors[tid];
        let out = self.streams[tid].get(*cur).copied().unwrap_or(Instr::Other);
        *cur += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::sim::Simulator;
    use crate::trace::StridedSource;

    #[test]
    fn record_then_replay_is_identical() {
        let mut rec = Recorder::new(StridedSource::new(4, 0.4, 1 << 20), 4);
        let mut reference = Vec::new();
        for tid in 0..4 {
            for _ in 0..500 {
                reference.push((tid, rec.next(tid)));
            }
        }
        let mut replay = rec.into_trace();
        assert_eq!(replay.len(), 2000);
        for &(tid, instr) in &reference {
            assert_eq!(replay.next(tid), instr);
        }
        assert!(!replay.exhausted());
        // Past the end: pads with Other and reports exhaustion.
        assert_eq!(replay.next(0), Instr::Other);
        assert!(replay.exhausted());
        // Rewind restores the stream.
        replay.rewind();
        assert_eq!(replay.next(0), reference[0].1);
    }

    #[test]
    fn recorded_simulation_reproduces_the_original() {
        let cfg = SystemConfig::baseline_no_l3();
        let rec = Recorder::new(StridedSource::new(32, 0.3, 1 << 20), 32);
        let mut sim = Simulator::new(cfg.clone(), rec);
        let first = sim.run(100_000);
        let mut replay = sim.into_trace_source().into_trace();
        replay.rewind();
        let mut sim2 = Simulator::new(cfg, replay);
        let second = sim2.run(100_000);
        assert_eq!(first.instructions, second.instructions);
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.counts, second.counts);
    }
}
