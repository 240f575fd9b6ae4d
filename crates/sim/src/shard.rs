//! The many-core entry point the `perfbench` package drives: a thin
//! wrapper around the one engine, [`crate::Simulator`].
//!
//! It keeps the three calls `perfbench` makes — [`ShardedSimulator::new`]
//! with a worker count, [`ShardedSimulator::run`] and
//! [`ShardedSimulator::info`] — so its many-core workload still builds.
//! Every other caller, `llc-study shard` included, uses
//! [`crate::Simulator`] directly.

use crate::config::SystemConfig;
use crate::sim::{ShardInfo, Simulator};
use crate::stats::SimStats;
use crate::trace::TraceSource;

/// [`crate::Simulator`] under the constructor `perfbench` calls.
pub struct ShardedSimulator<T>(Simulator<T>);

impl<T: TraceSource> ShardedSimulator<T> {
    /// Builds an idle system, as [`Simulator::new`] does.
    ///
    /// `_workers` is ignored. It was the worker count of the removed
    /// multi-worker engine; the parameter stays for the `perfbench`
    /// package, which still passes one.
    ///
    /// # Panics
    ///
    /// On an invalid configuration.
    pub fn new(cfg: SystemConfig, trace: T, _workers: usize) -> ShardedSimulator<T> {
        ShardedSimulator(Simulator::new(cfg, trace))
    }

    /// See [`Simulator::run`].
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        self.0.run(target_instructions)
    }

    /// See [`Simulator::info`].
    pub fn info(&self) -> &ShardInfo {
        self.0.info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedSource;

    #[test]
    fn run_makes_progress_and_reports_epochs() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = ShardedSimulator::new(cfg, trace, 1);
        let stats = sim.run(20_000);
        assert!(stats.instructions >= 20_000);
        assert!(sim.info().epochs > 0);
        assert!(stats.cycles > 0);
        let total: u64 = stats.cycle_breakdown.iter().sum();
        assert_eq!(total, stats.cycles * 32);
    }

    #[test]
    fn reset_stats_starts_a_fresh_measurement_window() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = Simulator::new(cfg, trace);
        sim.run(5_000);
        sim.reset_stats();
        let stats = sim.run(5_000);
        assert!(stats.instructions >= 5_000);
        assert!(stats.instructions < 11_000, "warm-up must be discarded");
    }
}
