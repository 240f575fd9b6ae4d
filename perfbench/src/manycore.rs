//! `manycore-sim`: the sharded epoch-synchronized simulator on the
//! 64-core configuration, running ft.B under the default automatic
//! worker policy. The only workload that exercises the sharded engine.
//! It runs at full size in every traced run; it is not an end-to-end
//! workload of `BENCHMARK.json` because its two workers meet at a barrier
//! every epoch, so a stall on either host CPU stalls both and its pass
//! times swing by several times on a shared host (see `NOTES.md`).

use crate::measure::{median, ratio, timed, Checks, Metrics, Tracer};
use crate::paper::conserved;
use crate::{PassOut, Workload};
use cactid_obs::Snapshot;
use memsim::{ShardInfo, ShardedSimulator, SimStats, SystemConfig};
use npbgen::{NpbApp, NpbTrace};
use std::time::Instant;

const CORES: u32 = 64;
const INSTRUCTIONS: u64 = 4_000_000;

/// The many-core workload; the seed drives ft.B's address streams.
pub struct ManyCore {
    cfg: SystemConfig,
    trace: NpbTrace,
    target: u64,
    /// Digest and run seconds of the 1-worker run made at warm-up; every
    /// pass under the auto policy must reproduce the digest.
    one_worker: Option<(u64, f64)>,
    last: Option<(SimStats, ShardInfo)>,
}

impl ManyCore {
    /// A many-core run of `seed`'s ft.B trace.
    pub fn new(seed: u64) -> Self {
        let cfg = SystemConfig::many_core(CORES);
        let trace = NpbTrace::from_profile_seeded(NpbApp::FtB.profile(), cfg.n_threads(), seed);
        ManyCore {
            cfg,
            trace,
            target: INSTRUCTIONS,
            one_worker: None,
            last: None,
        }
    }

    fn simulator(&self, workers: usize) -> ShardedSimulator<NpbTrace> {
        ShardedSimulator::new(self.cfg.clone(), self.trace.clone(), workers)
    }
}

impl Workload for ManyCore {
    fn warm_up(&mut self) {
        // The first `ShardedSimulator::new` of a process costs ~5x the
        // later ones; the discarded pass pays it.
        self.pass(None);
        let mut one = self.simulator(1);
        let t = Instant::now();
        let stats = one.run(self.target);
        self.one_worker = Some((stats.digest(), t.elapsed().as_secs_f64()));
    }

    fn pass_s(&self) -> f64 {
        2.5
    }

    fn setup_reps(&self) -> usize {
        15
    }

    fn setup(&mut self, tr: Option<&Tracer>) -> f64 {
        let t = Instant::now();
        let sim = timed(tr, "shard.new", || self.simulator(0));
        let s = t.elapsed().as_secs_f64();
        drop(sim);
        s
    }

    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let t = Instant::now();
        let (stats, info) = timed(tr, "pass", || {
            let mut sim = timed(tr, "shard.new", || self.simulator(0));
            let stats = timed(tr, "shard.run", || sim.run(self.target));
            (stats, sim.info().clone())
        });
        let seconds = t.elapsed().as_secs_f64();
        let mut checks = Checks::default();
        checks.check(conserved(&stats, self.cfg.n_threads()));
        checks.check(stats.instructions >= self.target);
        // The run is a pure function of (config, seed, target), whatever
        // the worker count.
        if let Some((digest, _)) = self.one_worker {
            checks.check(stats.digest() == digest);
        }
        let ops = stats.instructions;
        self.last = Some((stats, info));
        PassOut {
            seconds,
            ops,
            checks,
        }
    }

    fn notes(&self) -> Vec<String> {
        let (stats, info) = self.last.as_ref().expect("a pass ran");
        vec![format!(
            "workers {} epochs {} messages {} instructions {} digest {:016x}",
            info.last_workers,
            info.epochs,
            info.messages,
            stats.instructions,
            stats.digest()
        )]
    }

    fn layers(&mut self, tr: &Tracer, setup: u32, pass: u32, _snap: &Snapshot) -> Metrics {
        let (stats, info) = self.last.take().expect("a traced pass ran");
        let run_s = tr.total("shard.run", pass);
        let mut m = Metrics::default();
        m.push(
            "shard.new_s",
            median(&tr.durations("shard.new", setup)),
            "s",
        );
        m.push("shard.run_s", run_s, "s");
        m.push(
            "shard.host_ns_per_cycle",
            ratio(run_s * 1e9, stats.cycles as f64, "shard.host_ns_per_cycle"),
            "ns",
        );
        m.push("shard.epochs", info.epochs as f64, "count");
        m.push("shard.messages", info.messages as f64, "count");
        m.push(
            "shard.msgs_per_epoch",
            ratio(
                info.messages as f64,
                info.epochs as f64,
                "shard.msgs_per_epoch",
            ),
            "ratio",
        );
        m.push("shard.stall_cycles", info.stall_cycles as f64, "count");
        m.push("shard.workers", info.last_workers as f64, "count");
        m.push(
            "shard.serial_fallbacks",
            info.serial_fallbacks as f64,
            "count",
        );
        let (one_digest, one_s) = self.one_worker.expect("warm-up ran the 1-worker reference");
        m.push(
            "shard.speedup_auto_vs_1w",
            ratio(one_s, run_s, "shard.speedup"),
            "ratio",
        );
        // Also a check of the traced pass, so a mismatch fails the run.
        let same = one_digest == stats.digest();
        m.push("shard.digest_match", if same { 1.0 } else { 0.0 }, "bool");
        m
    }
}
