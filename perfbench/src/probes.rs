//! Layer probes run in every traced run: the core solve stages timed call
//! by call on a fixed sample of the sweep's specs, and trace generation
//! drawn outside any simulator.

use crate::measure::{median, pct, ratio, Metrics};
use crate::{shuffle, sweep, Scale};
use cactid_core::org::enumerate;
use cactid_core::{select, solve_with_stats, static_screen};
use memsim::rng::XorShift64Star;
use memsim::TraceSource;
use npbgen::{NpbApp, NpbTrace};
use std::hint::black_box;
use std::time::Instant;

/// Every `STRIDE`-th point of the unpermuted sweep grid (2 006 specs).
const STRIDE: usize = 14;
/// Instructions drawn by the generator probe.
const GEN_INSTRUCTIONS: u64 = 2_000_000;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `solve_with_stats`, `org::enumerate`, `static_screen` and
/// `select` on every spec of the fixed sample, visited in seeded order,
/// and reports the solve counters over the sample.
pub fn core(seed: u64) -> Metrics {
    // Seed 0's permutation is fixed, so the sample is the same set of
    // specs for every seed; only the visiting order follows the seed.
    let expansion = sweep::grid(0, Scale::Full)
        .expand()
        .expect("the sweep grid expands");
    let mut specs: Vec<_> = expansion
        .points
        .iter()
        .step_by(STRIDE)
        .filter_map(|p| p.spec.as_ref().ok())
        .collect();
    shuffle(&mut specs, &mut XorShift64Star::for_stream(seed, 20));

    cactid_obs::reset();
    let (mut solve_us, mut enum_us, mut screen_us, mut select_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut orgs, mut pruned, mut feasible) = (0usize, 0usize, 0usize);
    for spec in specs {
        let t = Instant::now();
        let out = solve_with_stats(spec, None);
        solve_us.push(us_since(t));
        let t = Instant::now();
        black_box(enumerate(spec).len());
        enum_us.push(us_since(t));
        let t = Instant::now();
        black_box(static_screen(spec));
        screen_us.push(us_since(t));
        orgs += out.stats.orgs_enumerated;
        pruned += out.stats.bound_pruned;
        feasible += out.stats.feasible;
        if let Ok(sols) = out.result {
            let t = Instant::now();
            black_box(select(spec, &sols).is_ok());
            select_us.push(us_since(t));
        }
    }
    let snap = cactid_obs::snapshot();
    let count = |name| snap.counter(name).unwrap_or(0) as f64;

    let mut m = Metrics::default();
    for (name, xs) in [
        ("core.solve_us", &solve_us),
        ("core.enumerate_us", &enum_us),
        ("core.static_screen_us", &screen_us),
        ("core.select_us", &select_us),
    ] {
        m.push(format!("{name}.p50"), pct(xs, 0.5, name), "us");
        m.push(format!("{name}.p99"), pct(xs, 0.99, name), "us");
    }
    m.push("core.specs", solve_us.len() as f64, "count");
    m.push("core.orgs_enumerated", orgs as f64, "count");
    m.push("core.bound_pruned", pruned as f64, "count");
    m.push("core.feasible", feasible as f64, "count");
    m.push(
        "core.prune_rate",
        ratio(pruned as f64, orgs as f64, "core.prune_rate"),
        "ratio",
    );
    m.push(
        "core.memo_reuse_per_solve",
        ratio(
            count("core.solve.incremental_reuse"),
            count("core.solve.calls"),
            "core.memo_reuse_per_solve",
        ),
        "ratio",
    );
    m
}

/// Nanoseconds per instruction drawn from ft.B's generator through
/// `TraceSource::next`, round-robin over 32 threads; median of 5 draws.
pub fn workloads() -> Metrics {
    let threads = 32;
    let per_rep: Vec<f64> = (0..5)
        .map(|_| {
            let mut trace = NpbTrace::new(NpbApp::FtB, threads);
            let t = Instant::now();
            for i in 0..GEN_INSTRUCTIONS {
                black_box(trace.next((i % threads as u64) as usize));
            }
            t.elapsed().as_secs_f64() * 1e9 / GEN_INSTRUCTIONS as f64
        })
        .collect();
    let mut m = Metrics::default();
    m.push("workloads.gen_ns_per_instr", median(&per_rep), "ns");
    m
}
