//! Simulator throughput: the serial reference loop vs. the sharded
//! epoch-synchronized engine, tracked in `BENCH_sim.json`.
//!
//! Fully hermetic (no criterion) and always built. Times an 8-core and a
//! 64-core configuration through both engines: the legacy serial
//! `Simulator` and the single-threaded `ShardedSimulator`. The report
//! carries simulated cycles/second for each and one gate checkable from
//! the artifact alone:
//!
//! * `serial_overhead_ok` — the sharded engine stays within 0.9× of the
//!   legacy serial loop's throughput on every benched config (the epoch
//!   machinery must be near-free).
//!
//! Usage: `cargo bench -p cactid-bench --bench sim_throughput --
//! [--quick] [--out PATH]`. `--quick` shrinks the instruction counts for
//! CI smoke runs; `--out` chooses where the JSON lands (default
//! `BENCH_sim.json` in the working directory).

use cactid_explore::json::JsonObject;
use memsim::trace::StridedSource;
use memsim::{ShardedSimulator, SimStats, Simulator, SystemConfig};
use std::time::Instant;

struct BenchRow {
    name: &'static str,
    instructions: u64,
    legacy_cps: f64,
    sharded_cps: f64,
    digest: u64,
}

fn trace_for(cfg: &SystemConfig) -> StridedSource {
    // 48 KB per thread: mostly L2 hits with a steady trickle of L2 misses,
    // so phase A dominates but the boundary path is exercised too.
    StridedSource::with_seed(cfg.n_threads(), 0.3, 48 << 10, 1)
}

/// Best-of-`batches` simulated-cycles-per-second for one engine closure,
/// plus the stats of the last batch. Each batch constructs a fresh
/// simulator so cache warm-up is identical.
fn cycles_per_sec<F: FnMut() -> SimStats>(mut run: F, batches: u32) -> (f64, SimStats) {
    let mut best = 0.0f64;
    let mut last = SimStats::default();
    for _ in 0..batches {
        let t = Instant::now();
        last = run();
        let cps = last.cycles as f64 / t.elapsed().as_secs_f64();
        best = best.max(cps);
    }
    (best, last)
}

fn bench_config(name: &'static str, cfg: &SystemConfig, n: u64, batches: u32) -> BenchRow {
    let (legacy_cps, _) = cycles_per_sec(
        || Simulator::new(cfg.clone(), trace_for(cfg)).run(n),
        batches,
    );
    let (sharded_cps, stats) = cycles_per_sec(
        || {
            let mut sim = ShardedSimulator::try_new(cfg.clone(), trace_for(cfg)).unwrap();
            sim.run(n)
        },
        batches,
    );
    BenchRow {
        name,
        instructions: n,
        legacy_cps,
        sharded_cps,
        digest: stats.digest(),
    }
}

fn render(row: &BenchRow) -> String {
    let mut o = JsonObject::new();
    o.str("config", row.name)
        .u64("instructions", row.instructions)
        .f64("legacy_cycles_per_sec", row.legacy_cps)
        .f64("sharded_cycles_per_sec", row.sharded_cps)
        .f64(
            "serial_overhead_vs_legacy",
            row.sharded_cps / row.legacy_cps,
        )
        .str("stats_digest", &format!("{:016x}", row.digest));
    o.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let (n_small, n_large, batches) = if quick {
        (30_000, 60_000, 2)
    } else {
        (300_000, 600_000, 3)
    };
    let rows = [
        bench_config(
            "8-core-sram-l3",
            &SystemConfig::with_sram_l3(),
            n_small,
            batches,
        ),
        bench_config("64-core", &SystemConfig::many_core(64), n_large, batches),
    ];

    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "sim throughput ({}), host parallelism {hw}:",
        if quick { "quick" } else { "full" }
    );
    let mut overhead_ok = true;
    for row in &rows {
        println!("  {}", render(row));
        overhead_ok &= row.sharded_cps / row.legacy_cps >= 0.9;
    }

    let mut top = JsonObject::new();
    top.str("schema", "cactid-bench-sim-v1")
        .str("mode", if quick { "quick" } else { "full" })
        .u64("host_parallelism", hw as u64)
        .bool("serial_overhead_ok", overhead_ok)
        .raw(
            "benches",
            &format!(
                "[\n  {}\n]",
                rows.iter().map(render).collect::<Vec<_>>().join(",\n  ")
            ),
        );
    let json = format!("{}\n", top.finish());
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("wrote {out_path} (serial_overhead_ok = {overhead_ok})");
}
