//! Single-solve throughput of the staged core pipeline, tracked in
//! `BENCH_solve.json`.
//!
//! Fully hermetic (no criterion) and always built. Times three
//! representative specs — an SRAM L2, an LP-DRAM L3 and a COMM-DRAM main
//! memory chip — through two solver paths: the debug-only unpruned
//! reference and the staged pipeline (lazy enumeration + closed-form
//! pre-screen + hoisted per-spec context). The report carries
//! candidates/second, prune rates, the staged-vs-reference speedup, and
//! the improvement over the pre-change baseline that is baked in below. Two top-level gates stay checkable from the artifact
//! alone: `comm_dram_meets_2x` (the historical ≥2× bar of the
//! staged-pipeline PR, pinned to its own pre-staged baseline) and
//! `staged_beats_reference_all` (every spec's staged solve at least
//! matches the unpruned reference — the honesty gate of the
//! incremental-evaluation PR).
//!
//! Usage: `cargo bench -p cactid-bench --bench solve_throughput --
//! [--quick] [--out PATH]`. `--quick` shrinks the repetition counts for CI
//! smoke runs; `--out` chooses where the JSON lands (default
//! `BENCH_solve.json` in the working directory).

use cactid_core::{
    solve_with_stats, solve_with_stats_reference, AccessMode, MemoryKind, MemorySpec, SolveOutcome,
};
use cactid_explore::json::JsonObject;
use cactid_tech::{CellTechnology, TechNode, Technology};
use std::time::Instant;

/// Pre-change serial throughput (candidates/second) measured on the
/// commit immediately before the incremental-evaluation PR landed, same
/// specs, same best-of-5 protocol, single-CPU container.
/// `improvement_vs_prechange` compares against these numbers, so the
/// artifact always answers "what did the latest solver change buy?".
const PRECHANGE_CAND_PER_SEC: [(&str, f64); 3] = [
    ("sram-l2", 1_193_263.0),
    ("lp-dram-l3", 1_396_532.0),
    ("comm-dram-dimm", 3_244_535.0),
];

/// COMM-DRAM serial throughput before the *staged pipeline* PR (two
/// changes ago). The historical ≥2× acceptance bar of that PR is pinned
/// to this number, independent of the rolling pre-change baseline above.
const PRE_STAGED_COMM_DRAM_CAND_PER_SEC: f64 = 1_484_826.0;

fn sram_l2() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 20)
        .block_bytes(64)
        .associativity(8)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

fn lp_dram_l3() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(8 << 20)
        .block_bytes(64)
        .associativity(16)
        .banks(1)
        .cell_tech(CellTechnology::LpDram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

fn comm_dram_dimm() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 30)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N78)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        })
        .build()
        .unwrap()
}

/// Best-of-`batches` average microseconds per call of `f` over `reps`
/// repetitions. Best-of filters scheduler noise on a shared container.
fn measure_us<F: FnMut()>(mut f: F, reps: u32, batches: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        best = best.min(us);
    }
    best
}

struct BenchRow {
    name: &'static str,
    stats: cactid_core::SolveStats,
    reference_us: f64,
    staged_us: f64,
}

fn expect_sols(out: &SolveOutcome, label: &str) {
    assert!(out.result.is_ok(), "{label}: spec must be solvable");
}

fn bench_spec(name: &'static str, spec: &MemorySpec, reps: u32, batches: u32) -> BenchRow {
    let staged = solve_with_stats(spec, None);
    expect_sols(&staged, name);
    let reference_us = measure_us(
        || expect_sols(&solve_with_stats_reference(spec, None), name),
        reps,
        batches,
    );
    let staged_us = measure_us(
        || expect_sols(&solve_with_stats(spec, None), name),
        reps,
        batches,
    );
    BenchRow {
        name,
        stats: staged.stats,
        reference_us,
        staged_us,
    }
}

fn render(row: &BenchRow) -> String {
    let orgs = row.stats.orgs_enumerated as f64;
    let cand_per_sec = orgs / (row.staged_us * 1e-6);
    let prechange = PRECHANGE_CAND_PER_SEC
        .iter()
        .find(|(n, _)| *n == row.name)
        .map_or(f64::NAN, |(_, v)| *v);
    let mut o = JsonObject::new();
    o.str("spec", row.name)
        .u64("orgs_per_solve", row.stats.orgs_enumerated as u64)
        .u64("bound_pruned", row.stats.bound_pruned as u64)
        .u64("feasible", row.stats.feasible as u64)
        .f64("prune_rate", row.stats.bound_pruned as f64 / orgs)
        .f64("reference_us_per_solve", row.reference_us)
        .f64("staged_us_per_solve", row.staged_us)
        .f64("staged_candidates_per_sec", cand_per_sec)
        .f64(
            "speedup_staged_vs_reference",
            row.reference_us / row.staged_us,
        )
        .f64("prechange_candidates_per_sec", prechange)
        .f64("improvement_vs_prechange", cand_per_sec / prechange);
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
        .unwrap_or_else(|| "BENCH_solve.json".to_string());

    // Warm the per-node Technology memo so every timed path pays the same
    // (zero) table-derivation cost.
    let _ = Technology::cached(TechNode::N32);
    let _ = Technology::cached(TechNode::N78);

    let (reps_cache, reps_mm, batches) = if quick { (8, 64, 2) } else { (128, 2048, 5) };
    let rows = [
        bench_spec("sram-l2", &sram_l2(), reps_cache, batches),
        bench_spec("lp-dram-l3", &lp_dram_l3(), reps_cache, batches),
        bench_spec("comm-dram-dimm", &comm_dram_dimm(), reps_mm, batches),
    ];

    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "solve throughput ({}), host parallelism {hw}:",
        if quick { "quick" } else { "full" }
    );
    let mut meets_2x = false;
    let mut beats_reference_all = true;
    for row in &rows {
        let line = render(row);
        println!("  {line}");
        beats_reference_all &= row.reference_us / row.staged_us >= 1.0;
        if row.name == "comm-dram-dimm" {
            let orgs = row.stats.orgs_enumerated as f64;
            let cand = orgs / (row.staged_us * 1e-6);
            meets_2x = cand >= 2.0 * PRE_STAGED_COMM_DRAM_CAND_PER_SEC;
        }
    }

    let mut top = JsonObject::new();
    top.str("schema", "cactid-bench-solve-v1")
        .str("mode", if quick { "quick" } else { "full" })
        .u64("host_parallelism", hw as u64)
        .bool("comm_dram_meets_2x", meets_2x)
        .bool("staged_beats_reference_all", beats_reference_all)
        .raw(
            "benches",
            &format!(
                "[\n  {}\n]",
                rows.iter().map(render).collect::<Vec<_>>().join(",\n  ")
            ),
        );
    let json = format!("{}\n", top.finish());
    std::fs::write(&out_path, &json).expect("write BENCH_solve.json");
    println!(
        "wrote {out_path} (comm_dram_meets_2x = {meets_2x}, \
         staged_beats_reference_all = {beats_reference_all})"
    );
}
