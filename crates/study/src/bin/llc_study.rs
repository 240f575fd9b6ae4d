//! CLI for the CACTI-D paper reproduction.
//!
//! ```text
//! llc-study table1                 # Table 1: technology characteristics
//! llc-study table2                 # Table 2: Micron DDR3 validation
//! llc-study fig1                   # Figure 1: Xeon L3 validation sweep
//! llc-study table3                 # Table 3: 32nm hierarchy projections
//! llc-study fig4 [-n INSTR]        # Figure 4: IPC/latency/cycle breakdown
//! llc-study fig5 [-n INSTR]        # Figure 5: power and energy-delay
//! llc-study all  [-n INSTR]        # everything (fig4+fig5 share the runs)
//! llc-study thermal                # extension: stacked-die temperature
//! llc-study powerdown [-n INSTR]   # extension: DRAM power-down savings
//! llc-study sweep [-n INSTR]       # L3 capacity-sensitivity curves
//! llc-study shard [--cores N] [--dragon] [-n INSTR]
//!                                  # many-core simulator run; prints a
//!                                  # stats digest for determinism checks
//! llc-study ablations [-n INSTR]   # the paper's design choices, each
//!                                  # flipped once (2 M instructions at most)
//! ```
//!
//! Every command additionally accepts `--trace FILE`: at exit the process
//! metrics registry (optimizer, solve-cache, pool, and simulator counters)
//! is dumped as a JSONL sidecar to FILE and summarized on stderr. The
//! sidecar is observability-only — the study tables are unaffected.

use cactid_tech::TechNode;
use llc_study::power::MemoryHierarchyPower;
use llc_study::{
    ablations, configs, figure1, figure4, figure5, powerdown, sweep, table1, table2, table3,
    thermal,
};

fn parse_flag_u64(args: &[String], flag: &str) -> Option<u64> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next().map(|v| v.replace('_', "").parse()) {
                Some(Ok(v)) => return Some(v),
                _ => {
                    eprintln!("{flag} expects an integer");
                    std::process::exit(2)
                }
            }
        }
    }
    None
}

fn parse_trace(args: &[String]) -> Option<std::path::PathBuf> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            match it.next() {
                Some(v) => return Some(std::path::PathBuf::from(v)),
                None => {
                    eprintln!("--trace expects a file path");
                    std::process::exit(2)
                }
            }
        }
    }
    None
}

fn run_figures_4_and_5(instructions: u64, do4: bool, do5: bool) {
    eprintln!("running study: 8 apps x 6 configs x {instructions} instructions...");
    let study = figure4::run_study(instructions);
    if do4 {
        println!("{}", figure4::render_a(&study));
        println!("{}", figure4::render_b(&study));
    }
    if do5 {
        let rows = figure5::figure5(&study);
        println!("{}", figure5::render_a(&rows));
        println!("{}", figure5::render_b(&rows));
    }
}

fn run_thermal() {
    let estimates: Vec<_> = configs::LlcKind::ALL
        .iter()
        .skip(1)
        .filter_map(|&k| thermal::estimate(&configs::build(k)))
        .collect();
    println!("{}", thermal::render(&estimates));
}

fn run_powerdown(instructions: u64) {
    use npbgen::NpbApp;
    eprintln!("powerdown extension: 3 apps x 3 configs x {instructions} instructions...");
    let mut rows = Vec::new();
    for kind in [
        configs::LlcKind::NoL3,
        configs::LlcKind::Sram24,
        configs::LlcKind::CmDramC192,
    ] {
        let cfg = configs::build(kind);
        for app in [NpbApp::CgC, NpbApp::FtB, NpbApp::UaC] {
            let run = figure4::run_one(&cfg, app, instructions);
            let hier = MemoryHierarchyPower::from_run(&cfg, &run.stats);
            let a = powerdown::analyze(&cfg, &run.stats, &hier);
            rows.push((format!("{} / {app}", kind.label()), a, hier.total()));
        }
    }
    println!("{}", powerdown::render(&rows));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("all", String::as_str);
    // Default: enough for the synthetic profiles to reach steady state on
    // the largest L3s while staying minutes-scale.
    let n = parse_flag_u64(&args, "-n")
        .or_else(|| parse_flag_u64(&args, "--instructions"))
        .unwrap_or(5_000_000);
    if n == 0 {
        eprintln!("-n/--instructions expects a positive instruction count");
        std::process::exit(2)
    }
    match cmd {
        "table1" => println!("{}", table1::render(TechNode::N32)),
        "table2" => println!("{}", table2::render()),
        "fig1" => println!("{}", figure1::render()),
        "table3" => println!("{}", table3::render()),
        "fig4" => run_figures_4_and_5(n, true, false),
        "fig5" => run_figures_4_and_5(n, false, true),
        "thermal" => run_thermal(),
        "powerdown" => run_powerdown(n.min(2_000_000)),
        "ablations" => print!("{}", ablations::render(n.min(2_000_000))),
        "sweep" => {
            use npbgen::NpbApp;
            eprintln!("capacity sweep: 3 apps x 6 capacities x {n} instructions...");
            println!(
                "{}",
                sweep::render(&[NpbApp::FtB, NpbApp::BtC, NpbApp::UaC], n)
            );
        }
        "shard" => {
            use memsim::{CoherenceProtocol, Simulator, SystemConfig};
            let cores = parse_flag_u64(&args, "--cores").unwrap_or(64);
            let max = memsim::coherence::MAX_CORES as u64;
            if !(1..=max).contains(&cores) {
                eprintln!("--cores expects 1..={max}, got {cores}");
                std::process::exit(2)
            }
            let cores = cores as u32;
            let mut cfg = SystemConfig::many_core(cores);
            if args.iter().any(|a| a == "--dragon") {
                cfg.protocol = CoherenceProtocol::Dragon;
            }
            let trace = npbgen::NpbTrace::new(npbgen::NpbApp::FtB, cfg.n_threads());
            eprintln!("many-core run: {cores} cores, {n} instructions...");
            let mut sim = Simulator::try_new(cfg, trace).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let stats = sim.run(n);
            stats.publish_obs();
            let info = sim.info();
            println!(
                "shard cores={cores} epochs={} msgs={} ipc={:.3} digest={:016x}",
                info.epochs,
                info.messages,
                stats.ipc(),
                stats.digest()
            );
        }
        "all" => {
            println!("{}", table1::render(TechNode::N32));
            println!("{}", table2::render());
            println!("{}", figure1::render());
            println!("{}", table3::render());
            run_figures_4_and_5(n, true, true);
            run_thermal();
        }
        other => {
            eprintln!(
                "unknown command {other:?}; try table1|table2|table3|fig1|fig4|fig5|thermal|powerdown|sweep|shard|ablations|all"
            );
            std::process::exit(2);
        }
    }
    if let Some(path) = parse_trace(&args) {
        if let Err(e) = cactid_obs::write_trace(&path, &format!("llc-study {cmd}")) {
            eprintln!("error: writing trace {}: {e}", path.display());
            std::process::exit(1);
        }
        eprint!("{}", cactid_obs::render_summary(&cactid_obs::snapshot()));
    }
}
