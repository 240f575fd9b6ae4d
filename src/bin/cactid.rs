//! `cactid` — a command-line front end in the spirit of the original CACTI.
//!
//! ```text
//! cactid --size 2M --block 64 --assoc 8 --banks 1 --cell sram --node 32
//! cactid --size 1G --banks 8 --cell comm-dram --node 78 --main-memory \
//!        --io 8 --burst 8 --prefetch 8 --page 8K
//! cactid --size 8M --cell lp-dram --node 32 --mode sequential --solutions
//! cactid lint --size 1G --banks 8 --cell comm-dram --node 32 --main-memory
//! cactid explore --sizes 1M,2M,4M --assocs 4,8,16 --threads 4 --pareto \
//!        --out sweep.jsonl
//! ```
//!
//! Prints the optimized solution with full delay/energy breakdowns; with
//! `--solutions`, lists the whole feasible set instead. The `lint`
//! subcommand runs the `cactid-analyze` diagnostics engine
//! (`CD0001`–`CD0022`) over the spec and — when the spec is solvable —
//! over the optimized solution, printing a rustc-style report (or JSONL
//! with `--format json`); `--allow/--warn/--deny CDxxxx` reshape rule
//! severities and `--deny-warnings` turns warnings into a non-zero exit.
//! The `explore` subcommand expands a grid over comma-separated axes and
//! runs the `cactid-explore` batch engine (parallel, resumable,
//! Pareto-annotated JSONL); its `--trace` sidecar carries the solver's
//! per-rule prune counters (`core.solve.pruned.*`). The `audit` subcommand
//! replays the cross-record `CD0101`–`CD0105` rules over a finished run
//! (`--jsonl FILE`). The `serve` subcommand keeps a solver resident: a
//! JSONL request loop over stdin/stdout answering solve/grid queries in
//! the explore record schema, with an optional `--store` disk-backed
//! solution store so restarts answer duplicate specs without re-solving.
//!
//! The binary lives in the facade crate (not `cactid-core`) because the
//! `lint` subcommand needs `cactid-analyze`, which depends on the core —
//! a bin inside the core could not see it.

use cactid_analyze::{render, Analyzer, Report, RunContext, SeverityAction, SeverityOverrides};
use cactid_core::{AccessMode, CactiError, MemoryKind, MemorySpec, OptimizationOptions, Solution};
use cactid_explore::pool::MAX_THREADS;
use cactid_explore::record::{parse_cell, parse_mode};
use cactid_explore::{ExploreConfig, Grid, OptVariant};
use cactid_tech::{CellTechnology, TechNode};
use cactid_units::{Seconds, Watts};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: cactid [lint] --size <bytes|K|M|G> [--block N] [--assoc N] [--banks N]\n\
         \x20      --cell sram|lp-dram|comm-dram --node 90|78|65|45|32\n\
         \x20      [--mode normal|sequential|fast] [--ram]\n\
         \x20      [--main-memory --io N --burst N --prefetch N --page <bits|K>]\n\
         \x20      [--max-area PCT] [--max-time PCT] [--relax X] [--sleep]\n\
         \x20      [--solutions]\n\
         \n\
         subcommands:\n\
         \x20 lint     run the CD0001-CD0022 diagnostics over the spec (and the\n\
         \x20          optimized solution, when one exists) instead of printing it;\n\
         \x20          accepts --deny-warnings, --format text|json, and repeatable\n\
         \x20          --allow/--warn/--deny CDxxxx severity overrides;\n\
         \x20          exits non-zero on errors\n\
         \x20 explore  batch design-space exploration; axes are comma lists:\n\
         \x20          --sizes LIST (required) [--blocks LIST] [--assocs LIST]\n\
         \x20          [--banks LIST] [--nodes LIST] [--cells LIST]\n\
         \x20          [--opts default|ed|c LIST] [--mode M] [--out FILE]\n\
         \x20          [--threads N] [--resume] [--pareto]\n\
         \x20          [--trace FILE]  write a JSONL metrics sidecar and print a\n\
         \x20                          counter/histogram summary to stderr; its\n\
         \x20                          core.solve.pruned.* counters count the\n\
         \x20                          prescreen's rejections per rule\n\
         \x20 serve    resident solve service speaking a JSONL request protocol\n\
         \x20          (solve/grid/stats/shutdown) in the explore record schema:\n\
         \x20          [--stdio]       serve stdin/stdout (the only transport)\n\
         \x20          [--store FILE]  disk-backed content-addressed solution\n\
         \x20                          store; restarts answer duplicates without\n\
         \x20                          re-solving, byte-identical to a cold solve\n\
         \x20          [--threads N] [--trace FILE]\n\
         \x20          --threads N (explore and serve): 0 = one worker per CPU,\n\
         \x20          at most 1024\n\
         \x20 audit    --jsonl FILE: run the cross-record CD0101-CD0105 rules\n\
         \x20          over a finished explore run; accepts --format text|json,\n\
         \x20          --allow/--warn/--deny CDxxxx, and --deny-warnings"
    );
    exit(2)
}

/// A byte count with an optional K/M/G suffix; `None` when it is
/// malformed or does not fit in 64 bits.
fn parse_size(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, mult) = match v.chars().last()? {
        'K' | 'k' => (&v[..v.len() - 1], 1u64 << 10),
        'M' | 'm' => (&v[..v.len() - 1], 1 << 20),
        'G' | 'g' => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// Splits a comma-separated axis list, applying `parse` per element.
fn parse_list<T>(flag: &str, v: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|item| parse(item.trim()).ok_or_else(|| format!("invalid value {item:?} in {flag}")))
        .collect()
}

/// How diagnostics are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    /// Rustc-style report (the default).
    Text,
    /// One JSON object per diagnostic, one per line.
    Json,
}

fn parse_format(v: &str) -> Option<OutputFormat> {
    match v {
        "text" => Some(OutputFormat::Text),
        "json" => Some(OutputFormat::Json),
        _ => None,
    }
}

/// Parses one `--allow/--warn/--deny CDxxxx` severity-override flag into
/// `overrides`; returns `false` when `flag` is none of the three. Unknown
/// codes are rejected later by [`Analyzer::with_overrides`].
fn parse_severity_flag(
    overrides: &mut SeverityOverrides,
    flag: &str,
    argv: &[String],
    i: &mut usize,
) -> Result<bool, String> {
    let action = match flag {
        "--allow" => SeverityAction::Allow,
        "--warn" => SeverityAction::Warn,
        "--deny" => SeverityAction::Deny,
        _ => return Ok(false),
    };
    overrides.set(value(argv, i, flag)?, action);
    Ok(true)
}

#[derive(Debug)]
struct Args {
    size: u64,
    block: u32,
    assoc: u32,
    banks: u32,
    cell: CellTechnology,
    node: TechNode,
    mode: AccessMode,
    ram: bool,
    main_memory: bool,
    io: u32,
    burst: u32,
    prefetch: u32,
    page_bits: u64,
    opt: OptimizationOptions,
    list_solutions: bool,
    deny_warnings: bool,
    format: OutputFormat,
    overrides: SeverityOverrides,
}

/// Consumes the value of `flag`, or explains what is missing.
fn value<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    argv.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("flag {flag} expects a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

/// Parses `--threads`: 0 means one worker per CPU. The pool starts one OS
/// thread per worker, so a count past [`MAX_THREADS`] is a usage error.
fn parse_threads(v: &str) -> Result<usize, String> {
    let n: usize = parse_num("--threads", v)?;
    if n > MAX_THREADS {
        return Err(format!("--threads expects 0..={MAX_THREADS}, got {n}"));
    }
    Ok(n)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        size: 0,
        block: 64,
        assoc: 8,
        banks: 1,
        cell: CellTechnology::Sram,
        node: TechNode::N32,
        mode: AccessMode::Normal,
        ram: false,
        main_memory: false,
        io: 8,
        burst: 8,
        prefetch: 8,
        page_bits: 8 << 10,
        opt: OptimizationOptions::default(),
        list_solutions: false,
        deny_warnings: false,
        format: OutputFormat::Text,
        overrides: SeverityOverrides::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let bad = |v: &str| format!("invalid value {v:?} for {flag}");
        match flag {
            "--size" => {
                let v = value(argv, &mut i, flag)?;
                a.size = parse_size(v).ok_or_else(|| bad(v))?;
            }
            "--block" => a.block = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--assoc" => a.assoc = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--banks" => a.banks = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--cell" => {
                let v = value(argv, &mut i, flag)?;
                a.cell = parse_cell(v).ok_or_else(|| bad(v))?;
            }
            "--node" => {
                let v = value(argv, &mut i, flag)?;
                let nm: u32 = parse_num(flag, v)?;
                a.node = TechNode::from_nm(nm).ok_or_else(|| bad(v))?;
            }
            "--mode" => {
                let v = value(argv, &mut i, flag)?;
                a.mode = parse_mode(v).ok_or_else(|| bad(v))?;
            }
            "--ram" => a.ram = true,
            "--main-memory" => a.main_memory = true,
            "--io" => a.io = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--burst" => a.burst = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--prefetch" => a.prefetch = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--page" => {
                let v = value(argv, &mut i, flag)?;
                a.page_bits = parse_size(v).ok_or_else(|| bad(v))?;
            }
            "--max-area" => {
                a.opt.max_area_overhead =
                    parse_num::<f64>(flag, value(argv, &mut i, flag)?)? / 100.0;
            }
            "--max-time" => {
                a.opt.max_access_time_overhead =
                    parse_num::<f64>(flag, value(argv, &mut i, flag)?)? / 100.0;
            }
            "--relax" => a.opt.repeater_relax = parse_num(flag, value(argv, &mut i, flag)?)?,
            "--sleep" => a.opt.sleep_transistors = true,
            "--solutions" => a.list_solutions = true,
            "--deny-warnings" => a.deny_warnings = true,
            "--format" => {
                let v = value(argv, &mut i, flag)?;
                a.format = parse_format(v).ok_or_else(|| bad(v))?;
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            other => {
                if !parse_severity_flag(&mut a.overrides, other, argv, &mut i)? {
                    return Err(format!("unknown flag {other:?}"));
                }
            }
        }
        i += 1;
    }
    if a.size == 0 {
        return Err("missing required flag --size".to_string());
    }
    Ok(a)
}

/// Everything `cactid explore` needs: the grid plus engine options.
#[derive(Debug)]
struct ExploreArgs {
    grid: Grid,
    threads: usize,
    out: Option<PathBuf>,
    resume: bool,
    pareto: bool,
    trace: Option<PathBuf>,
}

fn parse_explore_args(argv: &[String]) -> Result<ExploreArgs, String> {
    let mut a = ExploreArgs {
        grid: Grid::new(),
        threads: 0,
        out: None,
        resume: false,
        pareto: false,
        trace: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--out" => a.out = Some(PathBuf::from(value(argv, &mut i, flag)?)),
            "--trace" => a.trace = Some(PathBuf::from(value(argv, &mut i, flag)?)),
            "--threads" => a.threads = parse_threads(value(argv, &mut i, flag)?)?,
            "--resume" => a.resume = true,
            "--pareto" => a.pareto = true,
            "--sizes" => {
                a.grid.capacities = parse_list(flag, value(argv, &mut i, flag)?, parse_size)?;
            }
            "--blocks" => {
                a.grid.blocks =
                    parse_list(flag, value(argv, &mut i, flag)?, |v| v.parse::<u32>().ok())?;
            }
            "--assocs" => {
                a.grid.associativities =
                    parse_list(flag, value(argv, &mut i, flag)?, |v| v.parse::<u32>().ok())?;
            }
            "--banks" => {
                a.grid.banks =
                    parse_list(flag, value(argv, &mut i, flag)?, |v| v.parse::<u32>().ok())?;
            }
            "--nodes" => {
                a.grid.nodes = parse_list(flag, value(argv, &mut i, flag)?, |v| {
                    v.parse::<u32>().ok().and_then(TechNode::from_nm)
                })?;
            }
            "--cells" => a.grid.cells = parse_list(flag, value(argv, &mut i, flag)?, parse_cell)?,
            "--opts" => {
                // `default`, plus the paper's §3.1 `ed` and `c` knob sets.
                a.grid.opts = parse_list(flag, value(argv, &mut i, flag)?, OptVariant::named)?;
            }
            "--mode" => {
                let v = value(argv, &mut i, flag)?;
                a.grid.access_mode =
                    parse_mode(v).ok_or_else(|| format!("invalid value {v:?} for {flag}"))?;
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if a.grid.capacities.is_empty() {
        return Err("missing required flag --sizes".to_string());
    }
    Ok(a)
}

/// The `cactid explore` subcommand: expand the grid, run the batch engine,
/// and print the JSONL (stdout, unless `--out`) plus the engine stats
/// (stderr, so piping the records stays clean).
fn run_explore(argv: &[String]) -> ! {
    let a = parse_explore_args(argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let config = ExploreConfig {
        threads: a.threads,
        out: a.out.as_deref(),
        resume: a.resume,
        pareto: a.pareto,
        memos: None,
    };
    match cactid_explore::explore(&a.grid, &config) {
        Ok(report) => {
            if a.out.is_none() {
                for line in &report.lines {
                    println!("{line}");
                }
            }
            eprintln!("{}", report.stats.render());
            // Metrics are recorded unconditionally; --trace only controls
            // whether the sidecar is written, so the result JSONL is
            // byte-identical with tracing on or off.
            if let Some(trace) = &a.trace {
                if let Err(e) = cactid_obs::write_trace(trace, "explore") {
                    eprintln!("error: writing trace {}: {e}", trace.display());
                    exit(1)
                }
                eprint!("{}", cactid_obs::render_summary(&cactid_obs::snapshot()));
            }
            exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}

/// Everything `cactid serve` needs.
#[derive(Debug)]
struct ServeArgs {
    store: Option<PathBuf>,
    threads: usize,
    trace: Option<PathBuf>,
}

fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let mut a = ServeArgs {
        store: None,
        threads: 0,
        trace: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            // The only transport; accepted so scripts may name it.
            "--stdio" => {}
            "--store" => a.store = Some(PathBuf::from(value(argv, &mut i, flag)?)),
            "--threads" => a.threads = parse_threads(value(argv, &mut i, flag)?)?,
            "--trace" => a.trace = Some(PathBuf::from(value(argv, &mut i, flag)?)),
            "--help" | "-h" => return Err("help requested".to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(a)
}

/// The `cactid serve` subcommand: a resident solve service. Records go to
/// stdout; diagnostics, the end-of-run metric summary (request latency
/// p50/p99 included) and the optional trace sidecar go to stderr/disk,
/// so piping the records stays clean.
fn run_serve(argv: &[String]) -> ! {
    let a = parse_serve_args(argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let config = cactid_serve::ServeConfig {
        threads: a.threads,
        store: a.store.clone(),
    };
    let svc = cactid_serve::Service::new(&config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    if let Err(e) = svc.run_stdio() {
        eprintln!("error: {e}");
        exit(1)
    }
    eprintln!("cactid-serve: served {} requests", svc.requests_served());
    if let Some(trace) = &a.trace {
        if let Err(e) = cactid_obs::write_trace(trace, "serve") {
            eprintln!("error: writing trace {}: {e}", trace.display());
            exit(1)
        }
    }
    eprint!("{}", cactid_obs::render_summary(&cactid_obs::snapshot()));
    exit(0)
}

/// Everything `cactid audit` needs: a finished run's JSONL for the
/// cross-record CD01xx rules.
#[derive(Debug)]
struct AuditArgs {
    jsonl: PathBuf,
    format: OutputFormat,
    overrides: SeverityOverrides,
    deny_warnings: bool,
}

fn parse_audit_args(argv: &[String]) -> Result<AuditArgs, String> {
    let mut jsonl = None;
    let mut format = OutputFormat::Text;
    let mut overrides = SeverityOverrides::new();
    let mut deny_warnings = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--jsonl" => jsonl = Some(PathBuf::from(value(argv, &mut i, flag)?)),
            "--format" => {
                let v = value(argv, &mut i, flag)?;
                format =
                    parse_format(v).ok_or_else(|| format!("invalid value {v:?} for {flag}"))?;
            }
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => return Err("help requested".to_string()),
            other => {
                if !parse_severity_flag(&mut overrides, other, argv, &mut i)? {
                    return Err(format!("unknown flag {other:?}"));
                }
            }
        }
        i += 1;
    }
    Ok(AuditArgs {
        jsonl: jsonl.ok_or("missing required flag --jsonl")?,
        format,
        overrides,
        deny_warnings,
    })
}

/// Prints a lint report in the requested format and exits with the shared
/// severity contract: errors always fail; warnings fail only under
/// `--deny-warnings`; info diagnostics never affect the exit code.
fn finish_lint(report: &Report, deny_warnings: bool, format: OutputFormat) -> ! {
    match format {
        OutputFormat::Text => {
            print!("{}", render::render(report));
            if report.is_empty() {
                println!("{}", render::summary_line(report));
            }
        }
        OutputFormat::Json => {
            // Machine-readable JSONL on stdout; the human summary goes to
            // stderr so piping stays clean.
            print!("{}", render::render_json(report));
            eprintln!("{}", render::summary_line(report));
        }
    }
    if report.error_count() > 0 || (deny_warnings && report.warn_count() > 0) {
        exit(1)
    }
    exit(0)
}

/// The `cactid audit` subcommand: cross-record run analysis over a
/// finished explore run (`--jsonl FILE`).
fn run_audit(argv: &[String]) -> ! {
    let a = parse_audit_args(argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let analyzer = Analyzer::with_overrides(a.overrides).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let path = a.jsonl;
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: reading {}: {e}", path.display());
        exit(1)
    });
    let ctx = RunContext::parse(&text);
    let report = analyzer.lint_run(&ctx);
    finish_lint(&report, a.deny_warnings, a.format)
}

/// Assembles the spec directly from the parsed flags, **bypassing** the
/// builder's validation — the point of `cactid lint` is to diagnose specs
/// the builder would reject outright, naming the rule, field, and fix.
fn spec_from_args(a: &Args) -> MemorySpec {
    let kind = if a.main_memory {
        MemoryKind::MainMemory {
            io_bits: a.io,
            burst_length: a.burst,
            prefetch: a.prefetch,
            page_bits: a.page_bits,
        }
    } else if a.ram {
        MemoryKind::Ram
    } else {
        MemoryKind::Cache {
            access_mode: a.mode,
        }
    };
    let assoc = if matches!(kind, MemoryKind::Cache { .. }) {
        a.assoc
    } else {
        1
    };
    MemorySpec {
        capacity_bytes: a.size,
        block_bytes: a.block,
        associativity: assoc,
        n_banks: a.banks,
        kind,
        cell_tech: a.cell,
        node: a.node,
        address_bits: 40,
        opt: a.opt.clone(),
    }
}

fn print_solution(sol: &Solution) {
    println!("organization:");
    println!(
        "  stripe x subarrays : {} x {} (nspd {}, bl-mux {}, sa-mux {})",
        sol.org.ndwl, sol.org.ndbl, sol.org.nspd, sol.org.deg_bl_mux, sol.org.deg_sa_mux
    );
    println!("timing:");
    println!("  access time        : {:>9.3} ns", sol.access_ns());
    println!(
        "  random cycle       : {:>9.3} ns",
        sol.random_cycle.value() * 1e9
    );
    println!(
        "  interleave cycle   : {:>9.3} ns",
        sol.interleave_cycle.value() * 1e9
    );
    let d = &sol.data.delay;
    println!(
        "  breakdown          : htree-in {:.3} | decode {:.3} | bitline {:.3} | sense {:.3} | mux {:.3} | htree-out {:.3} ns",
        d.htree_in.value() * 1e9,
        d.decode.value() * 1e9,
        d.bitline.value() * 1e9,
        d.sense.value() * 1e9,
        d.mux.value() * 1e9,
        d.htree_out.value() * 1e9
    );
    if d.restore > Seconds::ZERO {
        println!(
            "  dram phases        : restore {:.3} | precharge {:.3} ns",
            d.restore.value() * 1e9,
            d.precharge.value() * 1e9
        );
    }
    println!("area:");
    println!("  total              : {:>9.3} mm^2", sol.area_mm2());
    println!(
        "  efficiency         : {:>9.1} %",
        sol.area_efficiency * 100.0
    );
    println!("energy/power:");
    println!("  read energy        : {:>9.3} nJ", sol.read_energy_nj());
    println!(
        "  write energy       : {:>9.3} nJ",
        sol.write_energy.value() * 1e9
    );
    let e = &sol.data.energy;
    println!(
        "  breakdown          : htree {:.3} | decode {:.3} | bitline {:.3} | sense {:.3} | column {:.3} nJ",
        e.htree_in.value() * 1e9,
        e.decode.value() * 1e9,
        e.bitline.value() * 1e9,
        e.sense.value() * 1e9,
        e.column.value() * 1e9
    );
    println!(
        "  leakage            : {:>9.4} W",
        sol.leakage_power.value()
    );
    if sol.refresh_power > Watts::ZERO {
        println!(
            "  refresh            : {:>9.4} W",
            sol.refresh_power.value()
        );
    }
    if let Some(tag) = &sol.tag {
        println!("tag array:");
        println!(
            "  access {:.3} ns (incl. compare {:.3} ns), {:.4} mm^2, {:.4} nJ",
            tag.access_time().value() * 1e9,
            tag.comparator_delay.value() * 1e9,
            tag.array.area().value() / 1e-6,
            tag.read_energy().value() * 1e9
        );
    }
    if let Some(mm) = &sol.main_memory {
        println!("main-memory interface:");
        println!(
            "  tRCD {:.2} | CL {:.2} | tRAS {:.2} | tRP {:.2} | tRC {:.2} | tRRD {:.2} ns",
            mm.timing.t_rcd.value() * 1e9,
            mm.timing.cas_latency.value() * 1e9,
            mm.timing.t_ras.value() * 1e9,
            mm.timing.t_rp.value() * 1e9,
            mm.timing.t_rc.value() * 1e9,
            mm.timing.t_rrd.value() * 1e9
        );
        println!(
            "  ACT {:.3} nJ | RD {:.3} nJ | WR {:.3} nJ | refresh {:.3} mW | standby {:.3} mW",
            mm.energies.activate.value() * 1e9,
            mm.energies.read.value() * 1e9,
            mm.energies.write.value() * 1e9,
            mm.energies.refresh_power.value() * 1e3,
            mm.energies.standby_power.value() * 1e3
        );
    }
}

/// The `cactid lint` subcommand: spec-stage diagnostics always; when the
/// spec has no errors and the optimizer finds a winner, the full
/// three-stage report over that solution too. Exit 0 only when no errors
/// (and, under `--deny-warnings`, no warnings) were emitted.
fn run_lint(a: &Args) -> ! {
    let spec = spec_from_args(a);
    let analyzer = Analyzer::with_overrides(a.overrides.clone()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let spec_report = analyzer.lint_spec(&spec);

    let report = if spec_report.error_count() > 0 {
        spec_report
    } else {
        // The spec is structurally sound: lint the optimized solution so
        // the organization- and solution-stage rules get a say as well.
        match cactid_core::optimize(&spec) {
            Ok(sol) => analyzer.lint_solution(&spec, &sol),
            Err(e) => {
                print!("{}", render::render(&spec_report));
                eprintln!("error: the spec lints clean but has no feasible solution: {e}");
                exit(1)
            }
        }
    };
    finish_lint(&report, a.deny_warnings, a.format)
}

/// Prints the winner's organization- and solution-stage diagnostics on
/// stderr, if it has any.
fn print_diagnostics(spec: &MemorySpec, sol: &Solution) {
    let report = Analyzer::new().lint_candidate(spec, sol);
    if !report.is_empty() {
        eprint!("{}", render::render(&report));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("explore") {
        run_explore(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("audit") {
        run_audit(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(&argv[1..]);
    }
    let (lint_mode, rest) = match argv.first().map(String::as_str) {
        Some("lint") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let a = parse_args(rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    if lint_mode {
        run_lint(&a);
    }

    let spec = spec_from_args(&a);
    // The classic path validates eagerly, as the builder does.
    if let Err(e) = spec.validate() {
        eprintln!("error: {e}");
        eprintln!("hint: run `cactid lint` with the same flags for a full diagnosis");
        exit(1)
    }

    println!(
        "cactid: {} bytes, block {}, assoc {}, banks {}, {} @ {}",
        spec.capacity_bytes,
        spec.block_bytes,
        spec.associativity,
        spec.n_banks,
        spec.cell_tech,
        spec.node
    );
    let fail = |e: CactiError| -> ! {
        eprintln!("error: {e}");
        exit(1)
    };
    if a.list_solutions {
        let sols = cactid_core::solve_with_stats(&spec, None)
            .result
            .unwrap_or_else(|e| fail(e));
        println!(
            "{:>5} {:>5} {:>5} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}",
            "ndwl", "ndbl", "nspd", "blmux", "samux", "acc ns", "cyc ns", "mm2", "Erd nJ"
        );
        for s in &sols {
            println!(
                "{:>5} {:>5} {:>5} {:>6} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                s.org.ndwl,
                s.org.ndbl,
                s.org.nspd,
                s.org.deg_bl_mux,
                s.org.deg_sa_mux,
                s.access_ns(),
                s.random_cycle.value() * 1e9,
                s.area_mm2(),
                s.read_energy_nj()
            );
        }
        println!("{} feasible organizations", sols.len());
    } else {
        let sol = cactid_core::optimize(&spec).unwrap_or_else(|e| fail(e));
        print_solution(&sol);
        print_diagnostics(&spec, &sol);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn size_suffixes_scale_correctly() {
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64k"), Some(64 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("1g"), Some(1 << 30));
        assert_eq!(parse_size(" 8K "), Some(8 << 10), "whitespace is trimmed");
    }

    #[test]
    fn malformed_sizes_are_rejected() {
        for bad in [
            "",
            "K",
            "12Q",
            "1.5M",
            "-4K",
            "64KB",
            "17179869184G",
            "17179869248G",
        ] {
            assert_eq!(parse_size(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn classic_flags_round_trip() {
        let a = parse_args(&args(&[
            "--size", "2M", "--block", "32", "--assoc", "16", "--banks", "4", "--cell", "lp-dram",
            "--node", "45", "--mode", "fast", "--sleep",
        ]))
        .unwrap();
        assert_eq!(a.size, 2 << 20);
        assert_eq!((a.block, a.assoc, a.banks), (32, 16, 4));
        assert_eq!(a.cell, CellTechnology::LpDram);
        assert_eq!(a.node, TechNode::N45);
        assert_eq!(a.mode, AccessMode::Fast);
        assert!(a.opt.sleep_transistors);
    }

    #[test]
    fn classic_parser_reports_what_went_wrong() {
        let missing = parse_args(&args(&["--block", "64"])).unwrap_err();
        assert!(missing.contains("--size"), "{missing}");
        let unknown = parse_args(&args(&["--size", "1M", "--frobnicate"])).unwrap_err();
        assert!(unknown.contains("unknown flag"), "{unknown}");
        let dangling = parse_args(&args(&["--size"])).unwrap_err();
        assert!(dangling.contains("expects a value"), "{dangling}");
        let bad_num = parse_args(&args(&["--size", "1M", "--assoc", "eight"])).unwrap_err();
        assert!(bad_num.contains("--assoc"), "{bad_num}");
        let bad_node = parse_args(&args(&["--size", "1M", "--node", "33"])).unwrap_err();
        assert!(bad_node.contains("--node"), "{bad_node}");
    }

    #[test]
    fn explore_axes_parse_as_comma_lists() {
        let a = parse_explore_args(&args(&[
            "--sizes",
            "64K,128K,1M",
            "--blocks",
            "32,64",
            "--assocs",
            "4,8",
            "--cells",
            "sram,lp-dram",
            "--nodes",
            "45,32",
            "--opts",
            "default,ed,c",
            "--threads",
            "4",
            "--pareto",
            "--resume",
            "--out",
            "sweep.jsonl",
            "--trace",
            "sweep.trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(a.grid.capacities, vec![64 << 10, 128 << 10, 1 << 20]);
        assert_eq!(a.grid.blocks, vec![32, 64]);
        assert_eq!(a.grid.associativities, vec![4, 8]);
        assert_eq!(
            a.grid.cells,
            vec![CellTechnology::Sram, CellTechnology::LpDram]
        );
        assert_eq!(a.grid.nodes, vec![TechNode::N45, TechNode::N32]);
        let labels: Vec<&str> = a.grid.opts.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["default", "ed", "c"]);
        assert_eq!(a.threads, 4);
        assert!(a.pareto && a.resume);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("sweep.jsonl")));
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("sweep.trace.jsonl"))
        );
        assert_eq!(a.grid.len(), 3 * 2 * 2 * 2 * 2 * 3);
    }

    #[test]
    fn lint_parser_collects_severity_overrides_and_format() {
        let a = parse_args(&args(&[
            "--size", "1M", "--format", "json", "--allow", "CD0004", "--deny", "CD0021", "--warn",
            "CD0002",
        ]))
        .unwrap();
        assert_eq!(a.format, OutputFormat::Json);
        assert_eq!(a.overrides.action("CD0004"), Some(SeverityAction::Allow));
        assert_eq!(a.overrides.action("CD0021"), Some(SeverityAction::Deny));
        assert_eq!(a.overrides.action("CD0002"), Some(SeverityAction::Warn));
        assert_eq!(a.overrides.action("CD0001"), None);
        let bad = parse_args(&args(&["--size", "1M", "--format", "yaml"])).unwrap_err();
        assert!(bad.contains("--format"), "{bad}");
    }

    #[test]
    fn audit_parser_takes_a_jsonl_file_only() {
        let j = parse_audit_args(&args(&[
            "--jsonl",
            "run.jsonl",
            "--format",
            "json",
            "--deny",
            "CD0104",
            "--deny-warnings",
        ]))
        .unwrap();
        assert_eq!(j.jsonl, std::path::Path::new("run.jsonl"));
        assert_eq!(j.format, OutputFormat::Json);
        assert_eq!(j.overrides.action("CD0104"), Some(SeverityAction::Deny));
        assert!(j.deny_warnings);

        let neither = parse_audit_args(&args(&[])).unwrap_err();
        assert!(neither.contains("--jsonl"), "{neither}");
        // The static grid mode is gone: `cactid explore --trace` counts
        // the prescreen's rejections per rule instead.
        for gone in [&["--grid"][..], &["--sizes", "64K"]] {
            let err = parse_audit_args(&args(gone)).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn explore_parser_rejects_bad_input() {
        let missing = parse_explore_args(&args(&["--assocs", "4"])).unwrap_err();
        assert!(missing.contains("--sizes"), "{missing}");
        let bad_item = parse_explore_args(&args(&["--sizes", "64K,oops"])).unwrap_err();
        assert!(bad_item.contains("oops"), "{bad_item}");
        let bad_opt = parse_explore_args(&args(&["--sizes", "1M", "--opts", "fancy"])).unwrap_err();
        assert!(bad_opt.contains("fancy"), "{bad_opt}");
        for flag in ["--bogus", "--lint"] {
            let unknown = parse_explore_args(&args(&["--sizes", "1M", flag])).unwrap_err();
            assert!(unknown.contains("unknown flag"), "{unknown}");
        }
        // One OS thread per worker: past the cap is a usage error, checked
        // before any thread starts.
        let max = MAX_THREADS.to_string();
        let ok = parse_explore_args(&args(&["--sizes", "1M", "--threads", &max])).unwrap();
        assert_eq!(ok.threads, MAX_THREADS);
        for many in [(MAX_THREADS + 1).to_string(), "100000".to_string()] {
            let err = parse_explore_args(&args(&["--sizes", "1M", "--threads", &many]));
            assert!(err.unwrap_err().contains("0..=1024"), "{many}");
        }
    }

    #[test]
    fn serve_flags_round_trip() {
        let a = parse_serve_args(&args(&[])).unwrap();
        assert!(a.store.is_none() && a.trace.is_none());
        assert_eq!(a.threads, 0);

        let a = parse_serve_args(&args(&[
            "--stdio",
            "--store",
            "solutions.store",
            "--threads",
            "2",
            "--trace",
            "trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(
            a.store.as_deref(),
            Some(std::path::Path::new("solutions.store"))
        );
        assert_eq!(a.threads, 2);
        assert!(a.trace.is_some());
    }

    #[test]
    fn serve_parser_rejects_bad_input() {
        let unknown = parse_serve_args(&args(&["--bogus"])).unwrap_err();
        assert!(unknown.contains("unknown flag"), "{unknown}");
        let dangling = parse_serve_args(&args(&["--store"])).unwrap_err();
        assert!(dangling.contains("expects a value"), "{dangling}");
        let many = parse_serve_args(&args(&["--threads", "100000"])).unwrap_err();
        assert!(many.contains("0..=1024"), "{many}");
        let max = MAX_THREADS.to_string();
        assert_eq!(
            parse_serve_args(&args(&["--threads", &max]))
                .unwrap()
                .threads,
            MAX_THREADS
        );
    }
}
