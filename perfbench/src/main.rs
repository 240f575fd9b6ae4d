//! The CACTI-D reproduction's benchmark: four workloads, each run in its
//! own process, timed from outside through the crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-study|design-sweep|serve-session|manycore-sim> \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run warms up with one discarded pass, times the
//! workload's set-up several times, then times whole passes for about
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it runs
//! one untraced and one traced pass of the workload, then a reduced traced
//! pass of every other workload and the layer probes, and prints the
//! per-layer metrics. Human-readable notes precede the result, which is
//! the last line of standard output. See `NOTES.md` beside this file.

mod manycore;
mod measure;
mod paper;
mod probes;
mod serve;
mod sweep;

use cactid_obs::Snapshot;
use measure::{
    child_coverage, median, peak_rss_mb, result_line, self_times, Checks, Metrics, Tracer,
};
use memsim::rng::XorShift64Star;
use std::path::{Path, PathBuf};

/// How much work a pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as benchmarked.
    Full,
    /// A reduced pass, run for its layer metrics in other workloads'
    /// traced runs.
    Probe,
}

/// What one pass produced.
#[derive(Debug, Clone, Copy)]
pub struct PassOut {
    /// Host seconds of the pass (checks excluded).
    pub seconds: f64,
    /// Units of work answered: simulated instructions, grid points or
    /// requests.
    pub ops: u64,
    /// Checks of the pass's outputs.
    pub checks: Checks,
}

/// One benchmark workload.
pub trait Workload {
    /// Runs and discards a first pass, so lazy process state is filled
    /// before anything is timed.
    fn warm_up(&mut self);
    /// Nominal host seconds of one full pass. A run times
    /// `--seconds / pass_s` whole passes (at least one), so the number of
    /// samples behind a metric never depends on how loaded the host is.
    fn pass_s(&self) -> f64;
    /// Fresh set-ups per run; their median is `setup_s`.
    fn setup_reps(&self) -> usize;
    /// One fresh set-up; returns its seconds.
    fn setup(&mut self, tr: Option<&Tracer>) -> f64;
    /// One pass, with every output checked.
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut;
    /// Workload-level correctness beyond the per-operation checks.
    fn correct(&self) -> bool {
        true
    }
    /// Human-readable figures of the last passes.
    fn notes(&self) -> Vec<String>;
    /// Per-layer figures after a traced pass; `setup` and `pass` are the
    /// tracer's pass ids of the traced set-ups and the traced pass, and
    /// `snap` the observability counters the traced pass accumulated.
    fn layers(&mut self, tr: &Tracer, setup: u32, pass: u32, snap: &Snapshot) -> Metrics;
}

const WORKLOADS: [&str; 4] = [
    "paper-study",
    "design-sweep",
    "serve-session",
    "manycore-sim",
];

/// Span names whose self time the traced run reports.
const SPANS: [&str; 17] = [
    "pass",
    "study.build",
    "study.tables",
    "study.run_one",
    "sim.new",
    "sim.warmup",
    "sim.measure",
    "study.power",
    "study.render",
    "explore.expand",
    "explore.run",
    "serve.open",
    "serve.cold",
    "serve.restart",
    "serve.warm",
    "shard.new",
    "shard.run",
];

fn make(name: &str, seed: u64, scale: Scale, dir: &Path) -> Box<dyn Workload> {
    match name {
        "paper-study" => Box::new(paper::PaperStudy::new(scale)),
        "design-sweep" => Box::new(sweep::DesignSweep::new(seed, scale, dir)),
        "serve-session" => Box::new(serve::ServeSession::new(seed, scale, dir)),
        "manycore-sim" => Box::new(manycore::ManyCore::new(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Fisher–Yates shuffle driven by the benchmark's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut XorShift64Star) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad integer {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?.max(1)),
            "--trace" => trace = Some(int()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Timed passes of a run: as many nominal passes as fit in `seconds`,
/// at least one.
fn pass_count(seconds: u64, pass_s: f64) -> usize {
    ((seconds as f64 / pass_s) as usize).max(1)
}

/// End-to-end run: warm-up, repeated set-ups, then a fixed number of
/// whole passes.
fn run_untraced(w: &mut dyn Workload, seconds: u64) -> (Metrics, Checks) {
    w.warm_up();
    let setups: Vec<f64> = (0..w.setup_reps()).map(|_| w.setup(None)).collect();
    let passes: Vec<PassOut> = (0..pass_count(seconds, w.pass_s()))
        .map(|_| w.pass(None))
        .collect();
    let mut checks = Checks::default();
    for p in &passes {
        checks.merge(p.checks);
    }
    let secs: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.seconds).collect();
    println!("passes {} setups {}", passes.len(), setups.len());
    println!("pass_s {secs:?}");
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("iter_s", median(&secs), "s");
    m.push("ops_per_s", median(&rates), "1/s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push("ok_frac", checks.ok_frac(), "fraction");
    (m, checks)
}

/// Traced set-ups and one traced pass of `w`; returns its layer metrics,
/// the pass, and the pass id.
fn traced_layers(w: &mut dyn Workload, tr: &Tracer, reps: usize) -> (Metrics, PassOut, u32) {
    let setup = tr.next_pass();
    for _ in 0..reps {
        w.setup(Some(tr));
    }
    cactid_obs::reset();
    let pass = tr.next_pass();
    let p = w.pass(Some(tr));
    let snap = cactid_obs::snapshot();
    (w.layers(tr, setup, pass, &snap), p, pass)
}

/// Per-layer run: the workload at full scale untraced and traced, then
/// every other workload reduced and traced, then the layer probes.
fn run_traced(name: &str, seed: u64, dir: &Path) -> (Metrics, Checks, bool) {
    let tr = Tracer::default();
    let mut checks = Checks::default();
    let mut w = make(name, seed, Scale::Full, dir);
    w.warm_up();
    let untraced = w.pass(None);
    checks.merge(untraced.checks);
    let reps = w.setup_reps();
    let (mut m, traced, pass) = traced_layers(&mut *w, &tr, reps);
    checks.merge(traced.checks);
    let correct = w.correct();
    drop(w);

    m.push(
        "obs.trace_overhead_pct",
        (traced.seconds / untraced.seconds - 1.0) * 100.0,
        "%",
    );
    let spans = tr.spans();
    let root = spans
        .iter()
        .position(|s| s.pass == pass && s.name == "pass" && s.parent.is_none())
        .expect("the traced pass has a root span");
    m.push(
        "obs.unattributed_frac",
        1.0 - child_coverage(&spans, root) / spans[root].seconds(),
        "fraction",
    );

    for other in WORKLOADS.iter().filter(|&&o| o != name) {
        let mut v = make(other, seed, Scale::Probe, dir);
        // Set-ups and the traced pass see the state a real run would:
        // the store written, the lazy process state filled.
        v.warm_up();
        let (lm, p, _) = traced_layers(&mut *v, &tr, 3);
        checks.merge(p.checks);
        m.extend(lm);
    }
    m.extend(probes::core(seed));
    m.extend(probes::workloads());

    let spans = tr.spans();
    let selfs = self_times(&spans);
    for s in SPANS {
        let v = *selfs
            .get(s)
            .unwrap_or_else(|| panic!("span {s} was never recorded"));
        m.push(format!("self_s.{s}"), v, "s");
    }
    let out = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out).expect("the span directory can be made");
    let path = out.join(format!("spans-{name}-seed{seed}.jsonl"));
    tr.write_jsonl(&path).expect("the spans can be written");
    println!("spans written to {}", path.display());
    (m, checks, correct)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let dir =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("the scratch directory can be made");
    println!(
        "workload {} seed {} host_parallelism {}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let (metrics, checks, correct) = if args.trace {
        run_traced(&args.workload, args.seed, &dir)
    } else {
        let mut w = make(&args.workload, args.seed, Scale::Full, &dir);
        let (m, c) = run_untraced(&mut *w, args.seconds);
        for note in w.notes() {
            println!("{note}");
        }
        let correct = w.correct();
        (m, c, correct)
    };
    std::fs::remove_dir_all(&dir).expect("the scratch directory can be removed");
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(".perfbench_tmp");
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value:?} {unit}");
    }
    println!(
        "{}",
        result_line(correct && checks.failed == 0, checks, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::pass_count;

    #[test]
    fn the_pass_count_depends_only_on_the_arguments() {
        assert_eq!(pass_count(40, 16.0), 2);
        assert_eq!(pass_count(40, 5.0), 8);
        assert_eq!(pass_count(10, 16.0), 1);
        assert_eq!(pass_count(1, 5.0), 1);
    }
}
