//! `design-sweep`: one `cactid explore` grid of ~28k cache designs, solved
//! on 2 threads with a private cold solve memo, Pareto extraction on and
//! the JSONL written to a file. No simulation runs here.

use crate::measure::{median, ratio, timed, Checks, Metrics, Tracer};
use crate::{shuffle, PassOut, Scale, Workload};
use cactid_core::{optimize, solve_with_stats};
use cactid_explore::cache::CachedSolve;
use cactid_explore::grid::Expansion;
use cactid_explore::record::{line_idx, render_solved, strip_pareto};
use cactid_explore::{explore, ExploreConfig, ExploreReport, Grid, OptVariant};
use cactid_obs::Snapshot;
use cactid_tech::{CellTechnology, TechNode};
use memsim::rng::XorShift64Star;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of every timed exploration (the host has 2 CPUs).
const THREADS: usize = 2;
/// Records re-derived from a fresh solve after each pass.
const SAMPLE: usize = 16;

/// The sweep grid: 13 capacities × 3 blocks × 5 associativities × 4 bank
/// counts × 4 nodes × 3 cells × 3 knob variants = 28 080 points at full
/// scale, 624 in the probe. The seed permutes the values within each
/// axis: the point set stays the same and only the claim order changes.
pub fn grid(seed: u64, scale: Scale) -> Grid {
    let mut g = Grid::new();
    g.capacities = (14..=26).map(|b| 1u64 << b).collect();
    let cells = vec![
        CellTechnology::Sram,
        CellTechnology::LpDram,
        CellTechnology::CommDram,
    ];
    match scale {
        Scale::Full => {
            g.blocks = vec![32, 64, 128];
            g.associativities = vec![1, 2, 4, 8, 16];
            g.banks = vec![1, 2, 4, 8];
            g.nodes = TechNode::ALL.to_vec();
            g.opts = ["default", "ed", "c"].iter().map(|l| named(l)).collect();
        }
        Scale::Probe => {
            g.associativities = vec![2, 8];
            g.banks = vec![1, 4];
            g.nodes = vec![TechNode::N32, TechNode::N65];
            g.opts = ["default", "ed"].iter().map(|l| named(l)).collect();
        }
    }
    g.cells = cells;
    let rng = |axis| XorShift64Star::for_stream(seed, axis);
    shuffle(&mut g.capacities, &mut rng(0));
    shuffle(&mut g.blocks, &mut rng(1));
    shuffle(&mut g.associativities, &mut rng(2));
    shuffle(&mut g.banks, &mut rng(3));
    shuffle(&mut g.nodes, &mut rng(4));
    shuffle(&mut g.cells, &mut rng(5));
    shuffle(&mut g.opts, &mut rng(6));
    g
}

fn named(label: &str) -> OptVariant {
    OptVariant::named(label).expect("the named knob variants exist")
}

/// Checks one exploration's output: exactly one record per point, the
/// engine's stage counters partition the points, the JSONL file holds
/// exactly the report lines, and the `sample` records re-derive from a
/// fresh solve.
pub fn check_report(
    report: &ExploreReport,
    expansion: &Expansion,
    file: &str,
    sample: &[usize],
) -> Checks {
    let mut checks = Checks::default();
    let mut seen = vec![0u32; expansion.points.len()];
    for line in &report.lines {
        if let Some(n) = line_idx(line).and_then(|i| seen.get_mut(i)) {
            *n += 1;
        }
    }
    for n in seen {
        checks.check(n == 1);
    }
    checks.check(report.stats.balanced());
    let mut rest = file;
    let same_file = report.lines.iter().all(|line| {
        let next = rest
            .strip_prefix(line.as_str())
            .and_then(|r| r.strip_prefix('\n'));
        next.map(|r| rest = r).is_some()
    });
    checks.check(same_file && rest.is_empty());
    for &i in sample {
        let point = &expansion.points[i];
        let Ok(spec) = &point.spec else {
            continue;
        };
        let fresh = CachedSolve {
            result: optimize(spec),
            stats: solve_with_stats(spec, None).stats,
        };
        let mut line = report.lines.get(i).cloned().unwrap_or_default();
        strip_pareto(&mut line);
        checks.check(line == render_solved(point, &fresh));
    }
    checks
}

/// The design-sweep workload.
pub struct DesignSweep {
    grid: Grid,
    expansion: Expansion,
    sample: Vec<usize>,
    out: PathBuf,
    last: Option<ExploreReport>,
}

impl DesignSweep {
    /// A design-sweep workload over the seeded grid, writing its JSONL
    /// under `dir`.
    pub fn new(seed: u64, scale: Scale, dir: &std::path::Path) -> Self {
        let grid = grid(seed, scale);
        let expansion = grid.expand().expect("the sweep grid expands");
        let mut rng = XorShift64Star::for_stream(seed, 7);
        let n = expansion.points.len() as u64;
        let sample = (0..SAMPLE).map(|_| rng.next_below(n) as usize).collect();
        DesignSweep {
            grid,
            expansion,
            sample,
            out: dir.join("sweep.jsonl"),
            last: None,
        }
    }

    fn run(&self, threads: usize) -> ExploreReport {
        let config = ExploreConfig {
            threads,
            out: Some(&self.out),
            pareto: true,
            ..ExploreConfig::default()
        };
        explore(&self.grid, &config).expect("the sweep explores")
    }
}

impl Workload for DesignSweep {
    fn warm_up(&mut self) {
        self.pass(None);
    }

    fn pass_s(&self) -> f64 {
        5.0
    }

    fn setup_reps(&self) -> usize {
        31
    }

    fn setup(&mut self, tr: Option<&Tracer>) -> f64 {
        let t = Instant::now();
        let e = timed(tr, "explore.expand", || self.grid.expand());
        let s = t.elapsed().as_secs_f64();
        black_box(e.expect("the sweep grid expands"));
        s
    }

    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let t = Instant::now();
        let report = timed(tr, "pass", || {
            timed(tr, "explore.run", || self.run(THREADS))
        });
        let seconds = t.elapsed().as_secs_f64();
        let file = std::fs::read_to_string(&self.out).expect("the sweep JSONL is readable");
        let checks = check_report(&report, &self.expansion, &file, &self.sample);
        let ops = report.lines.len() as u64;
        self.last = Some(report);
        PassOut {
            seconds,
            ops,
            checks,
        }
    }

    fn notes(&self) -> Vec<String> {
        let s = &self.last.as_ref().expect("a pass ran").stats;
        vec![format!(
            "points {} ok {} infeasible {} invalid {} pareto {}",
            s.points, s.ok, s.infeasible, s.invalid, s.pareto_points
        )]
    }

    fn layers(&mut self, tr: &Tracer, setup: u32, pass: u32, snap: &Snapshot) -> Metrics {
        let run_s = tr.total("explore.run", pass);
        let report = self.last.take().expect("a traced pass ran");
        let s = &report.stats;
        let mut m = Metrics::default();
        m.push(
            "explore.expand_s",
            median(&tr.durations("explore.expand", setup)),
            "s",
        );
        m.push("explore.run_s", run_s, "s");
        m.push("explore.points", s.points as f64, "count");
        m.push("explore.solved", s.solved as f64, "count");
        m.push("explore.memoized", s.memoized as f64, "count");
        m.push("explore.infeasible", s.infeasible as f64, "count");
        m.push("explore.invalid", s.invalid as f64, "count");
        m.push("explore.pareto_points", s.pareto_points as f64, "count");
        let bytes = std::fs::metadata(&self.out)
            .expect("the sweep JSONL exists")
            .len();
        m.push("explore.jsonl_bytes", bytes as f64, "bytes");
        let hist_s = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
        m.push(
            "explore.pool.claims",
            snap.counter("explore.pool.claims").unwrap_or(0) as f64,
            "count",
        );
        m.push("explore.pool.work_s", hist_s("explore.pool.work_ns"), "s");
        m.push(
            "explore.pool.sink_wait_s",
            hist_s("explore.pool.sink_wait_ns"),
            "s",
        );
        let t = Instant::now();
        black_box(self.run(1));
        let one = t.elapsed().as_secs_f64();
        m.push(
            "explore.scaling_2v1",
            ratio(one, run_s, "explore.scaling_2v1"),
            "ratio",
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_permutes_axes_but_keeps_the_point_set() {
        let a = grid(1, Scale::Full);
        let b = grid(2, Scale::Full);
        assert_eq!(a.len(), 28_080);
        assert_ne!(a, b);
        let mut ca = a.capacities.clone();
        let mut cb = b.capacities.clone();
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb);
    }

    #[test]
    fn a_missing_or_altered_record_is_caught() {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("test-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let w = DesignSweep::new(3, Scale::Probe, &dir);
        let report = w.run(2);
        let file = std::fs::read_to_string(&w.out).unwrap();
        let ok = check_report(&report, &w.expansion, &file, &[0, 1, 2]);
        assert_eq!(ok.failed, 0);
        assert!(ok.attempted > report.lines.len() as u64);

        let mut bad = report.clone();
        bad.lines.pop();
        let idx0 = bad.lines[0].replace("\"status\":\"ok\"", "\"status\":\"infeasible\"");
        bad.lines[0] = idx0;
        let broken = check_report(&bad, &w.expansion, &file, &[0]);
        // One point lost its record, the file no longer matches, and the
        // sampled record no longer re-derives (when point 0 solved ok).
        assert!(broken.failed >= 2, "{broken:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
