//! `paper-study`: the whole paper reproduction in-process, as
//! `llc-study all` runs it: Tables 1–3 and Figure 1, the 48 (application,
//! configuration) simulations of Figure 4, the Figure 5 power model, and
//! the rendered tables.

use crate::measure::{geomean, median, ratio, timed, Checks, Metrics, Tracer};
use crate::{PassOut, Scale, Workload};
use cactid_explore::SolveCache;
use cactid_obs::Snapshot;
use cactid_tech::TechNode;
use llc_study::configs::{self, LlcKind, StudyConfig};
use llc_study::figure4::{self, AppRun};
use llc_study::{figure1, figure5, table1, table2, table3};
use memsim::{SimStats, Simulator};
use npbgen::{NpbApp, NpbTrace};
use std::hint::black_box;
use std::time::Instant;

/// Measured instructions per pair: the smallest budget at which all seven
/// paper claims hold.
const FULL_INSTRUCTIONS: u64 = 400_000;
/// Budget of the reduced pass (warm-up, and the probe in other workloads'
/// traced runs).
const PROBE_INSTRUCTIONS: u64 = 20_000;

/// The study's result for one pass.
type Study = Vec<(StudyConfig, Vec<AppRun>)>;

/// The paper-study workload. Its inputs are fixed by the paper; the seed
/// is recorded and nothing else.
pub struct PaperStudy {
    instructions: u64,
    /// Per-pair statistics digests of the first pass at this budget.
    reference: Option<Vec<u64>>,
    /// Warm-up statistics of the last traced pass, per pair.
    warmups: Vec<SimStats>,
    last: Option<(Study, Vec<figure5::PowerRun>)>,
}

impl PaperStudy {
    /// A paper-study workload at `scale`.
    pub fn new(scale: Scale) -> Self {
        PaperStudy {
            instructions: match scale {
                Scale::Full => FULL_INSTRUCTIONS,
                Scale::Probe => PROBE_INSTRUCTIONS,
            },
            reference: None,
            warmups: Vec::new(),
            last: None,
        }
    }
}

fn render_tables() -> [String; 4] {
    [
        table1::render(TechNode::N32),
        table2::render(),
        figure1::render(),
        table3::render(),
    ]
}

fn render_figures(study: &Study, rows: &[figure5::PowerRun]) -> [String; 4] {
    [
        figure4::render_a(study),
        figure4::render_b(study),
        figure5::render_a(rows),
        figure5::render_b(rows),
    ]
}

/// Thread-cycle conservation: every thread's every cycle is attributed
/// to exactly one Figure 4(b) category.
pub fn conserved(stats: &SimStats, threads: usize) -> bool {
    stats.cycle_breakdown.iter().sum::<u64>() == stats.cycles * threads as u64
}

/// One pair, as [`figure4::run_one`] runs it, with a span around each
/// simulator call. Returns the run and the warm-up statistics.
fn run_one_traced(tr: &Tracer, cfg: &StudyConfig, app: NpbApp, n: u64) -> (AppRun, SimStats) {
    let trace = NpbTrace::new(app, cfg.system.n_threads());
    let mut sim = tr.span("sim.new", || Simulator::new(cfg.system.clone(), trace));
    let warm = tr.span("sim.warmup", || sim.run(n));
    sim.reset_stats();
    let stats = tr.span("sim.measure", || sim.run(n));
    stats.publish_obs();
    let seconds = stats.cycles as f64 / cfg.system.clock_hz;
    let run = AppRun {
        app,
        kind: cfg.kind,
        stats,
        seconds,
    };
    (run, warm)
}

/// The seven paper-shape claims, evaluated on one study.
pub fn claims(study: &Study, rows: &[figure5::PowerRun]) -> [(&'static str, bool); 7] {
    let ipc = |app, kind| figure4::find(study, app, kind).stats.ipc();
    let l3_kinds = &LlcKind::ALL[1..];
    let comm = [LlcKind::CmDramEd96, LlcKind::CmDramC192];
    let is_comm = |k: LlcKind| comm.contains(&k);
    let argmin = |kinds: &[LlcKind], f: &dyn Fn(LlcKind) -> f64| {
        kinds
            .iter()
            .copied()
            .min_by(|&a, &b| f(a).total_cmp(&f(b)))
            .expect("kinds is not empty")
    };
    let nol3_ft = ipc(NpbApp::FtB, LlcKind::NoL3);
    let nol3_ua = ipc(NpbApp::UaC, LlcKind::NoL3);
    let cg = figure4::find(study, NpbApp::CgC, LlcKind::NoL3)
        .stats
        .breakdown_fractions();
    let power = |k| figure5::avg_hierarchy_increase(rows, k);
    [
        (
            "ftb_any_l3_helps",
            l3_kinds.iter().all(|&k| ipc(NpbApp::FtB, k) > nol3_ft),
        ),
        (
            "ftb_sram_too_small",
            comm.iter()
                .all(|&k| ipc(NpbApp::FtB, k) > ipc(NpbApp::FtB, LlcKind::Sram24)),
        ),
        (
            "uac_l3_insensitive",
            l3_kinds
                .iter()
                .all(|&k| (ipc(NpbApp::UaC, k) / nol3_ua - 1.0).abs() < 0.15),
        ),
        ("cgc_memory_bound", cg[3] > 0.5),
        (
            "fig5_power_order",
            comm.iter().all(|&k| power(LlcKind::Sram24) > power(k)),
        ),
        (
            "comm_best_avg_edp",
            is_comm(argmin(l3_kinds, &|k| figure5::avg_normalized_edp(rows, k))),
        ),
        (
            "ftb_comm_best_edp",
            is_comm(argmin(LlcKind::ALL, &|k| {
                figure5::find(rows, NpbApp::FtB, k).edp
            })),
        ),
    ]
}

impl PaperStudy {
    fn claims_held(&self) -> usize {
        let (study, rows) = self.last.as_ref().expect("a pass ran");
        claims(study, rows).iter().filter(|(_, ok)| *ok).count()
    }
}

impl Workload for PaperStudy {
    fn warm_up(&mut self) {
        // One pass at the full budget costs ~16 s; the reduced pass fills
        // the same lazy state (technology tables, solve memo, page faults).
        let full = self.instructions;
        self.instructions = PROBE_INSTRUCTIONS;
        self.pass(None);
        self.instructions = full;
        self.reference = None;
    }

    fn pass_s(&self) -> f64 {
        16.0
    }

    fn setup_reps(&self) -> usize {
        31
    }

    fn setup(&mut self, tr: Option<&Tracer>) -> f64 {
        SolveCache::global().clear();
        let t = Instant::now();
        let cfgs: Vec<StudyConfig> = timed(tr, "study.build", || {
            LlcKind::ALL.iter().map(|&k| configs::build(k)).collect()
        });
        let s = t.elapsed().as_secs_f64();
        black_box(cfgs);
        s
    }

    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let n = self.instructions;
        let t = Instant::now();
        let (study, rows, text) = timed(tr, "pass", || match tr {
            None => {
                let tables = render_tables();
                let study = figure4::run_study(n);
                let rows = figure5::figure5(&study);
                let figures = render_figures(&study, &rows);
                (study, rows, (tables, figures))
            }
            Some(tr) => {
                let tables = tr.span("study.tables", render_tables);
                let mut study = Vec::new();
                self.warmups.clear();
                for &kind in LlcKind::ALL {
                    let cfg = configs::build(kind);
                    let mut runs = Vec::new();
                    for &app in NpbApp::ALL {
                        let (run, warm) =
                            tr.span("study.run_one", || run_one_traced(tr, &cfg, app, n));
                        runs.push(run);
                        self.warmups.push(warm);
                    }
                    study.push((cfg, runs));
                }
                let rows = tr.span("study.power", || figure5::figure5(&study));
                let figures = tr.span("study.render", || render_figures(&study, &rows));
                (study, rows, (tables, figures))
            }
        });
        let seconds = t.elapsed().as_secs_f64();
        black_box(text);

        let mut checks = Checks::default();
        let mut ops = 0;
        let mut digests = Vec::new();
        for (cfg, runs) in &study {
            for r in runs {
                checks.check(conserved(&r.stats, cfg.system.n_threads()));
                ops += r.stats.instructions;
                digests.push(r.stats.digest());
            }
        }
        // Every later pass at this budget (traced or not) must reproduce
        // the first one's statistics bit for bit.
        match &self.reference {
            None => self.reference = Some(digests),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&digests) {
                    checks.check(a == b);
                }
            }
        }
        self.last = Some((study, rows));
        PassOut {
            seconds,
            ops,
            checks,
        }
    }

    fn correct(&self) -> bool {
        self.instructions < FULL_INSTRUCTIONS || self.claims_held() == 7
    }

    fn notes(&self) -> Vec<String> {
        let (study, rows) = self.last.as_ref().expect("a pass ran");
        let mut out: Vec<String> = claims(study, rows)
            .iter()
            .map(|(name, ok)| format!("claim {name}: {}", if *ok { "holds" } else { "FAILS" }))
            .collect();
        let (dram, sram) = fidelity();
        out.push(format!("paper_claims_held {} of 7", self.claims_held()));
        out.push(format!("dram_error_pct {dram:?} (Table 2, Micron DDR3)"));
        out.push(format!("sram_error_pct {sram:?} (Figure 1, Xeon L3)"));
        out
    }

    fn layers(&mut self, tr: &Tracer, setup: u32, pass: u32, _snap: &Snapshot) -> Metrics {
        let (study, _) = self.last.as_ref().expect("a traced pass ran");
        let mut m = Metrics::default();
        m.push(
            "study.build_s",
            median(&tr.durations("study.build", setup)),
            "s",
        );
        let run_one = tr.durations("study.run_one", pass);
        m.push("study.run_one_s.sum", run_one.iter().sum(), "s");
        m.push("study.run_one_s.p50", median(&run_one), "s");
        m.push(
            "study.run_one_s.max",
            run_one.iter().copied().fold(0.0, f64::max),
            "s",
        );
        m.push("study.power_s", tr.total("study.power", pass), "s");
        m.push("study.tables_s", tr.total("study.tables", pass), "s");
        m.push("study.render_s", tr.total("study.render", pass), "s");
        let (dram, sram) = fidelity();
        m.push("study.claims_held", self.claims_held() as f64, "count");
        m.push("study.dram_error_pct", dram, "%");
        m.push("study.sram_error_pct", sram, "%");

        let measured: Vec<&SimStats> = study
            .iter()
            .flat_map(|(_, runs)| runs.iter().map(|r| &r.stats))
            .collect();
        let warm_s = tr.total("sim.warmup", pass);
        let measure_s = tr.total("sim.measure", pass);
        let all = || measured.iter().copied().chain(&self.warmups);
        let all_instr: u64 = all().map(|s| s.instructions).sum();
        let all_cycles: u64 = all().map(|s| s.cycles).sum();
        m.push("sim.new_s", tr.total("sim.new", pass), "s");
        m.push("sim.warmup_s", warm_s, "s");
        m.push("sim.measure_s", measure_s, "s");
        m.push(
            "sim.host_ns_per_instr",
            ratio(
                (warm_s + measure_s) * 1e9,
                all_instr as f64,
                "sim.host_ns_per_instr",
            ),
            "ns",
        );
        m.push(
            "sim.host_ns_per_cycle",
            ratio(
                (warm_s + measure_s) * 1e9,
                all_cycles as f64,
                "sim.host_ns_per_cycle",
            ),
            "ns",
        );
        let mut total = SimStats::default();
        for s in &measured {
            total.merge(s);
        }
        // `merge` leaves cycles to the caller: it is per-run simulated time.
        total.cycles = measured.iter().map(|s| s.cycles).sum();
        m.push("sim.cycles", total.cycles as f64, "count");
        m.push("sim.instructions", total.instructions as f64, "count");
        let ipcs: Vec<f64> = measured.iter().map(|s| s.ipc()).collect();
        m.push("sim.ipc_geomean", geomean(&ipcs), "ratio");
        let h = total.load_level_hits.map(|x| x as f64);
        m.push(
            "sim.l1_hit_rate",
            ratio(h[0], h.iter().sum(), "sim.l1_hit_rate"),
            "ratio",
        );
        m.push(
            "sim.l2_hit_rate",
            ratio(h[1], h[1] + h[2] + h[3], "sim.l2_hit_rate"),
            "ratio",
        );
        m.push("sim.l3_hit_rate", total.l3_hit_rate(), "ratio");
        let c = &total.counts;
        m.push(
            "sim.mem_row_hit_rate",
            ratio(
                c.mem_page_hits as f64,
                (c.mem_reads + c.mem_writes) as f64,
                "sim.mem_row_hit_rate",
            ),
            "ratio",
        );
        let f = total.breakdown_fractions();
        for (name, v) in ["instr", "l2", "l3", "mem", "barrier", "lock"]
            .iter()
            .zip(f)
        {
            m.push(format!("sim.stall_frac.{name}"), v, "ratio");
        }
        m
    }
}

/// Model accuracy against the two real chips: Table 2's mean absolute
/// error vs the Micron DDR3 part and Figure 1's best-access mean error vs
/// the Xeon L3, in percent.
pub fn fidelity() -> (f64, f64) {
    let (_, rows) = table2::table2();
    (
        table2::mean_abs_error(&rows),
        figure1::best_access_mean_error(&figure1::figure1()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broken_conservation_sum_is_caught() {
        let mut s = SimStats {
            cycles: 10,
            cycle_breakdown: [20, 0, 0, 0, 0, 0],
            ..SimStats::default()
        };
        assert!(conserved(&s, 2));
        s.cycle_breakdown[3] += 1;
        assert!(!conserved(&s, 2));
        s.cycle_breakdown = [19, 0, 0, 0, 0, 0];
        assert!(!conserved(&s, 2));
    }
}
