//! Figure 4: IPC, average read latency (a) and normalized execution-cycle
//! breakdown (b) for the eight NPB applications on the six system
//! configurations.

use crate::configs::{self, LlcKind, StudyConfig};
use crate::report::format_table;
use memsim::{SimStats, Simulator, SystemConfig};
use npbgen::{NpbApp, NpbTrace};

/// Result of simulating one (application, configuration) pair.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application.
    pub app: NpbApp,
    /// Configuration.
    pub kind: LlcKind,
    /// Measured statistics (post-warm-up).
    pub stats: SimStats,
    /// Measured wall time of the simulated interval \[s\].
    pub seconds: f64,
}

/// Runs the full study: every application on every configuration.
///
/// `instructions` is the measured instruction count per run; the same
/// count is executed first as cache warm-up. The paper runs 10 B
/// instructions per pair; tens of millions are enough for the synthetic
/// profiles to reach steady state.
///
/// The 48 runs are independent, so they ride the cactid-explore
/// work-claiming pool at host parallelism. The results are returned
/// config-major in [`LlcKind::ALL`] × [`NpbApp::ALL`] order whatever the
/// thread count, and each run is bitwise the serial [`run_one`].
pub fn run_study(instructions: u64) -> Vec<(StudyConfig, Vec<AppRun>)> {
    // Building solves through the process-global solve memo; do it once,
    // serially, before any simulation starts.
    let cfgs: Vec<StudyConfig> = LlcKind::ALL.iter().map(|&k| configs::build(k)).collect();
    // Claim app-major, so concurrently running pairs are almost always
    // different configurations (the big-L3 tag arrays rarely coincide).
    let pairs: Vec<(NpbApp, usize)> = NpbApp::ALL
        .iter()
        .flat_map(|&app| (0..cfgs.len()).map(move |c| (app, c)))
        .collect();
    let runs = cactid_explore::pool::parallel_map(0, &pairs, |_, &(app, c)| {
        run_one(&cfgs[c], app, instructions)
    });
    // Regroup config-major; apps stay in NpbApp::ALL order within each.
    let mut by_cfg: Vec<Vec<AppRun>> = cfgs.iter().map(|_| Vec::new()).collect();
    for (run, &(_, c)) in runs.into_iter().zip(&pairs) {
        by_cfg[c].push(run);
    }
    cfgs.into_iter().zip(by_cfg).collect()
}

/// Runs one (application, configuration) pair.
pub fn run_one(cfg: &StudyConfig, app: NpbApp, instructions: u64) -> AppRun {
    let _span = cactid_obs::span("study.run_one");
    let trace = NpbTrace::new(app, cfg.system.n_threads());
    let stats = simulate(&cfg.system, trace, instructions);
    let seconds = stats.cycles as f64 / cfg.system.clock_hz;
    AppRun {
        app,
        kind: cfg.kind,
        stats,
        seconds,
    }
}

/// Simulates `trace` on `system`: `instructions` of warm-up, whose
/// statistics are discarded, then `instructions` measured. Publishes and
/// returns the measured interval's statistics. Every study simulation
/// runs through here.
pub(crate) fn simulate(system: &SystemConfig, trace: NpbTrace, instructions: u64) -> SimStats {
    let mut sim = Simulator::new(system.clone(), trace);
    // Full-length warm-up: the big L3s take tens of millions of
    // instructions to populate (60–450 MB warm sets).
    sim.run(instructions);
    sim.reset_stats();
    let stats = sim.run(instructions);
    // Publish only the measured interval's counts (warm-up was discarded).
    stats.publish_obs();
    stats
}

/// Renders Figure 4(a): IPC and average read latency.
pub fn render_a(study: &[(StudyConfig, Vec<AppRun>)]) -> String {
    let mut rows = Vec::new();
    for (i, &app) in NpbApp::ALL.iter().enumerate() {
        let mut ipc_row = vec![format!("{app} IPC")];
        let mut lat_row = vec![format!("{app} lat")];
        for (_, runs) in study {
            let r = &runs[i];
            ipc_row.push(format!("{:.2}", r.stats.ipc()));
            lat_row.push(format!("{:.1}", r.stats.avg_read_latency()));
        }
        rows.push(ipc_row);
        rows.push(lat_row);
    }
    let mut headers = vec!["app"];
    headers.extend(LlcKind::ALL.iter().map(|k| k.label()));
    format!(
        "Figure 4(a): IPC and average read latency (cycles)\n{}",
        format_table(&headers, &rows)
    )
}

/// Renders Figure 4(b): normalized execution-cycle breakdown.
pub fn render_b(study: &[(StudyConfig, Vec<AppRun>)]) -> String {
    let mut s =
        String::from("Figure 4(b): normalized cycle breakdown (instr/L2/L3/mem/barrier/lock %)\n");
    for (i, &app) in NpbApp::ALL.iter().enumerate() {
        s.push_str(&format!("{app}:\n"));
        for (cfg, runs) in study {
            let f = runs[i].stats.breakdown_fractions();
            s.push_str(&format!(
                "  {:11} {:5.1} {:5.1} {:5.1} {:5.1} {:5.1} {:5.1}\n",
                cfg.kind.label(),
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0,
                f[4] * 100.0,
                f[5] * 100.0
            ));
        }
    }
    s
}

/// Convenience accessor: the run for (app, kind).
pub fn find(study: &[(StudyConfig, Vec<AppRun>)], app: NpbApp, kind: LlcKind) -> &AppRun {
    study
        .iter()
        .find(|(c, _)| c.kind == kind)
        .and_then(|(_, runs)| runs.iter().find(|r| r.app == app))
        .unwrap_or_else(|| panic!("no run for {app:?} on {kind:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smaller-scale end-to-end sanity run (full-scale checks live in
    /// the integration tests and benches).
    #[test]
    fn ft_b_gains_from_an_l3() {
        let nol3 = configs::build(LlcKind::NoL3);
        let lp = configs::build(LlcKind::LpDramC72);
        let a = run_one(&nol3, NpbApp::FtB, 400_000);
        let b = run_one(&lp, NpbApp::FtB, 400_000);
        assert!(
            b.stats.ipc() > a.stats.ipc(),
            "{} vs {}",
            b.stats.ipc(),
            a.stats.ipc()
        );
        assert!(b.stats.avg_read_latency() < a.stats.avg_read_latency());
        assert!(b.stats.counts.mem_reads < a.stats.counts.mem_reads);
    }

    #[test]
    fn parallel_study_matches_the_serial_loop_in_order_and_bits() {
        let n = 20_000;
        let study = run_study(n);
        let kinds: Vec<LlcKind> = study.iter().map(|(c, _)| c.kind).collect();
        assert_eq!(kinds, LlcKind::ALL);
        // All 48 digests folded in LlcKind::ALL × NpbApp::ALL order. The
        // pinned value is what a plain every-thread-scan, dividing loop
        // produces; the simulator's hot-path shortcuts must match it.
        let h = study
            .iter()
            .flat_map(|(_, runs)| runs)
            .fold(0u64, |h, r| h.rotate_left(7) ^ r.stats.digest());
        assert_eq!(h, 0xd600_24ac_7a6f_cd55, "study statistics changed");
        for (cfg, runs) in &study {
            let serial = configs::build(cfg.kind);
            let apps: Vec<NpbApp> = runs.iter().map(|r| r.app).collect();
            assert_eq!(apps, NpbApp::ALL, "{:?}", cfg.kind);
            for r in runs {
                assert_eq!(r.kind, cfg.kind);
                let want = run_one(&serial, r.app, n).stats.digest();
                assert_eq!(r.stats.digest(), want, "{:?} {:?}", cfg.kind, r.app);
            }
        }
    }

    #[test]
    fn cg_c_is_l3_insensitive() {
        let nol3 = configs::build(LlcKind::NoL3);
        let lp = configs::build(LlcKind::LpDramC72);
        let a = run_one(&nol3, NpbApp::CgC, 400_000);
        let b = run_one(&lp, NpbApp::CgC, 400_000);
        let gain = 1.0 - b.seconds / a.seconds;
        assert!(gain < 0.30, "cg.C should barely benefit, got {gain:.2}");
    }
}
