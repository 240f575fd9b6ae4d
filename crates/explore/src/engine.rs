//! The exploration engine: grid in, Pareto-annotated JSONL out.
//!
//! A run proceeds in three stages:
//!
//! 1. **Expand** — the grid becomes an indexed point list plus a definition
//!    fingerprint ([`crate::grid`]). [`explore`] runs this stage and then
//!    hands the [`Expansion`] to [`explore_expansion`], which runs the
//!    other two; a caller that answers some points itself (the
//!    `cactid-serve` store) expands the grid, keeps its answers, and passes
//!    the rest to [`explore_expansion`] renumbered.
//! 2. **Solve** — completed points are restored from the checkpoint
//!    sidecar ([`crate::resume`]); the remaining valid points are grouped
//!    three times: by bank geometry ([`cactid_core::MemorySpec::array_key`])
//!    so specs that differ only in capacity and bank count share one
//!    data-array sweep, within that by sweep key
//!    ([`cactid_core::MemorySpec::sweep_key`]) so specs that differ only in
//!    select-only knobs share one solve, and within a sweep group by exact
//!    spec so duplicates cost nothing. The work-claiming pool
//!    ([`crate::pool`]) drains one job per bank geometry: one data-array
//!    sweep, one solve per sweep group, one select per spec, render. Every
//!    finished job streams its points to the sidecar immediately, so an
//!    interrupt loses at most the points in flight.
//! 3. **Finalize** — the Pareto frontier is extracted ([`crate::pareto`]),
//!    `ok` records are annotated, and the final JSONL is written sorted by
//!    point index via a temp-file rename.
//!
//! Records contain no timing or host data and floats render
//! shortest-round-trip, so the final file is **byte-identical** for a given
//! grid regardless of thread count, completion order, or how many times the
//! run was interrupted and resumed.

use crate::cache::{CachedSolve, SolveCache};
use crate::error::ExploreError;
use crate::grid::{Expansion, Grid};
use crate::hash::spec_fingerprint;
use crate::log::Log;
use crate::pareto::{frontier, ParetoMetrics, ParetoPoint};
use crate::pool;
use crate::record;
pub use crate::record::PointStatus;
use crate::resume;
use crate::stats::EngineStats;
use cactid_core::{ArraySweep, MemorySpec, SolveStats};
use cactid_tech::Technology;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// How to run one exploration.
#[derive(Clone, Copy, Default)]
pub struct ExploreConfig<'a> {
    /// Worker threads; `0` means the machine's available parallelism.
    pub threads: usize,
    /// Output JSONL path. `None` runs fully in memory — no checkpoint, no
    /// resume.
    pub out: Option<&'a Path>,
    /// Restore completed points from the checkpoint sidecar of a previous
    /// run against the same grid.
    pub resume: bool,
    /// Extract the Pareto frontier and annotate `ok` records.
    pub pareto: bool,
    /// Solve memo to populate and consult. `None` (the default) gives the
    /// run a fresh private cache. Passing a handle lets long-lived callers
    /// share warm results across runs: the `cactid-serve` service passes
    /// its resident memo to every `grid` request, so a grid and a later
    /// `solve` of one of its points cost one solve between them. Records
    /// are the same bytes either way.
    pub cache: Option<&'a SolveCache>,
}

impl fmt::Debug for ExploreConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreConfig")
            .field("threads", &self.threads)
            .field("out", &self.out)
            .field("resume", &self.resume)
            .field("pareto", &self.pareto)
            .field("cache", &self.cache.map(|_| "SolveCache"))
            .finish()
    }
}

/// The result of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// One rendered JSONL record per grid point, in index order,
    /// Pareto-annotated when requested — exactly the final file contents.
    pub lines: Vec<String>,
    /// The Pareto frontier (empty unless requested).
    pub frontier: Vec<ParetoPoint>,
    /// Stage counters and timing.
    pub stats: EngineStats,
}

/// One pool job: the sweep groups of the grid that share one
/// [`MemorySpec::array_key`], so one data-array sweep answers them all.
struct ArrayJob {
    /// The shared bank geometry.
    key: MemorySpec,
    /// The sweep groups, in first-point order.
    groups: Vec<SweepGroup>,
}

/// The distinct specs of the grid that share one [`MemorySpec::sweep_key`],
/// so one solve answers them all.
struct SweepGroup {
    /// The shared sweep key.
    key: MemorySpec,
    /// Point indices per distinct spec; each member's first point carries
    /// the spec, the rest are duplicates of it.
    members: Vec<Vec<usize>>,
}

/// One job member's answer and its records, rendered on the worker.
struct Rendered {
    entry: CachedSolve,
    was_cached: bool,
    /// One record per point of the member, in member order.
    lines: Vec<String>,
}

/// Runs one exploration: expands `grid`, then runs
/// [`explore_expansion`] on it. See the module docs for the staging and
/// the determinism contract.
///
/// # Errors
///
/// [`ExploreError::EmptyAxis`] / [`ExploreError::TooManyPoints`] from
/// expansion, and the errors of [`explore_expansion`].
pub fn explore(grid: &Grid, config: &ExploreConfig<'_>) -> Result<ExploreReport, ExploreError> {
    // ---- Stage 1: expand ----
    let t0 = Instant::now();
    let expansion = {
        let _expand_span = cactid_obs::span("explore.expand");
        grid.expand()?
    };
    let expand = t0.elapsed();
    let mut report = explore_expansion(&expansion, config)?;
    report.stats.expand = expand;
    Ok(report)
}

/// Runs the solve and finalize stages on an expanded point list. Its
/// points must be numbered `0..n` in order (`points[i].idx == i`), as
/// [`Grid::expand`] numbers them; a caller that solves part of a grid
/// renumbers that part first. The report's `stats.expand` is zero.
///
/// # Panics
///
/// If the points are not numbered `0..n` in order.
///
/// # Errors
///
/// [`ExploreError::Checkpoint`] when resuming against a changed grid, and
/// [`ExploreError::Io`] on filesystem failures. Per-point solve failures
/// are *not* errors — they become `infeasible`/`invalid` records.
pub fn explore_expansion(
    expansion: &Expansion,
    config: &ExploreConfig<'_>,
) -> Result<ExploreReport, ExploreError> {
    let points = &expansion.points;
    let n = points.len();
    assert!(
        points.iter().enumerate().all(|(i, p)| p.idx == i),
        "expansion points must be numbered 0..n"
    );
    let mut stats = EngineStats {
        points: n,
        ..EngineStats::default()
    };
    cactid_obs::counter!("explore.engine.points").add(n as u64);

    // ---- Stage 2: solve ----
    let t1 = Instant::now();
    let solve_span = cactid_obs::span("explore.solve");
    let (mut ckpt, mut resumed) = match config.out {
        Some(out) => {
            let (log, resumed) = resume::open(out, expansion.fingerprint, n, config.resume)?;
            (Some(log), resumed)
        }
        None => (None, HashMap::new()),
    };

    let mut lines: Vec<Option<String>> = vec![None; n];
    let mut statuses: Vec<Option<PointStatus>> = vec![None; n];
    let mut metrics: Vec<Option<ParetoMetrics>> = vec![None; n];

    // Place resumed points, render invalid ones, and group the remaining
    // valid points three times: by bank geometry (one pool job per
    // data-array sweep), within a job by sweep key (one solve per group),
    // then within a group by exact spec (duplicates ride along and cost
    // nothing). Every level resolves 64-bit collisions by equality, like
    // the solve memo does. Jobs and groups follow first point index, so
    // their numbering is deterministic.
    let spec_at = |idx: usize| -> &MemorySpec {
        let Ok(spec) = points[idx].spec.as_ref() else {
            unreachable!("job specs are valid")
        };
        spec
    };
    let mut jobs: Vec<ArrayJob> = Vec::new();
    let mut job_of: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut group_of: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    let mut member_of: HashMap<u64, Vec<(usize, usize, usize)>> = HashMap::new();
    for point in points {
        let idx = point.idx;
        if let Some(r) = resumed.remove(&idx) {
            // A restored invalid point counts under `invalid`, not
            // `resumed`, so the accounting partition stays disjoint.
            if r.status == PointStatus::Invalid {
                stats.invalid += 1;
            } else {
                stats.resumed += 1;
            }
            lines[idx] = Some(r.line);
            statuses[idx] = Some(r.status);
            metrics[idx] = r.metrics;
            continue;
        }
        match (&point.spec, point.fingerprint()) {
            (Ok(spec), Some(fp)) => {
                let members = member_of.entry(fp).or_default();
                if let Some(&(j, g, m)) = members
                    .iter()
                    .find(|&&(j, g, m)| spec_at(jobs[j].groups[g].members[m][0]) == spec)
                {
                    jobs[j].groups[g].members[m].push(idx);
                    continue;
                }
                let key = spec.sweep_key();
                let groups = group_of.entry(spec_fingerprint(&key)).or_default();
                let found = groups
                    .iter()
                    .copied()
                    .find(|&(j, g)| jobs[j].groups[g].key == key);
                let (j, g) = found.unwrap_or_else(|| {
                    let array_key = spec.array_key();
                    let same_bank = job_of.entry(spec_fingerprint(&array_key)).or_default();
                    let j = match same_bank
                        .iter()
                        .copied()
                        .find(|&j| jobs[j].key == array_key)
                    {
                        Some(j) => j,
                        None => {
                            same_bank.push(jobs.len());
                            jobs.push(ArrayJob {
                                key: array_key,
                                groups: Vec::new(),
                            });
                            jobs.len() - 1
                        }
                    };
                    jobs[j].groups.push(SweepGroup {
                        key,
                        members: Vec::new(),
                    });
                    groups.push((j, jobs[j].groups.len() - 1));
                    (j, jobs[j].groups.len() - 1)
                });
                let group = &mut jobs[j].groups[g];
                members.push((j, g, group.members.len()));
                group.members.push(vec![idx]);
            }
            _ => {
                let err = point.spec.as_ref().expect_err("no fingerprint means Err");
                let line = record::render_invalid(point, err);
                if let Some(log) = ckpt.as_mut() {
                    resume::push(log, idx, &line, PointStatus::Invalid, None);
                }
                lines[idx] = Some(line);
                statuses[idx] = Some(PointStatus::Invalid);
                stats.invalid += 1;
            }
        }
    }
    if let Some(log) = ckpt.as_mut() {
        log.flush().map_err(|e| ExploreError::Io(e.to_string()))?;
    }
    drop(member_of);
    drop(group_of);
    drop(job_of);
    stats.unique_specs = jobs
        .iter()
        .flat_map(|job| &job.groups)
        .map(|group| group.members.len())
        .sum();

    // Injected handle or a run-private memo: the run-private default keeps
    // the historical behavior (and the determinism tests' bytes) intact.
    let private_cache;
    let cache = match config.cache {
        Some(shared) => shared,
        None => {
            private_cache = SolveCache::new();
            &private_cache
        }
    };
    let tech_before = Technology::constructions();
    let mut io_error: Option<ExploreError> = None;
    pool::run_indexed(
        config.threads,
        jobs.len(),
        // The worker sweeps, selects and renders; the sink below only
        // places finished lines, so the lock it runs under stays short.
        |j| {
            let groups = &jobs[j].groups;
            let sweep = ArraySweep::new(&jobs[j].key);
            // Move each group's answers out of its buffer before rendering:
            // records are long-lived, and allocating them while that
            // buffer is still alive leaves its hole unfilled (about 6 %
            // more peak RSS on a 28k-point grid, measured on a 2-CPU Linux
            // host). The data-array sweep is freed first for the same
            // reason.
            let mut solved: Vec<(Vec<Rendered>, Option<SolveStats>)> = groups
                .iter()
                .map(|group| {
                    let specs: Vec<&MemorySpec> =
                        group.members.iter().map(|m| spec_at(m[0])).collect();
                    let solved = cache.solve_group(&specs, &sweep);
                    let rendered = solved
                        .members
                        .into_iter()
                        .map(|(entry, was_cached)| Rendered {
                            entry,
                            was_cached,
                            lines: Vec::new(),
                        })
                        .collect();
                    (rendered, solved.sweep)
                })
                .collect();
            let array_swept = sweep.has_run();
            drop(sweep);
            for ((rendered, _), group) in solved.iter_mut().zip(groups) {
                for (r, member) in rendered.iter_mut().zip(&group.members) {
                    r.lines = member
                        .iter()
                        .map(|&idx| record::render_solved(&points[idx], &r.entry))
                        .collect();
                }
            }
            (solved, array_swept)
        },
        |j, (solved, array_swept)| {
            if array_swept {
                stats.array_sweeps += 1;
            }
            for (group, (rendered, sweep)) in jobs[j].groups.iter().zip(solved) {
                if let Some(sweep) = sweep {
                    stats.sweeps += 1;
                    stats.orgs_enumerated += sweep.orgs_enumerated;
                    stats.bound_pruned += sweep.bound_pruned;
                }
                for (member, r) in group.members.iter().zip(rendered) {
                    let status = record::solved_status(&r.entry);
                    let m = r.entry.result.as_ref().ok().map(record::solution_metrics);
                    if r.was_cached {
                        stats.memoized += member.len();
                    } else {
                        stats.solved += 1;
                        stats.memoized += member.len() - 1;
                    }
                    for (&idx, line) in member.iter().zip(r.lines) {
                        if let Some(log) = ckpt.as_mut() {
                            resume::push(log, idx, &line, status, m.as_ref());
                        }
                        lines[idx] = Some(line);
                        statuses[idx] = Some(status);
                        metrics[idx] = m;
                    }
                }
            }
            // One write per finished job, not per point: per point would
            // be tens of thousands of system calls per grid, all under the
            // pool's sink lock. A kill mid-write leaves at most a torn last
            // line, and resume re-solves that point.
            if io_error.is_none() {
                if let Some(Err(e)) = ckpt.as_mut().map(Log::flush) {
                    io_error = Some(ExploreError::Io(e.to_string()));
                }
            }
        },
    );
    cactid_obs::counter!("explore.engine.sweeps").add(stats.sweeps as u64);
    if let Some(e) = io_error {
        return Err(e);
    }
    stats.tech_constructions = Technology::constructions() - tech_before;
    stats.solve = t1.elapsed();
    drop(solve_span);

    // ---- Stage 3: finalize ----
    let t2 = Instant::now();
    let _finalize_span = cactid_obs::span("explore.finalize");
    for status in statuses.iter().flatten() {
        match status {
            PointStatus::Ok => stats.ok += 1,
            PointStatus::Infeasible => stats.infeasible += 1,
            // Already counted at placement, whether fresh or resumed.
            PointStatus::Invalid => {}
        }
    }

    let mut front = Vec::new();
    if config.pareto {
        let pts: Vec<(usize, ParetoMetrics)> = metrics
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|m| (i, m)))
            .collect();
        stats.non_finite = pts.iter().filter(|(_, m)| !m.is_finite()).count();
        cactid_obs::counter!("explore.engine.non_finite").add(stats.non_finite as u64);
        front = frontier(&pts);
        let dominates: HashMap<usize, usize> = front.iter().map(|p| (p.idx, p.dominates)).collect();
        for (i, line) in lines.iter_mut().enumerate() {
            if statuses[i] == Some(PointStatus::Ok) {
                let Some(line) = line.as_mut() else {
                    unreachable!("ok points are rendered")
                };
                record::annotate_pareto(line, dominates.get(&i).copied());
            }
        }
    }
    stats.pareto_points = front.len();

    let lines: Vec<String> = lines
        .into_iter()
        .map(|l| l.unwrap_or_else(|| unreachable!("every point is resolved")))
        .collect();
    if let Some(out) = config.out {
        // Flushed; keep it on disk so reruns resume free.
        drop(ckpt);
        // Stream the lines out rather than joining them first: a joined
        // copy would double the records' memory at the run's peak.
        let tmp = out.with_extension("jsonl.tmp");
        let io = |e: std::io::Error| ExploreError::Io(format!("{}: {e}", tmp.display()));
        let mut file = BufWriter::new(File::create(&tmp).map_err(io)?);
        for l in &lines {
            file.write_all(l.as_bytes()).map_err(io)?;
            file.write_all(b"\n").map_err(io)?;
        }
        file.into_inner().map_err(|e| io(e.into_error()))?;
        std::fs::rename(&tmp, out)
            .map_err(|e| ExploreError::Io(format!("{}: {e}", out.display())))?;
    }
    stats.finalize = t2.elapsed();

    debug_assert!(stats.balanced(), "point accounting is off: {stats:?}");
    Ok(ExploreReport {
        lines,
        frontier: front,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::OptVariant;

    fn grid() -> Grid {
        let mut g = Grid::new();
        g.capacities = vec![64 << 10, 128 << 10];
        g.associativities = vec![4, 8];
        g
    }

    #[test]
    fn in_memory_run_resolves_every_point() {
        let report = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(report.lines.len(), 4);
        assert!(report.stats.balanced());
        assert_eq!(report.stats.solved, 4);
        assert_eq!(report.stats.ok, 4);
        assert!(report.stats.orgs_enumerated > 0);
        for (i, line) in report.lines.iter().enumerate() {
            assert_eq!(record::line_idx(line), Some(i));
        }
    }

    #[test]
    fn duplicate_specs_are_memoized_not_resolved() {
        let mut g = grid();
        // Same knobs under a second label: same spec fingerprints.
        g.opts.push(OptVariant {
            label: "duplicate".to_string(),
            ..OptVariant::default_variant()
        });
        let report = explore(&g, &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.points, 8);
        assert_eq!(report.stats.unique_specs, 4);
        assert_eq!(report.stats.solved, 4);
        assert_eq!(report.stats.memoized, 4);
        // The duplicate records differ only in index and opt label.
        assert_eq!(
            report.lines[0]
                .replace("{\"idx\":0,", "{\"idx\":1,")
                .replace("\"opt\":\"default\"", "\"opt\":\"duplicate\""),
            report.lines[1]
        );
    }

    #[test]
    fn pareto_annotations_mark_a_nonempty_frontier() {
        let config = ExploreConfig {
            pareto: true,
            ..ExploreConfig::default()
        };
        let report = explore(&grid(), &config).unwrap();
        assert!(!report.frontier.is_empty());
        assert_eq!(report.stats.pareto_points, report.frontier.len());
        let members = report
            .lines
            .iter()
            .filter(|l| l.contains("\"pareto\":{\"frontier\":true"))
            .count();
        assert_eq!(members, report.frontier.len());
        assert!(report
            .lines
            .iter()
            .all(|l| l.contains("\"pareto\":{\"frontier\"")));
    }

    #[test]
    fn engine_publishes_obs_metrics() {
        let before = cactid_obs::snapshot();
        let points0 = before.counter("explore.engine.points").unwrap_or(0);
        let claims0 = before.counter("explore.pool.claims").unwrap_or(0);
        let misses0 = before.counter("explore.cache.misses").unwrap_or(0);
        let report = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.points, 4);
        // Deltas, not absolutes: other tests share the process registry.
        let after = cactid_obs::snapshot();
        assert!(after.counter("explore.engine.points").unwrap() >= points0 + 4);
        assert!(after.counter("explore.pool.claims").unwrap() >= claims0 + 4);
        assert!(after.counter("explore.cache.misses").unwrap() >= misses0 + 4);
        for span in ["expand", "solve", "finalize"] {
            let h = after.histogram(&format!("span.explore.{span}.ns"));
            assert!(h.is_some_and(|h| h.count >= 1), "missing stage span {span}");
        }
        assert!(after.histogram("explore.pool.work_ns").unwrap().count >= 4);
        assert!(
            after
                .histogram("explore.pool.claims_per_worker")
                .unwrap()
                .count
                >= 1
        );
    }

    #[test]
    fn injected_cache_is_shared_across_runs_with_identical_output() {
        let cache = SolveCache::new();
        let config = ExploreConfig {
            cache: Some(&cache),
            ..ExploreConfig::default()
        };
        let cold = explore(&grid(), &config).unwrap();
        assert_eq!(cold.stats.solved, 4);
        assert_eq!(cache.len(), 4);
        // Second run over the same grid: every point served from the
        // injected memo, not re-solved — and the bytes don't move.
        let warm = explore(&grid(), &config).unwrap();
        assert_eq!(warm.stats.solved, 0);
        assert_eq!(warm.stats.memoized, 4);
        assert_eq!(warm.lines, cold.lines);
        // A default-config run still gets a private cache: it re-solves.
        let private = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(private.stats.solved, 4);
        assert_eq!(private.lines, cold.lines);
    }

    #[test]
    fn invalid_points_are_reported_not_fatal() {
        let mut g = grid();
        g.capacities = vec![48 << 10, 64 << 10]; // 48 KB: invalid geometry
        let report = explore(&g, &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.invalid, 2);
        assert_eq!(report.stats.ok, 2);
        assert!(report.lines[0].contains("\"status\":\"invalid\""));
        assert!(report.stats.balanced());
    }
}
