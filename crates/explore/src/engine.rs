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
//!    sweep, one winners-only [`ArraySweep::select`] per sweep group on
//!    the pooled evaluation memo of the job's device context
//!    ([`MemoPool`]), render. The engine keeps no answer memo: the
//!    grouping already gives every distinct spec exactly one select. Every finished job streams its points to the sidecar
//!    immediately, so an interrupt loses at most the points in flight.
//! 3. **Finalize** — the Pareto frontier is extracted ([`crate::pareto`]),
//!    `ok` records are annotated, and the final JSONL is written sorted by
//!    point index via a temp-file rename.
//!
//! Records contain no timing or host data and floats render
//! shortest-round-trip, so the final file is **byte-identical** for a given
//! grid regardless of thread count, completion order, or how many times the
//! run was interrupted and resumed.

use crate::cache::{CachedSolve, MemoPool};
use crate::error::ExploreError;
use crate::grid::{Expansion, Grid, GridPoint};
use crate::hash::{spec_fingerprint, FingerprintMap};
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
    /// Evaluation memos to solve with. `None` (the default) gives the run
    /// a private, cold pool. Passing a handle lets long-lived callers keep
    /// their circuit and tag designs warm across runs: the `cactid-serve`
    /// service passes its resident pool to every `grid` request. Records
    /// are the same bytes either way.
    pub memos: Option<&'a MemoPool>,
}

impl fmt::Debug for ExploreConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreConfig")
            .field("threads", &self.threads)
            .field("out", &self.out)
            .field("resume", &self.resume)
            .field("pareto", &self.pareto)
            .field("memos", &self.memos.map(|_| "MemoPool"))
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

/// The end of an index chain.
const END: usize = usize::MAX;

/// The first and last entry of an index chain; each entry links to the
/// next through a field of its own.
#[derive(Clone, Copy)]
struct Chain {
    first: usize,
    last: usize,
}

impl Chain {
    fn of(first: usize) -> Chain {
        Chain { first, last: first }
    }
}

/// The entries of the chain that starts at `first` (`END` for none),
/// following `next`.
fn chain(first: usize, next: impl Fn(usize) -> usize) -> impl Iterator<Item = usize> {
    std::iter::successors((first != END).then_some(first), move |&i| {
        Some(next(i)).filter(|&n| n != END)
    })
}

/// One pool job: the sweep groups of the grid that share one
/// [`MemorySpec::array_key`], so one data-array sweep answers them all.
struct ArrayJob {
    /// The shared bank geometry.
    key: MemorySpec,
    /// The sweep groups, in first-point order.
    groups: Chain,
    /// The previous job whose key has the same fingerprint.
    same_fp: usize,
}

/// The distinct specs of the grid that share one [`MemorySpec::sweep_key`],
/// so one solve answers them all.
struct SweepGroup {
    /// The shared sweep key.
    key: MemorySpec,
    /// The distinct specs, in first-point order.
    members: Chain,
    /// The next group of the job.
    next: usize,
    /// The previous group whose key has the same fingerprint.
    same_fp: usize,
}

/// One distinct spec of the grid: the points that carry it.
struct Member {
    /// The points, in index order; the first is the member's spec, the
    /// rest are duplicates of it, chained through [`Grouping::next_dup`].
    points: Chain,
    /// The next member of the group.
    next: usize,
    /// The previous member whose spec has the same fingerprint.
    same_fp: usize,
}

/// The valid points still to solve, grouped three times: by bank geometry
/// (one pool job per data-array sweep), within a job by sweep key (one
/// select per group), then within a group by exact spec (duplicates ride
/// along). Every level is a flat list whose entries chain to their
/// siblings by index, so grouping a grid allocates a few lists, not one
/// per entry.
struct Grouping {
    jobs: Vec<ArrayJob>,
    groups: Vec<SweepGroup>,
    members: Vec<Member>,
    /// Per point, the next point with the same spec.
    next_dup: Vec<usize>,
    /// Per level, the latest entry created under each key fingerprint;
    /// earlier ones chain through their `same_fp`, so a 64-bit collision
    /// is resolved by equality.
    job_of: FingerprintMap<usize>,
    group_of: FingerprintMap<usize>,
    member_of: FingerprintMap<usize>,
}

impl Grouping {
    fn new(points: usize) -> Grouping {
        Grouping {
            jobs: Vec::new(),
            groups: Vec::new(),
            members: Vec::new(),
            next_dup: vec![END; points],
            job_of: FingerprintMap::default(),
            group_of: FingerprintMap::default(),
            member_of: FingerprintMap::default(),
        }
    }

    /// Adds point `idx` of `points`, whose spec is `spec` with
    /// fingerprint `fp`. Points must come in index order, so every level
    /// keeps first-point order.
    fn add(&mut self, points: &[GridPoint], idx: usize, spec: &MemorySpec, fp: u64) {
        let head = |map: &FingerprintMap<usize>, fp| map.get(&fp).copied().unwrap_or(END);
        let members = &self.members;
        let same_spec = chain(head(&self.member_of, fp), |m| members[m].same_fp)
            .find(|&m| spec_of(&points[members[m].points.first]) == spec);
        if let Some(m) = same_spec {
            let dups = &mut self.members[m].points;
            self.next_dup[dups.last] = idx;
            dups.last = idx;
            return;
        }
        let m = self.members.len();
        self.members.push(Member {
            points: Chain::of(idx),
            next: END,
            same_fp: self.member_of.insert(fp, m).unwrap_or(END),
        });

        let key = spec.sweep_key();
        let key_fp = spec_fingerprint(&key);
        let groups = &self.groups;
        let same_key = chain(head(&self.group_of, key_fp), |g| groups[g].same_fp)
            .find(|&g| groups[g].key == key);
        if let Some(g) = same_key {
            let members = &mut self.groups[g].members;
            self.members[members.last].next = m;
            members.last = m;
            return;
        }
        let g = self.groups.len();
        self.groups.push(SweepGroup {
            key,
            members: Chain::of(m),
            next: END,
            same_fp: self.group_of.insert(key_fp, g).unwrap_or(END),
        });

        let array_key = spec.array_key();
        let array_fp = spec_fingerprint(&array_key);
        let jobs = &self.jobs;
        let same_bank = chain(head(&self.job_of, array_fp), |j| jobs[j].same_fp)
            .find(|&j| jobs[j].key == array_key);
        if let Some(j) = same_bank {
            let groups = &mut self.jobs[j].groups;
            self.groups[groups.last].next = g;
            groups.last = g;
            return;
        }
        let j = self.jobs.len();
        self.jobs.push(ArrayJob {
            key: array_key,
            groups: Chain::of(g),
            same_fp: self.job_of.insert(array_fp, j).unwrap_or(END),
        });
    }

    /// Drops the fingerprint maps once every point is added.
    fn seal(&mut self) {
        self.job_of = FingerprintMap::default();
        self.group_of = FingerprintMap::default();
        self.member_of = FingerprintMap::default();
    }

    fn groups<'a>(&'a self, job: &ArrayJob) -> impl Iterator<Item = &'a SweepGroup> + 'a {
        chain(job.groups.first, |g| self.groups[g].next).map(|g| &self.groups[g])
    }

    fn members<'a>(&'a self, group: &SweepGroup) -> impl Iterator<Item = &'a Member> + 'a {
        chain(group.members.first, |m| self.members[m].next).map(|m| &self.members[m])
    }

    fn points<'a>(&'a self, member: &Member) -> impl Iterator<Item = usize> + 'a {
        chain(member.points.first, |p| self.next_dup[p])
    }
}

/// The spec of a point the grouping holds.
fn spec_of(point: &GridPoint) -> &MemorySpec {
    let Ok(spec) = point.spec.as_ref() else {
        unreachable!("grouped specs are valid")
    };
    spec
}

/// One job member's answer and its records, rendered on the worker.
struct Rendered {
    entry: CachedSolve,
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
    // valid points (see [`Grouping`]). Jobs and groups follow first point
    // index, so their numbering is deterministic.
    let mut grouping = Grouping::new(n);
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
            (Ok(spec), Some(fp)) => grouping.add(points, idx, spec, fp),
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
    grouping.seal();
    stats.unique_specs = grouping.members.len();
    let jobs = &grouping.jobs;

    let private_memos = MemoPool::new();
    let memos = config.memos.unwrap_or(&private_memos);
    let tech_before = Technology::constructions();
    let mut io_error: Option<ExploreError> = None;
    pool::run_indexed(
        config.threads,
        jobs.len(),
        // The worker sweeps, selects and renders; the sink below only
        // places finished lines, so the lock it runs under stays short.
        |j| {
            let job = &jobs[j];
            let sweep = ArraySweep::new(&job.key);
            // Move each group's answers out of its buffer before rendering:
            // records are long-lived, and allocating them while that
            // buffer is still alive leaves its hole unfilled (about 6 %
            // more peak RSS on a 28k-point grid, measured on a 2-CPU Linux
            // host). The data-array sweep is freed first for the same
            // reason.
            let mut solved: Vec<(Vec<Rendered>, SolveStats)> = memos.with(&job.key, |memo| {
                grouping
                    .groups(job)
                    .map(|group| {
                        let specs: Vec<&MemorySpec> = grouping
                            .members(group)
                            .map(|m| spec_of(&points[m.points.first]))
                            .collect();
                        let winners = sweep.select(&specs, memo);
                        let stats = winners.stats;
                        let rendered = winners
                            .results
                            .into_iter()
                            .map(|result| Rendered {
                                entry: CachedSolve { result, stats },
                                lines: Vec::new(),
                            })
                            .collect();
                        (rendered, stats)
                    })
                    .collect()
            });
            let array_swept = sweep.has_run();
            drop(sweep);
            for ((rendered, _), group) in solved.iter_mut().zip(grouping.groups(job)) {
                for (r, member) in rendered.iter_mut().zip(grouping.members(group)) {
                    r.lines = grouping
                        .points(member)
                        .map(|idx| record::render_solved(&points[idx], &r.entry))
                        .collect();
                }
            }
            (solved, array_swept)
        },
        |j, (solved, array_swept)| {
            if array_swept {
                stats.array_sweeps += 1;
            }
            for (group, (rendered, sweep)) in grouping.groups(&jobs[j]).zip(solved) {
                stats.sweeps += 1;
                stats.orgs_enumerated += sweep.orgs_enumerated;
                stats.bound_pruned += sweep.bound_pruned;
                for (member, r) in grouping.members(group).zip(rendered) {
                    let status = record::solved_status(&r.entry);
                    let m = r.entry.result.as_ref().ok().map(record::solution_metrics);
                    stats.solved += 1;
                    stats.memoized += r.lines.len() - 1;
                    for (idx, line) in grouping.points(member).zip(r.lines) {
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
        let sweeps0 = before.counter("explore.engine.sweeps").unwrap_or(0);
        let report = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(report.stats.points, 4);
        // Deltas, not absolutes: other tests share the process registry.
        let after = cactid_obs::snapshot();
        assert!(after.counter("explore.engine.points").unwrap() >= points0 + 4);
        assert!(after.counter("explore.pool.claims").unwrap() >= claims0 + 4);
        assert!(after.counter("explore.engine.sweeps").unwrap() >= sweeps0 + 4);
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
    fn injected_memo_pool_is_shared_across_runs_with_identical_output() {
        let pool = MemoPool::new();
        let config = ExploreConfig {
            threads: 1,
            memos: Some(&pool),
            ..ExploreConfig::default()
        };
        let cold = explore(&grid(), &config).unwrap();
        assert_eq!(cold.stats.solved, 4);
        // The grid's points share one device context, so one memo holds
        // every design of the run.
        let spec = grid().expand().unwrap().points[0].spec.clone().unwrap();
        let designs = pool.with(&spec, |memo| memo.designs());
        assert!(designs > 0, "the run handed its memo back to the pool");
        // Second run over the same grid: every point solves again, through
        // the warm memo, which designs nothing new — and the bytes don't
        // move.
        let warm = explore(&grid(), &config).unwrap();
        assert_eq!(warm.stats.solved, 4);
        assert_eq!(pool.with(&spec, |memo| memo.designs()), designs);
        assert_eq!(warm.lines, cold.lines);
        // A default-config run gets a private pool and leaves this one be.
        let private = explore(&grid(), &ExploreConfig::default()).unwrap();
        assert_eq!(private.stats.solved, 4);
        assert_eq!(private.lines, cold.lines);
        assert_eq!(pool.with(&spec, |memo| memo.designs()), designs);
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
