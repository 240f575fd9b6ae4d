//! Solution-space sweep and the staged optimization of paper §2.4:
//! max-area filter → max-access-time filter → weighted objective.
//!
//! The sweep itself is a staged pipeline (DESIGN.md §14): organizations
//! stream out of [`org::enumerate_lazy`], a closed-form pre-screen
//! ([`array::prescreen_explain`]) rejects electrically doomed candidates
//! before the full circuit models run (counted per rule), and per-spec
//! invariants (technology parameters,
//! the tag design) are hoisted out of the per-candidate loop. The data-array
//! half of the sweep reads only one bank's geometry, so an [`ArraySweep`]
//! runs it once for every spec that shares [`MemorySpec::array_key`]. The
//! §2.4 ranking reads six numbers per candidate, so a select ranks compact
//! rows and assembles a [`Solution`] for its winner alone.

use crate::array::{self, ArrayInput, ArrayResult, EvalMemo};
use crate::error::CactiError;
use crate::lint::{Diagnostic, Severity, SolutionLinter};
use crate::main_memory::{self, MainMemoryResult};
use crate::org::{self, OrgParams};
use crate::solution::{Metrics, Solution};
use crate::spec::{MemoryKind, MemorySpec, OptimizationOptions};
use crate::tag::{self, TagResult};
use cactid_tech::{CellParams, DeviceParams, Technology};
use std::cell::OnceCell;
use std::sync::Arc;

/// Everything about a solve that is invariant across candidates, computed
/// once per spec: the interned technology, the cell/peripheral parameter
/// derivations (interpolated nodes re-blend anchor tables on every
/// `Technology::cell` call, which dominated the per-candidate cost on
/// small sweeps), and the single tag design shared by `Arc` with the memo
/// that designed it.
struct SpecCtx<'a> {
    spec: &'a MemorySpec,
    tech: &'static Technology,
    cell: CellParams,
    periph: DeviceParams,
    output_bits: u64,
    sense_fraction: f64,
    tag: Option<Arc<TagResult>>,
}

impl<'a> SpecCtx<'a> {
    /// The data-array context of `spec`: everything but the tag design.
    fn array(spec: &'a MemorySpec) -> Self {
        let tech = Technology::cached(spec.node);
        Self {
            spec,
            tech,
            cell: tech.cell(spec.cell_tech),
            periph: tech.peripheral_device(spec.cell_tech),
            output_bits: spec.output_bits(),
            sense_fraction: spec.sense_fraction(),
            tag: None,
        }
    }

    /// [`SpecCtx::array`] plus the tag design of a cache — the only
    /// per-spec stage that can fail before the organization sweep.
    fn new(spec: &'a MemorySpec, memo: &mut EvalMemo) -> Result<Self, CactiError> {
        let mut ctx = Self::array(spec);
        if spec.kind.is_cache() {
            ctx.tag = Some(tag::design_tag(ctx.tech, spec, memo)?);
        }
        Ok(ctx)
    }

    fn build_input(&self, org: &OrgParams) -> ArrayInput {
        ArrayInput {
            rows: org.rows(self.spec),
            cols: org.cols(self.spec),
            ndwl: org.ndwl,
            ndbl: org.ndbl,
            deg_bl_mux: org.deg_bl_mux,
            deg_sa_mux: org.deg_sa_mux,
            output_bits: self.output_bits,
            address_bits: self.spec.address_bits,
            cell: self.cell,
            periph: self.periph,
            repeater_relax: self.spec.opt.repeater_relax,
            sleep_transistors: self.spec.opt.sleep_transistors,
            sense_fraction: self.sense_fraction,
        }
    }

    /// The chip-level result of a main-memory candidate; `None` for caches
    /// and RAM.
    fn main_memory(
        &self,
        org: &OrgParams,
        data: &ArrayResult,
    ) -> Result<Option<MainMemoryResult>, CactiError> {
        match self.spec.kind {
            MemoryKind::MainMemory { .. } => {
                main_memory::assemble(self.tech, self.spec, &self.build_input(org), data).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The [`Solution`] of one surviving candidate.
    fn solution(&self, (org, data): &(OrgParams, ArrayResult)) -> Result<Solution, CactiError> {
        let mm = self.main_memory(org, data)?;
        Ok(Solution::assemble(
            self.spec,
            *org,
            &self.cell,
            data.clone(),
            self.tag.clone(),
            mm,
        ))
    }
}

/// Which pre-screen the staged pipeline runs before the full models.
#[derive(Debug, Clone, Copy)]
enum Screen {
    /// No pre-screen and no memo: the debug-only reference path.
    Off,
    /// The exact closed-form screen ([`array::prescreen_explain`]), run
    /// memoized as the first step of [`array::evaluate_incremental`].
    Exact,
}

/// Counters describing the work one [`solve_with_stats`] call performed.
///
/// Batch drivers (the `cactid-explore` engine) aggregate these across a
/// sweep to report how much of the organization space was enumerated, how
/// much the cheap pre-screen rejected before the circuit models ran, how
/// much survived the electrical models, and how much the lint engine
/// rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Structurally feasible organizations enumerated for the spec.
    pub orgs_enumerated: usize,
    /// Candidates rejected by the closed-form pre-screen bounds before the
    /// full electrical models ran. Zero on the unpruned reference path.
    pub bound_pruned: usize,
    /// Candidates rejected by the full electrical models. With the
    /// pre-screen on this is zero (the screen is exact); the reference
    /// path reports here what the staged path reports as `bound_pruned`.
    pub electrical_pruned: usize,
    /// Organizations that survived the electrical models and (if a linter
    /// ran) the `Error`-severity rules — the size of the solution set.
    pub feasible: usize,
    /// Candidates dropped because an `Error`-severity diagnostic fired.
    pub lint_rejected: usize,
}

/// A solution set together with the [`SolveStats`] of producing it.
///
/// The stats are populated even when `result` is an error, so sweep
/// engines can account for exhausted or lint-rejected points.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The full feasible solution set, or why there is none.
    pub result: Result<Vec<Solution>, CactiError>,
    /// Work counters for this solve.
    pub stats: SolveStats,
}

/// One solve's counters: its [`SolveStats`], the number of [`Solution`]s
/// it built, and the memo's lifetime counters `(reuse hits, designs,
/// design hits)` when it began, so a memo that serves many solves counts
/// each hit once.
#[derive(Debug)]
struct Tally {
    stats: SolveStats,
    assembled: u64,
    memo_before: (u64, u64, u64),
}

impl Tally {
    fn start(memo: &EvalMemo) -> Tally {
        Tally {
            stats: SolveStats::default(),
            assembled: 0,
            memo_before: (memo.reuse_hits(), memo.designs(), memo.design_hits()),
        }
    }

    /// Publishes one solve's worth of batched counters to the
    /// process-global observability registry. The hot loop accumulates
    /// into the tally and the memo's lifetime counters; this is the single
    /// flush per solve. `swept_empty` marks a sweep that finished with
    /// nothing feasible (early fatal errors do not count as an exhausted
    /// sweep).
    fn flush(&self, swept_empty: bool, memo: &EvalMemo) {
        let (stats, before) = (&self.stats, self.memo_before);
        cactid_obs::counter!("core.solve.calls").inc();
        cactid_obs::counter!("core.solve.orgs_enumerated").add(stats.orgs_enumerated as u64);
        cactid_obs::counter!("core.solve.bound_pruned").add(stats.bound_pruned as u64);
        cactid_obs::counter!("core.solve.electrical_pruned").add(stats.electrical_pruned as u64);
        cactid_obs::counter!("core.solve.lint_rejected").add(stats.lint_rejected as u64);
        cactid_obs::counter!("core.solve.feasible").add(stats.feasible as u64);
        cactid_obs::counter!("core.solve.assembled").add(self.assembled);
        if swept_empty {
            cactid_obs::counter!("core.solve.no_feasible").inc();
        }
        cactid_obs::counter!("core.solve.incremental_reuse").add(memo.reuse_hits() - before.0);
        cactid_obs::counter!("core.memo.designs").add(memo.designs() - before.1);
        cactid_obs::counter!("core.memo.design_hits").add(memo.design_hits() - before.2);
    }
}

/// One candidate as §2.4 ranks it: the six metrics the staged
/// optimization reads, in SI units.
#[derive(Debug, Clone, Copy)]
struct Row {
    area: f64,
    access_time: f64,
    read_energy: f64,
    /// Leakage plus refresh power.
    standby: f64,
    random_cycle: f64,
    interleave_cycle: f64,
}

impl Row {
    // The ranking is the designated raw-f64 escape hatch: the normalized
    // weighted objective mixes energy, power and time ratios into one
    // dimensionless score, so the quantities drop to `.value()` here and
    // nowhere else in the solver.
    fn of(m: &Metrics) -> Row {
        Row {
            area: m.area.value(),
            access_time: m.access_time.value(),
            read_energy: m.read_energy.value(),
            standby: (m.leakage_power + m.refresh_power).value(),
            random_cycle: m.random_cycle.value(),
            interleave_cycle: m.interleave_cycle.value(),
        }
    }
}

/// The staged optimization of §2.4 over ranking rows: the index of the
/// winner, or `None` when the filters leave nothing (or `rows` is empty).
/// Every select, full set or winners only, runs through here and counts
/// the `core.select.*` counters.
fn rank(opt: &OptimizationOptions, rows: &[Row]) -> Option<usize> {
    cactid_obs::counter!("core.select.calls").inc();
    if rows.is_empty() {
        return None;
    }
    // Each minimum folds `f64::min(acc, x)` over its stage in row order,
    // from +inf; one pass per stage computes them all.
    let best_area = rows.iter().map(|r| r.area).fold(f64::INFINITY, f64::min);
    let area_cap = best_area * (1.0 + opt.max_area_overhead);
    let (mut stage1, mut best_t) = (0, f64::INFINITY);
    for r in rows.iter().filter(|r| r.area <= area_cap) {
        stage1 += 1;
        best_t = f64::min(best_t, r.access_time);
    }
    let t_cap = best_t * (1.0 + opt.max_access_time_overhead);
    let kept = |r: &Row| r.area <= area_cap && r.access_time <= t_cap;
    let mut stage2 = 0;
    let [mut e_min, mut l_min, mut c_min, mut i_min] = [f64::INFINITY; 4];
    for r in rows.iter().filter(|r| kept(r)) {
        stage2 += 1;
        e_min = f64::min(e_min, r.read_energy.max(1e-30));
        l_min = f64::min(l_min, r.standby.max(1e-30));
        c_min = f64::min(c_min, r.random_cycle.max(1e-30));
        i_min = f64::min(i_min, r.interleave_cycle.max(1e-30));
    }
    cactid_obs::counter!("core.select.area_pruned").add((rows.len() - stage1) as u64);
    cactid_obs::counter!("core.select.time_pruned").add((stage1 - stage2) as u64);

    let objective = |r: &Row| {
        opt.weight_dynamic * r.read_energy.max(1e-30) / e_min
            + opt.weight_leakage * r.standby.max(1e-30) / l_min
            + opt.weight_cycle * r.random_cycle.max(1e-30) / c_min
            + opt.weight_interleave * r.interleave_cycle.max(1e-30) / i_min
    };
    // `min_by` keeps the first of equal minima.
    let winner = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| kept(r))
        .map(|(i, r)| (i, objective(r)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    if winner.is_none() {
        cactid_obs::counter!("core.select.no_feasible").inc();
    }
    winner
}

/// The candidates of one spec that survived the data-array models, the
/// chip assembly and the lint stage, as ranking rows.
struct Admitted<'a> {
    ctx: SpecCtx<'a>,
    survivors: &'a [(OrgParams, ArrayResult)],
    /// One row per admitted candidate, in sweep order.
    rows: Vec<Row>,
    /// Per row: its index in `survivors` and the warnings the linter
    /// attached to it.
    origin: Vec<(usize, Vec<Diagnostic>)>,
}

impl Admitted<'_> {
    /// Assembles the [`Solution`] of row `k`, warnings included.
    fn solution(&self, k: usize, tally: &mut Tally) -> Result<Solution, CactiError> {
        let (i, warnings) = &self.origin[k];
        let mut sol = self.ctx.solution(&self.survivors[*i])?;
        tally.assembled += 1;
        sol.warnings.clone_from(warnings);
        Ok(sol)
    }
}

/// The §2.4 winners of one [`ArraySweep::select`] call.
#[derive(Debug, Clone)]
pub struct Winners {
    /// One winner (or why there is none) per spec, in spec order.
    pub results: Vec<Result<Solution, CactiError>>,
    /// Counters of the solve behind them: exactly what
    /// [`solve_with_stats`] reports for the first spec.
    pub stats: SolveStats,
}

impl Winners {
    /// The first spec's winner: the whole answer of a one-spec select.
    ///
    /// # Errors
    ///
    /// The first spec's solve or select failure
    /// ([`CactiError::NoFeasibleSolution`] when there were no specs).
    pub fn into_first(self) -> Result<Solution, CactiError> {
        self.results
            .into_iter()
            .next()
            .unwrap_or(Err(CactiError::NoFeasibleSolution))
    }
}

/// What the bank-level half of a solve found.
#[derive(Debug)]
struct Swept {
    orgs_enumerated: usize,
    /// The screen's rejections by rule; their total is `bound_pruned`.
    pruned: ScreenHistogram,
    electrical_pruned: usize,
    /// The organizations that survived the data-array models.
    survivors: Vec<(OrgParams, ArrayResult)>,
}

/// One data-array sweep, shared by every spec with the same bank geometry
/// ([`MemorySpec::array_key`]).
///
/// A solve has two halves. The bank-level half enumerates the
/// organizations of one bank, pre-screens them and runs the data-array
/// models through the caller's [`EvalMemo`]; it reads only fields the
/// array key keeps. The per-spec half designs the tag, assembles main
/// memory, multiplies by the bank count (the metric assembly), lints and
/// counts. So every spec that shares the key gets bitwise the
/// [`solve_with_stats`] outcome from one sweep ([`ArraySweep::solve`]),
/// or bitwise its [`select`] ([`ArraySweep::select`], which builds a
/// [`Solution`] only for each winner).
///
/// The bank-level half runs lazily, on the first solve or select whose
/// tag design succeeds, and at most once.
#[derive(Debug)]
pub struct ArraySweep {
    key: MemorySpec,
    screen: Screen,
    swept: OnceCell<Swept>,
}

impl ArraySweep {
    /// A sweep over the bank geometry of `spec` (its
    /// [`MemorySpec::array_key`]). Nothing is evaluated until the first
    /// [`ArraySweep::solve`].
    pub fn new(spec: &MemorySpec) -> ArraySweep {
        ArraySweep::with_screen(spec, Screen::Exact)
    }

    fn with_screen(spec: &MemorySpec, screen: Screen) -> ArraySweep {
        ArraySweep {
            key: spec.array_key(),
            screen,
            swept: OnceCell::new(),
        }
    }

    /// `true` once the data-array sweep has run.
    pub fn has_run(&self) -> bool {
        self.swept.get().is_some()
    }

    /// The bank-level half. With the screen on, the closed-form bounds run
    /// first; they are the exact feasibility conditions `array::evaluate`
    /// would check, so pruning cannot change the solution set — only skip
    /// doomed model evaluations. The unscreened reference path evaluates
    /// every candidate from scratch with [`array::evaluate`], keeping the
    /// debug oracle independent of the memo machinery.
    fn sweep(&self, memo: &mut EvalMemo) -> &Swept {
        self.swept.get_or_init(|| {
            let _span = cactid_obs::span("core.array_sweep");
            let key = &self.key;
            let ctx = SpecCtx::array(key);
            let mut swept = Swept {
                orgs_enumerated: 0,
                pruned: ScreenHistogram::default(),
                electrical_pruned: 0,
                survivors: Vec::new(),
            };
            for org in org::enumerate_lazy(key) {
                swept.orgs_enumerated += 1;
                let input = ctx.build_input(&org);
                // The screen is the only way an evaluation fails, so the
                // staged path's failures are the bound-pruned ones.
                match self.screen {
                    Screen::Off => match array::evaluate(ctx.tech, &input) {
                        Ok(data) => swept.survivors.push((org, data)),
                        Err(_) => swept.electrical_pruned += 1,
                    },
                    Screen::Exact => match array::evaluate_screened(ctx.tech, &input, memo) {
                        Ok(data) => swept.survivors.push((org, data)),
                        Err(failure) => swept.pruned.record(failure),
                    },
                }
            }
            let pruned = &swept.pruned;
            cactid_obs::counter!("core.solve.array_sweeps").inc();
            cactid_obs::counter!("core.solve.pruned.subarray_rows")
                .add(pruned.subarray_rows as u64);
            cactid_obs::counter!("core.solve.pruned.wordline_elmore")
                .add(pruned.wordline_elmore as u64);
            cactid_obs::counter!("core.solve.pruned.sense_margin").add(pruned.sense_margin as u64);
            swept
        })
    }

    /// The per-spec half: solves `spec` from this sweep and returns exactly
    /// what [`solve_with_stats`] returns for it, stats included. A failed
    /// tag design returns first, with zeroed stats and without sweeping.
    ///
    /// The tag design and, on the first call, the bank-level half run
    /// through `memo`. Any memo gives the same bits; one that earlier
    /// solves filled saves their designs (see [`EvalMemo`]).
    ///
    /// # Panics
    ///
    /// If `spec`'s [`MemorySpec::array_key`] is not this sweep's.
    pub fn solve(
        &self,
        spec: &MemorySpec,
        linter: Option<&dyn SolutionLinter>,
        memo: &mut EvalMemo,
    ) -> SolveOutcome {
        let mut tally = Tally::start(memo);
        let result = self
            .admit(spec, linter, memo, &mut tally)
            .and_then(|admitted| {
                let mut sols = Vec::with_capacity(admitted.rows.len());
                for k in 0..admitted.rows.len() {
                    sols.push(admitted.solution(k, &mut tally).map_err(|e| (e, false))?);
                }
                Ok(sols)
            });
        let swept_empty = matches!(result, Err((_, true)));
        tally.flush(swept_empty, memo);
        SolveOutcome {
            result: result.map_err(|(e, _)| e),
            stats: tally.stats,
        }
    }

    /// The winners-only solve: the §2.4 winner of every spec in `specs`,
    /// each exactly `select(spec, &solve_with_stats(specs[0], linter)?)`,
    /// with the stats of that solve. The specs must share one
    /// [`MemorySpec::sweep_key`] (they differ at most in their select-only
    /// knobs), so one per-spec half, run on the first spec, serves them
    /// all; each spec then ranks its rows and only its winner becomes a
    /// [`Solution`]. With a `linter`, every candidate is still assembled
    /// and linted, and a winner keeps its warnings.
    ///
    /// The memo is used as [`ArraySweep::solve`] uses it. No specs, no
    /// solve.
    ///
    /// # Panics
    ///
    /// If the specs' [`MemorySpec::array_key`] is not this sweep's.
    pub fn select(
        &self,
        specs: &[&MemorySpec],
        linter: Option<&dyn SolutionLinter>,
        memo: &mut EvalMemo,
    ) -> Winners {
        let Some(&spec) = specs.first() else {
            return Winners {
                results: Vec::new(),
                stats: SolveStats::default(),
            };
        };
        debug_assert!(
            specs
                .windows(2)
                .all(|w| w[0].sweep_key() == w[1].sweep_key()),
            "ArraySweep::select: the specs must share one sweep key"
        );
        let mut tally = Tally::start(memo);
        let (results, swept_empty) = match self.admit(spec, linter, memo, &mut tally) {
            Ok(admitted) => {
                let results = specs
                    .iter()
                    .map(|s| match rank(&s.opt, &admitted.rows) {
                        Some(k) => admitted.solution(k, &mut tally),
                        None => Err(CactiError::NoFeasibleSolution),
                    })
                    .collect();
                (results, false)
            }
            Err((e, swept_empty)) => (specs.iter().map(|_| Err(e.clone())).collect(), swept_empty),
        };
        tally.flush(swept_empty, memo);
        Winners {
            results,
            stats: tally.stats,
        }
    }

    /// The per-spec half up to the ranking: designs the tag, runs the
    /// bank-level half if it has not run, then assembles each survivor's
    /// metrics (through the chip model for main memory) and lints it. The
    /// error carries whether the sweep ended with nothing feasible.
    fn admit<'a>(
        &'a self,
        spec: &'a MemorySpec,
        linter: Option<&dyn SolutionLinter>,
        memo: &mut EvalMemo,
        tally: &mut Tally,
    ) -> Result<Admitted<'a>, (CactiError, bool)> {
        assert!(
            spec.array_key() == self.key,
            "ArraySweep: the spec's bank geometry is not this sweep's"
        );
        let ctx = SpecCtx::new(spec, memo).map_err(|e| (e, false))?;
        let swept = self.sweep(memo);
        let stats = &mut tally.stats;
        stats.orgs_enumerated = swept.orgs_enumerated;
        stats.bound_pruned = swept.pruned.total();
        stats.electrical_pruned = swept.electrical_pruned;
        let mut rows = Vec::with_capacity(swept.survivors.len());
        let mut origin = Vec::with_capacity(swept.survivors.len());
        for (i, candidate) in swept.survivors.iter().enumerate() {
            let (org, data) = candidate;
            let (row, warnings) = match linter {
                None => {
                    let mm = ctx.main_memory(org, data).map_err(|e| (e, false))?;
                    let tag = ctx.tag.as_deref();
                    let metrics = Metrics::of(spec, &ctx.cell, data, tag, mm.as_ref());
                    (Row::of(&metrics), Vec::new())
                }
                Some(linter) => {
                    let sol = ctx.solution(candidate).map_err(|e| (e, false))?;
                    tally.assembled += 1;
                    let diags = linter.lint_candidate(spec, &sol);
                    if diags.iter().any(|d| d.severity == Severity::Error) {
                        stats.lint_rejected += 1;
                        continue;
                    }
                    (Row::of(&sol.metrics()), diags)
                }
            };
            rows.push(row);
            origin.push((i, warnings));
        }
        stats.feasible = rows.len();
        if rows.is_empty() {
            let e = if stats.lint_rejected > 0 {
                CactiError::LintRejected(stats.lint_rejected)
            } else {
                CactiError::NoFeasibleSolution
            };
            return Err((e, true));
        }
        Ok(Admitted {
            ctx,
            survivors: &swept.survivors,
            rows,
            origin,
        })
    }
}

/// The batch-oriented solver entry point: evaluates every feasible
/// organization for `spec` through the staged pipeline and returns the
/// full solution set together with the [`SolveStats`] of the sweep. It
/// never panics on infeasible specs. This is one [`ArraySweep`] used
/// once, on a fresh [`EvalMemo`]; batch engines share one sweep across the
/// specs of a bank geometry, and one memo per worker across sweeps.
///
/// With a `linter`, every assembled candidate is consulted: candidates
/// with any `Error`-severity diagnostic are rejected from the solution
/// set (the result is [`CactiError::LintRejected`] when that empties it),
/// and the survivors carry their non-error diagnostics in
/// [`Solution::warnings`].
///
/// Both [`MemorySpec`] and the returned [`SolveOutcome`] own all their data
/// (`Send`), so this is the function batch engines call from worker
/// threads.
pub fn solve_with_stats(spec: &MemorySpec, linter: Option<&dyn SolutionLinter>) -> SolveOutcome {
    let _span = cactid_obs::span("core.solve");
    ArraySweep::new(spec).solve(spec, linter, &mut EvalMemo::new())
}

/// Per-reason counts of candidates rejected by the closed-form screen,
/// accumulated by each data-array sweep (published as the
/// `core.solve.pruned.*` counters) and by [`static_screen`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenHistogram {
    /// Candidates with more subarray rows than the cell allows.
    pub subarray_rows: usize,
    /// Candidates past the 3 ns distributed wordline RC bound.
    pub wordline_elmore: usize,
    /// DRAM candidates whose charge-sharing signal misses the sense margin.
    pub sense_margin: usize,
}

impl ScreenHistogram {
    /// Counts one rejection.
    pub fn record(&mut self, failure: array::PrescreenFailure) {
        match failure {
            array::PrescreenFailure::SubarrayRows => self.subarray_rows += 1,
            array::PrescreenFailure::WordlineElmore => self.wordline_elmore += 1,
            array::PrescreenFailure::SenseMargin => self.sense_margin += 1,
        }
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> usize {
        self.subarray_rows + self.wordline_elmore + self.sense_margin
    }
}

/// What [`static_screen`] proved about a spec without running any circuit
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenVerdict {
    /// Provably infeasible: [`solve_with_stats`] is guaranteed to return
    /// exactly this error for the spec (the screen is exact, so no model
    /// evaluation can change the outcome).
    Infeasible(CactiError),
    /// At least `survivors` organizations pass the closed-form screen. The
    /// spec will very likely solve, but later stages the screen cannot see
    /// (lint rejection, non-finite metrics in [`select`]) may still fail
    /// it — the verdict is one-sided by design.
    MaybeFeasible {
        /// Organizations that pass the closed-form screen.
        survivors: usize,
    },
}

/// The result of statically screening one spec: the verdict, the
/// [`SolveStats`] a real solve of an infeasible spec would report, and the
/// per-reason rejection histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticScreen {
    /// Feasibility verdict.
    pub verdict: ScreenVerdict,
    /// For an [`ScreenVerdict::Infeasible`] spec these are byte-for-byte
    /// the counters [`solve_with_stats`] would report: every enumerated
    /// organization bound-pruned, nothing feasible. For a `MaybeFeasible`
    /// spec only `orgs_enumerated` and `bound_pruned` are meaningful (the
    /// real solve decides the rest).
    pub stats: SolveStats,
    /// Why the screen rejected what it rejected.
    pub reasons: ScreenHistogram,
}

/// Statically classifies a spec using only the exact closed-form checks —
/// the per-spec tag design and [`array::prescreen_explain`] over the full
/// organization enumeration. No circuit model runs and no solve happens:
/// an [`ScreenVerdict::Infeasible`] verdict is a *proof* that
/// [`solve_with_stats`] would return the same error with the same stats,
/// because the screen evaluates exactly the feasibility conditions
/// [`array::evaluate`] checks first.
///
/// A solve counts the same rejections per shared data-array sweep
/// (`core.solve.pruned.*`); this per-spec answer is what the property
/// tests check that count against.
pub fn static_screen(spec: &MemorySpec) -> StaticScreen {
    cactid_obs::counter!("core.screen.calls").inc();
    let mut stats = SolveStats::default();
    let mut reasons = ScreenHistogram::default();
    // Mirror SpecCtx::new: the technology tables are infallible, the tag
    // design is the only per-spec stage that can fail before enumeration.
    let tech = Technology::cached(spec.node);
    if spec.kind.is_cache() {
        if let Err(e) = tag::design_tag(tech, spec, &mut EvalMemo::new()) {
            cactid_obs::counter!("core.screen.infeasible").inc();
            return StaticScreen {
                verdict: ScreenVerdict::Infeasible(e),
                stats,
                reasons,
            };
        }
    }
    let cell = tech.cell(spec.cell_tech);
    let mut survivors = 0usize;
    for org in org::enumerate_lazy(spec) {
        stats.orgs_enumerated += 1;
        match array::prescreen_explain(&cell, org.rows(spec), org.cols(spec)) {
            Ok(_) => survivors += 1,
            Err(failure) => {
                stats.bound_pruned += 1;
                reasons.record(failure);
            }
        }
    }
    let verdict = if survivors == 0 {
        cactid_obs::counter!("core.screen.infeasible").inc();
        ScreenVerdict::Infeasible(CactiError::NoFeasibleSolution)
    } else {
        ScreenVerdict::MaybeFeasible { survivors }
    };
    StaticScreen {
        verdict,
        stats,
        reasons,
    }
}

/// The debug-only unpruned reference path: every enumerated candidate runs
/// through the full electrical models from scratch, with the pre-screen
/// and the memo disabled (the tag is designed on a fresh memo). Exists so
/// equivalence tests can prove the staged/pruned pipeline returns exactly
/// the same solution set —
/// `bound_pruned` here is always zero and `electrical_pruned` reports what
/// the staged path prunes by bound.
pub fn solve_with_stats_reference(
    spec: &MemorySpec,
    linter: Option<&dyn SolutionLinter>,
) -> SolveOutcome {
    let _span = cactid_obs::span("core.solve");
    ArraySweep::with_screen(spec, Screen::Off).solve(spec, linter, &mut EvalMemo::new())
}

/// Applies the staged optimization of §2.4 to a solution set and returns
/// the winner. [`ArraySweep::select`] runs the same ranking without
/// building the losers' [`Solution`]s.
///
/// 1. keep solutions with `area ≤ (1 + max_area_overhead) · best_area`;
/// 2. of those, keep `access_time ≤ (1 + max_access_time_overhead) · best`;
/// 3. minimize the normalized weighted objective over dynamic energy,
///    leakage (+ refresh) power, random cycle time and interleave cycle
///    time.
///
/// Of `spec` only the six select-only knobs are read — the overhead caps
/// and the weights. Every other field went into the sweep that produced
/// `solutions`, so one sweep of [`MemorySpec::sweep_key`] serves every
/// knob set that shares the key, with one `select` per knob set.
///
/// # Errors
///
/// [`CactiError::NoFeasibleSolution`] if `solutions` is empty, or when no
/// candidate survives the staged filters — with well-formed metrics the
/// minimum-area solution always survives both screens, but non-finite
/// areas or access times (NaN propagated through a model escape hatch)
/// fail every `<=` comparison and can empty the stages.
pub fn select(spec: &MemorySpec, solutions: &[Solution]) -> Result<Solution, CactiError> {
    let rows: Vec<Row> = solutions.iter().map(|s| Row::of(&s.metrics())).collect();
    rank(&spec.opt, &rows)
        .map(|i| solutions[i].clone())
        .ok_or(CactiError::NoFeasibleSolution)
}

/// The §2.4 winner for `spec`: [`select`] over [`solve_with_stats`],
/// computed by [`ArraySweep::select`] without assembling the losers.
///
/// # Errors
///
/// Propagates [`CactiError::NoFeasibleSolution`] from the sweep.
pub fn optimize(spec: &MemorySpec) -> Result<Solution, CactiError> {
    let _span = cactid_obs::span("core.solve");
    ArraySweep::new(spec)
        .select(&[spec], None, &mut EvalMemo::new())
        .into_first()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessMode, OptimizationOptions};
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::{Joules, Seconds, SquareMeters, Watts};

    fn l2() -> MemorySpec {
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

    #[test]
    fn l2_solves_with_many_candidates() {
        let sols = solve_with_stats(&l2(), None).result.unwrap();
        assert!(sols.len() > 10, "only {} candidates", sols.len());
        for s in &sols {
            assert!(s.access_time > Seconds::ZERO && s.access_time < Seconds::ns(50.0));
            assert!(s.area > SquareMeters::ZERO);
            assert!(s.read_energy > Joules::ZERO);
            assert!(s.leakage_power > Watts::ZERO);
        }
    }

    #[test]
    fn staged_filters_respect_caps() {
        let spec = l2();
        let sols = solve_with_stats(&spec, None).result.unwrap();
        let chosen = select(&spec, &sols).unwrap();
        let best_area = sols
            .iter()
            .map(|s| s.area.value())
            .fold(f64::INFINITY, f64::min);
        assert!(chosen.area.value() <= best_area * (1.0 + spec.opt.max_area_overhead) + 1e-12);
    }

    #[test]
    fn energy_weighting_changes_the_pick() {
        let mut spec = l2();
        spec.opt = OptimizationOptions {
            weight_dynamic: 100.0,
            weight_leakage: 0.0,
            weight_cycle: 0.0,
            weight_interleave: 0.0,
            max_area_overhead: 1.0,
            max_access_time_overhead: 2.0,
            ..OptimizationOptions::default()
        };
        let sols = solve_with_stats(&spec, None).result.unwrap();
        let energy_pick = select(&spec, &sols).unwrap();
        spec.opt.weight_dynamic = 0.0;
        spec.opt.weight_cycle = 100.0;
        let cycle_pick = select(&spec, &sols).unwrap();
        // The two objectives should not pick a strictly worse solution on
        // their own axis.
        assert!(energy_pick.read_energy <= cycle_pick.read_energy + Joules::from_si(1e-15));
        assert!(cycle_pick.random_cycle <= energy_pick.random_cycle + Seconds::from_si(1e-15));
    }

    #[test]
    fn solve_with_stats_counts_the_sweep() {
        let spec = l2();
        let out = solve_with_stats(&spec, None);
        let sols = out.result.unwrap();
        assert_eq!(out.stats.feasible, sols.len());
        assert!(out.stats.orgs_enumerated >= sols.len());
        assert_eq!(out.stats.lint_rejected, 0);
    }

    #[test]
    fn solve_with_stats_reports_orgs_even_on_failure() {
        // A spec whose organizations all fail electrically is hard to build
        // via the builder; instead check the error path maps through.
        let mut spec = l2();
        spec.opt.repeater_relax = 1.0;
        let out = solve_with_stats(&spec, None);
        assert!(out.result.is_ok());
        assert!(out.stats.orgs_enumerated > 0);
    }

    #[test]
    fn select_with_nonfinite_areas_errors_instead_of_panicking() {
        // Regression: every candidate failing the area screen used to trip
        // the stage-2 `.expect`. NaN areas fail `area <= cap` for every
        // candidate (NaN comparisons are false), emptying both stages.
        let spec = l2();
        let mut sols = solve_with_stats(&spec, None).result.unwrap();
        for s in &mut sols {
            s.area = SquareMeters::from_si(f64::NAN);
        }
        assert_eq!(
            select(&spec, &sols),
            Err(CactiError::NoFeasibleSolution),
            "non-finite areas must yield a typed error, not a panic"
        );
        // Same story when the access times are the poisoned axis.
        let mut sols = solve_with_stats(&spec, None).result.unwrap();
        for s in &mut sols {
            s.access_time = Seconds::from_si(f64::NAN);
        }
        assert_eq!(select(&spec, &sols), Err(CactiError::NoFeasibleSolution));
    }

    #[test]
    fn solve_publishes_obs_counters() {
        let calls_before = cactid_obs::counter!("core.solve.calls").get();
        let orgs_before = cactid_obs::counter!("core.solve.orgs_enumerated").get();
        let out = solve_with_stats(&l2(), None);
        assert!(cactid_obs::counter!("core.solve.calls").get() > calls_before);
        assert!(
            cactid_obs::counter!("core.solve.orgs_enumerated").get()
                >= orgs_before + out.stats.orgs_enumerated as u64
        );
        let snap = cactid_obs::snapshot();
        let h = snap.histogram("span.core.solve.ns").expect("solve span");
        assert!(h.count >= 1);
    }

    #[test]
    fn static_screen_matches_the_sweep_on_a_feasible_spec() {
        let spec = l2();
        let screen = static_screen(&spec);
        let out = solve_with_stats(&spec, None);
        assert_eq!(screen.stats.orgs_enumerated, out.stats.orgs_enumerated);
        assert_eq!(screen.stats.bound_pruned, out.stats.bound_pruned);
        assert_eq!(screen.reasons.total(), screen.stats.bound_pruned);
        let sols = out.result.unwrap();
        match screen.verdict {
            ScreenVerdict::MaybeFeasible { survivors } => {
                // The screen is exact: survivors are precisely the
                // candidates the full models accept.
                assert_eq!(survivors, sols.len());
            }
            ScreenVerdict::Infeasible(_) => panic!("l2 is feasible"),
        }
    }

    #[test]
    fn screen_histogram_counts_by_rule() {
        use crate::array::PrescreenFailure;
        let mut h = ScreenHistogram::default();
        h.record(PrescreenFailure::SubarrayRows);
        h.record(PrescreenFailure::SubarrayRows);
        h.record(PrescreenFailure::SenseMargin);
        assert_eq!(
            (h.subarray_rows, h.wordline_elmore, h.sense_margin),
            (2, 0, 1)
        );
        assert_eq!(h.total(), 3);
    }

    /// The paper's three §3.1 knob sets (`default`, `ed`, `c`), as the
    /// explore grid names them.
    fn named_knob_sets() -> [OptimizationOptions; 3] {
        [
            OptimizationOptions::default(),
            OptimizationOptions {
                max_area_overhead: 0.60,
                max_access_time_overhead: 0.15,
                weight_dynamic: 1.5,
                weight_leakage: 0.3,
                weight_cycle: 2.0,
                weight_interleave: 1.0,
                ..OptimizationOptions::default()
            },
            OptimizationOptions {
                max_area_overhead: 0.20,
                max_access_time_overhead: 1.0,
                weight_dynamic: 0.5,
                weight_leakage: 1.0,
                weight_cycle: 0.3,
                weight_interleave: 0.3,
                ..OptimizationOptions::default()
            },
        ]
    }

    #[test]
    fn sweep_is_bitwise_equal_across_the_named_knob_sets() {
        let lp_dram = MemorySpec::builder()
            .capacity_bytes(8 << 20)
            .block_bytes(64)
            .associativity(16)
            .banks(2)
            .cell_tech(CellTechnology::LpDram)
            .node(TechNode::N45)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Sequential,
            })
            .build()
            .unwrap();
        for base in [l2(), lp_dram] {
            let key = solve_with_stats(&base.sweep_key(), None);
            let key_sols = key.result.as_ref().unwrap();
            let mut picks = Vec::new();
            for opt in named_knob_sets() {
                let spec = MemorySpec {
                    opt,
                    ..base.clone()
                };
                assert_eq!(spec.sweep_key(), base.sweep_key());
                let out = solve_with_stats(&spec, None);
                assert_eq!(out.stats, key.stats);
                // Debug renders every f64 shortest-round-trip (and keeps
                // the sign of zero), so equal strings mean equal bits.
                assert_eq!(format!("{:?}", out.result), format!("{:?}", key.result));
                let own = select(&spec, out.result.as_ref().unwrap()).unwrap();
                let shared = select(&spec, key_sols).unwrap();
                assert_eq!(format!("{own:?}"), format!("{shared:?}"));
                picks.push(own.org);
            }
            assert!(
                picks.windows(2).any(|w| w[0] != w[1]),
                "the knob sets must actually pick differently: {picks:?}"
            );
        }
    }

    #[test]
    fn optimize_is_deterministic() {
        let spec = l2();
        let a = optimize(&spec).unwrap();
        let b = optimize(&spec).unwrap();
        assert_eq!(a.org, b.org);
    }
}
