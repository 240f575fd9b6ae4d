//! The staged-pipeline determinism contract (DESIGN.md §14): the pruned
//! pipeline and the debug-only unpruned reference must return exactly
//! the same solution set in the same order, and
//! the pre-screen must account for precisely the candidates the full
//! models would have rejected. One data-array sweep shared across a bank
//! geometry must give every spec of that geometry exactly its own solve,
//! and the winners-only select exactly `select` over that solve.

use cactid_core::{
    array, optimize, org, select, solve_with_stats, solve_with_stats_reference, tag, AccessMode,
    ArraySweep, CactiError, Diagnostic, Location, MemoryKind, MemorySpec, OptimizationOptions,
    OrgParams, Solution, SolutionLinter, SolveOutcome,
};
use cactid_tech::{CellTechnology, TechNode, Technology};
use cactid_units::{Seconds, SquareMeters};

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

/// The `ci.sh` COMM-DRAM smoke spec (128 MB x8 BL8 chip, 8 Kb page, 78 nm).
fn comm_dram_smoke() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 27)
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

fn assert_identical_sets(label: &str, a: &[Solution], b: &[Solution]) {
    assert_eq!(a.len(), b.len(), "{label}: solution counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "{label}: solutions diverge at org {:?}", x.org);
    }
}

#[test]
fn staged_solve_equals_the_unpruned_reference() {
    for (label, spec) in [
        ("sram-l2", sram_l2()),
        ("lp-dram-l3", lp_dram_l3()),
        ("comm-dram", comm_dram_smoke()),
    ] {
        let staged = solve_with_stats(&spec, None);
        let reference = solve_with_stats_reference(&spec, None);
        assert_identical_sets(
            label,
            staged.result.as_ref().unwrap(),
            reference.result.as_ref().unwrap(),
        );
        assert_eq!(
            staged.stats.orgs_enumerated, reference.stats.orgs_enumerated,
            "{label}: enumeration counts differ"
        );
        assert_eq!(
            staged.stats.feasible, reference.stats.feasible,
            "{label}: feasible counts differ"
        );
        // The pre-screen is exact: what it prunes by bound is precisely
        // what the reference pipeline prunes electrically, and nothing
        // slips past it into the full models.
        assert_eq!(
            staged.stats.bound_pruned, reference.stats.electrical_pruned,
            "{label}: the pre-screen does not account for the model rejections"
        );
        assert_eq!(staged.stats.electrical_pruned, 0, "{label}");
        assert_eq!(reference.stats.bound_pruned, 0, "{label}");
    }
}

/// A 192 KB 3-way SRAM cache: the odd associativity drives the sweep
/// through non-power-of-two stripe widths and the `nspd = 0.25` corner,
/// where rows/cols flip at different enumeration steps than on the
/// power-of-two bench specs.
fn sram_odd_assoc() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(3 << 16)
        .block_bytes(64)
        .associativity(3)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

/// Walks every enumerated organization of each spec in sweep order — the
/// order where exactly one axis changes per step, so every memo slice gets
/// exercised at its invalidation boundary — and asserts the memo-carrying
/// evaluation is bitwise identical to a from-scratch evaluation of the
/// same candidate, on both the feasible and the infeasible side.
#[test]
fn incremental_evaluation_matches_from_scratch_at_every_axis_boundary() {
    for (label, spec) in [
        ("sram-l2", sram_l2()),
        ("sram-192k-3way", sram_odd_assoc()),
        ("lp-dram-l3", lp_dram_l3()),
    ] {
        let tech = Technology::cached(spec.node);
        let cell = tech.cell(spec.cell_tech);
        let periph = tech.peripheral_device(spec.cell_tech);
        let mut memo = array::EvalMemo::new();
        let (mut feasible, mut pruned) = (0u64, 0u64);
        for o in org::enumerate_lazy(&spec) {
            let input = array::ArrayInput {
                rows: o.rows(&spec),
                cols: o.cols(&spec),
                ndwl: o.ndwl,
                ndbl: o.ndbl,
                deg_bl_mux: o.deg_bl_mux,
                deg_sa_mux: o.deg_sa_mux,
                output_bits: spec.output_bits(),
                address_bits: spec.address_bits,
                cell,
                periph,
                repeater_relax: spec.opt.repeater_relax,
                sleep_transistors: spec.opt.sleep_transistors,
                sense_fraction: spec.sense_fraction(),
            };
            let fresh = array::evaluate(tech, &input);
            let incremental = array::evaluate_incremental(tech, &input, &mut memo);
            match (fresh, incremental) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{label}: divergence at org {o:?}");
                    feasible += 1;
                }
                (Err(_), Err(_)) => pruned += 1,
                (a, b) => panic!("{label}: feasibility flipped at org {o:?}: {a:?} vs {b:?}"),
            }
        }
        assert!(feasible > 0, "{label}: nothing evaluated");
        assert!(
            memo.reuse_hits() > 0,
            "{label}: the sweep scored no memo reuse ({feasible} feasible, {pruned} pruned)"
        );
    }
}

/// A 4 MB COMM-DRAM cache at 45 nm: a node and a cell no other spec here
/// pairs.
fn comm_dram_cache_45() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(4 << 20)
        .block_bytes(64)
        .associativity(8)
        .banks(1)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N45)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

/// One memo carried through specs of different technologies, forward and
/// then in reverse, gives every candidate bitwise its from-scratch
/// evaluation and every tag bitwise its from-scratch design. Each
/// candidate of `sram-l2` is evaluated four times in a row: as is, with
/// twice the output width, with `repeater_relax` 1.5, and with the same
/// cell and peripheral tables on the 45 nm wires. The four share every
/// organization key, so a slot or design that outlived its context (the
/// spine width in `consts`, the H-tree, the output driver) would return a
/// stale value and diverge. The reverse pass revisits every context, so
/// it must find every circuit in the design tables.
#[test]
fn one_memo_carried_across_contexts_matches_from_scratch() {
    let relaxed = MemorySpec {
        opt: OptimizationOptions {
            repeater_relax: 1.5,
            ..OptimizationOptions::default()
        },
        ..sram_l2()
    };
    // Groups of (label, spec, output-width multiplier, technology) that
    // enumerate the same organizations, evaluated interleaved candidate by
    // candidate.
    let own = |spec: MemorySpec, widen: u64| {
        let tech = Technology::cached(spec.node);
        (spec, widen, tech)
    };
    let groups = [
        vec![
            ("sram-l2", own(sram_l2(), 1)),
            ("sram-l2-wide", own(sram_l2(), 2)),
            ("sram-l2-relaxed", own(relaxed, 1)),
            (
                "sram-l2-45nm-wires",
                (sram_l2(), 1, Technology::cached(TechNode::N45)),
            ),
        ],
        vec![("sram-192k-3way", own(sram_odd_assoc(), 1))],
        vec![("lp-dram-l3", own(lp_dram_l3(), 1))],
        vec![("comm-dram-45nm", own(comm_dram_cache_45(), 1))],
    ];
    let mut memo = array::EvalMemo::new();
    let mut forward_designs = 0;
    for pass in ["forward", "reverse"] {
        let mut order = groups.to_vec();
        if pass == "reverse" {
            order.reverse();
            order.iter_mut().for_each(|group| group.reverse());
        }
        for group in &order {
            let (_, (first, _, _)) = &group[0];
            let mut feasible = 0u64;
            for o in org::enumerate_lazy(first) {
                for (label, (spec, widen, tech)) in group {
                    let mut input = own_input(spec, &o);
                    input.output_bits *= widen;
                    let fresh = array::evaluate(tech, &input);
                    let shared = array::evaluate_incremental(tech, &input, &mut memo);
                    assert_eq!(
                        format!("{shared:?}"),
                        format!("{fresh:?}"),
                        "{pass} {label}: divergence at org {o:?}"
                    );
                    feasible += u64::from(fresh.is_ok());
                }
            }
            assert!(feasible > 0, "{pass}: nothing evaluated");
            for (label, (spec, _, tech)) in group {
                let shared = tag::design_tag(tech, spec, &mut memo);
                let fresh = tag::design_tag(tech, spec, &mut array::EvalMemo::new());
                assert!(fresh.is_ok(), "{pass} {label}");
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{fresh:?}"),
                    "{pass} {label}: tag design"
                );
            }
        }
        if pass == "forward" {
            forward_designs = memo.designs();
        }
    }
    assert!(forward_designs > 0);
    assert_eq!(
        memo.designs(),
        forward_designs,
        "the reverse pass redesigned a circuit the tables hold"
    );
    assert!(memo.design_hits() > 0);
}

#[test]
fn bound_pruning_fires_on_the_comm_dram_smoke_spec() {
    // The 128 MB smoke chip and the same chip at 1 GB (a DIMM's part).
    let dimm = MemorySpec {
        capacity_bytes: 1 << 30,
        ..comm_dram_smoke()
    };
    for spec in [comm_dram_smoke(), dimm] {
        let out = solve_with_stats(&spec, None);
        assert!(out.result.is_ok());
        assert!(
            out.stats.bound_pruned > 0,
            "the pre-screen stopped firing on the {} B COMM-DRAM spec: {:?}",
            spec.capacity_bytes,
            out.stats
        );
        assert!(out.stats.feasible > 0);
    }
}

/// The family `(capacity·k, banks k)` for k = 1, 2, 4, 8: one bank
/// geometry, four sweep keys.
fn bank_family(base: &MemorySpec) -> Vec<MemorySpec> {
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|k| MemorySpec {
            capacity_bytes: base.capacity_bytes * u64::from(k),
            n_banks: k,
            ..base.clone()
        })
        .collect()
}

/// The input a sweep of `spec`'s own geometry evaluates for `o`: every
/// field read from the full spec, none from its array key.
fn own_input(spec: &MemorySpec, o: &OrgParams) -> array::ArrayInput {
    let tech = Technology::cached(spec.node);
    array::ArrayInput {
        rows: o.rows(spec),
        cols: o.cols(spec),
        ndwl: o.ndwl,
        ndbl: o.ndbl,
        deg_bl_mux: o.deg_bl_mux,
        deg_sa_mux: o.deg_sa_mux,
        output_bits: spec.output_bits(),
        address_bits: spec.address_bits,
        cell: tech.cell(spec.cell_tech),
        periph: tech.peripheral_device(spec.cell_tech),
        repeater_relax: spec.opt.repeater_relax,
        sleep_transistors: spec.opt.sleep_transistors,
        sense_fraction: spec.sense_fraction(),
    }
}

/// The data half of an unlinted `outcome` is what enumerating and
/// evaluating `spec`'s own organizations from scratch gives: the same
/// organizations in the same order with the same data-array bits, and
/// the same enumeration and pruning counts.
fn assert_data_half_is_the_specs_own(label: &str, spec: &MemorySpec, outcome: &SolveOutcome) {
    let tech = Technology::cached(spec.node);
    let orgs: Vec<OrgParams> = org::enumerate_lazy(spec).collect();
    let own: Vec<(OrgParams, array::ArrayResult)> = orgs
        .iter()
        .filter_map(|o| {
            array::evaluate(tech, &own_input(spec, o))
                .ok()
                .map(|d| (*o, d))
        })
        .collect();
    let sols = outcome.result.as_ref().unwrap();
    let shared: Vec<(OrgParams, array::ArrayResult)> =
        sols.iter().map(|s| (s.org, s.data.clone())).collect();
    assert_eq!(format!("{shared:?}"), format!("{own:?}"), "{label}");
    assert_eq!(outcome.stats.orgs_enumerated, orgs.len(), "{label}");
    assert_eq!(
        outcome.stats.bound_pruned,
        orgs.len() - own.len(),
        "{label}"
    );
}

/// Solves every member of `base`'s bank family through one shared
/// [`ArraySweep`], largest bank count first, and checks each outcome is
/// bitwise the member's own [`solve_with_stats`]. Returns the sweep.
fn assert_family_shares_one_sweep(
    label: &str,
    base: &MemorySpec,
    linter: Option<&dyn SolutionLinter>,
) -> ArraySweep {
    let members = bank_family(base);
    let sweep = ArraySweep::new(&members[3]);
    let mut memo = array::EvalMemo::new();
    for spec in members.iter().rev() {
        assert_eq!(spec.array_key(), base.array_key(), "{label}");
        let shared = sweep.solve(spec, linter, &mut memo);
        let own = solve_with_stats(spec, linter);
        let label = format!("{label} x{}", spec.n_banks);
        assert_eq!(shared.stats, own.stats, "{label}");
        // Debug renders every f64 shortest-round-trip (and keeps the sign
        // of zero), so equal strings mean equal bits.
        assert_eq!(
            format!("{:?}", shared.result),
            format!("{:?}", own.result),
            "{label}"
        );
        if linter.is_none() && own.result.is_ok() {
            assert_data_half_is_the_specs_own(&label, spec, &shared);
        }
    }
    sweep
}

fn with_mode(spec: MemorySpec, access_mode: AccessMode) -> MemorySpec {
    MemorySpec {
        kind: MemoryKind::Cache { access_mode },
        ..spec
    }
}

/// A COMM-DRAM main-memory bank of 16 MB (the smoke chip's bank).
fn comm_dram_bank() -> MemorySpec {
    let chip = comm_dram_smoke();
    MemorySpec {
        capacity_bytes: chip.bank_bytes(),
        n_banks: 1,
        ..chip
    }
}

#[test]
fn one_array_sweep_serves_every_bank_count_of_a_geometry() {
    let sram = MemorySpec {
        capacity_bytes: 256 << 10,
        ..sram_l2()
    };
    for (label, base) in [
        ("sram-normal", sram.clone()),
        // Sequential SRAM senses one way (`sense_fraction` = 1/assoc).
        ("sram-sequential", with_mode(sram, AccessMode::Sequential)),
        ("lp-dram", lp_dram_l3()),
        ("comm-dram-main-memory", comm_dram_bank()),
    ] {
        let sweep = assert_family_shares_one_sweep(label, &base, None);
        assert!(sweep.has_run(), "{label}");
    }
}

/// Rejects wide wordline splits and warns on everything else, so the lint
/// stage both filters candidates and attaches warnings.
struct Picky;

impl SolutionLinter for Picky {
    fn lint_candidate(&self, _spec: &MemorySpec, solution: &Solution) -> Vec<Diagnostic> {
        let loc = Location::spec("org.ndwl");
        if solution.org.ndwl >= 16 {
            vec![Diagnostic::error("CDTEST", loc, "ndwl too wide")]
        } else {
            vec![Diagnostic::warn("CDTEST", loc, "linted")]
        }
    }
}

#[test]
fn a_shared_sweep_lints_each_spec_as_its_own_solve_does() {
    assert_family_shares_one_sweep("sram-linted", &sram_l2(), Some(&Picky));
    let out = solve_with_stats(&sram_l2(), Some(&Picky));
    assert!(out.stats.lint_rejected > 0, "{:?}", out.stats);
}

#[test]
fn a_failed_tag_design_returns_first_without_sweeping() {
    // 8 sets per bank: every tag organization is shorter than 16 rows.
    let base = MemorySpec::builder()
        .capacity_bytes(8 << 10)
        .block_bytes(64)
        .associativity(16)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap();
    let sweep = assert_family_shares_one_sweep("tag-failure", &base, None);
    let out = sweep.solve(&base, None, &mut array::EvalMemo::new());
    assert!(out.result.is_err());
    assert_eq!(out.stats, cactid_core::SolveStats::default());
    assert!(
        !sweep.has_run(),
        "a tag failure must not pay for the data sweep"
    );
}

#[test]
#[should_panic(expected = "bank geometry")]
fn a_sweep_refuses_a_spec_of_another_geometry() {
    let sweep = ArraySweep::new(&sram_l2());
    let other = MemorySpec {
        n_banks: 2,
        ..sram_l2()
    };
    sweep.solve(&other, None, &mut array::EvalMemo::new());
}

/// The study's main-memory chip: 8 Gb x8 COMM-DRAM at 32 nm, 8 banks.
fn study_main_memory() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 30)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N32)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        })
        .build()
        .unwrap()
}

/// The select-only knobs of `base` replaced by each of: the paper's three
/// §3.1 knob sets (`default`, `ed`, `c`), no area or no access-time
/// slack, each weight alone, and no weight at all (every objective ties,
/// so the first candidate past the caps must win).
fn knob_sets(base: &OptimizationOptions) -> Vec<OptimizationOptions> {
    let knobs = |caps: [f64; 2], weights: [f64; 4]| OptimizationOptions {
        max_area_overhead: caps[0],
        max_access_time_overhead: caps[1],
        weight_dynamic: weights[0],
        weight_leakage: weights[1],
        weight_cycle: weights[2],
        weight_interleave: weights[3],
        ..base.clone()
    };
    let d = OptimizationOptions::default();
    let default_caps = [d.max_area_overhead, d.max_access_time_overhead];
    let default_weights = [
        d.weight_dynamic,
        d.weight_leakage,
        d.weight_cycle,
        d.weight_interleave,
    ];
    let mut sets = vec![
        knobs(default_caps, default_weights),
        knobs([0.60, 0.15], [1.5, 0.3, 2.0, 1.0]),
        knobs([0.20, 1.0], [0.5, 1.0, 0.3, 0.3]),
        knobs([0.0, default_caps[1]], default_weights),
        knobs([default_caps[0], 0.0], default_weights),
        knobs([1.0, 2.0], [0.0; 4]),
    ];
    for alone in 0..4 {
        let mut weights = [0.0; 4];
        weights[alone] = 1.0;
        sets.push(knobs([1.0, 2.0], weights));
    }
    sets
}

/// §2.4 written out over a solution set with a buffer per stage, as
/// `select` first computed it: an oracle that shares no code with the
/// ranking both select paths run.
fn staged_select(spec: &MemorySpec, solutions: &[Solution]) -> Result<Solution, CactiError> {
    let opt = &spec.opt;
    let best_area = solutions
        .iter()
        .map(|s| s.area.value())
        .fold(f64::INFINITY, f64::min);
    let area_cap = best_area * (1.0 + opt.max_area_overhead);
    let stage1: Vec<&Solution> = solutions
        .iter()
        .filter(|s| s.area.value() <= area_cap)
        .collect();
    let best_t = stage1
        .iter()
        .map(|s| s.access_time.value())
        .fold(f64::INFINITY, f64::min);
    let t_cap = best_t * (1.0 + opt.max_access_time_overhead);
    let stage2: Vec<&Solution> = stage1
        .into_iter()
        .filter(|s| s.access_time.value() <= t_cap)
        .collect();
    let min_of = |f: fn(&Solution) -> f64| {
        stage2
            .iter()
            .map(|s| f(s).max(1e-30))
            .fold(f64::INFINITY, f64::min)
    };
    let e_min = min_of(|s| s.read_energy.value());
    let l_min = min_of(|s| (s.leakage_power + s.refresh_power).value());
    let c_min = min_of(|s| s.random_cycle.value());
    let i_min = min_of(|s| s.interleave_cycle.value());
    let obj = |s: &Solution| {
        opt.weight_dynamic * s.read_energy.value().max(1e-30) / e_min
            + opt.weight_leakage * (s.leakage_power + s.refresh_power).value().max(1e-30) / l_min
            + opt.weight_cycle * s.random_cycle.value().max(1e-30) / c_min
            + opt.weight_interleave * s.interleave_cycle.value().max(1e-30) / i_min
    };
    stage2
        .into_iter()
        .min_by(|a, b| obj(a).total_cmp(&obj(b)))
        .cloned()
        .ok_or(CactiError::NoFeasibleSolution)
}

/// The `core.select.*` counters, in a fixed order.
fn select_counters() -> [u64; 4] {
    [
        cactid_obs::counter!("core.select.calls").get(),
        cactid_obs::counter!("core.select.area_pruned").get(),
        cactid_obs::counter!("core.select.time_pruned").get(),
        cactid_obs::counter!("core.select.no_feasible").get(),
    ]
}

/// How much each `core.select.*` counter moved while `f` ran. Nothing
/// else in this test binary selects, so the deltas are `f`'s own.
fn select_deltas<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = select_counters();
    let out = f();
    let after = select_counters();
    (out, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn winners_only_select_matches_select_over_the_full_set() {
    let mut cases = Vec::new();
    for (label, base) in [
        ("sram", sram_l2()),
        ("lp-dram", lp_dram_l3()),
        ("comm-dram", comm_dram_cache_45()),
    ] {
        for mode in [AccessMode::Normal, AccessMode::Sequential, AccessMode::Fast] {
            cases.push((format!("{label} {mode:?}"), with_mode(base.clone(), mode)));
        }
    }
    let ram = MemorySpec::builder()
        .capacity_bytes(1 << 20)
        .block_bytes(64)
        .associativity(1)
        .banks(1)
        .cell_tech(CellTechnology::Sram)
        .node(TechNode::N32)
        .kind(MemoryKind::Ram)
        .build()
        .unwrap();
    cases.push(("ram".into(), ram));
    cases.push(("study main memory".into(), study_main_memory()));
    let mut memo = array::EvalMemo::new();
    let mut picks = Vec::new();
    let mut warned = false;
    for (label, base) in &cases {
        for linter in [None, Some(&Picky as &dyn SolutionLinter)] {
            let label = format!("{label} linted={}", linter.is_some());
            let members: Vec<MemorySpec> = knob_sets(&base.opt)
                .into_iter()
                .map(|opt| MemorySpec {
                    opt,
                    ..base.clone()
                })
                .collect();
            let refs: Vec<&MemorySpec> = members.iter().collect();
            let full = solve_with_stats(&members[0], linter);
            let (expected, full_deltas) = select_deltas(|| {
                members
                    .iter()
                    .map(|m| match &full.result {
                        Ok(sols) => select(m, sols),
                        Err(e) => Err(e.clone()),
                    })
                    .collect::<Vec<_>>()
            });
            let (winners, deltas) =
                select_deltas(|| ArraySweep::new(base).select(&refs, linter, &mut memo));
            assert_eq!(winners.stats, full.stats, "{label}");
            // Debug renders every f64 shortest-round-trip (and keeps the
            // sign of zero), so equal strings mean equal bits.
            assert_eq!(
                format!("{:?}", winners.results),
                format!("{expected:?}"),
                "{label}"
            );
            assert_eq!(
                deltas, full_deltas,
                "{label}: core.select.* moved differently"
            );
            if let Ok(sols) = &full.result {
                let oracle: Vec<_> = members.iter().map(|m| staged_select(m, sols)).collect();
                assert_eq!(
                    format!("{expected:?}"),
                    format!("{oracle:?}"),
                    "{label}: the ranking left §2.4"
                );
            }
            for (m, e) in members.iter().zip(&expected) {
                let alone = ArraySweep::new(m).select(&[m], linter, &mut array::EvalMemo::new());
                assert_eq!(alone.stats, full.stats, "{label}");
                assert_eq!(
                    format!("{:?}", alone.into_first()),
                    format!("{e:?}"),
                    "{label}"
                );
                if linter.is_none() {
                    assert_eq!(format!("{:?}", optimize(m)), format!("{e:?}"), "{label}");
                }
            }
            for sol in expected.iter().flatten() {
                picks.push(sol.org);
                warned |= !sol.warnings.is_empty();
            }
        }
    }
    assert!(warned, "the linted winners must carry their warnings");
    assert!(
        picks.windows(2).any(|w| w[0] != w[1]),
        "the knob sets must pick differently"
    );

    // Non-finite metrics fail every `<=` cap: the ranking both paths share
    // empties its stages and reports no winner instead of panicking.
    let spec = sram_l2();
    let sols = solve_with_stats(&spec, None).result.unwrap();
    let n = sols.len() as u64;
    let poisoned = |f: fn(&mut Solution)| {
        let mut sols = sols.clone();
        sols.iter_mut().for_each(f);
        select_deltas(|| select(&spec, &sols))
    };
    let (result, deltas) = poisoned(|s| s.area = SquareMeters::from_si(f64::NAN));
    assert_eq!(result, Err(CactiError::NoFeasibleSolution));
    assert_eq!(
        deltas,
        [1, n, 0, 1],
        "NaN areas are all cut by the area cap"
    );
    let (result, deltas) = poisoned(|s| s.access_time = Seconds::from_si(f64::NAN));
    assert_eq!(result, Err(CactiError::NoFeasibleSolution));
    let [calls, area_cut, time_cut, no_feasible] = deltas;
    assert!(time_cut > 0, "{deltas:?}");
    assert_eq!(
        [calls, area_cut + time_cut, no_feasible],
        [1, n, 1],
        "NaN times are all cut by one cap or the other"
    );
}
