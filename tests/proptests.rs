//! Property-based tests on the core data structures and model invariants.
//!
//! Each property samples a fixed number of cases from a fixed seed of the
//! in-tree deterministic xorshift64* generator (`memsim::rng`), so the
//! build stays hermetic (no registry dependencies). The suite runs with
//! the rest of `cargo test`.

use cacti_d::core::{solve_with_stats, AccessMode, MemoryKind, MemorySpec};
use cacti_d::sim::cache::{LineState, SetAssocCache};
use cacti_d::sim::config::{DramConfig, PagePolicy};
use cacti_d::sim::dram::DramChannel;
use cacti_d::sim::rng::XorShift64Star;
use cacti_d::tech::{CellTechnology, TechNode, Technology};

/// Cases per property — matches the old `ProptestConfig::with_cases(64)`.
const CASES: u64 = 64;

fn dram_cfg(policy: PagePolicy) -> DramConfig {
    DramConfig {
        channels: 1,
        banks: 8,
        page_bytes: 8 << 10,
        t_rcd: 31,
        t_cl: 27,
        t_rp: 22,
        t_rc: 109,
        t_rrd: 6,
        t_burst: 4,
        page_policy: policy,
    }
}

/// The spec builder never panics; it either builds or returns an error.
#[test]
fn spec_builder_total() {
    let mut rng = XorShift64Star::new(0xCAC7_1D01);
    for _ in 0..CASES {
        let cap_shift = rng.next_in_range(10, 33) as u32;
        let block_shift = rng.next_in_range(2, 8) as u32;
        let assoc = rng.next_in_range(1, 39) as u32;
        let banks_shift = rng.next_in_range(0, 4) as u32;
        let _ = MemorySpec::builder()
            .capacity_bytes(1u64 << cap_shift)
            .block_bytes(1 << block_shift)
            .associativity(assoc)
            .banks(1 << banks_shift)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N45)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build();
    }
}

/// Every solution of any feasible spec reports positive, finite metrics,
/// and capacity is conserved by the organization.
#[test]
fn solutions_are_physical() {
    let mut rng = XorShift64Star::new(0xCAC7_1D02);
    for _ in 0..CASES {
        let cap_shift = rng.next_in_range(16, 23) as u32;
        let cell = CellTechnology::ALL[rng.next_below(3) as usize];
        let spec = MemorySpec::builder()
            .capacity_bytes(1u64 << cap_shift)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(cell)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();
        if let Ok(sols) = solve_with_stats(&spec, None).result {
            for s in sols {
                assert!(s.access_time.is_finite() && s.access_time.value() > 0.0);
                assert!(s.area.is_finite() && s.area.value() > 0.0);
                assert!(s.read_energy.is_finite() && s.read_energy.value() > 0.0);
                assert!(s.leakage_power.is_finite() && s.leakage_power.value() > 0.0);
                let bits = s.org.rows(&spec)
                    * s.org.cols(&spec)
                    * u64::from(s.org.ndwl)
                    * u64::from(s.org.ndbl);
                assert_eq!(bits, spec.bank_bytes() * 8);
            }
        }
    }
}

/// A cache never holds more lines than its capacity, a line inserted is
/// findable until evicted, and eviction reports a previously-present line
/// of the same set.
#[test]
fn cache_capacity_and_lookup_invariants() {
    let mut rng = XorShift64Star::new(0xCAC7_1D03);
    for _ in 0..CASES {
        let n_ops = rng.next_in_range(1, 299);
        let mut cache: SetAssocCache = SetAssocCache::new(4096, 64, 4, 1); // 16 sets x 4 ways
        for _ in 0..n_ops {
            let line = rng.next_below(4096);
            let addr = line * 64;
            let ev = cache.insert(0, addr, LineState::Shared);
            assert!(cache.probe(0, addr).is_some(), "inserted line present");
            if let Some(e) = ev {
                // The evicted line maps to the same set as the inserted one.
                assert_eq!(cache.set_index(e.addr), cache.set_index(addr));
                assert!(cache.probe(0, e.addr).is_none(), "victim gone");
            }
            assert!(cache.valid_lines() <= 64);
        }
    }
}

/// DRAM channel timing invariants under arbitrary request streams:
/// completions never precede their request by less than the minimum
/// service time, page hits only occur under the open-page policy, and
/// every access pays at least CL + burst.
#[test]
fn dram_channel_time_is_causal() {
    let mut rng = XorShift64Star::new(0xCAC7_1D04);
    for _ in 0..CASES {
        let open = rng.next_bool(0.5);
        let policy = if open {
            PagePolicy::Open
        } else {
            PagePolicy::Closed
        };
        let cfg = dram_cfg(policy);
        let mut ch = DramChannel::new(cfg.clone());
        let mut now = 0u64;
        let n_reqs = rng.next_in_range(1, 199);
        for _ in 0..n_reqs {
            let addr = rng.next_below(1 << 22);
            now += rng.next_below(50);
            let a = ch.access(addr, now);
            let min_service = cfg.t_cl + cfg.t_burst;
            assert!(a.done_at >= now + min_service, "causality violated");
            if a.activated {
                assert!(a.done_at >= now + cfg.t_rcd + min_service);
            }
            if !open {
                assert!(!a.page_hit, "closed page never hits a row");
            }
            assert!(!(a.page_hit && a.activated), "hit implies no activate");
        }
    }
}

/// DRAM sense signal is monotone-decreasing in bitline length and the
/// technology tables interpolate within their anchors.
#[test]
fn dram_signal_monotone() {
    let mut rng = XorShift64Star::new(0xCAC7_1D05);
    let tech = Technology::new(TechNode::N32);
    let cell = tech.cell(CellTechnology::CommDram);
    for _ in 0..CASES {
        let rows_a = rng.next_in_range(16, 255) as usize;
        let extra = rng.next_in_range(1, 255) as usize;
        let a = cell.dram_sense_signal(rows_a).unwrap();
        let b = cell.dram_sense_signal(rows_a + extra).unwrap();
        assert!(b < a);
        assert!(a.value() < cell.vdd_cell.value() / 2.0 + 1e-12);
    }
}

#[test]
fn cache_eviction_is_set_local() {
    // Eviction occurs when a *set* fills, long before the whole cache is
    // full — verify with a direct conflict chain.
    let mut cache: SetAssocCache = SetAssocCache::new(4096, 64, 4, 1);
    // 5 lines in the same set (stride = sets × line = 16 × 64).
    for i in 0..5u64 {
        cache.insert(0, i * 1024, LineState::Shared);
    }
    assert_eq!(cache.valid_lines(), 4);
}

/// The staged/pruned solve pipeline and the debug-only unpruned reference
/// produce identical `(org, access_time, area, energy)` tuples for random
/// valid specs, and the pre-screen accounts for exactly the candidates the
/// full models reject.
#[test]
fn staged_solve_matches_the_unpruned_reference() {
    use cacti_d::core::{solve_with_stats, solve_with_stats_reference};
    let mut rng = XorShift64Star::new(0xCAC7_1D06);
    for _ in 0..CASES {
        let cap_shift = rng.next_in_range(16, 23) as u32;
        let assoc = 1u32 << rng.next_in_range(0, 4) as u32;
        let cell = CellTechnology::ALL[rng.next_below(3) as usize];
        let spec = MemorySpec::builder()
            .capacity_bytes(1u64 << cap_shift)
            .block_bytes(64)
            .associativity(assoc)
            .banks(1)
            .cell_tech(cell)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();
        let staged = solve_with_stats(&spec, None);
        let reference = solve_with_stats_reference(&spec);
        assert_eq!(
            staged.stats.bound_pruned, reference.stats.electrical_pruned,
            "pre-screen does not account for the model rejections"
        );
        match (staged.result, reference.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.org, y.org);
                    assert_eq!(x.access_time, y.access_time);
                    assert_eq!(x.area, y.area);
                    assert_eq!(x.read_energy, y.read_energy);
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("pipelines disagree on feasibility: {a:?} vs {b:?}"),
        }
    }
}

/// The select-only knobs never reach the organization sweep: for random
/// non-negative overhead caps and weights (exact zeros included), a spec's
/// `solve_with_stats` outcome is bitwise that of its sweep key, and
/// `select` over the key's shared solution set picks bitwise what it picks
/// over the spec's own — the exactness the explore engine's sweep sharing
/// rests on.
#[test]
fn select_knobs_never_change_the_sweep() {
    use cacti_d::core::{select, solve_with_stats, OptimizationOptions};
    let mut rng = XorShift64Star::new(0xCAC7_1D0F);
    // A knob in [0, hi), exactly zero one time in five.
    let knob = |rng: &mut XorShift64Star, hi: f64| {
        if rng.next_bool(0.2) {
            0.0
        } else {
            rng.next_f64() * hi
        }
    };
    for _ in 0..CASES / 2 {
        let cap_shift = rng.next_in_range(14, 19) as u32;
        let assoc = 1u32 << rng.next_in_range(0, 5) as u32;
        let cell = CellTechnology::ALL[rng.next_below(3) as usize];
        let node = [TechNode::N32, TechNode::N45, TechNode::N65, TechNode::N90]
            [rng.next_below(4) as usize];
        let Ok(base) = MemorySpec::builder()
            .capacity_bytes(1u64 << cap_shift)
            .block_bytes(64)
            .associativity(assoc)
            .banks(1)
            .cell_tech(cell)
            .node(node)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
        else {
            continue;
        };
        let key = solve_with_stats(&base.sweep_key(), None);
        for _ in 0..2 {
            let opt = OptimizationOptions {
                max_area_overhead: knob(&mut rng, 3.0),
                max_access_time_overhead: knob(&mut rng, 3.0),
                weight_dynamic: knob(&mut rng, 4.0),
                weight_leakage: knob(&mut rng, 4.0),
                weight_cycle: knob(&mut rng, 4.0),
                weight_interleave: knob(&mut rng, 4.0),
                ..OptimizationOptions::default()
            };
            let spec = MemorySpec {
                opt,
                ..base.clone()
            };
            assert_eq!(spec.sweep_key(), base.sweep_key());
            let own = solve_with_stats(&spec, None);
            assert_eq!(own.stats, key.stats);
            // Debug prints every f64 shortest-round-trip with its sign, so
            // equal strings mean equal bits.
            assert_eq!(format!("{:?}", own.result), format!("{:?}", key.result));
            if let (Ok(own_sols), Ok(key_sols)) = (&own.result, &key.result) {
                assert_eq!(
                    format!("{:?}", select(&spec, own_sols)),
                    format!("{:?}", select(&spec, key_sols))
                );
            }
        }
    }
}

/// Verdict agreement on random subarray geometries: the closed-form
/// pre-screen and the full electrical evaluation accept/reject exactly
/// the same `(cell, rows, cols)` points.
#[test]
fn prescreen_and_evaluation_agree_on_random_arrays() {
    use cacti_d::core::array::{evaluate, prescreen_explain, ArrayInput};

    let mut rng = XorShift64Star::new(0xCAC7_1D08);
    let nodes = [TechNode::N90, TechNode::N45, TechNode::N32];
    for _ in 0..CASES {
        let node = nodes[rng.next_below(3) as usize];
        let cell_tech = CellTechnology::ALL[rng.next_below(3) as usize];
        let rows = 1u64 << rng.next_in_range(4, 13);
        let cols = 1u64 << rng.next_in_range(5, 13);
        let tech = Technology::new(node);
        let cell = tech.cell(cell_tech);
        let input = ArrayInput {
            rows,
            cols,
            ndwl: 4,
            ndbl: 8,
            deg_bl_mux: 1,
            deg_sa_mux: 4,
            output_bits: cols.min(512),
            address_bits: 40,
            cell,
            periph: tech.peripheral_device(cell_tech),
            repeater_relax: 1.0,
            sleep_transistors: false,
            sense_fraction: 1.0,
        };

        let explained = prescreen_explain(&cell, rows, cols).map(|_| ());
        let evaluated = evaluate(&tech, &input);
        assert_eq!(
            explained.is_ok(),
            evaluated.is_ok(),
            "screen and evaluation disagree for {cell_tech:?}@{node:?} {rows}x{cols}"
        );
    }
}

/// Agreement on random cache specs: `static_screen` and the real staged
/// solve see the same organization population — identical enumeration and bound-prune counts, a provably
/// infeasible verdict reproduces the solve's exact error and stats, and a
/// maybe-feasible verdict never over-counts the survivors.
#[test]
fn static_screen_and_solve_agree_on_random_specs() {
    use cacti_d::core::array::prescreen_explain;
    use cacti_d::core::{org, solve_with_stats, static_screen, ScreenVerdict};

    let mut rng = XorShift64Star::new(0xCAC7_1D09);
    let nodes = [TechNode::N90, TechNode::N45, TechNode::N32];
    for _ in 0..CASES / 2 {
        let node = nodes[rng.next_below(3) as usize];
        let cell = CellTechnology::ALL[rng.next_below(3) as usize];
        let cap_shift = rng.next_in_range(14, 23) as u32;
        let assoc = 1u32 << rng.next_in_range(0, 4) as u32;
        let spec = MemorySpec::builder()
            .capacity_bytes(1u64 << cap_shift)
            .block_bytes(64)
            .associativity(assoc)
            .banks(1)
            .cell_tech(cell)
            .node(node)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap();

        let screen = static_screen(&spec);

        // The screen's aggregate must restate the per-org closed form.
        let tech = Technology::new(node);
        let cell_params = tech.cell(cell);
        let mut enumerated = 0usize;
        let mut rejected = 0usize;
        for o in org::enumerate_lazy(&spec) {
            enumerated += 1;
            if prescreen_explain(&cell_params, o.rows(&spec), o.cols(&spec)).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(screen.stats.orgs_enumerated, enumerated);
        assert_eq!(screen.stats.bound_pruned, rejected);
        assert_eq!(screen.reasons.total(), rejected);

        // And the real solve must see the same population.
        let solved = solve_with_stats(&spec, None);
        assert_eq!(solved.stats.orgs_enumerated, enumerated);
        assert_eq!(solved.stats.bound_pruned, rejected);
        match screen.verdict {
            ScreenVerdict::Infeasible(ref e) => {
                assert_eq!(solved.result.as_ref().err(), Some(e));
                assert_eq!(solved.stats, screen.stats, "infeasible stats diverge");
            }
            ScreenVerdict::MaybeFeasible { survivors } => {
                assert_eq!(survivors, enumerated - rejected);
                if let Ok(sols) = &solved.result {
                    assert!(sols.len() <= survivors, "more solutions than survivors");
                }
            }
        }
    }
}

/// One data-array sweep serves a whole bank geometry: for a random spec
/// and bank count `k`, the spec with `k` times the capacity over `k`
/// banks and the one-bank spec share [`ArraySweep`], and solving both
/// through it (many banks first) returns bitwise each one's own
/// `solve_with_stats`, stats included — with one memo carried through
/// every case, as a pooled memo is. The winners-only select through the
/// same sweep gives each of the three named knob sets of either spec
/// exactly `select` over that spec's own solve.
#[test]
fn one_array_sweep_serves_every_spec_of_its_bank_geometry() {
    use cacti_d::core::{select, solve_with_stats, ArraySweep, EvalMemo, OptimizationOptions};
    let named_knobs = [
        OptimizationOptions::default(),
        OptimizationOptions::ed(),
        OptimizationOptions::c(),
    ];
    let mut rng = XorShift64Star::new(0xCAC7_1D10);
    let mut memo = EvalMemo::new();
    let modes = [AccessMode::Normal, AccessMode::Sequential, AccessMode::Fast];
    for _ in 0..CASES / 2 {
        let cap_shift = rng.next_in_range(14, 21) as u32;
        let assoc = 1u32 << rng.next_in_range(0, 5) as u32;
        let cell = CellTechnology::ALL[rng.next_below(3) as usize];
        let node = [TechNode::N32, TechNode::N45, TechNode::N65, TechNode::N90]
            [rng.next_below(4) as usize];
        let access_mode = modes[rng.next_below(3) as usize];
        let banks = 1u32 << rng.next_in_range(0, 4) as u32;
        let build = |k: u32| {
            MemorySpec::builder()
                .capacity_bytes((1u64 << cap_shift) * u64::from(k))
                .block_bytes(64)
                .associativity(assoc)
                .banks(k)
                .cell_tech(cell)
                .node(node)
                .kind(MemoryKind::Cache { access_mode })
                .build()
        };
        let (Ok(one), Ok(many)) = (build(1), build(banks)) else {
            continue;
        };
        assert_eq!(one.array_key(), many.array_key());
        let sweep = ArraySweep::new(&many);
        for spec in [&many, &one] {
            let shared = sweep.solve(spec, &mut memo);
            let own = solve_with_stats(spec, None);
            assert_eq!(shared.stats, own.stats, "{spec:?}");
            assert_eq!(
                format!("{:?}", shared.result),
                format!("{:?}", own.result),
                "{spec:?}"
            );
            let members: Vec<MemorySpec> = named_knobs
                .iter()
                .map(|opt| MemorySpec {
                    opt: opt.clone(),
                    ..spec.clone()
                })
                .collect();
            let refs: Vec<&MemorySpec> = members.iter().collect();
            let winners = sweep.select(&refs, &mut memo);
            assert_eq!(winners.stats, own.stats, "{spec:?}");
            for (member, winner) in members.iter().zip(&winners.results) {
                let expected = match &own.result {
                    Ok(sols) => select(member, sols),
                    Err(e) => Err(e.clone()),
                };
                assert_eq!(format!("{winner:?}"), format!("{expected:?}"), "{member:?}");
            }
        }
    }
}

/// Memo-carrying evaluation is independent of order and of context:
/// evaluating the candidates of two random specs (random cells, nodes and
/// `repeater_relax`), shuffled together, through one [`EvalMemo`] that
/// every case shares returns, for every candidate, exactly the
/// from-scratch result. Sweep order and earlier contexts only change which
/// slots and design tables hit; they can never change what a lookup
/// returns, because every key covers the complete set of inputs it reads.
#[test]
fn incremental_evaluation_carries_no_enumeration_order_dependence() {
    use cacti_d::core::array::{evaluate, evaluate_incremental, ArrayInput, EvalMemo};
    use cacti_d::core::org;

    let mut rng = XorShift64Star::new(0xCAC7_1D0A);
    let mut memo = EvalMemo::new();
    for _ in 0..CASES / 4 {
        let mut inputs = Vec::new();
        for _ in 0..2 {
            let cap_shift = rng.next_in_range(16, 21) as u32;
            let assoc = 1u32 << rng.next_in_range(0, 4) as u32;
            let cell_tech = CellTechnology::ALL[rng.next_below(3) as usize];
            let node = [TechNode::N32, TechNode::N45, TechNode::N65, TechNode::N90]
                [rng.next_below(4) as usize];
            let repeater_relax = [1.0, 1.5][rng.next_below(2) as usize];
            let Ok(spec) = MemorySpec::builder()
                .capacity_bytes(1u64 << cap_shift)
                .block_bytes(64)
                .associativity(assoc)
                .banks(1)
                .cell_tech(cell_tech)
                .node(node)
                .kind(MemoryKind::Cache {
                    access_mode: AccessMode::Normal,
                })
                .build()
            else {
                continue;
            };
            let tech = Technology::cached(node);
            for o in org::enumerate_lazy(&spec) {
                let input = ArrayInput {
                    rows: o.rows(&spec),
                    cols: o.cols(&spec),
                    ndwl: o.ndwl,
                    ndbl: o.ndbl,
                    deg_bl_mux: o.deg_bl_mux,
                    deg_sa_mux: o.deg_sa_mux,
                    output_bits: spec.output_bits(),
                    address_bits: spec.address_bits,
                    cell: tech.cell(cell_tech),
                    periph: tech.peripheral_device(cell_tech),
                    repeater_relax,
                    sleep_transistors: spec.opt.sleep_transistors,
                    sense_fraction: spec.sense_fraction(),
                };
                inputs.push((tech, o, input));
            }
        }

        // Fisher–Yates shuffle of the two sweeps together.
        for i in (1..inputs.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            inputs.swap(i, j);
        }

        for (tech, o, input) in &inputs {
            match (
                evaluate(tech, input),
                evaluate_incremental(tech, input, &mut memo),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "shuffled-order divergence at org {o:?}"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("feasibility flipped at org {o:?}: {a:?} vs {b:?}"),
            }
        }
    }
    assert!(memo.design_hits() > 0);
}
