//! Pins the analyzer's rendered output byte for byte: one report per
//! stage, rendered as rustc-style text and as JSONL, across which every
//! rule code fires at least once. The inputs are broken specs, corrupted
//! cell tables, hand-made organizations, solutions with corrupted fields
//! and a run JSONL with defects; the goldens hold their rendering.

use cactid_analyze::{
    render::render, render_json, Analyzer, Check, LintContext, Report, RunContext,
};
use cactid_analyze::{Severity, Stage, Suggestion, RULES};
use cactid_core::{AccessMode, MemoryKind, MemorySpec, OptimizationOptions, OrgParams, Solution};
use cactid_tech::{CellTechnology, TechNode};
use cactid_units::{Farads, Joules, Ohms, Seconds, SquareMeters, Volts, Watts};
use std::collections::BTreeSet;

/// Every rule of `stage` run over each context in turn, into one report.
fn stage_report(stage: Stage, contexts: &[LintContext<'_>]) -> Report {
    let mut report = Report::new();
    for ctx in contexts {
        for rule in RULES.iter().filter(|r| r.stage() == stage) {
            if let Check::Spec(check) | Check::Organization(check) | Check::Solution(check) =
                rule.check
            {
                check(rule.code, ctx, &mut report);
            }
        }
    }
    report
}

fn cache(capacity: u64, cell: CellTechnology) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(capacity)
        .block_bytes(64)
        .associativity(8)
        .banks(1)
        .cell_tech(cell)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .unwrap()
}

fn main_memory() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 27)
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

/// CD0001–CD0009: a main-memory spec that breaks every spec invariant, a
/// cache spec with every lint-only warning, and the two specs' contexts
/// with corrupted Table-1 cell parameters.
fn spec_report() -> Report {
    let broken = MemorySpec {
        capacity_bytes: 1536 << 10,
        block_bytes: 48,
        associativity: 8,
        n_banks: 3,
        kind: MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 4,
            page_bits: 8 << 10,
        },
        cell_tech: CellTechnology::Sram,
        node: TechNode::N32,
        address_bits: 16,
        opt: OptimizationOptions {
            weight_leakage: -1.0,
            repeater_relax: 0.5,
            ..OptimizationOptions::default()
        },
    };
    let suspicious = MemorySpec {
        capacity_bytes: 1 << 20,
        block_bytes: 8,
        associativity: 8,
        n_banks: 128,
        kind: MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        },
        cell_tech: CellTechnology::Sram,
        node: TechNode::N78,
        address_bits: 60,
        opt: OptimizationOptions {
            weight_dynamic: 0.0,
            weight_leakage: 0.0,
            weight_cycle: 0.0,
            weight_interleave: 0.0,
            repeater_relax: 6.0,
            max_area_overhead: 20.0,
            ..OptimizationOptions::default()
        },
    };
    let sram = cache(1 << 20, CellTechnology::Sram);
    let dram = cache(1 << 20, CellTechnology::LpDram);
    let mut bad_sram = LintContext::for_spec(&sram);
    bad_sram.cell.vdd_cell = Volts::from_si(5.0);
    bad_sram.cell.vpp = Volts::from_si(1.0);
    bad_sram.cell.i_cell_read = cactid_units::Amperes::ZERO;
    bad_sram.cell.retention_time = Seconds::from_si(1.0e-3);
    let mut bad_dram = LintContext::for_spec(&dram);
    bad_dram.cell.v_sense_margin = Volts::ZERO;
    bad_dram.cell.r_access_on = Ohms::ZERO;
    let mut leaky_dram = LintContext::for_spec(&dram);
    leaky_dram.cell.c_storage = Farads::from_si(200e-15);
    let mut empty_dram = LintContext::for_spec(&dram);
    empty_dram.cell.c_storage = Farads::ZERO;
    stage_report(
        Stage::Spec,
        &[
            LintContext::for_spec(&broken),
            LintContext::for_spec(&suspicious),
            bad_sram,
            bad_dram,
            leaky_dram,
            empty_dram,
        ],
    )
}

/// CD0010–CD0014 and CD0020: hand-made organizations of a 1 MB cache,
/// two with corrupted cell parameters to reach the wordline and sense
/// margin bounds, handed to `f` as lint contexts.
fn with_org_contexts<R>(f: impl FnOnce(&[LintContext<'_>]) -> R) -> R {
    let sram = cache(1 << 20, CellTechnology::Sram);
    let dram = cache(1 << 20, CellTechnology::LpDram);
    let mm = main_memory();
    let org = |ndwl, ndbl, nspd, deg_bl_mux, deg_sa_mux| OrgParams {
        ndwl,
        ndbl,
        nspd,
        deg_bl_mux,
        deg_sa_mux,
    };
    let unsplit = org(3, 8, 1.0, 2, 4);
    let huge = org(512, 2048, -1.0, 0, 4);
    let torn = org(8, 512, 3.0, 2, 4);
    let muxed = org(8, 8, 1.0, 2, 8);
    let tall = org(1, 1, 0.25, 1, 2);
    let wide = org(1, 1, 8.0, 16, 4);
    let flat = org(2, 4096, 1.0, 1, 8);
    let striped = org(8, 8, 2.0, 1, 8);
    let mut rc = LintContext::for_spec(&sram).with_org(&wide);
    rc.cell.r_wordline_per_cell *= 1000.0;
    let mut near_rc = LintContext::for_spec(&sram).with_org(&muxed);
    near_rc.cell.r_wordline_per_cell *= 60.0;
    let mut margin = LintContext::for_spec(&dram).with_org(&tall);
    margin.cell.max_rows_per_subarray = usize::MAX;
    f(&[
        LintContext::for_spec(&sram).with_org(&unsplit),
        LintContext::for_spec(&sram).with_org(&huge),
        LintContext::for_spec(&sram).with_org(&torn),
        LintContext::for_spec(&sram).with_org(&muxed),
        LintContext::for_spec(&dram).with_org(&muxed),
        LintContext::for_spec(&dram).with_org(&tall),
        LintContext::for_spec(&sram).with_org(&flat),
        LintContext::for_spec(&mm).with_org(&striped),
        rc,
        near_rc,
        margin,
    ])
}

fn org_report() -> Report {
    with_org_contexts(|contexts| stage_report(Stage::Organization, contexts))
}

/// CD0015–CD0019, CD0021 and CD0022: solved designs with corrupted
/// fields.
fn solution_report() -> Report {
    let mm = main_memory();
    let sram = cache(256 << 10, CellTechnology::Sram);
    let dram = cache(256 << 10, CellTechnology::LpDram);
    let solve = |spec: &MemorySpec| -> Solution { cactid_core::optimize(spec).unwrap() };

    let mut timing = solve(&mm);
    {
        let t = &mut timing.main_memory.as_mut().unwrap().timing;
        t.cas_latency = timing.access_time;
        t.t_rc = t.t_ras;
        t.t_ras = t.t_rcd * 0.5;
        t.t_rrd = Seconds::from_si(-1e-9);
    }
    let mut slow_rrd = solve(&mm);
    {
        let t = &mut slow_rrd.main_memory.as_mut().unwrap().timing;
        t.t_rrd = t.t_rc * 2.0;
    }
    let mut zero_cas = solve(&mm);
    zero_cas.main_memory.as_mut().unwrap().timing.cas_latency = Seconds::ZERO;
    let mut energies = solve(&mm);
    {
        let e = &mut energies.main_memory.as_mut().unwrap().energies;
        e.write = e.read / 2.0;
        e.activate = Joules::from_si(1.0e-17);
        e.standby_power = Watts::ZERO;
    }
    energies.read_energy = Joules::from_si(2.0);
    energies.write_energy = Joules::from_si(f64::INFINITY);
    energies.area_efficiency = 1.7;
    let mut zero_energy = solve(&mm);
    zero_energy.main_memory.as_mut().unwrap().energies.read = Joules::ZERO;

    let mut metrics = solve(&sram);
    metrics.access_time = Seconds::from_si(f64::NAN);
    metrics.random_cycle = Seconds::from_si(3.2);
    metrics.interleave_cycle = Seconds::ZERO;
    metrics.area = SquareMeters::from_si(-1.0);
    metrics.leakage_power = Watts::from_si(f64::NAN);
    metrics.refresh_power = Watts::from_si(0.5);
    metrics.area_efficiency = 0.01;
    metrics.tag = None;
    metrics.main_memory = timing.main_memory.clone();
    let mut unrefreshed = solve(&dram);
    unrefreshed.refresh_power = Watts::ZERO;
    unrefreshed.write_energy = Joules::from_si(1.0e-16);

    stage_report(
        Stage::Solution,
        &[
            LintContext::for_spec(&mm).with_solution(&timing),
            LintContext::for_spec(&mm).with_solution(&slow_rrd),
            LintContext::for_spec(&mm).with_solution(&zero_cas),
            LintContext::for_spec(&mm).with_solution(&energies),
            LintContext::for_spec(&mm).with_solution(&zero_energy),
            LintContext::for_spec(&sram).with_solution(&metrics),
            LintContext::for_spec(&dram).with_solution(&unrefreshed),
        ],
    )
}

/// One solved record of a 64 B, 8-way, one-bank SRAM capacity sweep.
fn record(idx: u64, capacity: u64, access: f64, area: f64, pareto: &str) -> String {
    format!(
        "{{\"idx\":{idx},\"capacity_bytes\":{capacity},\"block_bytes\":64,\
         \"associativity\":8,\"banks\":1,\"node_nm\":32,\"cell\":\"sram\",\
         \"mode\":\"normal\",\"opt\":\"default\",\"status\":\"ok\",\
         \"access_ns\":{access},\"random_cycle_ns\":0.5,\"read_nj\":0.02,\
         \"write_nj\":0.02,\"area_mm2\":{area},\"leakage_mw\":10.0,\
         \"refresh_mw\":0{pareto}}}"
    )
}

/// CD0101–CD0105: a run whose sweep shrinks, whose Pareto annotations
/// lie, whose metrics leave their windows and whose records are broken.
fn run_report() -> Report {
    let frontier = |n| format!(",\"pareto\":{{\"frontier\":true,\"dominates\":{n}}}");
    let lines = [
        record(0, 64 << 10, 2.0, 0.4, &frontier(1)),
        record(1, 128 << 10, 1.0, 0.2, &frontier(0)),
        record(2, 256 << 10, 3.0, 0.8, &frontier(0)),
        record(3, 512 << 10, 2e6, 0.9, ",\"pareto\":{\"frontier\":false}"),
        record(4, 1 << 20, 0.5, 0.1, ",\"pareto\":{\"frontier\":false}")
            .replace("\"read_nj\":0.02", "\"read_nj\":5000"),
        record(4, 2 << 20, 4.0, 1.6, ""),
        r#"{"status":"ok"}"#.to_string(),
        r#"{"idx":7,"status":"exploded"}"#.to_string(),
        r#"{"idx":8}"#.to_string(),
        r#"{"idx":9,"status":"infeasible"}"#.to_string(),
        "not json".to_string(),
        "[1,2]".to_string(),
    ];
    Analyzer::new().lint_run(&RunContext::parse(&lines.join("\n")))
}

fn reports() -> [Report; 4] {
    [spec_report(), org_report(), solution_report(), run_report()]
}

#[test]
fn every_rule_fires_in_the_golden_reports() {
    let fired: BTreeSet<&str> = reports()
        .iter()
        .flat_map(|r| r.iter().map(|d| d.code).collect::<Vec<_>>())
        .collect();
    let all: BTreeSet<&str> = RULES.iter().map(|r| r.code).collect();
    let silent: Vec<&&str> = all.difference(&fired).collect();
    assert!(silent.is_empty(), "rules that never fire: {silent:?}");
}

#[test]
fn text_rendering_matches_the_golden() {
    let text: String = reports().iter().map(render).collect();
    assert_eq!(text, include_str!("goldens/every_rule.txt"));
}

#[test]
fn json_rendering_matches_the_golden() {
    let json: String = reports().iter().map(render_json).collect();
    assert_eq!(json, include_str!("goldens/every_rule.jsonl"));
}

/// Sets the organization field `suggestion` names to its value.
fn apply(org: &mut OrgParams, suggestion: &Suggestion) {
    let value = &suggestion.value;
    match suggestion.field.field {
        "ndwl" => org.ndwl = value.parse().unwrap(),
        "ndbl" => org.ndbl = value.parse().unwrap(),
        "nspd" => org.nspd = value.parse().unwrap(),
        "deg_bl_mux" => org.deg_bl_mux = value.parse().unwrap(),
        "deg_sa_mux" => org.deg_sa_mux = value.parse().unwrap(),
        field => panic!("no organization field {field}"),
    }
}

/// The errors of `report` as (code, field) pairs.
fn errors(report: &Report) -> BTreeSet<(&'static str, &'static str)> {
    report
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| (d.code, d.location.field))
        .collect()
}

#[test]
fn the_wordline_suggestion_clears_its_error_and_adds_none() {
    // CD0014 suggests splitting the wordline further. Its suggestion,
    // applied to each golden organization it fires on, clears the
    // CD0014 error and raises no error the organization did not have:
    // `ndwl = 3` is told 4, not 6, which CD0010 would refuse.
    let applied = with_org_contexts(|contexts| {
        let mut applied = Vec::new();
        for ctx in contexts {
            let before = stage_report(Stage::Organization, std::slice::from_ref(ctx));
            for d in before.iter().filter(|d| d.code == "CD0014") {
                let Some(suggestion) = &d.suggestion else {
                    continue;
                };
                let mut org = *ctx.org.unwrap();
                apply(&mut org, suggestion);
                let fixed = LintContext {
                    org: Some(&org),
                    ..ctx.clone()
                };
                let after = stage_report(Stage::Organization, &[fixed]);
                let (was, now) = (errors(&before), errors(&after));
                assert!(
                    !now.contains(&("CD0014", "ndwl")),
                    "{suggestion} left CD0014 firing"
                );
                assert!(
                    now.is_subset(&was),
                    "{suggestion} raised {:?}",
                    now.difference(&was).collect::<Vec<_>>()
                );
                applied.push((ctx.org.unwrap().ndwl, org.ndwl));
            }
        }
        applied
    });
    assert!(applied.contains(&(3, 4)), "{applied:?}");
}

#[test]
fn a_zero_mux_degree_is_reported_at_its_own_field() {
    // CD0012 names the degree that is zero, not the other one.
    let sram = cache(1 << 20, CellTechnology::Sram);
    let located = |deg_bl_mux, deg_sa_mux| {
        let org = OrgParams {
            ndwl: 4,
            ndbl: 8,
            nspd: 1.0,
            deg_bl_mux,
            deg_sa_mux,
        };
        let ctx = LintContext::for_spec(&sram).with_org(&org);
        let report = stage_report(Stage::Organization, &[ctx]);
        report
            .iter()
            .filter(|d| d.code == "CD0012" && d.message == "mux degrees must be nonzero")
            .map(|d| d.location.field)
            .collect::<Vec<_>>()
    };
    assert_eq!(located(0, 4), ["deg_bl_mux"]);
    assert_eq!(located(2, 0), ["deg_sa_mux"]);
    assert_eq!(located(0, 0), ["deg_bl_mux", "deg_sa_mux"]);
    assert!(located(2, 4).is_empty());
}
