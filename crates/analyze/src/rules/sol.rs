//! Solution-stage rules `CD0015`–`CD0019`, `CD0021` and `CD0022`: DRAM
//! command-timing inequalities, metric sanity, refresh/structure
//! consistency, and physical-plausibility windows on assembled solutions.

use crate::context::LintContext;
use crate::lint::{Diagnostic, Location, Report, Severity};
use crate::rule::{Rule, Stage};
use crate::rules::{approx_eq, approx_ge};
use cactid_core::{main_memory, MemoryKind};
use cactid_units::{Joules, Seconds, Watts};

/// All seven solution-stage rules, ordered by code.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DramTimingInequalities),
        Box::new(FiniteMetrics),
        Box::new(RefreshConsistency),
        Box::new(AreaEfficiency),
        Box::new(EnergyOrdering),
        Box::new(AccessTimePlausibility),
        Box::new(EnergyPlausibility),
    ]
}

/// `CD0015`: the §2.3.2 DRAM command timings obey their defining
/// inequalities — `tRCD + CAS ≤ access`, `tRC = tRAS + tRP`,
/// `tRAS ≥ tRCD` (the row must stay open through restore), and
/// `0 < tRRD ≤ tRC`.
pub struct DramTimingInequalities;

impl Rule for DramTimingInequalities {
    fn code(&self) -> &'static str {
        "CD0015"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "tRCD + CAS ≤ access, tRC = tRAS + tRP, tRAS ≥ tRCD, 0 < tRRD ≤ tRC"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.3.2"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let Some(mm) = &sol.main_memory else { return };
        let t = &mm.timing;
        for (field, v) in [
            ("timing.t_rcd", t.t_rcd.value()),
            ("timing.cas_latency", t.cas_latency.value()),
            ("timing.t_ras", t.t_ras.value()),
            ("timing.t_rp", t.t_rp.value()),
            ("timing.t_rc", t.t_rc.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::main_memory(field),
                    format!("{field} = {v:.3e} s must be positive and finite"),
                ));
                return;
            }
        }
        let readout = t.t_rcd + t.cas_latency;
        if !approx_ge(sol.access_time.value(), readout.value()) {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::main_memory("timing.cas_latency"),
                    format!(
                        "tRCD ({:.2} ns) + CAS ({:.2} ns) = {:.2} ns exceeds the reported \
                         access time of {:.2} ns — data cannot be out before the column \
                         path finishes",
                        t.t_rcd.value() * 1e9,
                        t.cas_latency.value() * 1e9,
                        readout.value() * 1e9,
                        sol.access_time.value() * 1e9
                    ),
                )
                .with_suggestion(
                    Location::solution("access_time"),
                    format!("{:.4e}", readout.value()),
                ),
            );
        }
        if !approx_eq(t.t_rc.value(), (t.t_ras + t.t_rp).value()) {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::main_memory("timing.t_rc"),
                    format!(
                        "tRC ({:.2} ns) ≠ tRAS + tRP ({:.2} ns): the row cycle is the \
                         restore window plus precharge by definition",
                        t.t_rc.value() * 1e9,
                        (t.t_ras + t.t_rp).value() * 1e9
                    ),
                )
                .with_suggestion(
                    Location::main_memory("timing.t_rc"),
                    format!("{:.4e}", (t.t_ras + t.t_rp).value()),
                ),
            );
        }
        if !approx_ge(t.t_ras.value(), t.t_rcd.value()) {
            report.push(Diagnostic::error(
                self.code(),
                Location::main_memory("timing.t_ras"),
                format!(
                    "tRAS ({:.2} ns) is below tRCD ({:.2} ns): the row would close before \
                     its cells finish restoring",
                    t.t_ras.value() * 1e9,
                    t.t_rcd.value() * 1e9
                ),
            ));
        }
        if !(t.t_rrd.is_finite() && t.t_rrd.value() > 0.0) {
            report.push(Diagnostic::error(
                self.code(),
                Location::main_memory("timing.t_rrd"),
                format!(
                    "tRRD = {:.3e} s must be positive — back-to-back activates are \
                     rate-limited by peak current",
                    t.t_rrd.value()
                ),
            ));
        } else if !approx_ge(t.t_rc.value(), t.t_rrd.value()) {
            report.push(Diagnostic::error(
                self.code(),
                Location::main_memory("timing.t_rrd"),
                format!(
                    "tRRD ({:.2} ns) exceeds tRC ({:.2} ns): bank interleaving would be \
                     slower than reusing one bank",
                    t.t_rrd.value() * 1e9,
                    t.t_rc.value() * 1e9
                ),
            ));
        }
    }
}

/// `CD0016`: every solution-level metric is finite, times/energies/area
/// strictly positive, powers non-negative.
pub struct FiniteMetrics;

impl Rule for FiniteMetrics {
    fn code(&self) -> &'static str {
        "CD0016"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "times, energies and area positive and finite; powers non-negative"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let strict = [
            ("access_time", sol.access_time.value()),
            ("random_cycle", sol.random_cycle.value()),
            ("interleave_cycle", sol.interleave_cycle.value()),
            ("area", sol.area.value()),
            ("read_energy", sol.read_energy.value()),
            ("write_energy", sol.write_energy.value()),
        ];
        for (field, v) in strict {
            if !(v.is_finite() && v > 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::solution(field),
                    format!("{field} = {v:.3e} must be positive and finite"),
                ));
            }
        }
        for (field, v) in [
            ("leakage_power", sol.leakage_power.value()),
            ("refresh_power", sol.refresh_power.value()),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::solution(field),
                    format!("{field} = {v:.3e} W must be non-negative and finite"),
                ));
            }
        }
    }
}

/// `CD0017`: structural consistency — caches carry a tag array, main
/// memory carries a chip-level result, and refresh power is present
/// exactly when the cells are DRAM.
pub struct RefreshConsistency;

impl Rule for RefreshConsistency {
    fn code(&self) -> &'static str {
        "CD0017"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "DRAM solutions must pay refresh power; SRAM must not (and structure matches kind)"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.3.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let spec = ctx.spec;
        if spec.kind.is_cache() != sol.tag.is_some() {
            report.push(Diagnostic::error(
                self.code(),
                Location::solution("tag"),
                if spec.kind.is_cache() {
                    "a cache solution is missing its tag array"
                } else {
                    "a non-cache solution carries a tag array"
                },
            ));
        }
        let is_mm = matches!(spec.kind, MemoryKind::MainMemory { .. });
        if is_mm != sol.main_memory.is_some() {
            report.push(Diagnostic::error(
                self.code(),
                Location::solution("main_memory"),
                if is_mm {
                    "a main-memory solution is missing its chip-level result"
                } else {
                    "a non-main-memory solution carries a chip-level DRAM result"
                },
            ));
        }
        if spec.cell_tech.is_dram() {
            if sol.refresh_power <= Watts::ZERO {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::solution("refresh_power"),
                    format!(
                        "{} cells leak their storage charge (retention {:.2e} s) but the \
                         solution pays no refresh power",
                        spec.cell_tech,
                        ctx.cell.retention_time.value()
                    ),
                ));
            }
        } else if sol.refresh_power != Watts::ZERO {
            report.push(
                Diagnostic::error(
                    self.code(),
                    Location::solution("refresh_power"),
                    format!(
                        "an SRAM solution reports {:.3e} W of refresh power; static cells \
                         never refresh",
                        sol.refresh_power.value()
                    ),
                )
                .with_suggestion(Location::solution("refresh_power"), "0.0"),
            );
        }
    }
}

/// `CD0018`: area efficiency is a physical fraction.
pub struct AreaEfficiency;

impl Rule for AreaEfficiency {
    fn code(&self) -> &'static str {
        "CD0018"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "area efficiency must lie in (0, 1]; below 2% the organization is degenerate"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let e = sol.area_efficiency;
        if !(e.is_finite() && e > 0.0 && e <= 1.0 + 1e-9) {
            report.push(Diagnostic::error(
                self.code(),
                Location::solution("area_efficiency"),
                format!(
                    "area efficiency {e:.3} is not a physical fraction — cells cannot \
                     occupy less than nothing or more than the whole die"
                ),
            ));
        } else if e < 0.02 {
            report.push(Diagnostic::warn(
                self.code(),
                Location::solution("area_efficiency"),
                format!(
                    "area efficiency {:.1}% — periphery dwarfs the cells; the organization \
                     is close to degenerate",
                    e * 100.0
                ),
            ));
        }
    }
}

/// `CD0019`: main-memory command energies are ordered as the model
/// dictates and the standby power includes the always-on interface floor.
pub struct EnergyOrdering;

impl Rule for EnergyOrdering {
    fn code(&self) -> &'static str {
        "CD0019"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "WRITE ≥ READ energy, ACTIVATE dominates READ, standby ≥ interface floor"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.3.5"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let Some(mm) = &sol.main_memory else { return };
        let e = &mm.energies;
        for (field, v) in [
            ("energies.activate", e.activate.value()),
            ("energies.read", e.read.value()),
            ("energies.write", e.write.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                report.push(Diagnostic::error(
                    self.code(),
                    Location::main_memory(field),
                    format!("{field} = {v:.3e} J must be positive and finite"),
                ));
                return;
            }
        }
        if !approx_ge(e.write.value(), e.read.value()) {
            report.push(Diagnostic::error(
                self.code(),
                Location::main_memory("energies.write"),
                format!(
                    "WRITE energy ({:.3e} J) is below READ ({:.3e} J): a write drives the \
                     same column path and restores cells on top",
                    e.write.value(),
                    e.read.value()
                ),
            ));
        }
        if !approx_ge(e.activate.value(), e.read.value()) {
            report.push(Diagnostic::warn(
                self.code(),
                Location::main_memory("energies.activate"),
                format!(
                    "ACTIVATE energy ({:.3e} J) does not dominate READ ({:.3e} J) — \
                     unusual for a page-based DRAM, where sensing the row is the \
                     expensive step",
                    e.activate.value(),
                    e.read.value()
                ),
            ));
        }
        if !approx_ge(
            e.standby_power.value(),
            main_memory::cal::STANDBY_IO_POWER.value(),
        ) {
            report.push(Diagnostic::error(
                self.code(),
                Location::main_memory("energies.standby_power"),
                format!(
                    "standby power {:.3} W is below the always-on interface floor of \
                     {:.3} W (DLL, input buffers, charge pumps)",
                    e.standby_power.value(),
                    main_memory::cal::STANDBY_IO_POWER.value()
                ),
            ));
        }
    }
}

/// `CD0021`: the reported access and cycle times land inside the window
/// any on-chip memory at these nodes can physically occupy — [1 ps, 1 ms].
/// Values outside it are dimensionally valid `Seconds` but betray a unit
/// mix-up at a `from_si`/`value` boundary (e.g. nanoseconds fed as
/// seconds), which the typed algebra alone cannot catch.
pub struct AccessTimePlausibility;

/// Fastest plausible access for any array the model can build: 1 ps.
pub const ACCESS_TIME_MIN: Seconds = Seconds::from_si(1.0e-12);
/// Slowest plausible access before the design is nonsense: 1 ms.
pub const ACCESS_TIME_MAX: Seconds = Seconds::from_si(1.0e-3);

impl Rule for AccessTimePlausibility {
    fn code(&self) -> &'static str {
        "CD0021"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "access and cycle times must land in the physically plausible [1 ps, 1 ms] window"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        for (field, t) in [
            ("access_time", sol.access_time),
            ("random_cycle", sol.random_cycle),
            ("interleave_cycle", sol.interleave_cycle),
        ] {
            if !t.is_finite() {
                // CD0016 reports the error; this warning additionally marks
                // the consequence on the exploration side: a non-finite
                // objective is excluded from Pareto-frontier extraction.
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::solution(field),
                    format!(
                        "{field} = {:?} s is not a finite time — the point is \
                         excluded from Pareto-frontier extraction",
                        t.value()
                    ),
                ));
                continue;
            }
            // Non-positive values are CD0016's to report.
            if t <= Seconds::ZERO {
                continue;
            }
            if t < ACCESS_TIME_MIN || t > ACCESS_TIME_MAX {
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::solution(field),
                    format!(
                        "{field} = {:.3e} s lies outside the plausible [1 ps, 1 ms] \
                         window — a time this far out usually means a value crossed a \
                         `from_si`/`value` boundary in the wrong unit",
                        t.value()
                    ),
                ));
            }
        }
    }
}

/// `CD0022`: per-access dynamic energies land inside [1 fJ, 1 µJ] — the
/// window spanning a single minimum-geometry gate toggle up to the largest
/// monolithic array the model can produce. Like `CD0021`, this guards the
/// raw-`f64` escape hatches, not the algebra.
pub struct EnergyPlausibility;

/// Least plausible per-access dynamic energy: 1 fJ.
pub const DYN_ENERGY_MIN: Joules = Joules::from_si(1.0e-15);
/// Greatest plausible per-access dynamic energy: 1 µJ.
pub const DYN_ENERGY_MAX: Joules = Joules::from_si(1.0e-6);

impl Rule for EnergyPlausibility {
    fn code(&self) -> &'static str {
        "CD0022"
    }
    fn stage(&self) -> Stage {
        Stage::Solution
    }
    fn summary(&self) -> &'static str {
        "per-access dynamic energies must land in the plausible [1 fJ, 1 µJ] window"
    }
    fn paper_ref(&self) -> &'static str {
        "§2.4"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn check(&self, ctx: &LintContext<'_>, report: &mut Report) {
        let Some(sol) = ctx.solution else { return };
        let mut energies = vec![
            ("read_energy", sol.read_energy),
            ("write_energy", sol.write_energy),
        ];
        if let Some(mm) = &sol.main_memory {
            energies.push(("main_memory.energies.activate", mm.energies.activate));
            energies.push(("main_memory.energies.read", mm.energies.read));
            energies.push(("main_memory.energies.write", mm.energies.write));
        }
        for (field, e) in energies {
            if !e.is_finite() {
                // As in CD0021: CD0016/CD0019 carry the error; this marks
                // the Pareto-exclusion consequence.
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::solution(field),
                    format!(
                        "{field} = {:?} J is not a finite energy — the point is \
                         excluded from Pareto-frontier extraction",
                        e.value()
                    ),
                ));
                continue;
            }
            // Non-positive values are CD0016/CD0019 material.
            if e <= Joules::ZERO {
                continue;
            }
            if e < DYN_ENERGY_MIN || e > DYN_ENERGY_MAX {
                report.push(Diagnostic::warn(
                    self.code(),
                    Location::solution(field),
                    format!(
                        "{field} = {:.3e} J lies outside the plausible [1 fJ, 1 µJ] \
                         window — check for a pJ/nJ scale slip at a serialization \
                         boundary",
                        e.value()
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_core::{AccessMode, MemorySpec, Solution};
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::{Seconds, SquareMeters};

    fn cache_solution(cell: CellTechnology) -> (MemorySpec, Solution) {
        let spec = MemorySpec::builder()
            .capacity_bytes(256 << 10)
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
        let sol = cactid_core::optimize(&spec).unwrap();
        (spec, sol)
    }

    fn mm_solution() -> (MemorySpec, Solution) {
        let spec = MemorySpec::builder()
            .capacity_bytes(1 << 27) // 1 Gb chip
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
            .unwrap();
        let sol = cactid_core::optimize(&spec).unwrap();
        (spec, sol)
    }

    fn run(rule: &dyn Rule, spec: &MemorySpec, sol: &Solution) -> Report {
        let ctx = LintContext::for_spec(spec).with_solution(sol);
        let mut report = Report::new();
        rule.check(&ctx, &mut report);
        report
    }

    #[test]
    fn real_solutions_pass_all_solution_rules() {
        let (sram_spec, sram_sol) = cache_solution(CellTechnology::Sram);
        let (mm_spec, mm_sol) = mm_solution();
        for rule in all() {
            for (spec, sol) in [(&sram_spec, &sram_sol), (&mm_spec, &mm_sol)] {
                let r = run(rule.as_ref(), spec, sol);
                assert!(
                    r.is_clean(),
                    "{} on {:?}: {:?}",
                    rule.code(),
                    spec.kind,
                    r.as_slice()
                );
            }
        }
    }

    #[test]
    fn cd0015_triggers_when_cas_plus_trcd_exceeds_access() {
        let (spec, mut sol) = mm_solution();
        let mm = sol.main_memory.as_mut().unwrap();
        mm.timing.cas_latency = sol.access_time; // tRCD + CAS > access now
        let r = run(&DramTimingInequalities, &spec, &sol);
        assert!(!r.is_clean());
        let d = r.iter().find(|d| d.code == "CD0015").unwrap();
        assert_eq!(
            d.location.to_string(),
            "solution.main_memory.timing.cas_latency"
        );
        assert!(d.suggestion.is_some(), "suggests the correct access time");
    }

    #[test]
    fn cd0015_triggers_on_broken_trc_identity_and_trrd() {
        let (spec, mut sol) = mm_solution();
        {
            let mm = sol.main_memory.as_mut().unwrap();
            mm.timing.t_rc = mm.timing.t_ras; // drops tRP
            mm.timing.t_rrd = Seconds::from_si(-1e-9);
        }
        let r = run(&DramTimingInequalities, &spec, &sol);
        assert!(r.error_count() >= 2, "{:?}", r.as_slice());
    }

    #[test]
    fn cd0016_triggers_on_nan_access_time() {
        let (spec, mut sol) = cache_solution(CellTechnology::Sram);
        sol.access_time = Seconds::from_si(f64::NAN);
        sol.area = SquareMeters::from_si(-1.0);
        let r = run(&FiniteMetrics, &spec, &sol);
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn cd0017_triggers_on_missing_refresh_and_on_sram_refresh() {
        let (lp_spec, mut lp_sol) = cache_solution(CellTechnology::LpDram);
        lp_sol.refresh_power = Watts::ZERO;
        assert!(!run(&RefreshConsistency, &lp_spec, &lp_sol).is_clean());
        let (sram_spec, mut sram_sol) = cache_solution(CellTechnology::Sram);
        sram_sol.refresh_power = Watts::from_si(0.5);
        let r = run(&RefreshConsistency, &sram_spec, &sram_sol);
        assert!(!r.is_clean());
        assert_eq!(
            r.iter().next().unwrap().suggestion.as_ref().unwrap().value,
            "0.0"
        );
    }

    #[test]
    fn cd0017_triggers_on_structural_mismatch() {
        let (spec, mut sol) = cache_solution(CellTechnology::Sram);
        sol.tag = None;
        assert!(!run(&RefreshConsistency, &spec, &sol).is_clean());
    }

    #[test]
    fn cd0018_triggers_on_impossible_efficiency() {
        let (spec, mut sol) = cache_solution(CellTechnology::Sram);
        sol.area_efficiency = 1.7;
        assert_eq!(run(&AreaEfficiency, &spec, &sol).error_count(), 1);
        sol.area_efficiency = 0.01;
        let r = run(&AreaEfficiency, &spec, &sol);
        assert!(r.is_clean() && r.warn_count() == 1);
    }

    #[test]
    fn cd0019_triggers_on_cheap_write_and_missing_interface_floor() {
        let (spec, mut sol) = mm_solution();
        {
            let mm = sol.main_memory.as_mut().unwrap();
            mm.energies.write = mm.energies.read / 2.0;
            mm.energies.standby_power = Watts::ZERO;
        }
        let r = run(&EnergyOrdering, &spec, &sol);
        assert_eq!(r.error_count(), 2, "{:?}", r.as_slice());
    }

    #[test]
    fn cd0021_triggers_on_implausible_access_time() {
        let (spec, mut sol) = cache_solution(CellTechnology::Sram);
        // A nanosecond value accidentally recorded as whole seconds.
        sol.access_time = Seconds::from_si(3.2);
        let r = run(&AccessTimePlausibility, &spec, &sol);
        assert_eq!(r.warn_count(), 1, "{:?}", r.as_slice());
        assert!(r.iter().next().unwrap().message.contains("1 ps"));
        // Sub-picosecond is equally implausible.
        sol.access_time = Seconds::from_si(1.0e-14);
        assert_eq!(run(&AccessTimePlausibility, &spec, &sol).warn_count(), 1);
    }

    #[test]
    fn cd0021_warns_on_nonfinite_times_with_pareto_consequence() {
        let (spec, mut sol) = cache_solution(CellTechnology::Sram);
        sol.access_time = Seconds::from_si(f64::NAN);
        let r = run(&AccessTimePlausibility, &spec, &sol);
        assert_eq!(r.warn_count(), 1, "{:?}", r.as_slice());
        assert!(r.iter().next().unwrap().message.contains("Pareto"));
        // Zero/negative stay CD0016's alone — no duplicate warning here.
        sol.access_time = Seconds::ZERO;
        assert!(run(&AccessTimePlausibility, &spec, &sol).is_empty());
    }

    #[test]
    fn cd0022_warns_on_nonfinite_energies_with_pareto_consequence() {
        let (spec, mut sol) = mm_solution();
        sol.read_energy = Joules::from_si(f64::INFINITY);
        let r = run(&EnergyPlausibility, &spec, &sol);
        assert_eq!(r.warn_count(), 1, "{:?}", r.as_slice());
        assert!(r.iter().next().unwrap().message.contains("Pareto"));
    }

    #[test]
    fn cd0022_triggers_on_implausible_energy() {
        let (spec, mut sol) = mm_solution();
        // A nanojoule value accidentally recorded as whole joules.
        sol.read_energy = Joules::from_si(2.0);
        {
            let mm = sol.main_memory.as_mut().unwrap();
            mm.energies.activate = Joules::from_si(1.0e-17); // below 1 fJ
        }
        let r = run(&EnergyPlausibility, &spec, &sol);
        assert_eq!(r.warn_count(), 2, "{:?}", r.as_slice());
    }
}
