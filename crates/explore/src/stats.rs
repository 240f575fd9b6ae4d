//! Aggregate counters and timing for one engine run.

use std::time::Duration;

/// What one [`crate::explore`] run did, stage by stage.
///
/// The point-accounting invariant is
/// `solved + memoized + resumed + invalid == points`:
/// every grid point is either solved fresh, a duplicate of an earlier
/// point's spec sharing its answer, restored from a checkpoint, or
/// structurally invalid — the four buckets are disjoint, so an invalid
/// point restored from a checkpoint counts under `invalid`, not
/// `resumed`. The `ok` /
/// `infeasible` split then classifies the non-invalid points by whether a
/// winner existed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Total grid points in the expansion.
    pub points: usize,
    /// Distinct specs among the valid, non-resumed points.
    pub unique_specs: usize,
    /// Organization sweeps actually run. Specs that differ only in their
    /// select-only knobs share one sweep
    /// ([`cactid_core::MemorySpec::sweep_key`]), so this is at most
    /// `solved`, and a grid with `k` knob variants that all keep the
    /// default sweep knobs runs `unique_specs / k` sweeps.
    pub sweeps: usize,
    /// Data-array sweeps actually run: at most one per bank geometry
    /// ([`cactid_core::MemorySpec::array_key`]), so at most `sweeps`. Sweeps whose capacity and bank count differ but
    /// whose banks are alike share one.
    pub array_sweeps: usize,
    /// Points answered fresh this run (one per unique spec), whether or
    /// not their sweep was shared.
    pub solved: usize,
    /// Points that duplicate an earlier point's spec and share its answer.
    pub memoized: usize,
    /// Valid points restored from the checkpoint without re-solving
    /// (restored invalid points count under `invalid` instead).
    pub resumed: usize,
    /// Points whose axis combination failed spec validation, whether
    /// rendered fresh this run or restored from the checkpoint.
    pub invalid: usize,
    /// Points with a winning solution.
    pub ok: usize,
    /// Valid points the solver found no winner for.
    pub infeasible: usize,
    /// Organizations enumerated, summed over the sweeps run (a shared
    /// sweep counts once).
    pub orgs_enumerated: usize,
    /// Candidates the pre-screen bounds pruned, summed over the sweeps run.
    pub bound_pruned: usize,
    /// [`cactid_tech::Technology`] constructions observed during the run
    /// (the per-node memo should hold this at one per distinct node).
    pub tech_constructions: u64,
    /// Pareto-frontier size (0 when extraction was not requested).
    pub pareto_points: usize,
    /// `ok` points excluded from Pareto extraction because an objective was
    /// NaN or infinite (0 when extraction was not requested). The CD0021 /
    /// CD0022 lints flag the underlying solutions individually.
    pub non_finite: usize,
    /// Wall time spent expanding the grid.
    pub expand: Duration,
    /// Wall time spent in the solve stage (pool running).
    pub solve: Duration,
    /// Wall time spent extracting the frontier and writing output.
    pub finalize: Duration,
}

impl EngineStats {
    /// Checks the point-accounting invariant.
    pub fn balanced(&self) -> bool {
        self.solved + self.memoized + self.resumed + self.invalid == self.points
            && self.ok + self.infeasible + self.invalid == self.points
    }

    /// Renders the stats as the multi-line human summary the CLI prints.
    pub fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "cactid-explore: {} points ({} unique specs)\n  \
             solved {}, memoized {}, resumed {}, invalid {}\n  \
             status: {} ok, {} infeasible\n  \
             sweeps {}, array sweeps {}, orgs enumerated {}, bound-pruned {}, \
             tech constructions {}\n  \
             pareto frontier: {} points{}\n  \
             timing: expand {:.1} ms, solve {:.1} ms, finalize {:.1} ms",
            self.points,
            self.unique_specs,
            self.solved,
            self.memoized,
            self.resumed,
            self.invalid,
            self.ok,
            self.infeasible,
            self.sweeps,
            self.array_sweeps,
            self.orgs_enumerated,
            self.bound_pruned,
            self.tech_constructions,
            self.pareto_points,
            if self.non_finite > 0 {
                format!(
                    " ({} non-finite excluded; see lints CD0021/CD0022)",
                    self.non_finite
                )
            } else {
                String::new()
            },
            ms(self.expand),
            ms(self.solve),
            ms(self.finalize),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_checks_both_partitions() {
        let mut s = EngineStats {
            points: 10,
            solved: 6,
            memoized: 2,
            resumed: 1,
            invalid: 1,
            ok: 8,
            infeasible: 1,
            ..EngineStats::default()
        };
        assert!(s.balanced());
        s.ok = 9;
        assert!(!s.balanced());
    }

    #[test]
    fn render_carries_the_resume_smoke_marker() {
        // ci.sh greps for "solved 0," to prove a resumed run re-solved
        // nothing; keep the substring stable.
        let s = EngineStats {
            points: 4,
            resumed: 4,
            ok: 4,
            ..EngineStats::default()
        };
        assert!(s.render().contains("solved 0,"));
        assert!(s.render().contains("resumed 4"));
    }

    #[test]
    fn render_carries_the_sweep_count() {
        // ci.sh greps for "sweeps 4," on its three-variant smoke grid and
        // for "array sweeps 3," on its banked one.
        let s = EngineStats {
            points: 12,
            unique_specs: 12,
            sweeps: 4,
            array_sweeps: 3,
            solved: 12,
            ok: 12,
            ..EngineStats::default()
        };
        assert!(s
            .render()
            .contains("sweeps 4, array sweeps 3, orgs enumerated"));
    }

    #[test]
    fn render_surfaces_non_finite_exclusions() {
        let clean = EngineStats {
            points: 2,
            solved: 2,
            ok: 2,
            pareto_points: 2,
            ..EngineStats::default()
        };
        assert!(!clean.render().contains("non-finite"));
        let tainted = EngineStats {
            non_finite: 1,
            ..clean
        };
        let r = tainted.render();
        assert!(r.contains("1 non-finite excluded"));
        assert!(r.contains("CD0021/CD0022"), "points at the lint codes");
    }
}
