//! The data a lint pass runs over: the spec, its resolved Table-1 cell
//! parameters, and (for later stages) an organization and a solution.

use cactid_core::{MemorySpec, OrgParams, Solution};
use cactid_tech::{CellParams, Technology};

/// Everything a rule's [`crate::rules::ObjectCheck`] may look at.
///
/// Spec-stage rules use `spec` and `cell`; organization rules additionally
/// use `org`; solution rules use `solution` (whose `org` field is also
/// mirrored into `org`). Fields for stages that have not run yet are
/// `None`, and rules must tolerate that by emitting nothing.
#[derive(Debug, Clone)]
pub struct LintContext<'a> {
    /// The specification under analysis.
    pub spec: &'a MemorySpec,
    /// Table-1 cell parameters resolved for `spec.cell_tech` at `spec.node`.
    pub cell: CellParams,
    /// The candidate organization, for organization- and solution-stage
    /// passes.
    pub org: Option<&'a OrgParams>,
    /// The assembled solution, for solution-stage passes.
    pub solution: Option<&'a Solution>,
}

impl<'a> LintContext<'a> {
    /// Builds a spec-stage context, resolving the cell technology tables.
    pub fn for_spec(spec: &'a MemorySpec) -> Self {
        let tech = Technology::cached(spec.node);
        LintContext {
            spec,
            cell: tech.cell(spec.cell_tech),
            org: None,
            solution: None,
        }
    }

    /// Extends the context with a candidate organization.
    #[must_use]
    pub fn with_org(mut self, org: &'a OrgParams) -> Self {
        self.org = Some(org);
        self
    }

    /// Extends the context with an assembled solution (and its
    /// organization).
    #[must_use]
    pub fn with_solution(mut self, solution: &'a Solution) -> Self {
        self.org = Some(&solution.org);
        self.solution = Some(solution);
        self
    }
}
