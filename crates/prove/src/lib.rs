//! `cactid-prove`: interval-arithmetic soundness certificates for the
//! CACTI-D prune/lint pipeline.
//!
//! The solver's prescreen ([`cactid_core::array`]) rejects organizations
//! with three closed-form tests — the subarray row cap, the 0.38·R·C
//! wordline Elmore bound, and the DRAM charge-sharing sense margin — and
//! the dynamic `staged_equivalence` suite checks, point by point, that
//! pruning never changes the answer. This crate proves the *static*
//! counterpart: it re-runs the exact same closed forms over
//! **interval-valued** inputs covering a whole technology domain and an
//! entire sweep box at once, and cross-checks every definite abstract
//! verdict against the concrete screen.
//!
//! Three analyses come out of one scan:
//!
//! 1. **Soundness certificates** ([`cert::Certificate`]): at every point
//!    where the abstract screen is definite, the concrete screen agrees —
//!    including the failure *reason*, because the abstract fold respects
//!    the concrete check order. Since `array::evaluate` runs the identical
//!    screen first, "rule rejects ⇒ evaluate rejects" follows.
//! 2. **Window / dead-rule analysis** ([`cert::WindowEnclosures`],
//!    [`diag::MetricWindow`]): certified enclosures of the bitline
//!    components of the published metrics over every organization the
//!    enumeration emits, used to flag plausibility windows that are
//!    vacuous, clip the whole reachable range, or have a low edge no
//!    reachable value can ever cross (`CD0202`/`CD0203`).
//! 3. **Certified bounds** ([`cert::certified_bounds`]): per-node integer
//!    cutoffs ([`CertifiedBounds`]) extracted from the all-pass prefix and
//!    all-reject suffix of the scan, reported as `CD0204`. Unsound scans
//!    degrade to the conservative element, which certifies nothing. The
//!    solver does not consume them: a certified fast path measured at
//!    0.98–1.05x of the exact screen and was removed (DESIGN.md §16).
//!
//! The layering is deliberate: `prove` sits **beside** `cactid-analyze`,
//! not above it — both depend only on `cactid-core`/`-tech`/`-units`.
//! Findings are emitted as `cactid_core::lint` records under the new
//! `CD02xx` codes so the existing renderers (text and JSON) work
//! unchanged; the window constants to analyze are passed in by the caller.
//!
//! ```
//! use cactid_prove::{certified_bounds, certify_spec};
//! use cactid_tech::{CellTechnology, TechNode};
//!
//! let bounds = certified_bounds(TechNode::N32, CellTechnology::Sram);
//! assert!(bounds.wordline_pass_upto > 0);
//! ```

pub mod cert;
pub mod diag;
pub mod domain;
pub mod iv;
pub mod screen;

pub use cert::{
    certified_bounds, certify, certify_spec, window_enclosures, Certificate, CertifiedBounds,
    Proof, SpecProof, WindowEnclosures,
};
pub use diag::{
    diagnostics, text_summary, MetricWindow, WindowMetric, BOUNDS_CODE, DEAD_EDGE_CODE,
    SOUNDNESS_CODE, WINDOW_CODE,
};
pub use domain::{CellIv, Domain};
pub use iv::{Iv, Verdict};
pub use screen::{abs_prescreen, abs_sense_signal, abs_wordline_rc, AbsOutcome, AbsScreen};
