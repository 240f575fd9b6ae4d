//! # cactid-explore — batch design-space exploration for CACTI-D
//!
//! The paper's whole point (§2.4, §3) is sweeping array organizations and
//! memory configurations to pick designs. This crate turns the one-spec
//! [`cactid_core::optimize`] path into a production batch engine:
//!
//! * **[`Grid`]** — a declarative grid over capacity, block size,
//!   associativity, banks, technology node, cell technology and named
//!   optimization-knob variants, expanded in a fixed deterministic order
//!   into [`GridPoint`]s.
//! * **[`mod@pool`]** — a hermetic `std::thread` pool: workers claim points
//!   off an atomic cursor (no registry dependencies, in line with the
//!   workspace's zero-dependency policy).
//! * **[`mod@cache`]** — a solve memo keyed by a canonical FNV-1a
//!   fingerprint of the spec ([`mod@hash`]), so duplicate and overlapping
//!   grid points are solved once, and specs that differ only in their
//!   select-only knobs share one organization sweep
//!   ([`cactid_core::MemorySpec::sweep_key`]); the underlying
//!   [`cactid_tech::Technology`] tables are likewise constructed once per
//!   node ([`cactid_tech::Technology::cached`]).
//! * **[`explore`]** — the engine: appends one checkpoint line per point as
//!   it completes, the point's JSONL record included, to one sidecar (so an
//!   interrupted sweep resumes without re-solving completed points), and
//!   finalizes a thread-count-independent, Pareto-annotated JSONL file in
//!   point order.
//!   [`explore_expansion`] is the same engine on an already expanded point
//!   list; `cactid-serve` runs its grid requests through it.
//! * **[`mod@log`]** — the append-only, crash-safe line log that the
//!   checkpoint and the `cactid-serve` solution store share.
//! * **[`mod@pareto`]** — frontier extraction over (access time, dynamic
//!   read energy, area, leakage + refresh power) with dominated-point
//!   counts.
//! * **[`EngineStats`]** — points solved / memoized / resumed / failed,
//!   sweeps run, organizations enumerated, technology constructions, and
//!   wall/CPU time per stage.
//!
//! # Quickstart
//!
//! ```
//! use cactid_explore::{explore, ExploreConfig, Grid};
//!
//! # fn main() -> Result<(), cactid_explore::ExploreError> {
//! let mut grid = Grid::new();
//! grid.capacities = vec![64 << 10, 128 << 10];
//! grid.associativities = vec![4, 8];
//! let config = ExploreConfig { pareto: true, ..ExploreConfig::default() };
//! let report = explore(&grid, &config)?;
//! assert_eq!(report.lines.len(), 4);
//! assert!(!report.frontier.is_empty());
//! println!("{}", report.stats.render());
//! # Ok(())
//! # }
//! ```

pub mod cache;
mod engine;
mod error;
pub mod grid;
pub mod hash;
pub mod log;
pub mod pareto;
pub mod pool;
pub mod record;
mod resume;
mod stats;

pub use cache::{optimize_cached_in, GroupSolve, SolveCache};
pub use engine::{explore, explore_expansion, ExploreConfig, ExploreReport, PointStatus};
pub use error::ExploreError;
pub use grid::{Expansion, Grid, GridPoint, OptVariant};
pub use pareto::{ParetoMetrics, ParetoPoint};
pub use stats::EngineStats;
