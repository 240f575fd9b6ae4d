//! # cacti-d — a Rust reproduction of CACTI-D (ISCA 2008)
//!
//! Facade crate re-exporting the whole workspace:
//!
//! * [`units`] — the compile-time dimensional-analysis layer: typed
//!   physical quantities (`Seconds`, `Farads`, `Joules`, …) whose algebra
//!   admits only physically meaningful products and ratios.
//! * [`tech`] — ITRS-style device/wire/cell technology models.
//! * [`circuit`] — circuit primitives (logical effort, Horowitz, decoders,
//!   sense amps, repeaters, crossbars).
//! * [`core`] — the CACTI-D array-organization model, DRAM operational
//!   models, main-memory chip model and the staged solution optimizer.
//! * [`analyze`] — the diagnostics engine: twenty-seven rules in one
//!   table, twenty-two over specs, organizations and solutions (`cactid
//!   lint`, `CD0001`–`CD0022`) and five over a finished explore run
//!   (`cactid audit`, `CD0101`–`CD0105`).
//! * [`sim`] — the cycle-level CMP memory-hierarchy simulator.
//! * [`workloads`] — synthetic NPB-like workload generators.
//! * [`study`] — the paper's tables and figures (Tables 1–3, Figures 1,
//!   4 and 5).
//! * [`explore`] — batch design-space exploration: grid expansion, a
//!   hermetic thread pool, solve memoization, resumable JSONL sweeps and
//!   Pareto-frontier extraction (`cactid explore`).
//! * [`serve`] — a resident solve service: JSONL requests over
//!   stdin/stdout, answered in the explore record schema and backed
//!   by a disk-backed content-addressed solution store, so restarts answer
//!   duplicates without re-solving (`cactid serve`).
//! * [`obs`] — zero-dependency observability: process-wide counters,
//!   histograms and timing spans recorded across the solve and simulation
//!   paths, dumped as a JSONL trace sidecar by `--trace`.
//!
//! See the README for a guided tour and `examples/` for runnable
//! demonstrations.
pub use cactid_analyze as analyze;
pub use cactid_circuit as circuit;
pub use cactid_core as core;
pub use cactid_explore as explore;
pub use cactid_obs as obs;
pub use cactid_serve as serve;
pub use cactid_tech as tech;
pub use cactid_units as units;
pub use llc_study as study;
pub use memsim as sim;
pub use npbgen as workloads;
