//! # cactid-obs — hermetic observability for the CACTI-D workspace
//!
//! A zero-dependency metrics layer threaded through the solver, the
//! exploration engine and the CMP simulator so that "as fast as the
//! hardware allows" is a measurement, not a hope. Three primitives:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64` incremented with
//!   `Ordering::Relaxed`. The count path takes no lock and issues exactly
//!   one atomic add, so hot loops (pool claims, per-solve accounting) can
//!   count unconditionally.
//! * [`Histogram`] — 32 power-of-two buckets plus count/sum/max, also all
//!   relaxed atomics. Used for latency distributions (span durations,
//!   sink-mutex waits, per-worker claim balance).
//! * [`Span`] — an RAII guard that times a region and records the elapsed
//!   nanoseconds into a histogram named after the **thread-local span
//!   stack** (`span.outer.inner.ns`), so nested phases aggregate under
//!   hierarchical dotted paths without any plumbing.
//!
//! All metrics live in a process-global [`registry`](mod@crate::registry):
//! the first use of a name allocates (and leaks — metrics are `'static`)
//! the metric; every later use resolves to the same cell. Call sites cache
//! the resolved handle with the [`counter!`]/[`histogram!`] macros, which
//! hide a `OnceLock` so the registry lock is taken once per call site, not
//! per event.
//!
//! ## Determinism contract
//!
//! Metrics never feed back into model results: counters are written, not
//! read, by instrumented code, and wall-clock time appears **only** in the
//! trace sidecar's `meta` line — never in result records. The exploration
//! engine's byte-identical-JSONL guarantee therefore holds with tracing on
//! or off (ci.sh proves this with a `cmp` of the two runs).
//!
//! ## Trace sidecar
//!
//! [`write_trace`] snapshots every registered metric to a JSONL file: one
//! `meta` line (schema version, command, wall-clock `unix_ms`), then one
//! line per counter and per histogram, sorted by name. [`render_summary`]
//! renders the same snapshot as the compact end-of-run table the CLIs
//! print to stderr. See DESIGN.md §13 for the naming scheme and format.
//!
//! ## JSON
//!
//! [`mod@json`] is the workspace's one JSON module — escaper, record
//! emitter and parser — kept here because every crate that reads or
//! writes JSON already depends on this one.

pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use json::{escape, escape_into};
pub use metrics::{quantile_from_buckets, Counter, Histogram};
pub use registry::{
    counter, histogram, reset, snapshot, CounterSnapshot, HistogramSnapshot, Snapshot,
};
pub use span::{span, Span};
pub use trace::{render_summary, write_trace};

/// Resolves (once per call site) and returns the [`Counter`] named by the
/// literal argument. The registry lock is taken only on the first hit of
/// each call site; afterwards this is a single pointer load.
///
/// ```
/// cactid_obs::counter!("example.events").inc();
/// assert!(cactid_obs::counter!("example.events").get() >= 1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::counter($name))
    }};
}

/// Resolves (once per call site) and returns the [`Histogram`] named by the
/// literal argument. See [`counter!`] for the caching contract.
///
/// ```
/// cactid_obs::histogram!("example.wait_ns").record(125);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_the_same_cell() {
        let a = crate::counter!("lib.macro.cached");
        let b = crate::counter!("lib.macro.cached");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert!(b.get() >= 1);
    }
}
