//! # cactid-serve — a persistent solve/explore service for CACTI-D
//!
//! One-shot CLI invocations re-pay technology construction and the full
//! organization sweep on every call, even for specs solved seconds ago.
//! This crate keeps a solver *resident*: a long-running service that
//! accepts spec and grid queries as JSONL requests, answers them against
//! one resident [`cactid_tech::Technology`], one pool of evaluation memos
//! and one solution store, and answers in the exploration engine's record
//! schema — a `serve` answer for a spec is byte-identical to the line
//! `cactid explore` would write for it. A grid request runs its store
//! misses through the exploration engine itself
//! ([`cactid_explore::explore_expansion`]), so it shares sweeps exactly as
//! `cactid explore` does.
//!
//! Three layers:
//!
//! * **[`mod@store`]** — the content-addressed [`SolutionStore`], the
//!   service's one answer table: solutions keyed by the spec's FNV-1a
//!   fingerprint, guarded by the injective canonical encoding
//!   ([`cactid_explore::hash::spec_canon`]), and with `--store` spilled to
//!   an append-only file with the torn-tail-safe load discipline of the
//!   exploration checkpoint format — so restarts share warm results, and
//!   a warm answer is bitwise equal to the cold solve it replaced.
//! * **[`mod@protocol`]** — the JSONL [`Request`] grammar
//!   (`solve`/`grid`/`stats`/`shutdown`), parsed with the workspace's own
//!   hermetic JSON parser; malformed lines become in-band error
//!   responses, never crashes.
//! * **[`mod@service`]** — the [`Service`]: request dispatch and its one
//!   transport, a JSONL loop over stdin/stdout (or any reader/writer
//!   pair, which is how tests drive it) feeding one line handler.
//!
//! # Quickstart
//!
//! ```
//! use cactid_serve::{Service, ServeConfig};
//!
//! # fn main() -> Result<(), cactid_serve::ServeError> {
//! let svc = Service::new(&ServeConfig::default())?; // in-memory store, no disk
//! let input = "{\"id\":1,\"op\":\"solve\",\"size\":65536}\n";
//! let mut out = Vec::new();
//! svc.run_lines(input.as_bytes(), &mut out)?;
//! assert!(String::from_utf8(out).unwrap().starts_with("{\"idx\":1,"));
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod protocol;
pub mod service;
pub mod store;

pub use error::ServeError;
pub use protocol::{parse_request, Request};
pub use service::{ServeConfig, Service};
pub use store::{SolutionStore, STORE_MAGIC};
