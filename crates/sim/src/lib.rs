//! # memsim — cycle-level CMP memory-hierarchy simulator
//!
//! The architectural-simulation substrate for the CACTI-D stacked
//! last-level-cache study (paper §3), built from scratch as a substitute
//! for HP Labs' COTSon infrastructure.
//!
//! It models the paper's target system: a 2 GHz chip multiprocessor with
//! in-order fine-grained-multithreaded cores (4 hardware threads each, one
//! 4-wide SIMD FPU per core — an FP instruction can issue every cycle,
//! other instructions take 4 cycles, at most one memory request per core
//! per cycle), private SRAM L1 and L2 caches kept coherent with a MESI
//! protocol, an optional shared banked L3 reached through an 8×8
//! crossbar, and a DDR-style main memory with channels, banks, and
//! tRCD/CL/tRP/tRC/tRRD timing under an open- or closed-page policy.
//!
//! Timing is resource-reservation based: a memory request's latency is
//! resolved at issue by walking the hierarchy and reserving bank/bus slots
//! (multisubbank-interleave initiation intervals, DRAM bank cycles, burst
//! slots), which keeps simulation fast while modeling contention. Threads
//! block on loads, synchronize at barriers and locks, and every stall
//! cycle is attributed to the level that serviced the miss — exactly the
//! categories of the paper's Figure 4(b).
//!
//! One engine, [`Simulator`], runs every simulation, from the paper's
//! 8-core study to the 64-core configurations: it steps only the
//! cycles where some thread can issue, and lands each memory-side effect
//! at the cycle its instruction issues. [`ShardedSimulator`] is a thin
//! wrapper around it that keeps an older constructor.
//!
//! # Example
//!
//! ```
//! use memsim::{SystemConfig, Simulator, trace::StridedSource};
//!
//! let config = SystemConfig::baseline_no_l3();
//! let trace = StridedSource::new(32, 0.3, 1 << 30);
//! let mut sim = Simulator::new(config, trace);
//! let stats = sim.run(100_000);
//! assert!(stats.ipc() > 0.0);
//! ```

pub mod cache;
pub mod coherence;
pub mod config;
mod core;
pub mod dram;
pub mod l3;
mod memsys;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod trace;

pub use config::{CacheConfig, ConfigError, DramConfig, L3Config, PagePolicy, SystemConfig};
pub use shard::ShardedSimulator;
pub use sim::{ShardInfo, Simulator};
pub use stats::{SimStats, StallKind};
pub use trace::{Instr, TraceSource};
