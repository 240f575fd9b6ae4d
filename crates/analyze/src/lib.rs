//! # cactid-analyze — diagnostics and static validation for CACTI-D
//!
//! A lint engine over the three kinds of objects the CACTI-D model
//! handles — input **specs**, candidate array **organizations**, and
//! assembled **solutions** — plus a fourth, cross-record **run** stage
//! over completed `cactid-explore` JSONL runs. Twenty-two object rules
//! (`CD0001`–`CD0022`) each enforce one invariant from the paper:
//! power-of-two geometry and Table-1 parameter bounds at the spec stage,
//! `Ndwl`/`Ndbl`/mux legality, wordline-RC sanity and sense margins at
//! the organization stage, and the §2.3.2 DRAM command-timing
//! inequalities (`tRCD + CAS ≤ access`, `tRC = tRAS + tRP`, `tRRD > 0`)
//! and refresh consistency at the solution stage. Five run rules
//! check capacity-sweep monotonicity, Pareto annotation consistency,
//! metric plausibility windows, and record-set integrity across a whole
//! run (`CD0101`–`CD0105`).
//!
//! Every rule is registered in the central [`RuleRegistry`] with its
//! metadata (code, stage, default severity, one-line invariant, paper
//! reference). Severities can be reshaped per rule with
//! [`SeverityOverrides`] (`--allow`/`--warn`/`--deny` on the CLI).
//!
//! Findings are structured [`Diagnostic`] records — stable rule code,
//! [`Severity`], a [`Location`] naming the offending field, a message
//! with the actual numbers, and a machine-readable suggested fix — and
//! can be rendered rustc-style with [`render::render`].
//!
//! The engine stays outside the solve: the CLI lints the spec, runs the
//! winners-only solve, then lints the winner ([`Analyzer::lint_candidate`]).
//! Severity overrides reshape reports only; they never change which
//! design wins.
//!
//! # Example
//!
//! ```
//! use cactid_analyze::{Analyzer, render};
//! use cactid_core::{MemorySpec, MemoryKind, AccessMode};
//! use cactid_tech::{CellTechnology, TechNode};
//!
//! // A hand-assembled spec that bypasses the builder's validation:
//! let mut spec = MemorySpec::builder()
//!     .capacity_bytes(1 << 20)
//!     .block_bytes(64)
//!     .associativity(8)
//!     .banks(1)
//!     .cell_tech(CellTechnology::Sram)
//!     .node(TechNode::N32)
//!     .kind(MemoryKind::Cache { access_mode: AccessMode::Normal })
//!     .build()
//!     .unwrap();
//! spec.capacity_bytes = 3 << 19; // 1.5 MB → 3072 sets: not a power of two
//!
//! let analyzer = Analyzer::new();
//! let report = analyzer.lint_spec(&spec);
//! assert!(!report.is_clean());
//! assert!(render::render(&analyzer, &report).contains("error[CD0001]"));
//! ```

pub mod analyzer;
pub mod context;
pub mod lint;
pub mod registry;
pub mod render;
pub mod rule;
pub mod rules;
pub mod run;

pub use analyzer::Analyzer;
pub use context::LintContext;
pub use lint::{Diagnostic, LintObject, Location, Report, Severity, Suggestion};
pub use registry::{RuleMeta, RuleRegistry, SeverityAction, SeverityOverrides};
pub use render::{render_json, summary_line};
pub use rule::{Rule, RunRule, Stage};
pub use run::{RunContext, RunRecord};
