#![warn(missing_docs)]

//! # janus-lint — static analysis over the `PRE_*` interface
//!
//! The paper's §6 argues that the three ways to misuse the Janus software
//! interface — modifying data after pre-executing it, pre-executing writes
//! that never happen, and issuing requests too close to the writeback —
//! are all *statically detectable*. This crate makes that claim concrete:
//!
//! * [`cfg`](mod@cfg) — a control-flow graph over the program IR with basic-block
//!   regions and dominators (do-while loop semantics: a trace's loop body
//!   executed at least once, so it dominates post-loop code).
//! * [`dataflow`] — reaching-definitions over the provenance markers: the
//!   earliest point each blocking write's address is known on every path,
//!   and the latest point its data was defined.
//! * [`lints`] — the §6 misuse patterns as program lints (windows measured
//!   against the active BMO stack's critical path), plus redundant-request,
//!   IRB-pressure, and persist-ordering checks. The BMO stack is the only
//!   input besides the program: latencies, fence charge and IRB capacity
//!   are the paper's.
//! * [`graph`] — a structural linter over BMO dependency graphs: cycles,
//!   duplicate and transitively redundant inter edges, and declared
//!   pre-executability classes that disagree with a BMO's own sub-ops,
//!   swept across every stack permutation.
//! * [`place`] — [`auto_place`]: dominance-based automated `PRE_*`
//!   placement that covers the loops the §4.5 static pass skips.
//! * [`fix`] — [`fix_program`]: proven autofix rewrites (`--fix`) — each
//!   diagnostic joined with a dominance-based rewrite, accepted only if
//!   re-linting shows the diagnostic set strictly shrinking.
//! * [`contention`] — cross-tenant IRB-pressure analysis: per-program peak
//!   occupancy composed under an [`janus_core::irb::IrbPolicy`] into a
//!   static no-drop bound the simulator is the oracle for.
//! * [`report`] — typed diagnostics and a byte-deterministic JSON report.
//!
//! The trace-walking checker in `janus-instrument` is an independent
//! differential oracle: it reports the same [`Diagnostic`]s for the three
//! §6 patterns, and a program this crate reports clean produces zero
//! dynamic misuses.
//!
//! # Example
//!
//! ```
//! use janus_bmo::BmoStack;
//! use janus_core::ir::ProgramBuilder;
//! use janus_lint::{lint_program, LintCode};
//! use janus_nvm::{addr::LineAddr, line::Line};
//!
//! let mut b = ProgramBuilder::new();
//! let obj = b.pre_init();
//! b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
//! b.compute(100); // far too short to hide the BMO critical path
//! b.store(LineAddr(1), Line::splat(1));
//! b.clwb(LineAddr(1));
//! b.fence();
//! let report = lint_program(&b.build(), &BmoStack::paper());
//! assert_eq!(report.count(LintCode::InsufficientWindow), 1);
//! ```

pub mod cfg;
pub mod contention;
pub mod dataflow;
pub mod fix;
pub mod graph;
pub mod lints;
pub mod place;
pub mod report;

pub use cfg::Cfg;
pub use contention::{
    irb_bound, irb_bound_for_tenants, peak_irb_demand, tenant_irb_demand, IrbBound, IrbDemand,
    IrbVerdict,
};
pub use dataflow::{analyze_writes, Defs, WriteKnowledge};
pub use fix::{
    fix_program, render_program, seed_stale_hint, unified_diff, AppliedFix, FixKind, FixOutcome,
};
pub use graph::{lint_bmo_class, lint_permutations, lint_stack};
pub use lints::{lint_program, required_window};
pub use place::{auto_place, PlaceReport};
pub use report::{Diagnostic, LintCode, LintReport, Severity};
