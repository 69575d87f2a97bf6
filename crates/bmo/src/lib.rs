#![warn(missing_docs)]

//! # janus-bmo — backend memory operations: graphs, timing, and function
//!
//! *Backend memory operations* (BMOs) are the memory-controller-side
//! operations an NVM system performs on every write: encryption, integrity
//! verification, deduplication, compression, wear-leveling, … (paper
//! Table 1). This crate contains everything about BMOs themselves:
//!
//! * [`latency`] — the paper's latency parameters and the Table 1 inventory.
//! * [`subop`] — the sub-operation dependency graph of §3.1/Figure 6:
//!   intra-operation, inter-operation, and external (address/data)
//!   dependencies, plus the parallelization and pre-execution analyses
//!   (which sub-operation sets may run in parallel; which are
//!   address-dependent, data-dependent, or both).
//! * [`engine`] — the timing engine: schedules a write's sub-operations on
//!   the shared BMO units in **serialized** or **parallelized** mode, with
//!   support for staged external inputs (pre-execution) and invalidation-
//!   driven rescheduling.
//! * [`metadata`], [`encryption`], [`integrity`], [`dedup`] — the functional
//!   state of the three evaluated BMOs: co-located counter/remap metadata
//!   (the DeWrite scheme), counter-mode AES with per-line MACs, a sparse
//!   SHA-1 Bonsai Merkle Tree, and a reference-counted dedup store.
//! * [`stack`] — the BMO registry: [`BmoId`] names each BMO, and its
//!   methods give the BMO's graph fragment, inter-BMO edges,
//!   pre-executability and trace category; a [`stack::BmoStack`] is an
//!   ordered subset that every layer (timing graph, pipeline, controller,
//!   CLI) consumes.
//! * [`pipeline`] — runs the functional stage of each BMO in a stack as one
//!   write/read pipeline with end-to-end verification and crash recovery.
//!
//! # Example: the Figure 6 dependency analysis
//!
//! ```
//! use janus_bmo::latency::BmoLatencies;
//! use janus_bmo::subop::ExternalClass;
//! use janus_bmo::{BmoId, BmoStack};
//!
//! let g = BmoStack::paper().graph(&BmoLatencies::paper());
//! // E1–E2 are address-dependent; D1–D2 data-dependent; the rest both.
//! assert_eq!(g.external_class(g.node_by_name("E1").unwrap()), ExternalClass::Addr);
//! assert_eq!(g.external_class(g.node_by_name("D2").unwrap()), ExternalClass::Data);
//! assert_eq!(g.external_class(g.node_by_name("I3").unwrap()), ExternalClass::Both);
//! // Each node knows its BMO, and the BMO its own facts.
//! let d1 = g.node(g.node_by_name("D1").unwrap());
//! assert_eq!(d1.bmo, BmoId::Dedup);
//! assert_eq!(d1.bmo.pre_exec(), ExternalClass::Both);
//! ```

pub mod compression;
pub mod dedup;
pub mod ecc;
pub mod encryption;
pub mod engine;
pub mod integrity;
pub mod latency;
pub mod metadata;
pub mod pipeline;
mod slots;
pub mod stack;
pub mod subop;
pub mod wear;

pub use engine::{BmoEngine, BmoMode, JobId};
pub use latency::BmoLatencies;
pub use pipeline::BmoPipeline;
pub use stack::{BmoId, BmoStack, ComposeIssue, StackError};
pub use subop::{DepGraph, EdgeError, ExternalClass, NodeId};
