#![warn(missing_docs)]

//! # janus-core — the Janus hardware–software co-design
//!
//! This crate implements the paper's contribution on top of the substrates
//! (`janus-sim`, `janus-crypto`, `janus-nvm`, `janus-bmo`):
//!
//! * [`config`] — the Table 3 system configuration, the four evaluated
//!   system designs (serialized / parallelized / Janus / ideal), and the
//!   Figure 14 resource-scaling knobs.
//! * [`ir`] — the explicit program representation executed by the simulated
//!   cores: stores, `clwb`/`sfence`, transaction markers, the Janus
//!   software interface ops (Table 2), and the provenance markers the
//!   automated compiler pass consumes.
//! * [`irb`] — the Intermediate Result Buffer (§4.3.1): uniquely identified
//!   pre-execution results that never touch architectural state, with
//!   stale-data invalidation, aging, thread-exit clearing, and swap-range
//!   clearing (§4.6).
//! * [`queues`] — the requests the cores send (a `PRE_*` call plus its
//!   thread), their decoding into cache-line-sized
//!   operations, and the Pre-execution Request Queue (immediate + deferred
//!   requests, coalescing, FIFO overflow).
//! * [`controller`] — the memory controller: integrates the BMO timing
//!   engine and functional pipeline, the IRB, the ADR write queue and NVM
//!   device; implements the write path (with pre-execution result
//!   consumption and invalidation), the read path (counter/Merkle caches),
//!   and metadata atomicity.
//! * [`system`] — the full-system cycle-level simulator: N cores with
//!   private L1s and a shared L2 executing [`ir::Program`]s against the
//!   shared memory controller; produces an [`system::ExecutionReport`];
//!   supports crash injection and recovery.
//! * [`tenant`] — the multi-tenant open-loop front end: per-tenant
//!   transaction streams with pre-computed arrival times that idle cores
//!   pull from deterministically (earliest arrival, lowest tenant id).
//! * [`overhead`] — the §5.2.7 hardware overhead accounting.
//!
//! # Example
//!
//! ```
//! use janus_core::config::{JanusConfig, SystemMode};
//! use janus_core::ir::ProgramBuilder;
//! use janus_core::system::System;
//! use janus_nvm::{addr::LineAddr, line::Line};
//!
//! // One undo-log-style persistent write.
//! let mut b = ProgramBuilder::new();
//! b.store(LineAddr(1), Line::splat(7));
//! b.clwb(LineAddr(1));
//! b.fence();
//! let program = b.build();
//!
//! let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
//! let report = sys.run(vec![program]);
//! assert_eq!(report.writes, 1);
//! ```

pub mod config;
pub mod controller;
pub mod ir;
pub mod irb;
pub mod overhead;
pub mod queues;
pub mod system;
pub mod tenant;

pub use config::{JanusConfig, SystemMode};
pub use ir::{Op, PreObjId, Program, ProgramBuilder};
pub use system::{ExecutionReport, System};
