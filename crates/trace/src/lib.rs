#![warn(missing_docs)]

//! # janus-trace — cycle-stamped event tracing and machine-readable metrics
//!
//! Every figure the reproduction emits is a ratio of execution times; every
//! debugging session over a wrong speedup is a question about *when*
//! sub-operations fired relative to the write reaching the memory
//! controller. This crate makes both visible:
//!
//! * **Structured event trace** — a fixed-capacity, ring-buffer-backed
//!   stream of span begin/end and instant events, cycle-stamped with
//!   [`janus_sim::time::Cycles`]. Event names and categories are interned
//!   `&'static str`s and every [`event::TraceEvent`] is `Copy`, so the hot
//!   path never allocates. A disabled [`Tracer`] is a `None` check — the
//!   simulator pays one predictable branch per instrumentation point.
//! * **Chrome trace-event export** ([`chrome`]) — the recorded events
//!   serialize to the Chrome trace-event JSON format and load directly in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). The
//!   serializer is hand-rolled ([`json`]): the workspace stays hermetic.
//! * **Metrics pipeline** ([`metrics`], [`sampler`]) — a
//!   [`metrics::MetricsRegistry`] turns named scalars (counters, derived
//!   ratios, labels) into an ordered JSON object, and a
//!   [`sampler::MetricsSampler`] snapshots a [`janus_sim::stats::StatSet`]'s
//!   counters every N cycles into a time-series that renders as Chrome
//!   counter tracks, so per-epoch occupancy curves can be read instead of
//!   inferred from free-text dumps.
//!
//! The tracer is a cheap clonable handle ([`Tracer`]): the simulator's
//! components (memory controller, BMO engine, NVM device, write queue) each
//! hold a clone and append to the shared buffer. The simulator is
//! single-threaded by design; the handle is intentionally `!Send`.
//!
//! ```
//! use janus_trace::{Category, TraceConfig, Tracer};
//! use janus_sim::time::Cycles;
//!
//! let tracer = Tracer::new(&TraceConfig::default());
//! tracer.begin(Category::Engine, "E1", Cycles(40), 7, 0);
//! tracer.end(Category::Engine, "E1", Cycles(100), 7, 0);
//! tracer.instant(Category::Irb, "irb_hit", Cycles(120), 0, 3);
//! let mut out = Vec::new();
//! tracer.export_chrome(&mut out).unwrap();
//! assert!(janus_trace::json::parse(std::str::from_utf8(&out).unwrap()).is_ok());
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod sampler;
pub mod tracer;

pub use event::{Category, EventKind, TraceEvent};
pub use metrics::{MetricValue, MetricsRegistry};
pub use ring::RingBuffer;
pub use sampler::{MetricsSampler, Sample};
pub use tracer::{TraceConfig, Tracer};
