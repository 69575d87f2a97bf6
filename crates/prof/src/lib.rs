#![warn(missing_docs)]

//! # janus-prof — causal cycle accounting over the trace stream
//!
//! `janus-trace` records *what happened when*; this crate answers *why a
//! write took as long as it did*. In causal mode
//! ([`janus_trace::Tracer::new_causal`], wired through
//! `System::enable_profiling`) the memory controller, BMO engine, and ADR
//! write queue emit `prof_*` link events alongside the ordinary trace
//! vocabulary. [`Profile::build`] replays that stream and reconstructs,
//! for every write, the causal chain from arrival to persistence:
//!
//! * **Cycle accounting** — each write's blocked interval
//!   `[arrival, persist]` is partitioned exactly into per-resource
//!   segments, each classified as *service* (a unit doing work),
//!   *queueing* (waiting for a busy unit or write-queue backpressure), or
//!   *dependency wait* (operands or serialization). The partition is a
//!   proof obligation, not a best effort: `attributed == total` is checked
//!   by [`Profile::attributed_cycles`] and the test suite.
//! * **Critical-path extraction** — the chain *is* the measured
//!   end-to-end critical path of the write; the longest write's chain is
//!   the run's critical path, and per-node slack
//!   ([`Profile::node_slack`]) says how far off-path sub-operations were
//!   from mattering. On the default stack under parallelized timing, the
//!   measured BMO portion equals the `DepGraph` oracle: 2764 cycles.
//! * **Tail-latency blame** — [`Profile::blame`] aggregates the chains of
//!   the writes at or above a latency quantile (p99 by default) and ranks
//!   resources by their contribution to the tail.
//! * **Flamegraph + Perfetto export** — [`Profile::folded`] renders the
//!   chains as folded stacks (`write;bmo.integrity;I2 1120`) for any
//!   flamegraph renderer, and [`export_chrome_with_counters`] merges
//!   [`janus_trace::MetricsSampler`] time-series into the Chrome trace as
//!   counter tracks so occupancy curves plot alongside spans.
//!
//! Everything is a pure function of the trace snapshot: two runs of the
//! same simulation produce byte-identical profiles. A ring-buffer
//! wraparound would silently truncate causal chains, so [`Profile::build`]
//! refuses to profile a stream that dropped events
//! ([`ProfileError::Dropped`]).

mod profile;
mod report;

pub use profile::{Attribution, Profile, ProfileError, SegKind, Segment, TenantTail, WriteProfile};
pub use report::{validate_profile_json, PROFILE_SCHEMA};

use std::io::{self, Write};

use janus_trace::{chrome, Sample, TraceEvent};

/// Serializes trace events plus [`MetricsSampler`](janus_trace::MetricsSampler)
/// counter samples into one Chrome trace document: spans and instants as
/// usual, each sampled counter as a `"C"` (counter-track) row Perfetto
/// renders as an occupancy curve. Deterministic: counter events append in
/// sample order after the trace events (viewers order by timestamp).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn export_chrome_with_counters(
    events: &[TraceEvent],
    samples: &[Sample],
    dropped: u64,
    out: &mut impl Write,
) -> io::Result<()> {
    let counters = janus_trace::MetricsSampler::counter_events_of(samples);
    let mut merged = Vec::with_capacity(events.len() + counters.len());
    merged.extend_from_slice(events);
    merged.extend(counters);
    chrome::export(&merged, dropped, out)
}
