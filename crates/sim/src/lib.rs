#![warn(missing_docs)]

//! # janus-sim — cycle-level discrete-event simulation engine
//!
//! Foundation substrate for the Janus NVM-system reproduction. The paper
//! evaluates Janus on the cycle-accurate gem5 simulator; this crate provides
//! the equivalent building blocks for our own cycle-level model:
//!
//! * [`time`] — the simulated clock ([`Cycles`]) at a fixed 4 GHz frequency,
//!   with lossless nanosecond conversions (the paper quotes all latencies in
//!   nanoseconds).
//! * [`event`] — a deterministic discrete-event queue ([`EventQueue`]) with
//!   stable FIFO ordering among simultaneous events.
//! * [`resource`] — the execution-unit pool ([`UnitPool`]) that models the
//!   shared BMO units.
//! * [`stats`] — counters and latency histograms used by the experiment
//!   harness to report every figure of the paper.
//! * [`rng`] — a small deterministic PRNG (SplitMix64 / xoshiro256**) so that
//!   every experiment is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use janus_sim::event::EventQueue;
//! use janus_sim::time::Cycles;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Cycles(10), "b");
//! q.schedule(Cycles(5), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycles(5), "a"));
//! ```

pub mod event;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use resource::UnitPool;
pub use rng::SimRng;
pub use stats::{Counter, Histogram, StatSet};
pub use time::{Cycles, CLOCK_GHZ};
