#![warn(missing_docs)]

//! # janus-nvm — the non-volatile-memory substrate
//!
//! Models the memory system the Janus paper evaluates on (Table 3):
//!
//! * [`addr`] / [`line`](mod@crate::line) — cache-line-granular addresses and 64-byte line
//!   values. All BMOs operate at cache-line granularity (§4.3.2).
//! * [`cache`] — a set-associative, write-back, LRU cache model used for the
//!   per-core L1, the shared L2, and the memory controller's counter cache
//!   and Merkle Tree cache (512 KB, 16-way each).
//! * [`device`] — the PCM-like NVM device: 4 GB, 533 MHz, banked, with the
//!   paper's tRCD/tCL/tCWD/tWR timing parameters.
//! * [`wq`] — the ADR-protected write queue: "writes to NVM become
//!   persistent (or non-volatile) as soon as they are placed in the write
//!   queue in the memory controller" (§2.3) — plus the durability log that
//!   crash runs record and fold into the image a crash leaves.
//! * [`store`] — the functional backing store holding actual line values, so
//!   that encryption/integrity/dedup and crash recovery can be checked
//!   end-to-end, not just timed.
//!
//! # Example
//!
//! ```
//! use janus_nvm::{addr::LineAddr, line::Line, store::LineStore};
//!
//! let mut store = LineStore::new();
//! let a = LineAddr(16);
//! store.write(a, Line::splat(0xAB));
//! assert_eq!(store.read(a), Line::splat(0xAB));
//! ```

pub mod addr;
pub mod cache;
pub mod device;
pub mod line;
pub mod store;
pub mod wq;

pub use addr::LineAddr;
pub use cache::{Access, CacheConfig, SetAssocCache, Victim};
pub use device::{NvmDevice, NvmTiming};
pub use line::{Line, LINE_BYTES};
pub use store::LineStore;
pub use wq::AdrWriteQueue;
