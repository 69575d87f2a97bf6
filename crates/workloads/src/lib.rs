#![warn(missing_docs)]

//! # janus-workloads — the seven NVM transactional workloads (Table 4)
//!
//! | Workload | Description (paper) |
//! |---|---|
//! | Array Swap | Swap random items in an array |
//! | Queue | Randomly en/dequeue items to/from a queue |
//! | Hash Table | Insert random values to a hash table |
//! | RB-Tree | Insert random values to a red-black tree |
//! | B-Tree | Insert random values to a b-tree |
//! | TATP | Update random records in the TATP benchmark |
//! | TPCC | Add new orders from the TPCC benchmark |
//!
//! Every workload is a *generator*: it runs the real data-structure
//! algorithm host-side (hash probing, red-black fix-up rotations, B-tree
//! splits, …) and emits the equivalent operation trace — loads of the lines
//! the algorithm touches, undo-logged persistent updates, and either
//! hand-placed pre-execution calls ([`Instrumentation::Manual`]) or
//! provenance markers for the automated pass ([`Instrumentation::None`]).
//! Generators also produce the expected final value of every written line,
//! which the integration tests check against the simulated NVM after
//! execution and after crash recovery.
//!
//! # Example
//!
//! ```
//! use janus_workloads::{generate, Workload, WorkloadConfig};
//! use janus_workloads::undo::Instrumentation;
//!
//! let cfg = WorkloadConfig {
//!     transactions: 10,
//!     ..WorkloadConfig::default()
//! };
//! let out = generate(Workload::ArraySwap, 0, &cfg);
//! assert!(out.program.write_count() > 0);
//! ```

pub mod array_swap;
pub mod btree;
pub mod hash_table;
pub mod pmem;
pub mod queue;
pub mod rb_tree;
pub mod tatp;
pub mod tpcc;
pub mod traffic;
pub mod undo;
pub mod values;

use janus_core::ir::Program;
use janus_nvm::store::LineStore;

pub use undo::Instrumentation;

/// The evaluated workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Swap random items in an array.
    ArraySwap,
    /// Randomly en/dequeue items to/from a queue.
    Queue,
    /// Insert random values into a hash table.
    HashTable,
    /// Insert random values into a red-black tree.
    RbTree,
    /// Insert random values into a B-tree.
    BTree,
    /// Update random records (TATP UpdateLocation).
    Tatp,
    /// Add new orders (TPC-C NewOrder).
    Tpcc,
}

impl Workload {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArraySwap => "Array Swap",
            Workload::Queue => "Queue",
            Workload::HashTable => "Hash Table",
            Workload::RbTree => "RB-Tree",
            Workload::BTree => "B-Tree",
            Workload::Tatp => "TATP",
            Workload::Tpcc => "TPCC",
        }
    }

    /// Machine-readable name for file paths and JSON keys (lower-case,
    /// underscore-separated, stable across releases).
    pub fn slug(self) -> &'static str {
        match self {
            Workload::ArraySwap => "array_swap",
            Workload::Queue => "queue",
            Workload::HashTable => "hash_table",
            Workload::RbTree => "rb_tree",
            Workload::BTree => "btree",
            Workload::Tatp => "tatp",
            Workload::Tpcc => "tpcc",
        }
    }

    /// All seven workloads, in the paper's figure order.
    pub fn all() -> [Workload; 7] {
        [
            Workload::ArraySwap,
            Workload::Queue,
            Workload::HashTable,
            Workload::BTree,
            Workload::RbTree,
            Workload::Tatp,
            Workload::Tpcc,
        ]
    }

    /// The five workloads whose transaction size can be scaled without
    /// changing their semantics (Figures 13/14 exclude TATP and TPCC).
    pub fn scalable() -> [Workload; 5] {
        [
            Workload::ArraySwap,
            Workload::Queue,
            Workload::HashTable,
            Workload::BTree,
            Workload::RbTree,
        ]
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unrecognized workload names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseWorkloadError(String);

impl std::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload {:?}", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl std::str::FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "array" | "array-swap" | "array swap" | "array_swap" | "arrayswap" => {
                Workload::ArraySwap
            }
            "queue" => Workload::Queue,
            "hash" | "hash-table" | "hash table" | "hash_table" | "hashtable" => {
                Workload::HashTable
            }
            "rbtree" | "rb-tree" | "rb tree" | "rb_tree" => Workload::RbTree,
            "btree" | "b-tree" | "b tree" => Workload::BTree,
            "tatp" => Workload::Tatp,
            "tpcc" | "tpc-c" => Workload::Tpcc,
            other => return Err(ParseWorkloadError(other.to_string())),
        })
    }
}

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of transactions to emit.
    pub transactions: usize,
    /// RNG seed (identical seeds yield identical traces across modes).
    pub seed: u64,
    /// Target deduplication ratio of payload writes (§5.1 uses 0.5).
    pub dedup_ratio: f64,
    /// Manual `PRE_*` calls or markers-only.
    pub instrumentation: Instrumentation,
    /// Payload bytes updated per transaction step (Figure 13 sweeps
    /// 64 B – 8 KB; 64 B elsewhere).
    pub tx_size_bytes: usize,
    /// Optional Zipfian key skew (θ ∈ [0,1); `None` = uniform, as in the
    /// paper). Applies to the key-selecting workloads (Hash Table, TATP,
    /// Array Swap).
    pub key_skew: Option<f64>,
    /// Fraction of auxiliary transactions mixed into the benchmark
    /// workloads (extension; 0.0 = paper behaviour): TATP gains read-only
    /// `GetSubscriberData` transactions, TPC-C gains `Payment`
    /// transactions.
    pub aux_tx_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            transactions: 200,
            seed: 42,
            dedup_ratio: 0.5,
            instrumentation: Instrumentation::None,
            tx_size_bytes: 64,
            key_skew: None,
            aux_tx_fraction: 0.0,
        }
    }
}

impl WorkloadConfig {
    /// Payload lines per transaction step.
    pub fn payload_lines(&self) -> usize {
        (self.tx_size_bytes / janus_nvm::line::LINE_BYTES).max(1)
    }
}

/// A generated workload: the trace plus its functional oracle.
#[derive(Clone, Debug)]
pub struct WorkloadOutput {
    /// The program to run on one core.
    pub program: Program,
    /// Expected final value of every line the workload wrote.
    pub expected: LineStore,
    /// Resident data-structure ranges `(first, nlines)` assumed warm in the
    /// LLC for steady-state measurement (e.g. the TATP record table).
    pub resident: Vec<(janus_nvm::addr::LineAddr, u64)>,
}

/// Why a workload cannot be generated at the requested size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenError {
    /// The core's data region ([`pmem::CORE_REGION_LINES`] lines) cannot
    /// hold an allocation.
    RegionExhausted {
        /// Lines the allocation asked for.
        requested: u64,
        /// Lines still free in the region.
        free: u64,
    },
    /// A new hash-table key found no free slot: more distinct keys than
    /// the table, whose slot count shrinks as values grow, has slots.
    HashTableFull {
        /// The table's slot count.
        slots: u64,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::RegionExhausted { requested, free } => write!(
                f,
                "the workload needs {requested} more lines of its \
                 {}-line core region, which has {free} free",
                pmem::CORE_REGION_LINES
            ),
            GenError::HashTableFull { slots } => {
                write!(f, "all {slots} slots of the hash table hold other keys")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// Generates workload `w` for core `core`.
///
/// # Errors
///
/// [`GenError`] when the transaction count or size does not fit the
/// workload's data structure in the core's region.
pub fn try_generate(
    w: Workload,
    core: usize,
    cfg: &WorkloadConfig,
) -> Result<WorkloadOutput, GenError> {
    match w {
        Workload::ArraySwap => array_swap::generate(core, cfg),
        Workload::Queue => queue::generate(core, cfg),
        Workload::HashTable => hash_table::generate(core, cfg),
        Workload::RbTree => rb_tree::generate(core, cfg),
        Workload::BTree => btree::generate(core, cfg),
        Workload::Tatp => tatp::generate(core, cfg),
        Workload::Tpcc => tpcc::generate(core, cfg),
    }
}

/// Generates workload `w` for core `core`.
///
/// # Panics
///
/// Panics where [`try_generate`] returns an error.
pub fn generate(w: Workload, core: usize, cfg: &WorkloadConfig) -> WorkloadOutput {
    try_generate(w, core, cfg).unwrap_or_else(|e| panic!("{w}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_nonempty_programs() {
        let cfg = WorkloadConfig {
            transactions: 5,
            ..WorkloadConfig::default()
        };
        for w in Workload::all() {
            let out = generate(w, 0, &cfg);
            assert!(out.program.write_count() >= 5, "{w}");
            assert!(!out.expected.is_empty(), "{w}");
        }
    }

    #[test]
    fn manual_emits_pre_ops_none_does_not() {
        for w in Workload::all() {
            let plain = generate(
                w,
                0,
                &WorkloadConfig {
                    transactions: 5,
                    ..WorkloadConfig::default()
                },
            );
            let manual = generate(
                w,
                0,
                &WorkloadConfig {
                    transactions: 5,
                    instrumentation: Instrumentation::Manual,
                    ..WorkloadConfig::default()
                },
            );
            assert_eq!(plain.program.pre_op_count(), 0, "{w}");
            assert!(manual.program.pre_op_count() > 0, "{w}");
            // Identical persistent behaviour.
            assert!(
                plain.expected.same_contents(&manual.expected),
                "{w}: manual and plain traces diverge functionally"
            );
            assert_eq!(
                plain.program.write_count(),
                manual.program.write_count(),
                "{w}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig {
            transactions: 8,
            ..WorkloadConfig::default()
        };
        for w in Workload::all() {
            let a = generate(w, 0, &cfg);
            let b = generate(w, 0, &cfg);
            assert_eq!(a.program, b.program, "{w}");
        }
    }

    #[test]
    fn cores_use_disjoint_lines() {
        let cfg = WorkloadConfig {
            transactions: 5,
            ..WorkloadConfig::default()
        };
        let a = generate(Workload::HashTable, 0, &cfg);
        let b = generate(Workload::HashTable, 1, &cfg);
        for (line, _) in a.expected.iter() {
            assert_eq!(b.expected.read(line), janus_nvm::line::Line::zero());
        }
    }

    #[test]
    fn tx_size_scales_write_counts() {
        for w in Workload::scalable() {
            let small = generate(
                w,
                0,
                &WorkloadConfig {
                    transactions: 5,
                    tx_size_bytes: 64,
                    ..WorkloadConfig::default()
                },
            );
            let large = generate(
                w,
                0,
                &WorkloadConfig {
                    transactions: 5,
                    tx_size_bytes: 4096,
                    ..WorkloadConfig::default()
                },
            );
            assert!(
                large.program.write_count() > small.program.write_count() * 4,
                "{w}: {} vs {}",
                large.program.write_count(),
                small.program.write_count()
            );
        }
    }

    #[test]
    fn names_and_sets() {
        assert_eq!(Workload::all().len(), 7);
        assert_eq!(Workload::scalable().len(), 5);
        assert_eq!(Workload::Tatp.to_string(), "TATP");
    }

    #[test]
    fn workloads_parse_from_strings() {
        for w in Workload::all() {
            let parsed: Workload = w.name().parse().unwrap();
            assert_eq!(parsed, w, "{w}");
        }
        assert_eq!("b-tree".parse::<Workload>(), Ok(Workload::BTree));
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn slugs_are_machine_safe_and_round_trip() {
        for w in Workload::all() {
            let slug = w.slug();
            assert!(
                slug.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{w}: slug {slug:?} is not machine-safe"
            );
            assert_eq!(slug.parse::<Workload>(), Ok(w), "{w}");
        }
    }
}
