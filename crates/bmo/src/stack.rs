//! The BMO stack registry: one description per backend memory operation,
//! consumed by every layer.
//!
//! [`BmoId`] names each BMO, and its methods hold everything a layer needs
//! to know about one, each a single `match` over the ids:
//!
//! * [`BmoId::sub_ops`] — its sub-operation graph fragment, chained by
//!   intra edges in declaration order;
//! * [`BmoId::inter_edges`] — the inter-BMO edges it provides, named
//!   source → sink pairs;
//! * [`BmoId::pre_exec`] — its pre-executability class: whether its
//!   sub-operations can start from the write's address, its data, or need
//!   both (§4.2);
//! * [`BmoId::category`] — the trace category its sub-operation spans
//!   carry, which is also the resource janus-prof charges them to;
//! * [`BmoId::name`] and [`BmoId::as_str`] — its name in `--list-bmos`
//!   and its id in config files and `--bmos` lists.
//!
//! Adding a BMO means adding one `BmoId` variant, listing it in
//! [`BmoId::ALL`] and [`BmoId::parse`], and writing the arm the compiler
//! then asks for in each method above (a new trace category, if its spans
//! need their own, goes in `janus_trace::Category`). The one piece that
//! lives outside this file is the BMO's functional stage: its flag and code
//! in [`crate::pipeline`], which runs the stage when the BMO is in the
//! stack.
//!
//! A [`BmoStack`] is an ordered subset of registered BMOs. The timing graph
//! ([`BmoStack::graph`]), the functional pipeline, the controller's
//! pre-execution paths, and the CLI all derive from the same stack, so any
//! subset and ordering — encryption-only, integrity+ECC, the full
//! seven-BMO stack — is selectable from config or `janus-cli --bmos`.
//!
//! Graph composition happens in two phases so that a stack's graph is
//! independent of *which* BMOs are absent: first every member's fragment is
//! added (nodes + intra chain) in stack order, then every member's declared
//! inter edges are added in stack order, silently skipping edges whose
//! endpoint belongs to a BMO not in the stack. For the default paper stack
//! this reproduces the paper's Figure 6 graph node-for-node and
//! adjacency-for-adjacency, which is what pins the paper's figures.

use std::fmt;

use janus_sim::time::Cycles;
use janus_trace::Category;

use crate::latency::BmoLatencies;
use crate::subop::{DepGraph, EdgeKind, ExternalClass, SubOp};

/// Identifier of a registered BMO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BmoId {
    /// Counter-mode encryption (E1–E4).
    Encryption,
    /// Bonsai-Merkle-Tree integrity verification (I1–I3).
    Integrity,
    /// Fingerprint deduplication (D1–D4).
    Dedup,
    /// Inline compression (C1).
    Compression,
    /// Start-Gap wear-leveling (W1).
    WearLeveling,
    /// SECDED error correction (EC1).
    Ecc,
    /// Oblivious frame relocation (O1).
    Oram,
}

impl BmoId {
    /// Every registered BMO, in canonical (paper Table 1) order.
    pub const ALL: [BmoId; 7] = [
        BmoId::Encryption,
        BmoId::Integrity,
        BmoId::Dedup,
        BmoId::Compression,
        BmoId::WearLeveling,
        BmoId::Ecc,
        BmoId::Oram,
    ];

    /// The short id used by config files and `--bmos` lists.
    pub fn as_str(self) -> &'static str {
        match self {
            BmoId::Encryption => "enc",
            BmoId::Integrity => "int",
            BmoId::Dedup => "dedup",
            BmoId::Compression => "comp",
            BmoId::WearLeveling => "wear",
            BmoId::Ecc => "ecc",
            BmoId::Oram => "oram",
        }
    }

    /// Parses a single id (short form or full name), case-insensitive.
    pub fn parse(s: &str) -> Result<BmoId, StackError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "enc" | "encryption" => Ok(BmoId::Encryption),
            "int" | "integrity" => Ok(BmoId::Integrity),
            "dedup" | "dedupe" | "deduplication" => Ok(BmoId::Dedup),
            "comp" | "compression" => Ok(BmoId::Compression),
            "wear" | "wl" | "wear-leveling" => Ok(BmoId::WearLeveling),
            "ecc" => Ok(BmoId::Ecc),
            "oram" => Ok(BmoId::Oram),
            _ => Err(StackError::UnknownId(s.trim().to_string())),
        }
    }

    /// Human-readable name (for `--list-bmos` and docs).
    pub fn name(self) -> &'static str {
        match self {
            BmoId::Encryption => "counter-mode encryption",
            BmoId::Integrity => "Merkle-tree integrity",
            BmoId::Dedup => "fingerprint deduplication",
            BmoId::Compression => "inline compression",
            BmoId::WearLeveling => "Start-Gap wear-leveling",
            BmoId::Ecc => "SECDED error correction",
            BmoId::Oram => "oblivious frame relocation",
        }
    }

    /// The sub-op fragment, in intra-chain order: consecutive sub-ops are
    /// linked by [`EdgeKind::Intra`] edges when the graph is composed.
    pub fn sub_ops(self, lat: &BmoLatencies) -> Vec<SubOp> {
        let op = |name, latency, needs_addr, needs_data, skip_if_dup| SubOp {
            name,
            bmo: self,
            latency,
            needs_addr,
            needs_data,
            skip_if_dup,
        };
        match self {
            BmoId::Encryption => vec![
                op("E1", lat.counter_gen, true, false, false),
                op("E2", lat.aes, false, false, false),
                op("E3", lat.xor, false, true, true),
                op("E4", lat.sha1, false, false, true),
            ],
            BmoId::Integrity => {
                let inner_levels = lat.merkle_levels.saturating_sub(2) as u64;
                vec![
                    op("I1", lat.sha1, false, false, false),
                    op("I2", lat.sha1 * inner_levels, false, false, false),
                    op("I3", lat.sha1, false, false, false),
                ]
            }
            BmoId::Dedup => vec![
                op("D1", lat.dedup_hash, false, true, false),
                op("D2", lat.dedup_lookup, false, false, false),
                op("D3", lat.map_update, true, false, false),
                op("D4", lat.aes, false, false, false),
            ],
            BmoId::Compression => vec![op("C1", Cycles::from_ns(20), false, true, true)],
            BmoId::WearLeveling => vec![op("W1", Cycles::from_ns(1), true, false, false)],
            BmoId::Ecc => vec![op("EC1", Cycles::from_ns(2), false, true, true)],
            BmoId::Oram => vec![op("O1", Cycles::from_ns(1000), true, false, true)],
        }
    }

    /// Inter-BMO edges this BMO *provides* (its own node is the source),
    /// as `(from, to)` sub-op names. Edges whose sink belongs to a BMO
    /// absent from the stack are skipped during composition.
    pub fn inter_edges(self) -> &'static [(&'static str, &'static str)] {
        match self {
            // E1→D4: the address mapping co-locates with the counter.
            // E1→I1: the Merkle tree covers the latest counter.
            // E3→EC1: check bytes protect the ciphertext actually stored.
            BmoId::Encryption => &[("E1", "D4"), ("E1", "I1"), ("E3", "EC1")],
            // The tree root is terminal; other BMOs feed it.
            BmoId::Integrity => &[],
            // D2→E3: duplicate writes are not encrypted.
            // D2→I1: the tree covers the remap entry.
            // D2→EC1: duplicates store no line, so no check bytes either.
            BmoId::Dedup => &[("D2", "E3"), ("D2", "I1"), ("D2", "EC1")],
            // C1→E3: the compressed data is what gets encrypted.
            // C1→EC1: …and what the check bytes protect when unencrypted.
            BmoId::Compression => &[("C1", "E3"), ("C1", "EC1")],
            // W1→D3: the mapping update uses the wear-leveled address.
            BmoId::WearLeveling => &[("W1", "D3")],
            // Terminal: consumes the stored payload, feeds nothing.
            BmoId::Ecc => &[],
            // O1→W1: wear-leveling remaps the already-relocated frame.
            BmoId::Oram => &[("O1", "W1")],
        }
    }

    /// Pre-executability class: the union of the direct external inputs of
    /// the BMO's own sub-ops (before ancestor merging).
    pub fn pre_exec(self) -> ExternalClass {
        match self {
            // E1 needs the address, E3 needs the data.
            BmoId::Encryption => ExternalClass::Both,
            // Driven purely through inter edges (E1/D2 → I1).
            BmoId::Integrity => ExternalClass::None,
            // D1 needs the data, D3 needs the address.
            BmoId::Dedup => ExternalClass::Both,
            BmoId::Compression => ExternalClass::Data,
            BmoId::WearLeveling => ExternalClass::Addr,
            BmoId::Ecc => ExternalClass::Data,
            BmoId::Oram => ExternalClass::Addr,
        }
    }

    /// The trace category of this BMO's sub-operation spans; its name is
    /// the resource janus-prof charges their service time to.
    pub fn category(self) -> Category {
        match self {
            BmoId::Encryption => Category::Encryption,
            BmoId::Integrity => Category::Integrity,
            BmoId::Dedup => Category::Dedup,
            BmoId::Compression => Category::Compression,
            BmoId::WearLeveling => Category::WearLeveling,
            BmoId::Ecc => Category::Ecc,
            BmoId::Oram => Category::Oram,
        }
    }
}

impl fmt::Display for BmoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors from building or parsing a [`BmoStack`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackError {
    /// An id string matched no registered BMO.
    UnknownId(String),
    /// The same BMO appeared twice in one stack.
    Duplicate(BmoId),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::UnknownId(s) => {
                let valid: Vec<&str> = BmoId::ALL.iter().map(|b| b.as_str()).collect();
                write!(
                    f,
                    "unknown BMO id \"{s}\" (valid ids: {}, or \"none\")",
                    valid.join(", ")
                )
            }
            StackError::Duplicate(id) => write!(f, "BMO \"{id}\" listed twice in the stack"),
        }
    }
}

impl std::error::Error for StackError {}

/// One edge the checked composer ([`BmoStack::try_graph`]) had to skip,
/// with the sub-op names declared by the offending [`BmoId::inter_edges`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComposeIssue {
    /// Declared source sub-op name.
    pub from: &'static str,
    /// Declared sink sub-op name.
    pub to: &'static str,
    /// Why the edge was rejected.
    pub error: crate::subop::EdgeError,
}

/// An ordered subset of registered BMOs — the single source of truth for
/// the timing graph, the functional pipeline, and pre-execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BmoStack {
    members: Vec<BmoId>,
}

impl BmoStack {
    /// Builds a stack from an ordered list of ids. Duplicates are rejected;
    /// an empty stack is valid (raw NVM, no backend operations).
    pub fn new(members: impl IntoIterator<Item = BmoId>) -> Result<BmoStack, StackError> {
        let members: Vec<BmoId> = members.into_iter().collect();
        for (i, id) in members.iter().enumerate() {
            if members[..i].contains(id) {
                return Err(StackError::Duplicate(*id));
            }
        }
        Ok(BmoStack { members })
    }

    /// The paper's evaluated trio: encryption, integrity, deduplication.
    pub fn paper() -> BmoStack {
        BmoStack {
            members: vec![BmoId::Encryption, BmoId::Integrity, BmoId::Dedup],
        }
    }

    /// The ablation study's five-BMO stack: the paper trio plus inline
    /// compression and wear-leveling.
    pub fn extended() -> BmoStack {
        BmoStack {
            members: vec![
                BmoId::Encryption,
                BmoId::Integrity,
                BmoId::Dedup,
                BmoId::Compression,
                BmoId::WearLeveling,
            ],
        }
    }

    /// Every registered BMO, in canonical order.
    pub fn all() -> BmoStack {
        BmoStack {
            members: BmoId::ALL.to_vec(),
        }
    }

    /// Parses a comma-separated id list (`"enc,int,dedup"`). The literal
    /// `"none"` yields the empty stack.
    pub fn parse(s: &str) -> Result<BmoStack, StackError> {
        if s.trim().eq_ignore_ascii_case("none") {
            return BmoStack::new([]);
        }
        let ids: Result<Vec<BmoId>, StackError> = s.split(',').map(BmoId::parse).collect();
        BmoStack::new(ids?)
    }

    /// The members in stack order.
    pub fn members(&self) -> &[BmoId] {
        &self.members
    }

    /// Whether `id` is in the stack.
    pub fn contains(&self, id: BmoId) -> bool {
        self.members.contains(&id)
    }

    /// The comma-separated id list (`parse` round-trips it).
    pub fn id_list(&self) -> String {
        if self.members.is_empty() {
            return "none".to_string();
        }
        let ids: Vec<&str> = self.members.iter().map(|m| m.as_str()).collect();
        ids.join(",")
    }

    /// Composes the stack's sub-operation dependency graph.
    ///
    /// Phase 1 adds each member's fragment (nodes chained by intra edges)
    /// in stack order; phase 2 adds each member's provided inter edges in
    /// stack order, skipping edges whose endpoint is not in the graph.
    pub fn graph(&self, lat: &BmoLatencies) -> DepGraph {
        let (g, issues) = self.try_graph(lat);
        assert!(
            issues.is_empty(),
            "stack {self} does not compose cleanly: {issues:?}"
        );
        g
    }

    /// Checked composition: same two-phase algorithm as [`BmoStack::graph`],
    /// but edge insertions that would introduce a cycle or duplicate an
    /// existing edge are collected as [`ComposeIssue`]s (and skipped)
    /// instead of panicking. The structural linter sweeps this over every
    /// stack permutation.
    pub fn try_graph(&self, lat: &BmoLatencies) -> (DepGraph, Vec<ComposeIssue>) {
        let mut g = DepGraph::new();
        let mut issues = Vec::new();
        for id in &self.members {
            let mut prev: Option<(crate::subop::NodeId, &'static str)> = None;
            for sub in id.sub_ops(lat) {
                let name = sub.name;
                let n = g.add_node(sub);
                if let Some((p, pname)) = prev {
                    if let Err(error) = g.try_add_edge(p, n, EdgeKind::Intra) {
                        issues.push(ComposeIssue {
                            from: pname,
                            to: name,
                            error,
                        });
                    }
                }
                prev = Some((n, name));
            }
        }
        for id in &self.members {
            for &(from, to) in id.inter_edges() {
                if let (Some(f), Some(t)) = (g.node_by_name(from), g.node_by_name(to)) {
                    if let Err(error) = g.try_add_edge(f, t, EdgeKind::Inter) {
                        issues.push(ComposeIssue { from, to, error });
                    }
                }
            }
        }
        (g, issues)
    }
}

impl fmt::Display for BmoStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id_list())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linchpin of the byte-for-byte acceptance criterion: the default
    /// stack's composed graph is *identical* to the legacy hand-written
    /// Figure 6 graph — same nodes in the same order, same adjacency-list
    /// order (which drives topological order, hence unit scheduling, hence
    /// every figure), same topo order.
    #[test]
    fn paper_stack_graph_matches_legacy_standard() {
        let lat = BmoLatencies::paper();
        let g = BmoStack::paper().graph(&lat);

        let names: Vec<&str> = g.node_ids().map(|n| g.node(n).name).collect();
        assert_eq!(
            names,
            ["E1", "E2", "E3", "E4", "I1", "I2", "I3", "D1", "D2", "D3", "D4"]
        );
        let by = |n: &str| g.node_by_name(n).unwrap();
        // Adjacency-list order (insertion order of edges per endpoint).
        let succ_names =
            |n: &str| -> Vec<&str> { g.succs(by(n)).iter().map(|&s| g.node(s).name).collect() };
        let pred_names =
            |n: &str| -> Vec<&str> { g.preds(by(n)).iter().map(|&p| g.node(p).name).collect() };
        assert_eq!(succ_names("E1"), ["E2", "D4", "I1"]);
        assert_eq!(succ_names("D2"), ["D3", "E3", "I1"]);
        assert_eq!(pred_names("E3"), ["E2", "D2"]);
        assert_eq!(pred_names("I1"), ["E1", "D2"]);
        assert_eq!(pred_names("D4"), ["D3", "E1"]);
        // Topological order drives the engine's list scheduling directly.
        let topo: Vec<&str> = g.topo_order().iter().map(|&n| g.node(n).name).collect();
        assert_eq!(
            topo,
            ["D1", "D2", "D3", "E1", "I1", "I2", "I3", "D4", "E2", "E3", "E4"]
        );
        assert_eq!(g.critical_path(), Cycles(2764));
        assert_eq!(g.serial_sum(), lat.serialized_total());
    }

    #[test]
    fn extended_stack_graph_matches_legacy_extended() {
        let lat = BmoLatencies::paper();
        let g = BmoStack::extended().graph(&lat);
        assert_eq!(g.len(), 13);
        let by = |n: &str| g.node_by_name(n).unwrap();
        let pred_names =
            |n: &str| -> Vec<&str> { g.preds(by(n)).iter().map(|&p| g.node(p).name).collect() };
        assert_eq!(pred_names("E3"), ["E2", "D2", "C1"]);
        assert_eq!(pred_names("D3"), ["D2", "W1"]);
    }

    #[test]
    fn declared_pre_exec_matches_fragment_inputs() {
        // (d) must agree with (a): the declared class is the union of the
        // direct external inputs of the BMO's own sub-ops.
        let lat = BmoLatencies::paper();
        for id in BmoId::ALL {
            let ops = id.sub_ops(&lat);
            let addr = ops.iter().any(|o| o.needs_addr);
            let data = ops.iter().any(|o| o.needs_data);
            let derived = match (addr, data) {
                (true, true) => ExternalClass::Both,
                (true, false) => ExternalClass::Addr,
                (false, true) => ExternalClass::Data,
                (false, false) => ExternalClass::None,
            };
            assert_eq!(id.pre_exec(), derived, "{id}");
        }
    }

    #[test]
    fn every_subset_and_order_composes() {
        let lat = BmoLatencies::paper();
        // All 128 subsets in canonical order compose into acyclic graphs
        // with serialized ≥ parallelized latency.
        for mask in 0u32..128 {
            let members: Vec<BmoId> = BmoId::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &id)| id)
                .collect();
            let stack = BmoStack::new(members).unwrap();
            let g = stack.graph(&lat);
            assert_eq!(g.topo_order().len(), g.len(), "cycle in {stack}");
            assert!(g.serial_sum() >= g.critical_path(), "{stack}");
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_typos() {
        let s = BmoStack::parse("enc,int,dedup").unwrap();
        assert_eq!(s, BmoStack::paper());
        assert_eq!(BmoStack::parse(&s.id_list()).unwrap(), s);
        assert_eq!(BmoStack::parse("none").unwrap().members().len(), 0);
        assert_eq!(
            BmoStack::parse("NONE").unwrap(),
            BmoStack::parse("none").unwrap()
        );

        let err = BmoStack::parse("enc,intt").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("intt"), "{msg}");
        for id in BmoId::ALL {
            assert!(msg.contains(id.as_str()), "{msg} missing {id}");
        }

        assert_eq!(
            BmoStack::parse("enc,enc"),
            Err(StackError::Duplicate(BmoId::Encryption))
        );
    }

    #[test]
    fn ids_round_trip_through_parse() {
        for id in BmoId::ALL {
            assert_eq!(BmoId::parse(id.as_str()).unwrap(), id);
            assert_eq!(BmoId::parse(&id.as_str().to_uppercase()).unwrap(), id);
        }
        assert!(BmoId::parse("quantum").is_err());
    }
}
