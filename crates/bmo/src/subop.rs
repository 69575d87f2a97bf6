//! Sub-operation dependency graphs (§3.1, Figure 2 and Figure 6).
//!
//! Each BMO decomposes into sub-operations connected by three kinds of
//! dependency edges:
//!
//! * **intra-operation** — between sub-operations of the same BMO (E1→E2);
//! * **inter-operation** — across BMOs (D2→E3: duplicate writes are not
//!   encrypted; E1→D4: the address mapping co-locates with the counter;
//!   E1→I1 and D2→I1: the Merkle tree is built over the co-located
//!   counter/remap metadata);
//! * **external** — from a write's address or data to the sub-operations
//!   that consume them.
//!
//! The two analyses of the paper are implemented directly on the graph:
//! [`DepGraph::can_parallel`] (two sub-operation sets may execute in
//! parallel iff no dependency path connects them, §3.1) and
//! [`DepGraph::external_class`] (a sub-operation is address-dependent,
//! data-dependent, or both, according to the external inputs reachable
//! through its ancestors — the "merge nodes without external dependency
//! into their preceding nodes" step of Figure 2b).

use janus_sim::time::Cycles;

use crate::stack::BmoId;

/// Index of a sub-operation node within its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Dependency edge kind (used for reporting/validation; scheduling treats
/// intra and inter edges identically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Between sub-operations of one BMO.
    Intra,
    /// Across BMOs.
    Inter,
}

/// External-input dependency class of a sub-operation (§3.1): which of the
/// write's external inputs it (transitively) requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExternalClass {
    /// Only the write's address (pre-executable via `PRE_ADDR`).
    Addr,
    /// Only the write's data (pre-executable via `PRE_DATA`).
    Data,
    /// Both address and data (pre-executable once both are known).
    Both,
    /// Neither — the node has no external requirement of its own nor through
    /// ancestors (does not occur in the paper's graph after merging).
    None,
}

impl ExternalClass {
    /// The class of a set of sub-operations that together need the
    /// address (`needs_addr`) and the data (`needs_data`).
    pub fn of(needs_addr: bool, needs_data: bool) -> ExternalClass {
        match (needs_addr, needs_data) {
            (true, true) => ExternalClass::Both,
            (true, false) => ExternalClass::Addr,
            (false, true) => ExternalClass::Data,
            (false, false) => ExternalClass::None,
        }
    }
}

/// Why an edge insertion was rejected (the checked counterpart of the
/// panicking [`DepGraph::add_edge`] — consumed by the structural linter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdgeError {
    /// `from == to`.
    SelfEdge(NodeId),
    /// The edge would close a dependency cycle.
    Cycle(NodeId, NodeId),
    /// The exact edge already exists.
    Duplicate(NodeId, NodeId),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::SelfEdge(n) => write!(f, "self edge on node {}", n.0),
            EdgeError::Cycle(a, b) => {
                write!(f, "edge {} -> {} would create a cycle", a.0, b.0)
            }
            EdgeError::Duplicate(a, b) => write!(f, "duplicate edge {} -> {}", a.0, b.0),
        }
    }
}

impl std::error::Error for EdgeError {}

/// A single sub-operation.
#[derive(Clone, Debug)]
pub struct SubOp {
    /// Short name from the paper ("E1", "D2", …).
    pub name: &'static str,
    /// Owning BMO.
    pub bmo: BmoId,
    /// Execution latency on a BMO unit.
    pub latency: Cycles,
    /// Direct external dependency on the write's address.
    pub needs_addr: bool,
    /// Direct external dependency on the write's data.
    pub needs_data: bool,
    /// Whether this node is skipped when the write is a duplicate (the
    /// memory controller "cancels duplicated writes", so E3/E4 never run).
    pub skip_if_dup: bool,
}

/// The dependency graph of one system's BMO set.
#[derive(Clone, Debug)]
pub struct DepGraph {
    nodes: Vec<SubOp>,
    edges: Vec<(NodeId, NodeId, EdgeKind)>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
}

impl DepGraph {
    /// Builds an empty graph.
    pub fn new() -> Self {
        DepGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, op: SubOp) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(op);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Adds a dependency edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle or duplicates an existing
    /// edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        match self.try_add_edge(from, to, kind) {
            Ok(()) => {}
            Err(EdgeError::SelfEdge(_)) => {
                panic!("self edge on {}", self.nodes[from.0].name)
            }
            Err(EdgeError::Cycle(..)) => panic!(
                "edge {} -> {} would create a cycle",
                self.nodes[from.0].name, self.nodes[to.0].name
            ),
            Err(EdgeError::Duplicate(..)) => panic!(
                "duplicate edge {} -> {}",
                self.nodes[from.0].name, self.nodes[to.0].name
            ),
        }
    }

    /// Checked edge insertion: rejects self edges, cycles, and duplicates
    /// instead of panicking, leaving the graph untouched on error.
    pub fn try_add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: EdgeKind,
    ) -> Result<(), EdgeError> {
        if from == to {
            return Err(EdgeError::SelfEdge(from));
        }
        if self.has_path(to, from) {
            return Err(EdgeError::Cycle(from, to));
        }
        if self.preds[to.0].contains(&from) {
            return Err(EdgeError::Duplicate(from, to));
        }
        self.edges.push((from, to, kind));
        self.preds[to.0].push(from);
        self.succs[from.0].push(to);
        Ok(())
    }

    /// Number of sub-operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sub-operation for `id`.
    pub fn node(&self, id: NodeId) -> &SubOp {
        &self.nodes[id.0]
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Looks up a node by its paper name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Direct predecessors of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.0]
    }

    /// Direct successors of `id`.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }

    /// All edges.
    pub fn edges(&self) -> &[(NodeId, NodeId, EdgeKind)] {
        &self.edges
    }

    /// Whether a dependency path `from ⤳ to` exists.
    pub fn has_path(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            for &s in &self.succs[n.0] {
                if s == to {
                    return true;
                }
                if !seen[s.0] {
                    seen[s.0] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Edges that are transitively redundant: `(from, to)` such that a
    /// dependency path `from ⤳ to` exists even without the direct edge.
    /// Redundant edges never change the schedule (the path already orders
    /// the endpoints) but cost composition and traversal work — the
    /// structural linter reports them.
    pub fn redundant_edges(&self) -> Vec<(NodeId, NodeId, EdgeKind)> {
        self.edges
            .iter()
            .filter(|&&(from, to, _)| {
                // Path from → to using at least one intermediate node.
                self.succs[from.0]
                    .iter()
                    .any(|&s| s != to && self.has_path(s, to))
            })
            .copied()
            .collect()
    }

    /// The paper's parallelization rule (§3.1): `S1 ∥ S2` iff for all
    /// `Op1 ∈ S1, Op2 ∈ S2` there is no path in either direction.
    pub fn can_parallel(&self, s1: &[NodeId], s2: &[NodeId]) -> bool {
        s1.iter().all(|&a| {
            s2.iter()
                .all(|&b| !self.has_path(a, b) && !self.has_path(b, a))
        })
    }

    /// External-input class of a node: the union of direct external
    /// dependencies over the node and all of its ancestors.
    pub fn external_class(&self, id: NodeId) -> ExternalClass {
        let mut needs_addr = false;
        let mut needs_data = false;
        let mut stack = vec![id];
        let mut seen = vec![false; self.nodes.len()];
        seen[id.0] = true;
        while let Some(n) = stack.pop() {
            needs_addr |= self.nodes[n.0].needs_addr;
            needs_data |= self.nodes[n.0].needs_data;
            for &p in &self.preds[n.0] {
                if !seen[p.0] {
                    seen[p.0] = true;
                    stack.push(p);
                }
            }
        }
        ExternalClass::of(needs_addr, needs_data)
    }

    /// Topological order (insertion order refined by dependencies).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut ready: Vec<NodeId> = self.node_ids().filter(|n| indeg[n.0] == 0).collect();
        while let Some(n) = ready.pop() {
            order.push(n);
            for &s in &self.succs[n.0] {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.nodes.len(), "graph has a cycle");
        order
    }

    /// Length of the longest dependency path assuming unlimited units and
    /// all external inputs available at time zero — the parallelized lower
    /// bound on BMO latency.
    pub fn critical_path(&self) -> Cycles {
        let mut finish = vec![Cycles::ZERO; self.nodes.len()];
        for n in self.topo_order() {
            let start = self.preds[n.0]
                .iter()
                .map(|p| finish[p.0])
                .max()
                .unwrap_or(Cycles::ZERO);
            finish[n.0] = start + self.nodes[n.0].latency;
        }
        finish.into_iter().max().unwrap_or(Cycles::ZERO)
    }

    /// Sum of all node latencies — the serialized execution time.
    pub fn serial_sum(&self) -> Cycles {
        self.nodes.iter().map(|n| n.latency).sum()
    }
}

impl Default for DepGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::BmoLatencies;
    use crate::stack::BmoStack;

    fn g() -> DepGraph {
        BmoStack::paper().graph(&BmoLatencies::paper())
    }

    fn ids(g: &DepGraph, names: &[&str]) -> Vec<NodeId> {
        names
            .iter()
            .map(|n| g.node_by_name(n).expect("known node"))
            .collect()
    }

    #[test]
    fn standard_graph_shape() {
        let g = g();
        assert_eq!(g.len(), 11);
        assert_eq!(g.edges().len(), 12);
    }

    #[test]
    fn figure2_parallel_sets() {
        // §3.1: "S_{E1-2} and S_{D1-3} are independent, and S_{E3} and
        // S_{D4} are independent."
        let g = g();
        assert!(g.can_parallel(&ids(&g, &["E1", "E2"]), &ids(&g, &["D1", "D2"])));
        assert!(g.can_parallel(&ids(&g, &["E3"]), &ids(&g, &["D4"])));
        // But E3 depends on D2, so {E3} ∦ {D1,D2}.
        assert!(!g.can_parallel(&ids(&g, &["E3"]), &ids(&g, &["D1", "D2"])));
    }

    #[test]
    fn figure6_parallel_sets() {
        // §4.2: "three sets of sub-operations E3-E4, I1-I3 and D3-D4 can
        // execute in parallel".
        let g = g();
        let e34 = ids(&g, &["E3", "E4"]);
        let i = ids(&g, &["I1", "I2", "I3"]);
        let d34 = ids(&g, &["D3", "D4"]);
        assert!(g.can_parallel(&e34, &i));
        assert!(g.can_parallel(&e34, &d34));
        assert!(g.can_parallel(&i, &d34));
    }

    #[test]
    fn external_classes_match_figure6() {
        // §4.2: "E1-E2 are address-dependent, D1-D2 are data-dependent, and
        // the rest are both".
        let g = g();
        for name in ["E1", "E2"] {
            assert_eq!(
                g.external_class(g.node_by_name(name).unwrap()),
                ExternalClass::Addr,
                "{name}"
            );
        }
        for name in ["D1", "D2"] {
            assert_eq!(
                g.external_class(g.node_by_name(name).unwrap()),
                ExternalClass::Data,
                "{name}"
            );
        }
        for name in ["E3", "E4", "I1", "I2", "I3", "D3", "D4"] {
            assert_eq!(
                g.external_class(g.node_by_name(name).unwrap()),
                ExternalClass::Both,
                "{name}"
            );
        }
    }

    #[test]
    fn critical_path_shorter_than_serial_sum() {
        let g = g();
        assert!(g.critical_path() < g.serial_sum());
        // Serialized total matches the latency model's arithmetic.
        assert_eq!(g.serial_sum(), BmoLatencies::paper().serialized_total());
    }

    #[test]
    fn critical_path_value() {
        // Longest path: D1 → D2 → I1 → I2 → I3
        // = 1284 + 40 + 160 + 1120 + 160 = 2764 cycles (691 ns).
        let g = g();
        assert_eq!(g.critical_path(), Cycles(2764));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = g();
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let pos = |id: NodeId| order.iter().position(|&n| n == id).unwrap();
        for &(from, to, _) in g.edges() {
            assert!(pos(from) < pos(to));
        }
    }

    #[test]
    #[should_panic(expected = "would create a cycle")]
    fn cycle_detection() {
        let mut g = g();
        let e1 = g.node_by_name("E1").unwrap();
        let e3 = g.node_by_name("E3").unwrap();
        g.add_edge(e3, e1, EdgeKind::Inter);
    }

    #[test]
    fn extended_graph_classes() {
        let g = BmoStack::extended().graph(&BmoLatencies::paper());
        assert_eq!(g.len(), 13);
        let c1 = g.node_by_name("C1").unwrap();
        let w1 = g.node_by_name("W1").unwrap();
        assert_eq!(g.external_class(c1), ExternalClass::Data);
        assert_eq!(g.external_class(w1), ExternalClass::Addr);
        // E3 now also waits on compression.
        let e3 = g.node_by_name("E3").unwrap();
        assert!(g.has_path(c1, e3));
    }

    #[test]
    fn path_queries() {
        let g = g();
        let d1 = g.node_by_name("D1").unwrap();
        let i3 = g.node_by_name("I3").unwrap();
        assert!(g.has_path(d1, i3));
        assert!(!g.has_path(i3, d1));
        assert!(g.has_path(d1, d1), "trivial self path");
    }

    #[test]
    fn dup_skippable_nodes() {
        let g = g();
        let skip: Vec<&str> = g
            .node_ids()
            .filter(|&n| g.node(n).skip_if_dup)
            .map(|n| g.node(n).name)
            .collect();
        assert_eq!(skip, vec!["E3", "E4"]);
    }
}
