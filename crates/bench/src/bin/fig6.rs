//! Figure 6 (and Figure 2): the sub-operation dependency graph of the
//! evaluated BMO set, its parallel sets, and the external-dependency
//! classification that drives pre-execution.

use janus_bench::banner;
use janus_bmo::latency::BmoLatencies;
use janus_bmo::subop::EdgeKind;
use janus_bmo::BmoStack;

fn main() {
    janus_bench::require_known_args(&["--tx"], &[]);
    banner(
        "Figure 6 — BMO sub-operation dependency graph",
        "nodes, edges, external classes, and timing bounds",
    );
    let g = BmoStack::paper().graph(&BmoLatencies::paper());
    println!(
        "{:<6} {:<14} {:>10}  {:<8}",
        "node", "bmo", "latency", "class"
    );
    println!("{}", "-".repeat(46));
    for n in g.node_ids() {
        let op = g.node(n);
        println!(
            "{:<6} {:<14} {:>10}  {:?}",
            op.name,
            format!("{:?}", op.bmo),
            format!("{}", op.latency),
            g.external_class(n),
        );
    }
    println!("\nedges:");
    // Pin the listing order: intra edges first, then inter, each sorted by
    // (from, to) node id. The composed graph stores edges in registration
    // order, which is a property of the BMO registry, not of the figure —
    // sorting keeps `results/fig6.txt` byte-identical however the stack is
    // assembled.
    let mut edges: Vec<_> = g.edges().to_vec();
    edges.sort_by_key(|&(from, to, kind)| (matches!(kind, EdgeKind::Inter), from, to));
    for (from, to, kind) in edges {
        let k = match kind {
            EdgeKind::Intra => "intra",
            EdgeKind::Inter => "INTER",
        };
        println!("  {} -> {}  ({k})", g.node(from).name, g.node(to).name);
    }
    println!("\nserialized sum:   {}", g.serial_sum());
    println!("critical path:    {}", g.critical_path());
    println!("parallel sets (§4.2): E3-E4 ∥ I1-I3 ∥ D3-D4 = {}", {
        let ids = |names: &[&str]| -> Vec<_> {
            names.iter().map(|n| g.node_by_name(n).unwrap()).collect()
        };
        let e = ids(&["E3", "E4"]);
        let i = ids(&["I1", "I2", "I3"]);
        let d = ids(&["D3", "D4"]);
        g.can_parallel(&e, &i) && g.can_parallel(&e, &d) && g.can_parallel(&i, &d)
    });
}
