//! Compiled sub-op schedules: one topological scheduling pass per
//! `(stack, request shape)`, replayed for every full submit.
//!
//! For a *full* submit — address and data both available at the submit
//! cycle — the interpreted scheduler ([`crate::engine::BmoEngine`]) walks
//! the dependency graph and asks the [`UnitPool`] where each sub-operation
//! may run. But the answer is the same every time as long as the units have
//! room: in first-fit window placement, a sub-operation whose aggregate
//! window charge fits starts exactly at its ready time, and its ready time
//! is pure DAG arithmetic over its predecessors (plus, in serialized modes,
//! the canonical-order prefix). So the whole schedule is a *template* of
//! per-node offsets relative to the submit cycle, compiled once per request
//! shape and replayed by offsetting a base cycle — no graph walk, no
//! placement search.
//!
//! The only per-replay work that remains is the validity probe: aggregate
//! the template's unit-cycle charges per window, ask the pool whether each
//! touched window still has room ([`UnitPool::window_fits`]), and commit
//! wholesale ([`UnitPool::charge_window`]) if so. When a window is
//! saturated the units are genuinely contended, first-fit placement would
//! legitimately differ from the template, and the engine falls back to the
//! interpreted scheduler for that job — which is why replay and
//! interpretation are cycle-identical by construction, not merely in
//! expectation (the differential property test in
//! `tests/compiled_differential.rs` holds them to it).
//!
//! The engine compiles both request shapes when it is built, one template
//! per value of the job's `dup` flag: the graph, mode, and unit count are
//! fixed per engine, staged (partial) submits always take the interpreted
//! path, and `dup` is the one remaining bit that changes which nodes exist.
//! The engine counts the full submits that fall back
//! ([`crate::engine::BmoEngine::replay_fallbacks`]); nothing in the trace
//! says which path ran.

use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;
use janus_trace::Category;

use crate::engine::{category_of, BmoMode, UNIT_II};
use crate::subop::{DepGraph, NodeId};

/// One sub-operation's slot in a compiled template. All offsets are
/// relative to the job's submit cycle.
#[derive(Clone, Copy, Debug)]
pub struct SlotTpl {
    /// The graph node this slot schedules.
    pub node: NodeId,
    /// Ready offset: dependency waits (and serialized-order waits) resolved.
    pub rel_ready: u64,
    /// Completion offset (`rel_ready + latency` — replay starts at ready).
    pub rel_end: u64,
    /// Service latency.
    pub latency: Cycles,
    /// Unit-cycles the slot charges to its ready window
    /// (`min(UNIT_II, latency)`, at least 1 — always within one window).
    pub charge: u64,
    /// Sub-operation name (trace span label).
    pub name: &'static str,
    /// Trace category of the owning BMO.
    pub cat: Category,
}

/// A compiled schedule: the flat slot array in topological order, plus the
/// shape's critical-path length.
#[derive(Clone, Debug)]
pub struct SchedTemplate {
    /// Slots in the engine's canonical topological order (skipped
    /// `skip_if_dup` nodes are absent for the duplicate shape).
    pub slots: Vec<SlotTpl>,
    /// Critical-path length of the shape: `max(rel_end)` (0 if every node
    /// is skipped).
    pub span: u64,
}

impl SchedTemplate {
    /// Compiles the schedule for one request shape by replaying the
    /// interpreted scheduler's ready computation symbolically (submit = 0,
    /// both inputs at 0, uncontended units).
    pub fn compile(graph: &DepGraph, topo: &[NodeId], mode: BmoMode, dup: bool) -> SchedTemplate {
        let mut end_rel: Vec<Option<u64>> = vec![None; graph.len()];
        let mut slots = Vec::with_capacity(topo.len());
        // Running max completion over earlier (non-skipped) canonical-order
        // nodes — the serialized modes' monolithic-ordering constraint.
        let mut serial_prefix = 0u64;
        for &n in topo {
            let op = graph.node(n);
            if dup && op.skip_if_dup {
                continue;
            }
            let mut ready = 0u64;
            for &p in graph.preds(n) {
                if dup && graph.node(p).skip_if_dup {
                    continue;
                }
                ready = ready.max(end_rel[p.0].expect("predecessors precede in topo order"));
            }
            if mode != BmoMode::Parallelized {
                ready = ready.max(serial_prefix);
            }
            let end = ready + op.latency.0;
            end_rel[n.0] = Some(end);
            serial_prefix = serial_prefix.max(end);
            slots.push(SlotTpl {
                node: n,
                rel_ready: ready,
                rel_end: end,
                latency: op.latency,
                charge: UNIT_II.min(op.latency).0.max(1),
                name: op.name,
                cat: category_of(op.bmo),
            });
        }
        let span = slots.iter().map(|s| s.rel_end).max().unwrap_or(0);
        SchedTemplate { slots, span }
    }

    /// Aggregates the template's per-window unit-cycle charges for a replay
    /// at `submit` into `windows` (a reused scratch buffer of
    /// `(window, charge)` pairs), then reports whether every touched window
    /// still fits in `pool`. On `true`, committing the same aggregates
    /// reproduces the interpreted schedule exactly.
    pub fn windows_fit(
        &self,
        submit: Cycles,
        pool: &UnitPool,
        windows: &mut Vec<(u64, u64)>,
    ) -> bool {
        if pool.is_unlimited() {
            return true;
        }
        windows.clear();
        for s in &self.slots {
            let w = (submit.0 + s.rel_ready) / UnitPool::WINDOW;
            match windows.iter_mut().find(|(wi, _)| *wi == w) {
                Some((_, c)) => *c += s.charge,
                None => windows.push((w, s.charge)),
            }
        }
        windows.iter().all(|&(w, c)| pool.window_fits(w, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::BmoLatencies;

    fn graph() -> DepGraph {
        DepGraph::standard(&BmoLatencies::paper())
    }

    #[test]
    fn parallelized_template_span_is_the_critical_path() {
        let g = graph();
        let topo = g.topo_order();
        let t = SchedTemplate::compile(&g, &topo, BmoMode::Parallelized, false);
        assert_eq!(Cycles(t.span), g.critical_path());
        assert_eq!(t.slots.len(), g.len());
    }

    #[test]
    fn serialized_template_span_is_the_serial_sum() {
        let g = graph();
        let topo = g.topo_order();
        let t = SchedTemplate::compile(&g, &topo, BmoMode::Serialized, false);
        assert_eq!(Cycles(t.span), g.serial_sum());
        // Monolithic ordering: each slot starts where the previous ended.
        for pair in t.slots.windows(2) {
            assert_eq!(pair[1].rel_ready, pair[0].rel_end);
        }
    }

    #[test]
    fn duplicate_shape_drops_skippable_nodes() {
        let g = graph();
        let topo = g.topo_order();
        let full = SchedTemplate::compile(&g, &topo, BmoMode::Parallelized, false);
        let dup = SchedTemplate::compile(&g, &topo, BmoMode::Parallelized, true);
        let skipped = g.node_ids().filter(|&n| g.node(n).skip_if_dup).count();
        assert!(skipped > 0, "standard graph has dup-cancelled nodes");
        assert_eq!(dup.slots.len() + skipped, full.slots.len());
    }

    #[test]
    fn charges_fit_a_single_window() {
        let g = graph();
        let topo = g.topo_order();
        let t = SchedTemplate::compile(&g, &topo, BmoMode::Parallelized, false);
        for s in &t.slots {
            assert!(s.charge >= 1 && s.charge <= UNIT_II.0);
            assert!(s.charge <= UnitPool::WINDOW);
        }
    }

    #[test]
    fn window_fit_probe_respects_saturation() {
        let g = graph();
        let topo = g.topo_order();
        let t = SchedTemplate::compile(&g, &topo, BmoMode::Parallelized, false);
        let mut scratch = Vec::new();
        let mut pool = UnitPool::new(4);
        assert!(t.windows_fit(Cycles(0), &pool, &mut scratch));
        // Saturate window 0 (4 units × 64 = 256 unit-cycles).
        for _ in 0..4 {
            pool.acquire(Cycles(0), Cycles(64));
        }
        assert!(!t.windows_fit(Cycles(0), &pool, &mut scratch));
        assert!(t.windows_fit(Cycles(0), &UnitPool::new(UnitPool::UNLIMITED), &mut scratch));
    }
}
