//! Property-based tests for the BMO framework: graph analyses, engine
//! scheduling invariants, Merkle tree, and dedup refcounting (ported from
//! proptest to the in-repo janus-check harness).

use janus_bmo::dedup::DedupStore;
use janus_bmo::engine::{BmoEngine, BmoMode};
use janus_bmo::integrity::MerkleTree;
use janus_bmo::latency::BmoLatencies;
use janus_bmo::subop::DepGraph;
use janus_check::{forall, gen};
use janus_crypto::FingerprintAlgo;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;
use std::collections::HashMap;

#[path = "support/crc.rs"]
mod crc;
use crc::colliding_triple;

/// Whatever the input arrival times, a job's completion respects both
/// the critical path from the latest input and causality (completion ≥
/// every input time).
#[test]
fn engine_completion_bounds() {
    let g = gen::tuple4(
        &gen::range_u64(0..10_000),
        &gen::range_u64(0..20_000),
        &gen::range_u64(0..20_000),
        &gen::any_bool(),
    );
    forall(&g, |(submit, addr_delta, data_delta, dup)| {
        let graph = DepGraph::standard(&BmoLatencies::paper());
        let cp = graph.critical_path();
        let mut e = BmoEngine::new(graph, BmoMode::Parallelized, 4);
        let (s, a, d) = (
            Cycles(*submit),
            Cycles(submit + addr_delta),
            Cycles(submit + data_delta),
        );
        let j = e.submit(s, Some(a), Some(d), *dup);
        let done = e.completion(j).unwrap();
        let last_input = a.max(d);
        assert!(done >= last_input, "completion before inputs");
        assert!(
            done <= last_input + cp + Cycles(2_000),
            "completion {done:?} too far past inputs {last_input:?}"
        );
    });
}

/// Serialized mode is never faster than parallelized for the same job.
#[test]
fn serialized_never_faster() {
    let g = gen::pair(&gen::range_u64(0..10_000), &gen::any_bool());
    forall(&g, |(submit, dup)| {
        let lat = BmoLatencies::paper();
        let mut ser = BmoEngine::new(DepGraph::standard(&lat), BmoMode::Serialized, 4);
        let mut par = BmoEngine::new(DepGraph::standard(&lat), BmoMode::Parallelized, 4);
        let t = Cycles(*submit);
        let js = ser.submit(t, Some(t), Some(t), *dup);
        let jp = par.submit(t, Some(t), Some(t), *dup);
        assert!(ser.completion(js).unwrap() >= par.completion(jp).unwrap());
    });
}

/// The Merkle root is a pure function of the leaf contents, regardless
/// of update order or intermediate states.
#[test]
fn merkle_root_is_content_addressed() {
    let updates = gen::vec_of(&gen::pair(&gen::range_u64(0..500), &gen::any_u8()), 1..60);
    forall(&updates, |updates| {
        let mut incremental = MerkleTree::new(4);
        let mut finals: HashMap<u64, u8> = HashMap::new();
        for (leaf, v) in updates {
            incremental.update_leaf(*leaf, &Line::splat(*v));
            finals.insert(*leaf, *v);
        }
        let rebuilt = MerkleTree::from_leaves(4, finals.iter().map(|(l, v)| (*l, Line::splat(*v))));
        assert_eq!(incremental.root(), rebuilt.root());
        // And every final leaf verifies.
        for (leaf, v) in finals {
            assert!(incremental.verify_leaf(leaf, &Line::splat(v)));
        }
    });
}

/// Dedup refcounts: after any lookup/release interleaving, the number
/// of live slots equals the number of distinct values with a positive
/// reference count, and lookups of held values always dedup — under both
/// fingerprints, over an alphabet whose last three values share a CRC-32.
#[test]
fn dedup_refcount_consistency() {
    let [a, b, c] = colliding_triple();
    let alphabet = [Line::splat(0), Line::splat(4), Line::splat(5), a, b, c];
    let ops = gen::pair(
        &gen::any_bool(),
        &gen::vec_of(&gen::pair(&gen::range_u8(0..6), &gen::any_bool()), 1..120),
    );
    forall(&ops, |(crc, ops)| {
        let algo = if *crc {
            FingerprintAlgo::Crc32
        } else {
            FingerprintAlgo::Md5
        };
        let mut d = DedupStore::new(algo);
        let mut refs: HashMap<u8, (u64, u64)> = HashMap::new(); // value -> (slot, count)
        for (v, release) in ops {
            if *release {
                if let Some((slot, count)) = refs.get_mut(v) {
                    if *count > 0 {
                        let freed = d.release(*slot);
                        *count -= 1;
                        assert_eq!(freed, *count == 0);
                    }
                }
            } else {
                let out = d.lookup(&alphabet[*v as usize]);
                let e = refs.entry(*v).or_insert((out.slot(), 0));
                if e.1 == 0 {
                    // fresh or re-allocated
                    assert!(!out.is_duplicate());
                    e.0 = out.slot();
                } else {
                    assert!(out.is_duplicate());
                    assert_eq!(out.slot(), e.0);
                }
                e.1 += 1;
            }
            for (v, (slot, count)) in &refs {
                let held = (*count > 0).then_some(*slot);
                assert_eq!(d.peek(&alphabet[*v as usize]), held, "{algo:?} value {v}");
            }
        }
        let live_expected = refs.values().filter(|(_, c)| *c > 0).count();
        assert_eq!(d.live_slots(), live_expected);
    });
}

/// Any subset of registered BMOs, in any order, composes into a valid
/// stack: the graph is acyclic (a topological order covers every node),
/// the serialized chain is never shorter than the critical path, and the
/// serialized engine never completes before the parallelized one.
#[test]
fn any_stack_permutation_composes_validly() {
    use janus_bmo::{BmoId, BmoStack};
    // A random sequence of BMO indices, deduped keeping first occurrence,
    // is a random (subset, order) pair over the registry.
    let g = gen::pair(
        &gen::vec_of(&gen::range_usize(0..7), 0..14),
        &gen::range_u64(0..10_000),
    );
    forall(&g, |(picks, submit)| {
        let mut ids: Vec<BmoId> = Vec::new();
        for i in picks {
            let id = BmoId::ALL[*i];
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let stack = BmoStack::new(ids.iter().copied()).expect("distinct ids form a stack");
        let lat = BmoLatencies::paper();
        let graph = stack.graph(&lat);
        // Acyclic: topo_order only emits nodes whose preds are all placed,
        // so covering every node proves there is no cycle.
        assert_eq!(
            graph.topo_order().len(),
            graph.len(),
            "stack [{stack}] graph has a cycle"
        );
        assert!(
            graph.serial_sum() >= graph.critical_path(),
            "stack [{stack}]: serial sum below critical path"
        );
        if graph.is_empty() {
            return;
        }
        let t = Cycles(*submit);
        let mut ser = BmoEngine::new(stack.graph(&lat), BmoMode::Serialized, 4);
        let mut par = BmoEngine::new(stack.graph(&lat), BmoMode::Parallelized, 4);
        let js = ser.submit(t, Some(t), Some(t), false);
        let jp = par.submit(t, Some(t), Some(t), false);
        assert!(
            ser.completion(js).unwrap() >= par.completion(jp).unwrap(),
            "stack [{stack}]: serialized beat parallelized"
        );
    });
}

/// Graph parallel-set relation is symmetric and irreflexive for
/// dependent nodes.
#[test]
fn parallel_relation_symmetric() {
    let g = gen::pair(&gen::range_usize(0..11), &gen::range_usize(0..11));
    forall(&g, |(i, j)| {
        use janus_bmo::subop::NodeId;
        let g = DepGraph::standard(&BmoLatencies::paper());
        let (a, b) = (NodeId(*i), NodeId(*j));
        assert_eq!(g.can_parallel(&[a], &[b]), g.can_parallel(&[b], &[a]));
        if i == j {
            assert!(!g.can_parallel(&[a], &[b]), "self is never parallel");
        }
    });
}
