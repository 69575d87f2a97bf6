//! Property-based tests for the BMO framework: graph analyses, engine
//! scheduling invariants, Merkle tree, and dedup refcounting (ported from
//! proptest to the in-repo janus-check harness).

use janus_bmo::dedup::DedupStore;
use janus_bmo::engine::{BmoEngine, BmoMode};
use janus_bmo::integrity::MerkleTree;
use janus_bmo::latency::BmoLatencies;
use janus_bmo::subop::NodeId;
use janus_bmo::{BmoId, BmoStack};
use janus_check::{forall, gen};
use janus_crypto::FingerprintAlgo;
use janus_nvm::line::Line;
use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;
use std::collections::{BTreeSet, HashMap};

#[path = "support/crc.rs"]
mod crc;
use crc::colliding_triple;

#[path = "support/key.rs"]
mod key;
use key::colliding_lines;

#[path = "support/fingerprint_store.rs"]
mod fingerprint_store;
use fingerprint_store::FingerprintStore;

/// The stack a random sequence of BMO indices names: deduped keeping first
/// occurrence, it is a random (subset, order) pair over the registry.
fn stack_of(picks: &[usize]) -> BmoStack {
    let mut ids: Vec<BmoId> = Vec::new();
    for &i in picks {
        let id = BmoId::ALL[i];
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    BmoStack::new(ids).expect("distinct ids form a stack")
}

/// Whatever the stack, mode, unit count and input arrival times — each
/// input given at submit or provided later — a job's completion respects
/// causality (completion ≥ every input a live node needs) and the graph's
/// span (critical path, or serial sum in the serialized modes) from the
/// latest such input. On unlimited units two schedules are exact: a full
/// non-duplicate submit takes exactly the span, and a serialized job ends
/// where one chain over the live topological order ends, each node also
/// waiting for the inputs it needs.
#[test]
fn engine_completion_bounds() {
    let g = gen::tuple5(
        &gen::vec_of(&gen::range_usize(0..7), 0..14),
        &gen::range_u8(0..3),
        &gen::range_usize(1..6),
        &gen::tuple4(
            &gen::range_u64(0..10_000),
            &gen::range_u64(0..20_000),
            &gen::range_u64(0..20_000),
            &gen::any_bool(),
        ),
        &gen::pair(&gen::any_bool(), &gen::any_bool()),
    );
    forall(
        &g,
        |(picks, mode, units, inputs, (addr_late, data_late))| {
            let (submit, addr_delta, data_delta, dup) = *inputs;
            let graph = stack_of(picks).graph(&BmoLatencies::paper());
            let mode = [
                BmoMode::Serialized,
                BmoMode::SerializedGlobal,
                BmoMode::Parallelized,
            ][usize::from(*mode)];
            let units = if *units == 5 {
                UnitPool::UNLIMITED
            } else {
                *units
            };
            let serialized = mode != BmoMode::Parallelized;
            let span = if serialized {
                graph.serial_sum()
            } else {
                graph.critical_path()
            };
            let (s, a, d) = (
                Cycles(submit),
                Cycles(submit + addr_delta),
                Cycles(submit + data_delta),
            );
            let live: Vec<NodeId> = graph
                .topo_order()
                .into_iter()
                .filter(|&n| !(dup && graph.node(n).skip_if_dup))
                .collect();
            // When a live node's external inputs are all available.
            let avail = |n: NodeId| {
                let op = graph.node(n);
                let mut t = s;
                if op.needs_addr {
                    t = t.max(a);
                }
                if op.needs_data {
                    t = t.max(d);
                }
                t
            };
            let last_input = live.iter().map(|&n| avail(n)).max().unwrap_or(s);

            let mut e = BmoEngine::new(graph.clone(), mode, units);
            let j = e.submit(s, (!addr_late).then_some(a), (!data_late).then_some(d), dup);
            if *addr_late {
                e.provide_addr(j, a);
            }
            if *data_late {
                e.provide_data(j, d);
            }
            let done = e.completion(j).expect("every input provided");
            assert!(done >= last_input, "completion before inputs");
            assert!(
                done <= last_input + span + Cycles(2_000),
                "completion {done:?} too far past inputs {last_input:?}"
            );
            if units != UnitPool::UNLIMITED {
                return;
            }
            let mut full = BmoEngine::new(graph.clone(), mode, units);
            let j = full.submit(s, Some(s), Some(s), false);
            assert_eq!(full.completion(j), Some(s + span), "full submit ({mode:?})");
            if serialized {
                let chain = live
                    .iter()
                    .fold(s, |t, &n| t.max(avail(n)) + graph.node(n).latency);
                assert_eq!(done, chain, "serialized chain ({mode:?})");
            }
        },
    );
}

/// Serialized mode is never faster than parallelized for the same job.
#[test]
fn serialized_never_faster() {
    let g = gen::pair(&gen::range_u64(0..10_000), &gen::any_bool());
    forall(&g, |(submit, dup)| {
        let lat = BmoLatencies::paper();
        let mut ser = BmoEngine::new(BmoStack::paper().graph(&lat), BmoMode::Serialized, 4);
        let mut par = BmoEngine::new(BmoStack::paper().graph(&lat), BmoMode::Parallelized, 4);
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

/// The content-keyed dedup store against the fingerprint-keyed store it
/// replaced, under MD5 and CRC-32 alike: after a random `recover_slot`
/// prefix (slots may hold equal values), any interleaving of lookups,
/// peeks and releases gives the same outcomes, and after every step the
/// stores agree on `peek` of every value, each slot's `refcount` and
/// `is_live`, and `live_slots`. The values are random lines, three that
/// share a CRC-32 and three that share a content key.
#[test]
fn dedup_refcount_consistency() {
    let recovered = gen::vec_of(
        &gen::tuple3(
            &gen::range_u64(0..12),
            &gen::range_usize(0..16),
            &gen::range_u64(1..4),
        ),
        0..6,
    );
    // (0 lookup | 1 peek | 2 release, value or live-slot index)
    let steps = gen::vec_of(
        &gen::pair(&gen::range_u8(0..3), &gen::range_usize(0..16)),
        1..120,
    );
    let words = gen::vec_of(&gen::any_u64(), 1..5);
    let g = gen::tuple3(&words, &recovered, &steps);
    forall(&g, |(words, recovered, steps)| {
        let mut values: Vec<Line> = words.iter().map(|&w| Line::from_words(&[w])).collect();
        values.extend(colliding_triple());
        values.extend(colliding_lines(3));
        let value = |i: usize| values[i % values.len()];

        let mut d = DedupStore::new();
        let mut oracles = [FingerprintAlgo::Md5, FingerprintAlgo::Crc32].map(FingerprintStore::new);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let agree = |d: &DedupStore, oracles: &[FingerprintStore; 2], live: &BTreeSet<u64>| {
            assert_eq!(d.live_slots(), live.len());
            let top = live.last().map_or(0, |&s| s + 2).max(14);
            for o in oracles {
                assert_eq!(o.live_slots(), d.live_slots());
                for slot in 0..top {
                    assert_eq!(o.refcount(slot), d.refcount(slot), "slot {slot}");
                    assert_eq!(o.is_live(slot), d.is_live(slot), "slot {slot}");
                }
                for v in &values {
                    assert_eq!(o.peek(v), d.peek(v), "{v:?}");
                }
            }
        };

        for &(slot, v, refs) in recovered {
            if d.is_live(slot) {
                continue;
            }
            d.recover_slot(slot, value(v), refs);
            for o in &mut oracles {
                o.recover_slot(slot, value(v), refs);
            }
            live.insert(slot);
            agree(&d, &oracles, &live);
        }
        for &(kind, i) in steps {
            match kind {
                0 => {
                    let out = d.lookup(&value(i));
                    for o in &mut oracles {
                        assert_eq!(o.lookup(&value(i)), out);
                    }
                    live.insert(out.slot());
                }
                1 => {
                    for o in &oracles {
                        assert_eq!(o.peek(&value(i)), d.peek(&value(i)));
                    }
                }
                _ => {
                    let Some(&slot) = live.iter().nth(i % live.len().max(1)) else {
                        continue;
                    };
                    let freed = d.release(slot);
                    for o in &mut oracles {
                        assert_eq!(o.release(slot), freed, "release {slot}");
                    }
                    if freed {
                        live.remove(&slot);
                    }
                }
            }
            agree(&d, &oracles, &live);
        }
    });
}

/// Any subset of registered BMOs, in any order, composes into a valid
/// stack: the graph is acyclic (a topological order covers every node),
/// the serialized chain is never shorter than the critical path, and the
/// serialized engine never completes before the parallelized one.
#[test]
fn any_stack_permutation_composes_validly() {
    let g = gen::pair(
        &gen::vec_of(&gen::range_usize(0..7), 0..14),
        &gen::range_u64(0..10_000),
    );
    forall(&g, |(picks, submit)| {
        let stack = stack_of(picks);
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
        let g = BmoStack::paper().graph(&BmoLatencies::paper());
        let (a, b) = (NodeId(*i), NodeId(*j));
        assert_eq!(g.can_parallel(&[a], &[b]), g.can_parallel(&[b], &[a]));
        if i == j {
            assert!(!g.can_parallel(&[a], &[b]), "self is never parallel");
        }
    });
}
