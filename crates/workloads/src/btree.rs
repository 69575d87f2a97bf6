//! B-Tree: insert random values into a persistent B-tree.
//!
//! A real preemptive-split B-tree (max 6 keys per node, 2 struct lines per
//! node) runs host-side; each insertion emits descent loads and undo-logged
//! writes of every modified node line plus the new payload block. Payload
//! data is known at transaction start and node addresses after a short,
//! high-fanout descent, and splits touch several lines at once — the
//! combination that makes B-Tree one of the highest-speedup workloads in
//! Figure 9.

use std::collections::BTreeSet;

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Maximum keys per node (order 7: 6 keys, 7 children).
const MAX_KEYS: usize = 6;
/// Per-node search cost.
const NODE_COMPUTE: u32 = 60;

#[derive(Clone, Debug, Default)]
struct BNode {
    leaf: bool,
    keys: Vec<u64>,
    /// Children node ids (internal) — `keys.len() + 1` entries.
    children: Vec<usize>,
    /// Payload base addresses (leaf) — parallel to `keys`.
    values: Vec<u64>,
}

struct Mirror {
    nodes: Vec<BNode>,
    root: usize,
    touched: BTreeSet<usize>,
    modified: BTreeSet<usize>,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            nodes: vec![BNode {
                leaf: true,
                ..BNode::default()
            }],
            root: 0,
            touched: BTreeSet::new(),
            modified: BTreeSet::new(),
        }
    }

    fn split_child(&mut self, parent: usize, idx: usize) {
        let child = self.nodes[parent].children[idx];
        let mid = MAX_KEYS / 2;
        let right_id = self.nodes.len();
        let (sep, right) = {
            let c = &mut self.nodes[child];
            if c.leaf {
                // B+-style leaf split: the separator is *copied* up and the
                // right leaf keeps it (no value may be lost).
                let right_keys = c.keys.split_off(mid);
                let right_values = c.values.split_off(mid);
                let sep = right_keys[0];
                (
                    sep,
                    BNode {
                        leaf: true,
                        keys: right_keys,
                        children: Vec::new(),
                        values: right_values,
                    },
                )
            } else {
                // Classic internal split: the separator moves up.
                let right_keys = c.keys.split_off(mid + 1);
                let right_children = c.children.split_off(mid + 1);
                let sep = c.keys.pop().expect("mid key present");
                (
                    sep,
                    BNode {
                        leaf: false,
                        keys: right_keys,
                        children: right_children,
                        values: Vec::new(),
                    },
                )
            }
        };
        self.nodes.push(right);
        let p = &mut self.nodes[parent];
        p.keys.insert(idx, sep);
        p.children.insert(idx + 1, right_id);
        self.modified.extend([parent, child, right_id]);
    }

    /// Inserts `key → payload_addr`; returns false if the key exists.
    fn insert(&mut self, key: u64, payload_addr: u64) -> bool {
        self.touched.clear();
        self.modified.clear();
        // Grow the root first if full.
        if self.nodes[self.root].keys.len() == MAX_KEYS {
            let new_root_id = self.nodes.len();
            self.nodes.push(BNode {
                leaf: false,
                keys: Vec::new(),
                children: vec![self.root],
                values: Vec::new(),
            });
            self.modified.insert(new_root_id);
            self.root = new_root_id;
            self.split_child(new_root_id, 0);
        }
        let mut cur = self.root;
        loop {
            self.touched.insert(cur);
            if self.nodes[cur].keys.contains(&key) {
                return false;
            }
            if self.nodes[cur].leaf {
                let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
                let n = &mut self.nodes[cur];
                n.keys.insert(pos, key);
                n.values.insert(pos, payload_addr);
                self.modified.insert(cur);
                return true;
            }
            let pos = self.nodes[cur].keys.partition_point(|&k| k <= key);
            let child = self.nodes[cur].children[pos];
            if self.nodes[child].keys.len() == MAX_KEYS {
                self.touched.insert(child);
                self.split_child(cur, pos);
                continue; // re-evaluate position at `cur`
            }
            cur = child;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(
            m: &Mirror,
            id: usize,
            lo: u64,
            hi: u64,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) {
            let n = &m.nodes[id];
            assert!(n.keys.len() <= MAX_KEYS);
            assert!(n.keys.windows(2).all(|w| w[0] < w[1]), "unsorted keys");
            assert!(n.keys.iter().all(|&k| lo <= k && k < hi));
            if n.leaf {
                assert_eq!(n.keys.len(), n.values.len());
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "unbalanced leaves"),
                }
            } else {
                assert_eq!(n.children.len(), n.keys.len() + 1);
                let mut lo = lo;
                for (i, &c) in n.children.iter().enumerate() {
                    let hi2 = n.keys.get(i).copied().unwrap_or(hi);
                    walk(m, c, lo, hi2, depth + 1, leaf_depth);
                    lo = hi2;
                }
            }
        }
        walk(self, self.root, 0, u64::MAX, 0, &mut None);
    }

    #[cfg(test)]
    fn count_keys(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.leaf)
            .map(|(_, n)| n.keys.len())
            .sum()
    }
}

fn encode_node(n: &BNode) -> [Line; 2] {
    let mut w0 = vec![n.leaf as u64, n.keys.len() as u64];
    w0.extend(&n.keys);
    let w1: Vec<u64> = if n.leaf {
        n.values.clone()
    } else {
        n.children.iter().map(|&c| c as u64).collect()
    };
    [Line::from_words(&w0), Line::from_words(&w1)]
}

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0xB7 ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0xB733 ^ core as u64, cfg.dedup_ratio);
    let item_lines = cfg.payload_lines() as u64;
    // Node arena (2 lines per node) + payload arena.
    let max_nodes = (cfg.transactions as u64 * 2).max(128);
    let node_arena = ctx.heap.alloc(max_nodes * 2)?;
    let payload_arena = ctx.heap.alloc(cfg.transactions as u64 * item_lines + 1)?;
    let node_addr = |i: usize| LineAddr(node_arena.0 + i as u64 * 2);

    let mut tree = Mirror::new();
    let mut emitted = 0usize;
    let mut payload_cursor = payload_arena.0;
    while emitted < cfg.transactions {
        let key = rng.gen_range(1 << 30) + 1;
        let payload_base = payload_cursor;
        if !tree.insert(key, payload_base) {
            continue;
        }
        payload_cursor += item_lines;
        emitted += 1;
        let payload = gen.next_values(item_lines as usize);
        let payload_addr = LineAddr(payload_base);

        ctx.b.push(Op::FuncBegin("btree_insert"));
        ctx.begin_tx();
        // Payload block: address (bump allocation) and data both known at
        // transaction start.
        ctx.declare_both(0, payload_addr, &payload);

        // Descent: load both lines of each touched node.
        ctx.b.push(Op::LoopBegin);
        for &i in &tree.touched {
            ctx.load(node_addr(i));
            ctx.load(node_addr(i).offset(1));
            ctx.compute(NODE_COMPUTE);
        }
        ctx.b.push(Op::LoopEnd);

        // Node addresses known after the (short) descent.
        let mods: Vec<usize> = tree.modified.iter().copied().collect();
        let mut node_updates: Vec<(LineAddr, Line)> = Vec::new();
        for &i in &mods {
            let [l0, l1] = encode_node(&tree.nodes[i]);
            node_updates.push((node_addr(i), l0));
            node_updates.push((node_addr(i).offset(1), l1));
        }
        for (k, (line, value)) in node_updates.iter().enumerate() {
            ctx.declare_both(1 + k, *line, std::slice::from_ref(value));
        }

        // Undo log: old values of modified node lines (the payload block is
        // fresh and needs no backup).
        let old: Vec<(LineAddr, Line)> = node_updates
            .iter()
            .map(|(line, _)| (*line, ctx.current(*line)))
            .collect();
        ctx.backup(&old);

        let mut updates = node_updates;
        for (k, v) in payload.iter().enumerate() {
            updates.push((payload_addr.offset(k as u64), *v));
        }
        ctx.update(&updates);
        ctx.commit();
        ctx.b.push(Op::FuncEnd);
    }

    let resident = Vec::new();
    let expected = ctx.expected.clone();
    Ok(WorkloadOutput {
        program: ctx.build(),
        expected,
        resident,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_stays_balanced_and_sorted() {
        let mut t = Mirror::new();
        let mut rng = SimRng::new(11);
        let mut inserted = 0;
        for _ in 0..800 {
            if t.insert(rng.gen_range(1 << 20), 0) {
                inserted += 1;
            }
        }
        t.check_invariants();
        assert_eq!(t.count_keys(), inserted);
    }

    #[test]
    fn sequential_inserts_split_repeatedly() {
        let mut t = Mirror::new();
        for k in 0..200 {
            assert!(t.insert(k, k));
        }
        t.check_invariants();
        assert!(t.nodes.len() > 30, "splits created nodes");
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut t = Mirror::new();
        assert!(t.insert(5, 0));
        assert!(!t.insert(5, 0));
    }

    #[test]
    fn workload_emits_multi_line_transactions() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 30,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Node lines + payload + log + commit: well above 4 writes/tx.
        assert!(out.program.write_count() > 30 * 5);
    }
}
