//! RB-Tree: insert random values into a persistent red-black tree.
//!
//! A real red-black insertion (BST descent, recoloring, and rotations) runs
//! host-side; the trace contains the loads of every node the algorithm
//! touches and undo-logged writes of every node it modifies. The update
//! addresses only become known at the end of a pointer-chasing loop, so:
//!
//! * manual instrumentation issues its `PRE_*` calls right after the
//!   fix-up — a small window ("the address-dependent pre-execution request
//!   has a smaller window", §5.2.1);
//! * the provenance markers sit *inside* the loop region, so the automated
//!   pass cannot use them ("the static compiler cannot handle loops and
//!   pointers, which severely affects these two workloads", §5.2.3).

use std::collections::BTreeSet;

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Sentinel for "no node".
const NIL: u64 = u64::MAX;
/// Per-node comparison/pointer cost during descent and fix-up.
const NODE_COMPUTE: u32 = 55;
/// Re-balancing bookkeeping after the descent (recolor/rotate updates).
const FIXUP_COMPUTE: u32 = 650;

#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    left: u64,
    right: u64,
    parent: u64,
    red: bool,
}

/// The host-side mirror tree with modification tracking.
struct Mirror {
    nodes: Vec<Node>,
    root: u64,
    touched: BTreeSet<u64>,
    modified: BTreeSet<u64>,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            nodes: Vec::new(),
            root: NIL,
            touched: BTreeSet::new(),
            modified: BTreeSet::new(),
        }
    }

    fn node(&self, i: u64) -> Node {
        self.nodes[i as usize]
    }

    fn set<F: FnOnce(&mut Node)>(&mut self, i: u64, f: F) {
        f(&mut self.nodes[i as usize]);
        self.modified.insert(i);
    }

    fn is_red(&self, i: u64) -> bool {
        i != NIL && self.node(i).red
    }

    fn rotate_left(&mut self, x: u64) {
        let y = self.node(x).right;
        let yl = self.node(y).left;
        self.set(x, |n| n.right = yl);
        if yl != NIL {
            self.set(yl, |n| n.parent = x);
        }
        let xp = self.node(x).parent;
        self.set(y, |n| n.parent = xp);
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).left == x {
            self.set(xp, |n| n.left = y);
        } else {
            self.set(xp, |n| n.right = y);
        }
        self.set(y, |n| n.left = x);
        self.set(x, |n| n.parent = y);
    }

    fn rotate_right(&mut self, x: u64) {
        let y = self.node(x).left;
        let yr = self.node(y).right;
        self.set(x, |n| n.left = yr);
        if yr != NIL {
            self.set(yr, |n| n.parent = x);
        }
        let xp = self.node(x).parent;
        self.set(y, |n| n.parent = xp);
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).left == x {
            self.set(xp, |n| n.left = y);
        } else {
            self.set(xp, |n| n.right = y);
        }
        self.set(y, |n| n.right = x);
        self.set(x, |n| n.parent = y);
    }

    /// Standard red-black insertion; returns the new node's index, or
    /// `None` if the key already exists (the touched set still records the
    /// search path).
    fn insert(&mut self, key: u64) -> Option<u64> {
        self.touched.clear();
        self.modified.clear();
        // BST descent.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            self.touched.insert(cur);
            parent = cur;
            let k = self.node(cur).key;
            if key == k {
                return None;
            }
            cur = if key < k {
                self.node(cur).left
            } else {
                self.node(cur).right
            };
        }
        let z = self.nodes.len() as u64;
        self.nodes.push(Node {
            key,
            left: NIL,
            right: NIL,
            parent,
            red: true,
        });
        self.modified.insert(z);
        if parent == NIL {
            self.root = z;
        } else if key < self.node(parent).key {
            self.set(parent, |n| n.left = z);
        } else {
            self.set(parent, |n| n.right = z);
        }
        // Fix-up.
        let mut z = z;
        while self.is_red(self.node(z).parent) {
            let p = self.node(z).parent;
            let g = self.node(p).parent;
            self.touched.insert(p);
            if g != NIL {
                self.touched.insert(g);
            }
            if g == NIL {
                break;
            }
            if self.node(g).left == p {
                let u = self.node(g).right;
                if self.is_red(u) {
                    self.set(p, |n| n.red = false);
                    self.set(u, |n| n.red = false);
                    self.set(g, |n| n.red = true);
                    z = g;
                } else {
                    if self.node(p).right == z {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.set(p, |n| n.red = false);
                    self.set(g, |n| n.red = true);
                    self.rotate_right(g);
                }
            } else {
                let u = self.node(g).left;
                if self.is_red(u) {
                    self.set(p, |n| n.red = false);
                    self.set(u, |n| n.red = false);
                    self.set(g, |n| n.red = true);
                    z = g;
                } else {
                    if self.node(p).left == z {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.set(p, |n| n.red = false);
                    self.set(g, |n| n.red = true);
                    self.rotate_left(g);
                }
            }
        }
        let root = self.root;
        if self.is_red(root) {
            self.set(root, |n| n.red = false);
        }
        Some(self.nodes.len() as u64 - 1)
    }

    /// Red-black invariants (test support): root black, no red-red edges,
    /// equal black heights.
    #[cfg(test)]
    fn check_invariants(&self) {
        if self.root == NIL {
            return;
        }
        assert!(!self.node(self.root).red, "root must be black");
        fn black_height(m: &Mirror, i: u64) -> usize {
            if i == NIL {
                return 1;
            }
            let n = m.node(i);
            if n.red {
                assert!(!m.is_red(n.left) && !m.is_red(n.right), "red-red edge");
            }
            let l = black_height(m, n.left);
            let r = black_height(m, n.right);
            assert_eq!(l, r, "black-height mismatch at key {}", n.key);
            l + usize::from(!n.red)
        }
        black_height(self, self.root);
    }
}

fn encode(n: &Node) -> Line {
    Line::from_words(&[n.key, n.left, n.right, n.parent, n.red as u64])
}

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0x2B ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0xFACE ^ core as u64, cfg.dedup_ratio);
    let item_lines = cfg.payload_lines() as u64;
    // Node arena: struct line + payload block per node.
    let node_lines = 1 + item_lines;
    let capacity = (cfg.transactions as u64 + 2).max(64);
    let arena = ctx.heap.alloc(capacity * node_lines)?;
    let struct_addr = |i: u64| LineAddr(arena.0 + i * node_lines);

    let mut tree = Mirror::new();
    let mut emitted = 0usize;
    while emitted < cfg.transactions {
        let key = rng.gen_range(1 << 30);
        let Some(new_idx) = tree.insert(key) else {
            continue; // duplicate key: retry (search path not traced)
        };
        emitted += 1;
        let payload = gen.next_values(item_lines as usize);

        ctx.b.push(Op::FuncBegin("rb_insert"));
        ctx.begin_tx();
        // Payload data is known up-front; its eventual address is not.
        ctx.manual_pre_data(0, &payload);
        // Pointer-chasing descent + fix-up: loads and markers live inside
        // the loop region (invisible to the static pass).
        ctx.b.push(Op::LoopBegin);
        for &i in &tree.touched {
            ctx.load(struct_addr(i));
            ctx.compute(NODE_COMPUTE);
        }
        let new_struct = struct_addr(new_idx);
        ctx.b.addr_gen(new_struct, node_lines as u32);
        ctx.b.data_gen(new_struct.offset(1), payload.clone());
        // Every rebalanced node's update is defined here, inside the
        // pointer-chasing loop — visible to a profile-guided optimizer but
        // provably out of reach for the static pass (§4.5.2 / §6).
        for &i in &tree.modified {
            let line = struct_addr(i);
            ctx.b.addr_gen(line, 1);
            ctx.b.data_gen(line, vec![encode(&tree.node(i))]);
        }
        ctx.b.push(Op::LoopEnd);
        ctx.compute(FIXUP_COMPUTE);

        // Addresses are known only now; manual instrumentation issues its
        // requests here (small window before the backup/update writes).
        ctx.manual_pre_addr(0, new_struct.offset(1), item_lines as u32);
        let mods: Vec<u64> = tree.modified.iter().copied().collect();
        for (k, &i) in mods.iter().enumerate() {
            let line = struct_addr(i);
            let value = encode(&tree.node(i));
            ctx.manual_pre_both(1 + k, line, &[value]);
        }

        // Undo log: every modified struct line's old value.
        let old: Vec<(LineAddr, Line)> = mods
            .iter()
            .map(|&i| (struct_addr(i), ctx.current(struct_addr(i))))
            .collect();
        ctx.backup(&old);

        let mut updates: Vec<(LineAddr, Line)> = mods
            .iter()
            .map(|&i| (struct_addr(i), encode(&tree.node(i))))
            .collect();
        for (k, v) in payload.iter().enumerate() {
            updates.push((new_struct.offset(1 + k as u64), *v));
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
    fn mirror_maintains_rb_invariants() {
        let mut t = Mirror::new();
        let mut rng = SimRng::new(9);
        for _ in 0..500 {
            t.insert(rng.gen_range(10_000));
            t.check_invariants();
        }
    }

    #[test]
    fn sequential_keys_force_rotations() {
        let mut t = Mirror::new();
        for k in 0..64 {
            t.insert(k);
        }
        t.check_invariants();
        // A degenerate chain would have black-height ~64; rotations keep
        // the tree shallow: depth ≤ 2·log2(65).
        fn depth(t: &Mirror, i: u64) -> usize {
            if i == NIL {
                return 0;
            }
            1 + depth(t, t.node(i).left).max(depth(t, t.node(i).right))
        }
        assert!(depth(&t, t.root) <= 13);
    }

    #[test]
    fn workload_writes_struct_and_payload() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 20,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        assert!(out.program.write_count() >= 20 * 4);
    }

    #[test]
    fn markers_are_loop_confined() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 3,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Every AddrGen for the node arena sits between LoopBegin/LoopEnd
        // (log/commit-record markers outside loops are expected).
        let heap_start = crate::pmem::LOG_LINES + crate::pmem::COMMIT_LINES;
        let mut depth = 0;
        for op in &out.program.ops {
            match op {
                Op::LoopBegin => depth += 1,
                Op::LoopEnd => depth -= 1,
                Op::AddrGen { line, .. } if line.0 >= heap_start => {
                    assert!(depth > 0, "arena marker escaped the loop")
                }
                _ => {}
            }
        }
    }
}
