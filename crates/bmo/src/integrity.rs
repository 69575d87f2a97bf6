//! Bonsai-Merkle-Tree integrity verification (sparse, SHA-1, arity 8).
//!
//! "The leaf nodes of the tree are counters and the intermediate nodes are
//! hashes of their child nodes. Therefore, the root hash is essentially the
//! hash of all leaf nodes. Keeping the root hash in a secured non-volatile
//! register ensures the integrity of the entire memory." (§4.2)
//!
//! The tree covers the co-located counter/remap metadata region. Since that
//! region is almost entirely zero-initialized, the tree is stored sparsely:
//! only nodes that differ from the "all-descendants-zero" default are
//! materialized, with per-level default hashes precomputed. This makes a
//! 2²⁴-leaf tree practical while remaining bit-for-bit well defined, so the
//! root can be recomputed from persistent metadata during crash recovery and
//! compared against the secure register.
//!
//! Leaf updates are folded into the hash structure lazily: `update_leaf`
//! only records the new leaf content (latest write wins), and the path
//! hashes are recomputed in bulk the first time the tree is observed
//! (`root`, `verify_leaf`, …). Because every node hash is a pure function of
//! the leaf contents, the observed values are identical to eager
//! recomputation — but a burst of writes between observations costs one
//! shared bulk rebuild instead of one root-path rehash per write, which is
//! what makes the simulator's batched hot path affordable.

use std::cell::RefCell;

use janus_crypto::sha1::{sha1, Sha1};
use janus_nvm::line::Line;
use janus_sim::hash::FxHashMap;

/// Fan-out of every internal node.
pub const ARITY: usize = 8;

/// A 160-bit SHA-1 node hash.
pub type NodeHash = [u8; 20];

/// The sparse Merkle tree.
///
/// Level 0 holds leaf hashes (one per metadata line); level `height` is the
/// root.
///
/// # Example
///
/// ```
/// use janus_bmo::integrity::MerkleTree;
/// use janus_nvm::line::Line;
///
/// let mut t = MerkleTree::new(8);
/// let empty_root = t.root();
/// t.update_leaf(42, &Line::splat(9));
/// assert_ne!(t.root(), empty_root);
/// t.update_leaf(42, &Line::zero());
/// assert_eq!(t.root(), empty_root, "zeroing restores the default root");
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    height: u32,
    /// `default[l]` = hash of a level-`l` node whose descendants are all
    /// zero lines.
    default: Vec<NodeHash>,
    /// Hash structure plus not-yet-hashed leaf writes; interior-mutable so
    /// read-only observers (`root`, `verify_leaf`) can trigger the flush.
    state: RefCell<TreeState>,
}

#[derive(Clone, Debug)]
struct TreeState {
    /// `(level, index) → hash` for nodes differing from the default.
    nodes: FxHashMap<(u32, u64), NodeHash>,
    /// Leaf writes not yet folded into `nodes` (latest content wins).
    pending: FxHashMap<u64, Line>,
}

impl TreeState {
    fn node(&self, default: &[NodeHash], level: u32, index: u64) -> NodeHash {
        self.nodes
            .get(&(level, index))
            .copied()
            .unwrap_or(default[level as usize])
    }

    fn set_node(&mut self, default: &[NodeHash], level: u32, index: u64, hash: NodeHash) {
        if hash == default[level as usize] {
            self.nodes.remove(&(level, index));
        } else {
            self.nodes.insert((level, index), hash);
        }
    }
}

impl MerkleTree {
    /// Creates an empty tree of the given height (levels of hashing above
    /// the leaves; capacity = `ARITY^height` leaves).
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or large enough to overflow leaf indexing.
    pub fn new(height: u32) -> Self {
        assert!((1..=20).contains(&height), "unreasonable tree height");
        let mut default = Vec::with_capacity(height as usize + 1);
        default.push(sha1(Line::zero().as_bytes()));
        for l in 0..height as usize {
            let child = default[l];
            let mut s = Sha1::new();
            for _ in 0..ARITY {
                s.update(&child);
            }
            default.push(s.finalize());
        }
        MerkleTree {
            height,
            default,
            state: RefCell::new(TreeState {
                nodes: FxHashMap::default(),
                pending: FxHashMap::default(),
            }),
        }
    }

    /// Number of leaves the tree covers.
    pub fn capacity(&self) -> u64 {
        (ARITY as u64).pow(self.height)
    }

    /// Height (hash levels above the leaves).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Records new content for leaf `index` (sub-operations I1–I3 in the
    /// timing model). The hash path is recomputed lazily on the next
    /// observation of the tree.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the tree capacity.
    pub fn update_leaf(&mut self, index: u64, content: &Line) {
        assert!(index < self.capacity(), "leaf index out of range");
        self.state.get_mut().pending.insert(index, *content);
    }

    /// Folds all pending leaf writes into the hash structure: sets the leaf
    /// hashes, then recomputes each dirty parent once per level (same bulk
    /// walk as `from_leaves`). Node hashes are pure functions of leaf
    /// content, so the result is identical to eager per-write path updates.
    fn flush(&self) {
        let mut st = self.state.borrow_mut();
        if st.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut st.pending);
        let mut touched: Vec<u64> = Vec::with_capacity(pending.len());
        for (index, line) in &pending {
            let h = sha1(line.as_bytes());
            st.set_node(&self.default, 0, *index, h);
            touched.push(*index);
        }
        for level in 0..self.height {
            for i in touched.iter_mut() {
                *i /= ARITY as u64;
            }
            touched.sort_unstable();
            touched.dedup();
            for &idx in &touched {
                let first_child = idx * ARITY as u64;
                let mut s = Sha1::new();
                for i in 0..ARITY as u64 {
                    s.update(&st.node(&self.default, level, first_child + i));
                }
                let h = s.finalize();
                st.set_node(&self.default, level + 1, idx, h);
            }
        }
    }

    /// The current root hash.
    pub fn root(&self) -> NodeHash {
        self.flush();
        self.state.borrow().node(&self.default, self.height, 0)
    }

    /// Verifies that leaf `index` currently hashes `content` and that its
    /// path is consistent up to the root.
    pub fn verify_leaf(&self, index: u64, content: &Line) -> bool {
        self.flush();
        let st = self.state.borrow();
        if st.node(&self.default, 0, index) != sha1(content.as_bytes()) {
            return false;
        }
        // Recompute the path bottom-up from stored children.
        let mut idx = index;
        for level in 0..self.height {
            idx /= ARITY as u64;
            let first_child = idx * ARITY as u64;
            let mut s = Sha1::new();
            for i in 0..ARITY as u64 {
                s.update(&st.node(&self.default, level, first_child + i));
            }
            if s.finalize() != st.node(&self.default, level + 1, idx) {
                return false;
            }
        }
        true
    }

    /// Builds a tree from an iterator of `(leaf_index, line)` pairs — the
    /// crash-recovery path that recomputes the root from persistent
    /// metadata.
    pub fn from_leaves<I: IntoIterator<Item = (u64, Line)>>(height: u32, leaves: I) -> Self {
        let mut t = MerkleTree::new(height);
        let cap = t.capacity();
        let pending = &mut t.state.get_mut().pending;
        for (index, line) in leaves {
            assert!(index < cap, "leaf index out of range");
            pending.insert(index, line);
        }
        t.flush();
        t
    }

    /// Number of materialized (non-default) nodes.
    pub fn materialized_nodes(&self) -> usize {
        self.flush();
        self.state.borrow().nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_has_default_root() {
        let a = MerkleTree::new(8);
        let b = MerkleTree::new(8);
        assert_eq!(a.root(), b.root());
        assert_eq!(a.materialized_nodes(), 0);
    }

    #[test]
    fn update_changes_root_deterministically() {
        let mut a = MerkleTree::new(4);
        let mut b = MerkleTree::new(4);
        a.update_leaf(7, &Line::splat(1));
        b.update_leaf(7, &Line::splat(1));
        assert_eq!(a.root(), b.root());
        b.update_leaf(8, &Line::splat(2));
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn order_of_updates_does_not_matter() {
        let mut a = MerkleTree::new(4);
        a.update_leaf(1, &Line::splat(1));
        a.update_leaf(2, &Line::splat(2));
        let mut b = MerkleTree::new(4);
        b.update_leaf(2, &Line::splat(2));
        b.update_leaf(1, &Line::splat(1));
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn lazy_flush_matches_eager_observation() {
        // Observing the root between every update must give the same final
        // state as observing once at the end.
        let mut eager = MerkleTree::new(4);
        let mut lazy = MerkleTree::new(4);
        for i in 0..32u64 {
            eager.update_leaf(i % 7, &Line::splat(i as u8));
            let _ = eager.root(); // force a flush per write
            lazy.update_leaf(i % 7, &Line::splat(i as u8));
        }
        assert_eq!(eager.root(), lazy.root());
        assert_eq!(eager.materialized_nodes(), lazy.materialized_nodes());
    }

    #[test]
    fn verify_leaf_detects_tamper() {
        let mut t = MerkleTree::new(4);
        t.update_leaf(3, &Line::splat(5));
        assert!(t.verify_leaf(3, &Line::splat(5)));
        assert!(!t.verify_leaf(3, &Line::splat(6)));
        // Unwritten leaf verifies as zero.
        assert!(t.verify_leaf(9, &Line::zero()));
        assert!(!t.verify_leaf(9, &Line::splat(1)));
    }

    #[test]
    fn internal_tamper_detected() {
        let mut t = MerkleTree::new(3);
        t.update_leaf(0, &Line::splat(1));
        let _ = t.root(); // flush before corrupting
                          // Corrupt an internal node directly.
        t.state.get_mut().nodes.insert((1, 0), [0xFF; 20]);
        assert!(!t.verify_leaf(0, &Line::splat(1)));
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let leaves = vec![
            (0u64, Line::splat(1)),
            (63, Line::splat(2)),
            (64, Line::splat(3)),
            (4000, Line::splat(4)),
        ];
        let bulk = MerkleTree::from_leaves(4, leaves.clone());
        let mut inc = MerkleTree::new(4);
        for (i, l) in leaves {
            inc.update_leaf(i, &l);
        }
        assert_eq!(bulk.root(), inc.root());
    }

    #[test]
    fn zeroing_restores_default_and_prunes() {
        let mut t = MerkleTree::new(5);
        let root0 = t.root();
        t.update_leaf(100, &Line::splat(7));
        assert!(t.materialized_nodes() > 0);
        t.update_leaf(100, &Line::zero());
        assert_eq!(t.root(), root0);
        assert_eq!(t.materialized_nodes(), 0, "default nodes are pruned");
    }

    #[test]
    fn capacity_matches_height() {
        assert_eq!(MerkleTree::new(2).capacity(), 64);
        assert_eq!(MerkleTree::new(8).capacity(), 16_777_216);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        MerkleTree::new(2).update_leaf(64, &Line::zero());
    }

    #[test]
    fn update_counter() {
        // Updating a counter leaf re-roots the tree over its new content,
        // and the next update of the same leaf replaces it.
        let mut t = MerkleTree::new(3);
        t.update_leaf(0, &Line::splat(1));
        t.update_leaf(1, &Line::splat(2));
        assert!(t.verify_leaf(0, &Line::splat(1)));
        assert!(t.verify_leaf(1, &Line::splat(2)));
        t.update_leaf(0, &Line::splat(3));
        assert!(t.verify_leaf(0, &Line::splat(3)));
        assert!(!t.verify_leaf(0, &Line::splat(1)));
    }
}
