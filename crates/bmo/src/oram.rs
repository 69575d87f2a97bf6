//! Path ORAM (Table 1, "Security / ORAM").
//!
//! Table 1's most expensive BMO (~1000 ns per access) hides *access
//! patterns*: an observer of the NVM address bus learns nothing about which
//! logical block a program touches. This module implements Stefanov et
//! al.'s Path ORAM (CCS 2013, the paper's citation \[83\]) — the scheme the
//! paper's ORAM row builds on:
//!
//! * a binary tree of buckets, each holding up to `Z` encrypted blocks;
//! * a *position map* assigning every block a uniformly random leaf,
//!   re-randomized on every access;
//! * a client-side *stash* for blocks that temporarily don't fit.
//!
//! Every access reads and rewrites one full root-to-leaf path — `(L+1)·Z`
//! blocks — which is where the ~1 µs latency (and why the evaluated system
//! uses the cheaper BMOs instead) comes from. The implementation is a
//! functional substrate with the scheme's two key invariants under test:
//! correctness (a read returns the last write) and bounded stash occupancy.

use std::collections::HashMap;

use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

/// Blocks per bucket (the paper's recommended Z = 4).
pub const Z: usize = 4;

#[derive(Clone, Copy, Debug)]
struct Block {
    id: u64,
    leaf: u64,
    data: Line,
}

/// The ORAM. Stores up to roughly `2^levels` blocks obliviously.
///
/// # Example
///
/// ```
/// use janus_bmo::oram::PathOram;
/// use janus_nvm::line::Line;
///
/// let mut oram = PathOram::new(4, 7);
/// oram.write(3, Line::splat(9));
/// assert_eq!(oram.read(3), Some(Line::splat(9)));
/// assert_eq!(oram.read(99), None);
/// ```
#[derive(Clone, Debug)]
pub struct PathOram {
    levels: u32,
    buckets: Vec<Vec<Block>>,
    position: HashMap<u64, u64>,
    stash: Vec<Block>,
    rng: SimRng,
    accesses: u64,
    blocks_moved: u64,
    max_stash: usize,
}

impl PathOram {
    /// Creates an ORAM tree with `levels` levels below the root
    /// (`2^levels` leaves, `2^(levels+1) − 1` buckets).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or absurdly large.
    pub fn new(levels: u32, seed: u64) -> Self {
        assert!((1..=24).contains(&levels), "unreasonable tree height");
        let bucket_count = (1usize << (levels + 1)) - 1;
        PathOram {
            levels,
            buckets: vec![Vec::with_capacity(Z); bucket_count],
            position: HashMap::new(),
            stash: Vec::new(),
            rng: SimRng::new(seed),
            accesses: 0,
            blocks_moved: 0,
            max_stash: 0,
        }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> u64 {
        1 << self.levels
    }

    /// Bucket index of the node at `level` on the path to `leaf`
    /// (level 0 = root).
    fn bucket_on_path(&self, leaf: u64, level: u32) -> usize {
        // Heap layout: root at 0; the path follows leaf's bits top-down.
        let node_in_level = leaf >> (self.levels - level);
        ((1u64 << level) - 1 + node_in_level) as usize
    }

    /// Whether the path to `leaf_a` passes through the level-`level` node
    /// of the path to `leaf_b`.
    fn paths_share(&self, leaf_a: u64, leaf_b: u64, level: u32) -> bool {
        (leaf_a >> (self.levels - level)) == (leaf_b >> (self.levels - level))
    }

    /// The core oblivious access: fetch the path of `id`'s current leaf,
    /// remap `id`, optionally update its data, and write the path back.
    fn access(&mut self, id: u64, new_data: Option<Line>) -> Option<Line> {
        self.accesses += 1;
        let known = self.position.contains_key(&id);
        if !known && new_data.is_none() {
            // Reading an absent block: perform a dummy access on a random
            // path (indistinguishable from a real one) and return nothing.
            let leaf = self.rng.gen_range(self.leaves());
            self.touch_path(leaf);
            return None;
        }
        let old_leaf = *self
            .position
            .entry(id)
            .or_insert_with(|| self.rng.gen_range(1 << self.levels));
        // Re-randomize the position BEFORE the path write-back.
        let new_leaf = self.rng.gen_range(self.leaves());
        self.position.insert(id, new_leaf);

        // Read the whole path into the stash.
        for level in 0..=self.levels {
            let b = self.bucket_on_path(old_leaf, level);
            self.blocks_moved += Z as u64;
            self.stash.append(&mut self.buckets[b]);
        }

        // Serve the request from the stash.
        let mut result = None;
        if let Some(blk) = self.stash.iter_mut().find(|b| b.id == id) {
            result = Some(blk.data);
            blk.leaf = new_leaf;
            if let Some(d) = new_data {
                blk.data = d;
            }
        } else if let Some(d) = new_data {
            self.stash.push(Block {
                id,
                leaf: new_leaf,
                data: d,
            });
        }

        // Write the path back, deepest level first, greedily placing stash
        // blocks whose assigned leaf shares the bucket.
        for level in (0..=self.levels).rev() {
            let bucket_idx = self.bucket_on_path(old_leaf, level);
            let mut placed = Vec::new();
            let mut i = 0;
            while i < self.stash.len() && placed.len() < Z {
                if self.paths_share(self.stash[i].leaf, old_leaf, level) {
                    placed.push(self.stash.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.blocks_moved += Z as u64;
            self.buckets[bucket_idx] = placed;
        }
        self.max_stash = self.max_stash.max(self.stash.len());
        result
    }

    /// A dummy path access (for absent reads).
    fn touch_path(&mut self, leaf: u64) {
        for level in 0..=self.levels {
            let b = self.bucket_on_path(leaf, level);
            self.blocks_moved += 2 * Z as u64; // read + write back
            let _ = &self.buckets[b];
        }
    }

    /// Obliviously writes `data` to block `id`.
    pub fn write(&mut self, id: u64, data: Line) {
        self.access(id, Some(data));
    }

    /// Obliviously reads block `id` (`None` if never written).
    pub fn read(&mut self, id: u64) -> Option<Line> {
        self.access(id, None)
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Blocks transferred (the bandwidth amplification: `2·(L+1)·Z` per
    /// access).
    pub fn blocks_moved(&self) -> u64 {
        self.blocks_moved
    }

    /// Largest stash occupancy observed.
    pub fn max_stash(&self) -> usize {
        self.max_stash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_last_write() {
        let mut oram = PathOram::new(6, 1);
        let mut model = HashMap::new();
        let mut rng = SimRng::new(2);
        for step in 0..2_000u64 {
            let id = rng.gen_range(48);
            if rng.chance(0.5) {
                let v = Line::from_words(&[id, step]);
                oram.write(id, v);
                model.insert(id, v);
            } else {
                assert_eq!(oram.read(id), model.get(&id).copied(), "block {id}");
            }
        }
    }

    #[test]
    fn absent_blocks_read_none_without_corruption() {
        let mut oram = PathOram::new(4, 3);
        oram.write(1, Line::splat(1));
        for id in 100..120 {
            assert_eq!(oram.read(id), None);
        }
        assert_eq!(oram.read(1), Some(Line::splat(1)));
    }

    #[test]
    fn stash_stays_bounded() {
        // With Z=4 and load ≤ leaves, Path ORAM's stash is O(log n) w.h.p.
        let mut oram = PathOram::new(7, 4); // 128 leaves
        let mut rng = SimRng::new(5);
        for step in 0..5_000u64 {
            let id = rng.gen_range(100);
            oram.write(id, Line::from_words(&[step]));
        }
        assert!(
            oram.max_stash() < 40,
            "stash grew to {} — eviction broken",
            oram.max_stash()
        );
    }

    #[test]
    fn bandwidth_amplification_matches_theory() {
        let mut oram = PathOram::new(6, 6);
        oram.write(1, Line::splat(1));
        let per_access = oram.blocks_moved();
        // One access = read + write of (levels+1) buckets of Z blocks.
        assert_eq!(per_access, 2 * 7 * Z as u64);
    }

    #[test]
    fn same_block_takes_fresh_paths() {
        // Re-randomized positions: repeated access to one block must not
        // repeatedly touch one leaf (that would leak the access pattern).
        let mut oram = PathOram::new(6, 7);
        oram.write(42, Line::splat(1));
        let mut leaves = std::collections::HashSet::new();
        for _ in 0..64 {
            leaves.insert(oram.position[&42]);
            oram.read(42);
        }
        assert!(leaves.len() > 16, "positions not re-randomized: {leaves:?}");
    }

    #[test]
    fn bucket_paths_are_consistent() {
        let oram = PathOram::new(3, 8);
        // Root is on every path.
        for leaf in 0..8 {
            assert_eq!(oram.bucket_on_path(leaf, 0), 0);
        }
        // Leaves are distinct buckets at the last level.
        let leaf_buckets: std::collections::HashSet<usize> =
            (0..8).map(|l| oram.bucket_on_path(l, 3)).collect();
        assert_eq!(leaf_buckets.len(), 8);
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = PathOram::new(5, 9);
        let mut b = PathOram::new(5, 9);
        for i in 0..100 {
            a.write(i, Line::splat(i as u8));
            b.write(i, Line::splat(i as u8));
        }
        for i in 0..100 {
            assert_eq!(a.read(i), b.read(i));
        }
    }
}
