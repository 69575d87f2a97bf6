//! The deduplication store: fingerprint table, slot allocation, and
//! reference counting.
//!
//! "The hardware mechanism maintains a deduplication table that stores the
//! hashes (fingerprints) of existing data blocks to detect duplicates, and
//! an address mapping table to redirect the writes to the existing copy of
//! data in memory." (§3.1)
//!
//! Sub-operations D1 (hash data) and D2 (table lookup) are realized by
//! [`DedupStore::lookup`]; D3 (mapping update) by the caller recording the
//! returned slot in the metadata store; D4 (encrypt + write back the mapping
//! entry) by the encryption engine.
//!
//! Fingerprints may collide — realistically so for CRC-32 (§5.2.4). The
//! store verifies candidate duplicates against the actual stored value (the
//! hardware's read-and-compare) and falls back to a fresh slot on a
//! collision, so deduplication never corrupts data.
//!
//! Slot state is slot-indexed: the store allocates its own slots densely
//! (the most recently freed slot first, else the next unused index), so
//! per-slot records live in a `SlotTable` indexed by slot. Slots sharing
//! a fingerprint form a chain threaded through the records' `next` field,
//! and the fingerprint table maps a fingerprint to its chain head only.

use janus_crypto::FingerprintAlgo;
use janus_nvm::line::Line;

use crate::slots::SlotTable;

/// Outcome of a dedup lookup for a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupOutcome {
    /// The value already exists in `slot`; the data write is cancelled.
    Duplicate {
        /// Slot holding the existing copy.
        slot: u64,
    },
    /// New value: store it in freshly allocated `slot`.
    Fresh {
        /// Newly allocated slot.
        slot: u64,
    },
}

impl DedupOutcome {
    /// The slot either way.
    pub fn slot(self) -> u64 {
        match self {
            DedupOutcome::Duplicate { slot } | DedupOutcome::Fresh { slot } => slot,
        }
    }

    /// Whether the write was a duplicate.
    pub fn is_duplicate(self) -> bool {
        matches!(self, DedupOutcome::Duplicate { .. })
    }
}

/// End-of-chain marker for [`SlotInfo::next`].
const NIL: u64 = u64::MAX;

/// One slot's record. A slot is live while `refcount > 0`; a dead record
/// keeps stale contents until the slot is reallocated.
#[derive(Clone, Copy, Debug)]
struct SlotInfo {
    value: Line,
    refcount: u64,
    fingerprint: u128,
    /// Next slot with the same fingerprint, or [`NIL`].
    next: u64,
}

impl Default for SlotInfo {
    fn default() -> Self {
        SlotInfo {
            value: Line::zero(),
            refcount: 0,
            fingerprint: 0,
            next: NIL,
        }
    }
}

/// The deduplication store.
///
/// # Example
///
/// ```
/// use janus_bmo::dedup::DedupStore;
/// use janus_crypto::FingerprintAlgo;
/// use janus_nvm::line::Line;
///
/// let mut d = DedupStore::new(FingerprintAlgo::Md5);
/// let a = d.lookup(&Line::splat(1));
/// assert!(!a.is_duplicate());
/// let b = d.lookup(&Line::splat(1));
/// assert!(b.is_duplicate());
/// assert_eq!(a.slot(), b.slot());
/// ```
#[derive(Clone, Debug)]
pub struct DedupStore {
    algo: FingerprintAlgo,
    /// fingerprint → head of its collision chain.
    table: janus_sim::hash::FxHashMap<u128, u64>,
    slots: SlotTable<SlotInfo>,
    /// The lowest slot never allocated.
    next_slot: u64,
    /// Pure-function memo of `algo.fingerprint(line)`: every write is
    /// fingerprinted at least twice (once by the pre-execution predictor's
    /// [`DedupStore::peek`], once by the committed write's
    /// [`DedupStore::lookup`]) and duplicate-heavy workloads re-hash the
    /// same values endlessly, so a content-keyed cache removes most MD5
    /// work from the hot path without changing a single outcome. `RefCell`
    /// because `peek` is `&self` by design (prediction must not mutate BMO
    /// state); the store is single-threaded like the rest of the engine.
    memo: std::cell::RefCell<janus_sim::hash::FxHashMap<Line, u128>>,
    free: Vec<u64>,
    live: usize,
    hits: u64,
    misses: u64,
    collisions: u64,
}

impl DedupStore {
    /// Creates an empty store using `algo` for fingerprints.
    pub fn new(algo: FingerprintAlgo) -> Self {
        DedupStore {
            algo,
            table: janus_sim::hash::FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            slots: SlotTable::default(),
            next_slot: 0,
            memo: std::cell::RefCell::new(janus_sim::hash::FxHashMap::with_capacity_and_hasher(
                1024,
                Default::default(),
            )),
            free: Vec::new(),
            live: 0,
            hits: 0,
            misses: 0,
            collisions: 0,
        }
    }

    /// The fingerprint algorithm in use.
    pub fn algo(&self) -> FingerprintAlgo {
        self.algo
    }

    /// Memoized `algo.fingerprint(data)`. The memo only ever grows — entries
    /// for released slots stay valid (a fingerprint is a pure function of
    /// the bytes) and the key set is bounded by the distinct values the run
    /// ever wrote, the same bound as the slot table itself.
    fn fingerprint(&self, data: &Line) -> u128 {
        if let Some(&fp) = self.memo.borrow().get(data) {
            return fp;
        }
        let fp = self.algo.fingerprint(data.as_bytes());
        self.memo.borrow_mut().insert(*data, fp);
        fp
    }

    /// The live record of `slot`, if any.
    fn live_info(&self, slot: u64) -> Option<&SlotInfo> {
        self.slots.get(slot).filter(|info| info.refcount > 0)
    }

    /// The record of a slot on a fingerprint chain (always live).
    fn chained(&self, slot: u64) -> &SlotInfo {
        self.slots.get(slot).expect("chained slot is allocated")
    }

    /// The slot holding `data` in the chain of `fp`, or `Err(tail)` with
    /// the chain's last slot ([`NIL`] when `fp` has no chain).
    fn find(&self, fp: u128, data: &Line) -> Result<u64, u64> {
        let mut tail = NIL;
        let mut cur = self.table.get(&fp).copied().unwrap_or(NIL);
        while cur != NIL {
            let info = self.chained(cur);
            if info.value == *data {
                return Ok(cur);
            }
            tail = cur;
            cur = info.next;
        }
        Err(tail)
    }

    /// Fills dead `slot` with a live record and appends it to the chain of
    /// `fingerprint`, whose current last slot is `tail` ([`NIL`] for none).
    fn install(&mut self, slot: u64, value: Line, refcount: u64, fingerprint: u128, tail: u64) {
        *self.slots.get_mut(slot) = SlotInfo {
            value,
            refcount,
            fingerprint,
            next: NIL,
        };
        if tail == NIL {
            self.table.insert(fingerprint, slot);
        } else {
            self.slots.get_mut(tail).next = slot;
        }
        self.live += 1;
    }

    /// D1+D2: fingerprints `data` and either finds the existing copy
    /// (incrementing its refcount) or allocates a fresh slot with
    /// refcount 1. The caller is responsible for writing the data to a fresh
    /// slot and recording the mapping (D3/D4).
    pub fn lookup(&mut self, data: &Line) -> DedupOutcome {
        let fp = self.fingerprint(data);
        let tail = match self.find(fp, data) {
            Ok(slot) => {
                self.hits += 1;
                self.slots.get_mut(slot).refcount += 1;
                return DedupOutcome::Duplicate { slot };
            }
            Err(tail) => tail,
        };
        if tail != NIL {
            self.collisions += 1;
        }
        self.misses += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        self.install(slot, *data, 1, fp, tail);
        DedupOutcome::Fresh { slot }
    }

    /// Non-mutating duplicate check: the slot that `data` would dedup to,
    /// if any. Used by Janus to *predict* the dedup outcome during
    /// pre-execution without touching BMO metadata (requirement 1 of §3.2).
    pub fn peek(&self, data: &Line) -> Option<u64> {
        self.find(self.fingerprint(data), data).ok()
    }

    /// Releases one reference to `slot` (a logical line was overwritten or
    /// its pre-executed result discarded). Returns `true` if the slot was
    /// freed (refcount hit zero) — its NVM line and metadata may be reused.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live.
    pub fn release(&mut self, slot: u64) -> bool {
        assert!(self.is_live(slot), "release of dead slot");
        let info = self.slots.get_mut(slot);
        info.refcount -= 1;
        if info.refcount > 0 {
            return false;
        }
        let (fp, next) = (info.fingerprint, info.next);
        let head = *self.table.get(&fp).expect("slot was indexed");
        if head == slot {
            if next == NIL {
                self.table.remove(&fp);
            } else {
                self.table.insert(fp, next);
            }
        } else {
            let mut prev = head;
            while self.chained(prev).next != slot {
                prev = self.chained(prev).next;
            }
            self.slots.get_mut(prev).next = next;
        }
        self.live -= 1;
        self.free.push(slot);
        true
    }

    /// Current refcount of a slot (0 if dead).
    pub fn refcount(&self, slot: u64) -> u64 {
        self.live_info(slot).map_or(0, |i| i.refcount)
    }

    /// Whether a slot is live.
    pub fn is_live(&self, slot: u64) -> bool {
        self.live_info(slot).is_some()
    }

    /// Number of live slots (distinct stored values).
    pub fn live_slots(&self) -> usize {
        self.live
    }

    /// `(hits, misses, collisions)` — Figure 12's dedup-ratio accounting.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.collisions)
    }

    /// Observed dedup ratio so far (hits / lookups).
    pub fn observed_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Registers a pre-existing slot during crash recovery. Fresh slots are
    /// then allocated past the highest recovered one; unrecovered slots
    /// below it stay unused.
    pub fn recover_slot(&mut self, slot: u64, value: Line, refcount: u64) {
        assert!(refcount > 0, "recovered slot must be referenced");
        assert!(!self.is_live(slot), "slot recovered twice");
        let fp = self.fingerprint(&value);
        let mut tail = self.table.get(&fp).copied().unwrap_or(NIL);
        while tail != NIL && self.chained(tail).next != NIL {
            tail = self.chained(tail).next;
        }
        self.install(slot, value, refcount, fp, tail);
        self.next_slot = self.next_slot.max(slot + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DedupStore {
        DedupStore::new(FingerprintAlgo::Md5)
    }

    mod crc {
        // Forged CRC-32 collisions, shared with the property tests.
        include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/support/crc.rs"));
    }
    use crc::colliding_triple;

    #[test]
    fn fresh_then_duplicate() {
        let mut d = store();
        let a = d.lookup(&Line::splat(1));
        let b = d.lookup(&Line::splat(1));
        let c = d.lookup(&Line::splat(2));
        assert_eq!(a, DedupOutcome::Fresh { slot: a.slot() });
        assert!(b.is_duplicate());
        assert_eq!(a.slot(), b.slot());
        assert!(!c.is_duplicate());
        assert_ne!(a.slot(), c.slot());
        assert_eq!(d.refcount(a.slot()), 2);
        assert_eq!(d.stats(), (1, 2, 0));
    }

    #[test]
    fn release_frees_and_allows_reuse() {
        let mut d = store();
        let a = d.lookup(&Line::splat(1)).slot();
        d.lookup(&Line::splat(1)); // refcount 2
        assert!(!d.release(a));
        assert!(d.release(a));
        assert!(!d.is_live(a));
        // A fresh value reuses the freed slot.
        let b = d.lookup(&Line::splat(3)).slot();
        assert_eq!(b, a);
    }

    #[test]
    fn freed_value_no_longer_dedups() {
        let mut d = store();
        let a = d.lookup(&Line::splat(1)).slot();
        d.release(a);
        let b = d.lookup(&Line::splat(1));
        assert!(!b.is_duplicate(), "freed value must not dedup");
    }

    #[test]
    fn observed_ratio() {
        let mut d = store();
        d.lookup(&Line::splat(1));
        d.lookup(&Line::splat(1));
        d.lookup(&Line::splat(1));
        d.lookup(&Line::splat(2));
        assert!((d.observed_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn crc_collisions_fall_back_to_fresh() {
        let lines = colliding_triple();
        let mut d = DedupStore::new(FingerprintAlgo::Crc32);
        let mut slots = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let out = d.lookup(l);
            assert!(!out.is_duplicate(), "colliding value {i} gets a fresh slot");
            assert_eq!(d.stats().2, i as u64, "each collision is counted");
            slots.push(out.slot());
        }
        assert_eq!(d.live_slots(), 3);
        for (l, &s) in lines.iter().zip(&slots) {
            assert_eq!(d.peek(l), Some(s));
            assert_eq!(d.lookup(l), DedupOutcome::Duplicate { slot: s });
        }

        // Releasing the chain's head, middle or tail leaves the others
        // findable.
        for victim in 0..3 {
            let mut d = DedupStore::new(FingerprintAlgo::Crc32);
            let slots: Vec<u64> = lines.iter().map(|l| d.lookup(l).slot()).collect();
            assert!(d.release(slots[victim]));
            assert_eq!(d.peek(&lines[victim]), None, "victim {victim}");
            for k in (0..3).filter(|&k| k != victim) {
                assert_eq!(d.peek(&lines[k]), Some(slots[k]), "victim {victim}");
                assert_eq!(
                    d.lookup(&lines[k]),
                    DedupOutcome::Duplicate { slot: slots[k] },
                    "victim {victim}"
                );
            }
            // The victim comes back in its freed slot at the chain's tail.
            assert_eq!(
                d.lookup(&lines[victim]),
                DedupOutcome::Fresh {
                    slot: slots[victim]
                }
            );
            for (l, &s) in lines.iter().zip(&slots) {
                assert_eq!(d.peek(l), Some(s), "victim {victim}");
            }
        }
    }

    #[test]
    fn recover_rebuilds_table() {
        let mut d = store();
        d.recover_slot(5, Line::splat(9), 2);
        let again = d.lookup(&Line::splat(9));
        assert!(again.is_duplicate());
        assert_eq!(again.slot(), 5);
        assert_eq!(d.refcount(5), 3);
        // Fresh slots allocate past recovered indices.
        let fresh = d.lookup(&Line::splat(10)).slot();
        assert!(fresh >= 6);
    }

    #[test]
    #[should_panic(expected = "release of dead slot")]
    fn double_free_panics() {
        let mut d = store();
        let a = d.lookup(&Line::splat(1)).slot();
        d.release(a);
        d.release(a);
    }

    #[test]
    fn live_slot_count() {
        let mut d = store();
        d.lookup(&Line::splat(1));
        d.lookup(&Line::splat(1));
        d.lookup(&Line::splat(2));
        assert_eq!(d.live_slots(), 2);
    }
}
