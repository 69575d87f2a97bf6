// The fingerprint-keyed dedup store that the content-keyed `DedupStore`
// replaced, kept as its differential oracle. Its chain table is keyed by
// the real MD5 or CRC-32 of a line, computed on every call; slot
// allocation, the chains, the whole-value compare and release are as they
// were. Per-slot records live in a map, since `SlotTable` is private to
// the crate.

use std::collections::HashMap;

use janus_bmo::dedup::DedupOutcome;
use janus_crypto::FingerprintAlgo;
use janus_nvm::line::Line;

/// End-of-chain marker for `SlotInfo::next`.
const NIL: u64 = u64::MAX;

/// One slot's record, live while `refcount > 0`.
#[derive(Clone, Copy, Debug)]
struct SlotInfo {
    value: Line,
    refcount: u64,
    fingerprint: u128,
    /// Next slot with the same fingerprint, or `NIL`.
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

/// The dedup store with a fingerprint → chain-head table.
#[derive(Clone, Debug)]
pub struct FingerprintStore {
    algo: FingerprintAlgo,
    table: HashMap<u128, u64>,
    slots: HashMap<u64, SlotInfo>,
    /// The lowest slot never allocated.
    next_slot: u64,
    free: Vec<u64>,
    live: usize,
}

impl FingerprintStore {
    pub fn new(algo: FingerprintAlgo) -> Self {
        FingerprintStore {
            algo,
            table: HashMap::new(),
            slots: HashMap::new(),
            next_slot: 0,
            free: Vec::new(),
            live: 0,
        }
    }

    fn fingerprint(&self, data: &Line) -> u128 {
        self.algo.fingerprint(data.as_bytes())
    }

    fn live_info(&self, slot: u64) -> Option<&SlotInfo> {
        self.slots.get(&slot).filter(|info| info.refcount > 0)
    }

    fn chained(&self, slot: u64) -> &SlotInfo {
        &self.slots[&slot]
    }

    /// The record of `slot`, created dead on first touch as `SlotTable`
    /// pages are.
    fn record(&mut self, slot: u64) -> &mut SlotInfo {
        self.slots.entry(slot).or_default()
    }

    /// The slot holding `data` in the chain of `fp`, or `Err(tail)` with
    /// the chain's last slot (`NIL` when `fp` has no chain).
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

    fn install(&mut self, slot: u64, value: Line, refcount: u64, fingerprint: u128, tail: u64) {
        *self.record(slot) = SlotInfo {
            value,
            refcount,
            fingerprint,
            next: NIL,
        };
        if tail == NIL {
            self.table.insert(fingerprint, slot);
        } else {
            self.record(tail).next = slot;
        }
        self.live += 1;
    }

    pub fn lookup(&mut self, data: &Line) -> DedupOutcome {
        let fp = self.fingerprint(data);
        let tail = match self.find(fp, data) {
            Ok(slot) => {
                self.record(slot).refcount += 1;
                return DedupOutcome::Duplicate { slot };
            }
            Err(tail) => tail,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        self.install(slot, *data, 1, fp, tail);
        DedupOutcome::Fresh { slot }
    }

    pub fn peek(&self, data: &Line) -> Option<u64> {
        self.find(self.fingerprint(data), data).ok()
    }

    pub fn release(&mut self, slot: u64) -> bool {
        assert!(self.is_live(slot), "release of dead slot");
        let info = self.record(slot);
        info.refcount -= 1;
        if info.refcount > 0 {
            return false;
        }
        let (fp, next) = (info.fingerprint, info.next);
        let head = self.table[&fp];
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
            self.record(prev).next = next;
        }
        self.live -= 1;
        self.free.push(slot);
        true
    }

    pub fn refcount(&self, slot: u64) -> u64 {
        self.live_info(slot).map_or(0, |i| i.refcount)
    }

    pub fn is_live(&self, slot: u64) -> bool {
        self.live_info(slot).is_some()
    }

    pub fn live_slots(&self) -> usize {
        self.live
    }

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
