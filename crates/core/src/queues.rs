//! The Pre-execution Request Queue and decoder (§4.3.2, Figure 7a/7b).
//!
//! The processor sends pre-execution requests to a bounded request queue.
//! Immediate requests (`PRE_ADDR`/`PRE_DATA`/`PRE_BOTH`) are decoded into
//! cache-line-sized operations right away; buffered requests (`*_BUF`) wait
//! in the queue — coalescing with requests to adjacent lines of the same
//! `pre_obj` — until a `PRE_START_BUF` releases them. A full queue drops the
//! *oldest buffered* requests to make room (§4.6), or rejects immediate
//! requests outright ("drops newer requests", §4.3.2). Dropping is always
//! safe: pre-execution is purely a performance hint.

use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

use crate::ir::Op;
use crate::irb::IrbKey;

/// Which external inputs a request carries (the `Func` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreFunc {
    /// Address only (`PRE_ADDR`).
    Addr,
    /// Data only (`PRE_DATA`).
    Data,
    /// Both (`PRE_BOTH` / `PRE_BOTH_VAL`).
    Both,
}

/// A (possibly multi-line) pre-execution request as issued by the core.
#[derive(Clone, Debug)]
pub struct PreRequest {
    /// Request identity (PRE_ID + ThreadID).
    pub key: IrbKey,
    /// TransactionID at issue.
    pub tx_id: u64,
    /// Input kinds carried.
    pub func: PreFunc,
    /// First target line (absent for data-only requests).
    pub line: Option<LineAddr>,
    /// Number of lines covered.
    pub nlines: u32,
    /// Captured data values, one per line (empty for address-only).
    pub values: Vec<Line>,
}

/// How the controller takes a request when it arrives.
#[derive(Clone, Copy, Debug)]
pub enum PreArrivalKind {
    /// Decoded at once (`PRE_ADDR`, `PRE_DATA`, `PRE_BOTH`).
    Immediate,
    /// Held in the queue until released (`*_BUF`).
    Buffered,
    /// Releases the buffered requests of its key (`PRE_START_BUF`).
    Start,
}

impl PreRequest {
    /// The request a `PRE_*` op sends from logical thread `thread` inside
    /// transaction `tx_id`, and how the controller takes it. The op's
    /// values move into the request. `None` for every other op, `PRE_INIT`
    /// included: it only names the object.
    pub fn from_op(op: Op, thread: usize, tx_id: u64) -> Option<(PreRequest, PreArrivalKind)> {
        use PreArrivalKind::{Buffered, Immediate, Start};
        use PreFunc::{Addr, Both, Data};
        let (obj, func, line, nlines, values, kind) = match op {
            Op::PreAddr { obj, line, nlines } => (obj, Addr, Some(line), nlines, vec![], Immediate),
            Op::PreData { obj, values } => {
                (obj, Data, None, values.len() as u32, values, Immediate)
            }
            Op::PreBoth { obj, line, values } => {
                let n = values.len() as u32;
                (obj, Both, Some(line), n, values, Immediate)
            }
            Op::PreAddrBuf { obj, line, nlines } => {
                (obj, Addr, Some(line), nlines, vec![], Buffered)
            }
            Op::PreDataBuf { obj, values } => {
                (obj, Data, None, values.len() as u32, values, Buffered)
            }
            Op::PreBothBuf { obj, line, values } => {
                let n = values.len() as u32;
                (obj, Both, Some(line), n, values, Buffered)
            }
            Op::PreStartBuf(obj) => (obj, Both, None, 0, vec![], Start),
            _ => return None,
        };
        let req = PreRequest {
            key: IrbKey { core: thread, obj },
            tx_id,
            func,
            line,
            nlines,
            values,
        };
        Some((req, kind))
    }

    /// Whether `other` extends this request contiguously (same identity and
    /// function, adjacent line range) so the two can coalesce in the queue.
    fn can_coalesce(&self, other: &PreRequest) -> bool {
        self.key == other.key
            && self.func == other.func
            && match (self.line, other.line) {
                (Some(a), Some(b)) => b.0 == a.0 + self.nlines as u64,
                (None, None) => self.func == PreFunc::Data,
                _ => false,
            }
    }

    fn coalesce(&mut self, other: PreRequest) {
        self.nlines += other.nlines;
        self.values.extend(other.values);
    }
}

/// One cache-line-sized operation produced by the decoder (Figure 7b,
/// bottom).
#[derive(Clone, Debug)]
pub struct LineOp {
    /// Request identity.
    pub key: IrbKey,
    /// TransactionID.
    pub tx_id: u64,
    /// Target line, if the address is known.
    pub line: Option<LineAddr>,
    /// Data value, if known.
    pub value: Option<Line>,
}

/// Decodes a request into per-line operations.
pub fn decode(req: &PreRequest) -> Vec<LineOp> {
    let mut out = Vec::new();
    decode_into(req, &mut out);
    out
}

/// Decodes a request into `out` (cleared first), reusing its allocation.
/// The controller keeps one scratch buffer across requests so steady-state
/// decoding never allocates.
pub fn decode_into(req: &PreRequest, out: &mut Vec<LineOp>) {
    out.clear();
    let n = req.nlines.max(req.values.len() as u32).max(1) as usize;
    out.extend((0..n).map(|i| LineOp {
        key: req.key,
        tx_id: req.tx_id,
        line: req.line.map(|l| l.offset(i as u64)),
        value: req.values.get(i).copied(),
    }));
}

/// The bounded request queue with deferred-request buffering.
#[derive(Debug)]
pub struct RequestQueue {
    buffered: Vec<PreRequest>,
    capacity: usize,
}

impl RequestQueue {
    /// Creates a queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RequestQueue {
            buffered: Vec::new(),
            capacity,
        }
    }

    /// Whether an immediate request is admitted: `false` (dropped) when the
    /// queue is saturated by buffered requests.
    pub fn admit_immediate(&self) -> bool {
        self.buffered.len() < self.capacity
    }

    /// Buffers a deferred (`*_BUF`) request, coalescing with an adjacent
    /// buffered request of the same `pre_obj` when possible. When full, the
    /// oldest buffered request is discarded to make space (§4.6).
    ///
    /// Returns the request that was discarded, if any.
    pub fn push_buffered(&mut self, req: PreRequest) -> Option<PreRequest> {
        if let Some(prev) = self.buffered.iter_mut().find(|b| b.can_coalesce(&req)) {
            prev.coalesce(req);
            return None;
        }
        let mut evicted = None;
        if self.buffered.len() >= self.capacity {
            evicted = Some(self.buffered.remove(0));
        }
        self.buffered.push(req);
        evicted
    }

    /// Releases every buffered request of `key` (a `PRE_START_BUF`).
    pub fn start_buffered(&mut self, key: IrbKey) -> Vec<PreRequest> {
        self.buffered.extract_if(.., |r| r.key == key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PreObjId;

    fn key(obj: u32) -> IrbKey {
        IrbKey {
            core: 0,
            obj: PreObjId(obj),
        }
    }

    fn req(obj: u32, line: u64, nlines: u32) -> PreRequest {
        PreRequest {
            key: key(obj),
            tx_id: 0,
            func: PreFunc::Both,
            line: Some(LineAddr(line)),
            nlines,
            values: (0..nlines).map(|i| Line::splat(i as u8)).collect(),
        }
    }

    #[test]
    fn decode_splits_per_line() {
        let ops = decode(&req(1, 100, 3));
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].line, Some(LineAddr(100)));
        assert_eq!(ops[2].line, Some(LineAddr(102)));
        assert_eq!(ops[1].value, Some(Line::splat(1)));
    }

    #[test]
    fn decode_addr_only() {
        let r = PreRequest {
            key: key(1),
            tx_id: 0,
            func: PreFunc::Addr,
            line: Some(LineAddr(5)),
            nlines: 2,
            values: vec![],
        };
        let ops = decode(&r);
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|o| o.value.is_none()));
    }

    #[test]
    fn decode_data_only() {
        let r = PreRequest {
            key: key(1),
            tx_id: 0,
            func: PreFunc::Data,
            line: None,
            nlines: 2,
            values: vec![Line::splat(1), Line::splat(2)],
        };
        let ops = decode(&r);
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|o| o.line.is_none()));
        assert_eq!(ops[1].value, Some(Line::splat(2)));
    }

    #[test]
    fn buffered_coalescing_merges_adjacent() {
        let mut q = RequestQueue::new(16);
        q.push_buffered(req(1, 100, 1));
        q.push_buffered(req(1, 101, 1)); // adjacent, same obj → coalesce
        assert!(q.push_buffered(req(2, 200, 1)).is_none()); // different obj
        let released = q.start_buffered(key(1));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].nlines, 2);
        assert_eq!(released[0].values.len(), 2);
        assert_eq!(q.start_buffered(key(2)).len(), 1);
        assert!(q.start_buffered(key(1)).is_empty());
    }

    #[test]
    fn non_adjacent_requests_do_not_coalesce() {
        let mut q = RequestQueue::new(16);
        q.push_buffered(req(1, 100, 1));
        q.push_buffered(req(1, 105, 1));
        let released = q.start_buffered(key(1));
        assert_eq!(released.len(), 2);
        assert_eq!(released[1].line, Some(LineAddr(105)));
    }

    #[test]
    fn full_queue_drops_oldest_buffered() {
        let mut q = RequestQueue::new(2);
        q.push_buffered(req(1, 100, 1));
        q.push_buffered(req(2, 200, 1));
        let evicted = q.push_buffered(req(3, 300, 1)).expect("evicts oldest");
        assert_eq!(evicted.key, key(1));
        assert!(q.start_buffered(key(1)).is_empty());
        assert_eq!(q.start_buffered(key(2)).len(), 1);
        assert_eq!(q.start_buffered(key(3)).len(), 1);
    }

    #[test]
    fn saturated_queue_rejects_immediate() {
        let mut q = RequestQueue::new(1);
        q.push_buffered(req(1, 100, 1));
        assert!(!q.admit_immediate());
        q.start_buffered(key(1));
        assert!(q.admit_immediate(), "releasing the buffer readmits");
    }

    #[test]
    fn start_buffered_only_releases_matching_obj() {
        let mut q = RequestQueue::new(8);
        q.push_buffered(req(1, 100, 1));
        q.push_buffered(req(2, 200, 1));
        let released = q.start_buffered(key(2));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].key, key(2));
        assert_eq!(q.start_buffered(key(1)).len(), 1, "the other obj stays");
    }
}
