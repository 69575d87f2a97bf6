//! The Pre-execution Request Queue and decoder (§4.3.2, Figure 7a/7b).
//!
//! A request is one `PRE_*` call ([`Op::Pre`](crate::ir::Op::Pre)) plus the
//! thread and transaction that issued it. The processor sends requests to a
//! bounded request queue. Immediate requests (`PRE_ADDR`/`PRE_DATA`/
//! `PRE_BOTH`) are decoded into cache-line-sized operations right away
//! ([`PreFunc::lines`]); buffered requests (`*_BUF`) wait in the queue —
//! coalescing with requests to adjacent lines of the same `pre_obj` — until
//! a `PRE_START_BUF` releases them. A full queue drops the *oldest
//! buffered* requests to make room (§4.6), or rejects immediate requests
//! outright ("drops newer requests", §4.3.2). Dropping is always safe:
//! pre-execution is purely a performance hint.

use janus_nvm::addr::LineAddr;

use crate::ir::PreFunc;
use crate::irb::IrbKey;

/// A (possibly multi-line) pre-execution request as issued by the core.
#[derive(Clone, Debug)]
pub struct PreRequest {
    /// Request identity (PRE_ID + ThreadID).
    pub key: IrbKey,
    /// TransactionID at issue.
    pub tx_id: u64,
    /// What the call carries.
    pub func: PreFunc,
    /// A `*_BUF` call: waits in the queue for `PRE_START_BUF`.
    pub buffered: bool,
}

impl PreRequest {
    /// Whether `other` extends this request contiguously (same identity and
    /// function, adjacent line range) so the two can coalesce in the queue.
    fn can_coalesce(&self, other: &PreRequest) -> bool {
        let end = |line: &LineAddr| line.offset(self.func.nlines() as u64);
        self.key == other.key
            && match (&self.func, &other.func) {
                (PreFunc::Addr { line, .. }, PreFunc::Addr { line: next, .. })
                | (PreFunc::Both { line, .. }, PreFunc::Both { line: next, .. }) => {
                    *next == end(line)
                }
                (PreFunc::Data { .. }, PreFunc::Data { .. }) => true,
                _ => false,
            }
    }

    fn coalesce(&mut self, other: PreRequest) {
        match (&mut self.func, other.func) {
            (PreFunc::Addr { nlines, .. }, PreFunc::Addr { nlines: more, .. }) => *nlines += more,
            (
                PreFunc::Data { values } | PreFunc::Both { values, .. },
                PreFunc::Data { values: more } | PreFunc::Both { values: more, .. },
            ) => values.extend(more),
            _ => unreachable!("can_coalesce matched the functions"),
        }
    }
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
    use janus_nvm::line::Line;

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
            func: PreFunc::Both {
                line: LineAddr(line),
                values: (0..nlines).map(|i| Line::splat(i as u8)).collect(),
            },
            buffered: true,
        }
    }

    #[test]
    fn decode_splits_per_line() {
        let ops: Vec<_> = req(1, 100, 3).func.lines().collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].0, Some(LineAddr(100)));
        assert_eq!(ops[2].0, Some(LineAddr(102)));
        assert_eq!(ops[1].1, Some(Line::splat(1)));
    }

    #[test]
    fn decode_addr_only() {
        let r = PreRequest {
            key: key(1),
            tx_id: 0,
            func: PreFunc::Addr {
                line: LineAddr(5),
                nlines: 2,
            },
            buffered: false,
        };
        let ops: Vec<_> = r.func.lines().collect();
        assert_eq!(ops, [(Some(LineAddr(5)), None), (Some(LineAddr(6)), None)]);
    }

    #[test]
    fn decode_data_only() {
        let r = PreRequest {
            key: key(1),
            tx_id: 0,
            func: PreFunc::Data {
                values: vec![Line::splat(1), Line::splat(2)],
            },
            buffered: false,
        };
        let ops: Vec<_> = r.func.lines().collect();
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|o| o.0.is_none()));
        assert_eq!(ops[1].1, Some(Line::splat(2)));
    }

    #[test]
    fn buffered_coalescing_merges_adjacent() {
        let mut q = RequestQueue::new(16);
        q.push_buffered(req(1, 100, 1));
        q.push_buffered(req(1, 101, 1)); // adjacent, same obj → coalesce
        assert!(q.push_buffered(req(2, 200, 1)).is_none()); // different obj
        let released = q.start_buffered(key(1));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].func.nlines(), 2);
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
        assert_eq!(
            released[1].func.lines().next().unwrap().0,
            Some(LineAddr(105))
        );
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
