//! Property tests pinning the calendar event queue to its executable
//! specification: a plain binary-heap queue with explicit `(time, seq)`
//! keys, kept here as the test oracle.
//!
//! The simulator's determinism rests on the queue's total order — `(time,
//! insertion order)` FIFO — so the properties drive random schedule/pop
//! interleavings (same-cycle bursts, short device delays, beyond-wheel
//! horizons) through both implementations and assert identical behavior
//! at every step. The simulator itself only ever drains the queue with
//! bounded [`EventQueue::pop_batch`] calls whose handlers schedule more
//! events, so that drain is checked against the oracle's one-at-a-time pops
//! too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use janus::sim::event::EventQueue;
use janus::sim::time::Cycles;
use janus_check::{forall_cfg, gen, Config, Gen};

/// The oracle: a min-heap of `(time, seq, payload)`. `seq` is unique, so
/// ties on time pop in schedule order and the payload never decides.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(Cycles, u64, u64)>>,
    next_seq: u64,
    now: Cycles,
}

impl HeapQueue {
    fn schedule(&mut self, at: Cycles, payload: u64) {
        assert!(at >= self.now, "event scheduled in the past");
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycles, u64)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Distinct pending event times, ascending.
    fn pending_times(&self) -> Vec<Cycles> {
        let mut times: Vec<Cycles> = self.heap.iter().map(|Reverse((t, _, _))| *t).collect();
        times.sort_unstable();
        times.dedup();
        times
    }
}

/// `(selector, raw)` pairs: selector < 3 pops, otherwise schedules with a
/// delay drawn from the simulator's characteristic mix.
fn arb_ops() -> Gen<Vec<(u64, u64)>> {
    gen::vec_of(
        &gen::pair(&gen::range_u64(0..10), &gen::range_u64(0..10_000)),
        1..250,
    )
}

fn delay_for(selector: u64, raw: u64) -> u64 {
    match selector {
        3..=5 => 0,        // same-cycle burst
        6 | 7 => raw % 64, // short device delay
        8 => raw % 4096,   // anywhere on the wheel
        _ => 4096 + raw,   // beyond the wheel (overflow path)
    }
}

/// Applies one generated op to both queues.
fn apply(cal: &mut EventQueue<u64>, heap: &mut HeapQueue, (selector, raw): (u64, u64), id: u64) {
    if selector < 3 {
        assert_eq!(cal.pop(), heap.pop());
        assert_eq!(cal.now(), heap.now);
    } else {
        let at = Cycles(cal.now().0 + delay_for(selector, raw));
        cal.schedule(at, id);
        heap.schedule(at, id);
    }
}

/// Pops both queues dry, asserting the same sequence.
fn drain_both(cal: &mut EventQueue<u64>, heap: &mut HeapQueue) {
    while let Some(e) = heap.pop() {
        assert_eq!(cal.pop(), Some(e));
    }
    assert!(cal.is_empty());
}

/// Every interleaving produces the identical pop sequence, clock, length,
/// and peek on both implementations, including the final drain.
#[test]
fn calendar_queue_matches_heap_reference() {
    forall_cfg(&Config::with_cases(64), &arb_ops(), |ops| {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::default();
        for (id, &op) in ops.iter().enumerate() {
            apply(&mut cal, &mut heap, op, id as u64);
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        drain_both(&mut cal, &mut heap);
    });
}

/// `clear` resets the calendar queue to a fresh state: replaying a trace
/// after a clear matches replaying it on a new oracle.
#[test]
fn cleared_queue_replays_like_fresh() {
    forall_cfg(&Config::with_cases(32), &arb_ops(), |ops| {
        let mut cal: EventQueue<u64> = EventQueue::with_capacity(64);
        for round in 0..2 {
            cal.clear();
            assert_eq!(cal.now(), Cycles::ZERO, "round {round}");
            let mut heap = HeapQueue::default();
            for (id, &op) in ops.iter().enumerate() {
                apply(&mut cal, &mut heap, op, id as u64);
            }
            drain_both(&mut cal, &mut heap);
        }
    });
}

/// The follow-up events a handler schedules on delivering `payload`, as a
/// pure function of it: none, one or two, each at delay 0 (re-entrant, same
/// cycle), short, anywhere on the wheel, or beyond it. Fresh payloads come
/// from `next_id`; nothing spawns once it reaches `cap`, so drains end.
fn follow_ups(payload: u64, next_id: &mut u64, cap: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for j in 0..payload % 3 {
        if *next_id >= cap {
            break;
        }
        let mix = (payload ^ (j << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
        let delay = match mix % 4 {
            0 => 0,
            1 => mix % 64,
            2 => mix % 4096,
            _ => 4096 + mix % 10_000,
        };
        out.push((delay, *next_id));
        *next_id += 1;
    }
    out
}

/// A bounded `pop_batch` drain whose handlers schedule follow-ups —
/// exactly the simulator loop — delivers the oracle's per-event order, stops
/// at the same event, and leaves the same queue behind. `until` is drawn at
/// a pending event time, strictly between pending times, or before the
/// first one, so an off-by-one bound fails.
#[test]
fn bounded_reentrant_drain_matches_heap_reference() {
    let input = gen::pair(
        &arb_ops(),
        &gen::pair(&gen::range_u64(0..3), &gen::any_u64()),
    );
    forall_cfg(&Config::with_cases(96), &input, |(ops, (kind, pick))| {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::default();
        for (id, &op) in ops.iter().enumerate() {
            apply(&mut cal, &mut heap, op, id as u64);
        }

        let times = heap.pending_times();
        let until = match (times.is_empty(), kind) {
            (true, _) => Cycles(cal.now().0 + pick % 8192),
            (false, 0) => times[(pick % times.len() as u64) as usize],
            (false, 1) => {
                let mut t = times[(pick % times.len() as u64) as usize].0 + 1;
                while times.binary_search(&Cycles(t)).is_ok() {
                    t += 1;
                }
                Cycles(t)
            }
            (false, _) => Cycles(times[0].0.saturating_sub(1).max(cal.now().0)),
        };

        let first_id = ops.len() as u64;
        let cap = first_id + 4 * ops.len() as u64;
        let mut want = Vec::new();
        let mut next_id = first_id;
        while heap.peek_time().is_some_and(|t| t <= until) {
            let (t, p) = heap.pop().expect("peeked");
            want.push((t, p));
            for (delay, id) in follow_ups(p, &mut next_id, cap) {
                heap.schedule(Cycles(t.0 + delay), id);
            }
        }

        let mut got = Vec::new();
        let mut next_id = first_id;
        let mut batch = Vec::new();
        while let Some(t) = cal.pop_batch(until, &mut batch) {
            for (te, p) in batch.drain(..) {
                assert_eq!(te, t, "a batch shares one timestamp");
                got.push((te, p));
                for (delay, id) in follow_ups(p, &mut next_id, cap) {
                    cal.schedule(Cycles(te.0 + delay), id);
                }
            }
        }

        assert_eq!(got, want, "until={until:?}");
        assert_eq!(cal.now(), heap.now);
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.peek_time(), heap.peek_time());
        drain_both(&mut cal, &mut heap);
    });
}
