//! Deterministic discrete-event queue.
//!
//! The full-system model (cores, memory controller, BMO units, NVM device) is
//! driven by a single [`EventQueue`]: each component schedules future events
//! and the system loop pops them in time order. Events scheduled for the same
//! cycle are delivered in the order they were scheduled (stable FIFO), which
//! keeps the simulation deterministic regardless of hash-map iteration order
//! or other incidental sources of nondeterminism.
//!
//! # Implementation
//!
//! Almost every delay in the simulator is short and bounded — BMO sub-op
//! latencies top out at 1284 cycles, NVM array timings at ~1000, pipeline
//! initiation intervals at 40 — so the queue is a calendar (timing-wheel)
//! queue rather than a binary heap: a ring of `WHEEL` one-cycle slots
//! holding intrusive FIFO lists in a slab arena, with a two-level occupancy
//! bitmap (`u64` summary over 64 `u64` words) so the next occupied slot is
//! found with a couple of `trailing_zeros` instructions. Events scheduled
//! beyond the wheel horizon overflow into a `BTreeMap` keyed by absolute
//! time; they are rare and pop in O(log n).
//!
//! Ordering stays exactly `(time, insertion order)` without storing sequence
//! numbers at all:
//!
//! * within one slot (or one overflow bucket) appends preserve FIFO;
//! * every wheel entry lies in `[now, now + WHEEL)`, so a slot holds events
//!   of a single absolute time and slot distance recovers that time;
//! * at equal times, overflow entries always pop before wheel entries: an
//!   overflow entry for time `t` was scheduled while `now <= t - WHEEL`,
//!   a wheel entry for `t` while `now > t - WHEEL`, and `now` only moves
//!   forward — so every overflow entry predates every wheel entry for the
//!   same cycle.
//!
//! A `BinaryHeap` queue with explicit `(time, seq)` keys is the executable
//! specification, kept as the test oracle in `tests/event_queue.rs`: its
//! properties drive both queues through random schedule/pop interleavings
//! and bounded re-entrant drains and assert identical delivery.

use std::collections::{BTreeMap, VecDeque};

use crate::time::Cycles;

/// Number of one-cycle slots in the calendar wheel. Must be a power of two
/// and a multiple of 64. 4096 cycles (~1 µs at 4 GHz) comfortably covers
/// every bounded latency in the model.
const WHEEL: usize = 4096;
const WHEEL_MASK: u64 = WHEEL as u64 - 1;
const GROUPS: usize = WHEEL / 64;
/// Arena index sentinel for "no node".
const NIL: u32 = u32::MAX;

/// One event in the slab arena. `next` threads the FIFO list of its slot (or
/// the free list once recycled).
struct Node<E> {
    next: u32,
    time: Cycles,
    /// `None` only while the node sits on the free list.
    payload: Option<E>,
}

/// Head/tail of one slot's FIFO list (indices into the arena).
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// A time-ordered event queue with stable FIFO ordering of simultaneous
/// events.
///
/// # Example
///
/// ```
/// use janus_sim::{event::EventQueue, time::Cycles};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(7), 'b');
/// q.schedule(Cycles(7), 'c'); // same time: FIFO after 'b'
/// q.schedule(Cycles(3), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    slots: Vec<SlotList>,
    /// Occupancy bitmap: bit `s % 64` of `words[s / 64]` is set iff slot `s`
    /// has at least one pending event.
    words: [u64; GROUPS],
    /// Second level: bit `g` is set iff `words[g] != 0`.
    summary: u64,
    arena: Vec<Node<E>>,
    /// Free-list head threading recycled arena nodes.
    free: u32,
    /// Events at or beyond `now + WHEEL`, keyed by absolute cycle. Each
    /// bucket is FIFO in schedule order.
    overflow: BTreeMap<u64, VecDeque<E>>,
    overflow_len: usize,
    len: usize,
    now: Cycles,
}

/// Where the next event to pop lives.
enum Next {
    Wheel { slot: usize, time: Cycles },
    Overflow { time: Cycles },
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose internal arena is pre-sized for `cap`
    /// concurrently pending events, avoiding regrow churn mid-run.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: vec![EMPTY_SLOT; WHEEL],
            words: [0; GROUPS],
            summary: 0,
            arena: Vec::with_capacity(cap),
            free: NIL,
            overflow: BTreeMap::new(),
            overflow_len: 0,
            len: 0,
            now: Cycles::ZERO,
        }
    }

    /// Removes all pending events and resets the clock to zero, retaining
    /// allocated storage so the queue can be reused for another run.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = EMPTY_SLOT);
        self.words = [0; GROUPS];
        self.summary = 0;
        self.arena.clear();
        self.free = NIL;
        self.overflow.clear();
        self.overflow_len = 0;
        self.len = 0;
        self.now = Cycles::ZERO;
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        if at.0 - self.now.0 < WHEEL as u64 {
            let slot = (at.0 & WHEEL_MASK) as usize;
            let idx = self.alloc(at, payload);
            let list = &mut self.slots[slot];
            if list.head == NIL {
                list.head = idx;
                self.words[slot >> 6] |= 1u64 << (slot & 63);
                self.summary |= 1u64 << (slot >> 6);
            } else {
                self.arena[list.tail as usize].next = idx;
            }
            list.tail = idx;
        } else {
            self.overflow.entry(at.0).or_default().push_back(payload);
            self.overflow_len += 1;
        }
        self.len += 1;
    }

    /// Schedules `payload` to fire `delay` cycles after the current time.
    pub fn schedule_after(&mut self, delay: Cycles, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let (time, payload) = match self.next_event()? {
            Next::Overflow { time } => {
                let mut entry = self.overflow.first_entry().expect("overflow nonempty");
                let payload = entry.get_mut().pop_front().expect("bucket nonempty");
                if entry.get().is_empty() {
                    entry.remove();
                }
                self.overflow_len -= 1;
                (time, payload)
            }
            Next::Wheel { slot, time } => {
                let idx = self.slots[slot].head;
                let node = &mut self.arena[idx as usize];
                debug_assert_eq!(node.time, time);
                let payload = node.payload.take().expect("live node has payload");
                let next = node.next;
                node.next = self.free;
                self.free = idx;
                self.slots[slot].head = next;
                if next == NIL {
                    self.slots[slot].tail = NIL;
                    self.words[slot >> 6] &= !(1u64 << (slot & 63));
                    if self.words[slot >> 6] == 0 {
                        self.summary &= !(1u64 << (slot >> 6));
                    }
                }
                (time, payload)
            }
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.len -= 1;
        Some((time, payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.next_event().map(|n| match n {
            Next::Wheel { time, .. } | Next::Overflow { time } => time,
        })
    }

    /// Drains every event scheduled for the next occupied cycle into `out`
    /// (appending, in exactly the order repeated [`EventQueue::pop`] calls
    /// would deliver them) and advances the clock to that cycle. Returns the
    /// batch's timestamp, or `None` — leaving the queue and the clock
    /// untouched — if the queue is empty or its next event lies after
    /// `until` (pass [`Cycles::MAX`] for no bound).
    ///
    /// This is the simulator loop's only entry point: one bitmap search
    /// yields the whole same-cycle cohort, and the clock jump *is* the
    /// next-event fast-forward — when all resources are quiescent, `now`
    /// moves straight to the next deadline without visiting the idle cycles
    /// in between. Events the caller schedules *for the same cycle while
    /// processing the batch* are not in `out`; re-invoke until the returned
    /// time changes (or use [`EventQueue::peek_time`]) to drain them in FIFO
    /// order.
    pub fn pop_batch(&mut self, until: Cycles, out: &mut Vec<(Cycles, E)>) -> Option<Cycles> {
        let time = match self.next_event()? {
            Next::Overflow { time } | Next::Wheel { time, .. } => time,
        };
        if time > until {
            return None;
        }
        // Overflow entries for `time` pop before wheel entries (module docs:
        // they carry strictly earlier schedule order).
        if let Some(mut entry) = self.overflow.first_entry() {
            if *entry.key() == time.0 {
                let bucket = entry.get_mut();
                self.overflow_len -= bucket.len();
                self.len -= bucket.len();
                out.extend(bucket.drain(..).map(|p| (time, p)));
                entry.remove();
            }
        }
        // The whole wheel slot shares one absolute time; unlink its FIFO
        // list in a single pass.
        let slot = (time.0 & WHEEL_MASK) as usize;
        let mut idx = self.slots[slot].head;
        if idx != NIL {
            while idx != NIL {
                let node = &mut self.arena[idx as usize];
                debug_assert_eq!(node.time, time);
                out.push((time, node.payload.take().expect("live node has payload")));
                let next = node.next;
                node.next = self.free;
                self.free = idx;
                idx = next;
                self.len -= 1;
            }
            self.slots[slot] = EMPTY_SLOT;
            self.words[slot >> 6] &= !(1u64 << (slot & 63));
            if self.words[slot >> 6] == 0 {
                self.summary &= !(1u64 << (slot >> 6));
            }
        }
        debug_assert!(time >= self.now);
        self.now = time;
        Some(time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Selects the earliest pending event (ties resolved overflow-first; see
    /// module docs for why that is exactly FIFO order).
    fn next_event(&self) -> Option<Next> {
        let wheel = if self.len > self.overflow_len {
            let cursor = (self.now.0 & WHEEL_MASK) as usize;
            let slot = self.next_occupied(cursor);
            let dist = (slot as u64).wrapping_sub(cursor as u64) & WHEEL_MASK;
            Some(Next::Wheel {
                slot,
                time: Cycles(self.now.0 + dist),
            })
        } else {
            None
        };
        let over = self
            .overflow
            .keys()
            .next()
            .map(|&t| Next::Overflow { time: Cycles(t) });
        match (wheel, over) {
            (None, next) | (next, None) => next,
            (Some(w), Some(o)) => {
                let (Next::Wheel { time: wt, .. }, Next::Overflow { time: ot }) = (&w, &o) else {
                    unreachable!()
                };
                // Equal times pop overflow-first: those entries carry
                // strictly earlier schedule order (module docs).
                if ot <= wt {
                    Some(o)
                } else {
                    Some(w)
                }
            }
        }
    }

    /// First occupied slot at or after `start`, searching circularly. The
    /// caller guarantees the wheel holds at least one event.
    fn next_occupied(&self, start: usize) -> usize {
        let g0 = start >> 6;
        // Bits >= start within start's own group.
        let w = self.words[g0] & (!0u64 << (start & 63));
        if w != 0 {
            return (g0 << 6) | w.trailing_zeros() as usize;
        }
        // Later groups, then wrap around to the earliest occupied group.
        let hi = if g0 + 1 < GROUPS {
            self.summary & (!0u64 << (g0 + 1))
        } else {
            0
        };
        let g = if hi != 0 { hi } else { self.summary }.trailing_zeros() as usize;
        debug_assert!(g < GROUPS, "wheel bitmap empty but wheel_len > 0");
        (g << 6) | self.words[g].trailing_zeros() as usize
    }

    /// Takes a node from the free list or grows the arena.
    fn alloc(&mut self, time: Cycles, payload: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.arena[idx as usize];
            self.free = node.next;
            node.next = NIL;
            node.time = time;
            node.payload = Some(payload);
            idx
        } else {
            assert!(self.arena.len() < NIL as usize, "event arena full");
            self.arena.push(Node {
                next: NIL,
                time,
                payload: Some(payload),
            });
            (self.arena.len() - 1) as u32
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len)
            .field("overflow", &self.overflow_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), 3);
        q.schedule(Cycles(10), 1);
        q.schedule(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycles::ZERO);
        q.schedule(Cycles(42), ());
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "first");
        q.pop();
        q.schedule_after(Cycles(5), "second");
        assert_eq!(q.pop(), Some((Cycles(15), "second")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        q.pop();
        q.schedule(Cycles(5), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycles(9), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Cycles(9)));
    }

    #[test]
    fn far_future_events_overflow_and_pop_in_order() {
        let mut q = EventQueue::new();
        // Beyond the wheel horizon (WHEEL = 4096 cycles from now).
        q.schedule(Cycles(1_000_000), "far");
        q.schedule(Cycles(5_000), "mid");
        q.schedule(Cycles(3), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Cycles(3)));
        assert_eq!(q.pop(), Some((Cycles(3), "near")));
        assert_eq!(q.pop(), Some((Cycles(5_000), "mid")));
        assert_eq!(q.pop(), Some((Cycles(1_000_000), "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_pops_before_wheel_at_equal_time() {
        let mut q = EventQueue::new();
        // Scheduled while out of window: goes to overflow.
        q.schedule(Cycles(10_000), 1);
        // Advance the clock into the window of cycle 10_000.
        q.schedule(Cycles(9_000), 0);
        assert_eq!(q.pop(), Some((Cycles(9_000), 0)));
        // Now in-window: same cycle lands on the wheel. FIFO demands the
        // overflow entry (scheduled first) pops first.
        q.schedule(Cycles(10_000), 2);
        assert_eq!(q.pop(), Some((Cycles(10_000), 1)));
        assert_eq!(q.pop(), Some((Cycles(10_000), 2)));
    }

    #[test]
    fn wheel_wraps_across_many_horizons() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..64u64 {
            t += 1000 + i * 97; // strides that straddle slot-group boundaries
            q.schedule(Cycles(t), i);
            expect.push((Cycles(t), i));
            // Drain every other event immediately to exercise interleaving.
            if i % 2 == 1 {
                for e in expect.drain(..) {
                    assert_eq!(q.pop(), Some(e));
                }
            }
        }
        for e in expect.drain(..) {
            assert_eq!(q.pop(), Some(e));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_clock_and_reuses_storage() {
        let mut q = EventQueue::with_capacity(16);
        q.schedule(Cycles(40_000), "overflowed");
        q.schedule(Cycles(7), "wheeled");
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycles(1), "fresh");
        assert_eq!(q.pop(), Some((Cycles(1), "fresh")));
    }

    #[test]
    fn arena_nodes_recycle_without_growth() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.schedule_after(Cycles(3), round);
            q.schedule_after(Cycles(5), round);
            q.pop();
            q.pop();
        }
        // Two live nodes at a time: the arena never needs more than two.
        assert!(q.arena.len() <= 2, "arena grew to {}", q.arena.len());
    }

    #[test]
    fn pop_batch_matches_sequential_pops() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut x = 0xdead_beef_cafe_f00du64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..2000u64 {
            let delay = match step() % 4 {
                0 => 0,
                1 => step() % 8, // dense: same-cycle cohorts
                2 => step() % 4096,
                _ => 4096 + step() % 50_000,
            };
            a.schedule_after(Cycles(delay), i);
            b.schedule_after(Cycles(delay), i);
            if step() % 3 == 0 {
                // Drain one batch from `a`, the same events one-by-one from `b`.
                let mut batch = Vec::new();
                if let Some(t) = a.pop_batch(Cycles::MAX, &mut batch) {
                    assert!(!batch.is_empty());
                    for ev in &batch {
                        assert_eq!(ev.0, t);
                        assert_eq!(Some(*ev), b.pop());
                    }
                    assert_eq!(a.now(), b.now());
                    assert_eq!(a.len(), b.len());
                }
            }
        }
        let mut batch = Vec::new();
        while a.pop_batch(Cycles::MAX, &mut batch).is_some() {
            for ev in batch.drain(..) {
                assert_eq!(Some(ev), b.pop());
            }
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn pop_batch_takes_equal_time_overflow_before_wheel() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10_000), 1); // out of window: overflow
        q.schedule(Cycles(9_000), 0);
        q.pop();
        q.schedule(Cycles(10_000), 2); // in window: wheel, same cycle
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycles::MAX, &mut batch), Some(Cycles(10_000)));
        assert_eq!(batch, vec![(Cycles(10_000), 1), (Cycles(10_000), 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_fast_forwards_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(123_456), "far");
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycles(123_455), &mut batch), None);
        assert_eq!(q.now(), Cycles::ZERO, "a bounded miss leaves the clock");
        assert_eq!(
            q.pop_batch(Cycles(123_456), &mut batch),
            Some(Cycles(123_456))
        );
        assert_eq!(q.now(), Cycles(123_456), "clock jumps over idle cycles");
        assert_eq!(batch.len(), 1);
    }
}
