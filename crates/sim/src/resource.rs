//! Hardware resource model: the BMO execution-unit pool.
//!
//! The Janus hardware (paper §4.3.2, Figure 7a) shares a pool of BMO
//! execution units across cores ("4 units per core, shared");
//! [`UnitPool`] models it with windowed capacity bookkeeping. The bounded
//! pre-execution structures and their drop policies (§4.3.2, §4.6) live in
//! `janus-core`: the request queue (`queues::RequestQueue`), the operation
//! queue's bound in the memory controller, and the Intermediate Result
//! Buffer (`irb`).

use std::collections::VecDeque;

use crate::time::Cycles;

/// A pool of identical execution units modeled as a windowed capacity
/// ledger.
///
/// Models the paper's "BMO Units: 4 units per core (execute 4 BMOs in
/// parallel), shared". Because the simulator schedules sub-operations
/// eagerly (future work is booked as soon as its inputs' times are known),
/// a naive per-unit busy-until clock would let one job's late bookings
/// block another job's earlier idle time. The pool therefore tracks
/// *capacity per time window*: each window of [`UnitPool::WINDOW`] cycles
/// offers `units × WINDOW` unit-cycles; an acquisition charges its
/// occupancy (at most one window's worth) to the earliest window ≥ its
/// ready time with room. This is bandwidth-exact and start-time-accurate to
/// within one window.
///
/// The ledger is a run of consecutive windows starting at a base window:
/// bookings land at most a few thousand cycles past the caller's clock, so
/// the run stays short, a window is found by indexing, and
/// [`UnitPool::retire_before`] drops past windows from the front. Windows
/// outside the run hold no bookings.
///
/// The special capacity [`UnitPool::UNLIMITED`] models the "Unlimited"
/// configuration of Figure 14.
#[derive(Clone, Debug)]
pub struct UnitPool {
    unlimited: bool,
    /// Unit-cycles each window offers (`units × WINDOW`).
    capacity: u64,
    /// Index of the window `ledger[0]` books.
    base: u64,
    /// Unit-cycles consumed per window, from window `base` on.
    ledger: VecDeque<u64>,
}

impl UnitPool {
    /// Sentinel capacity meaning "no resource limit".
    pub const UNLIMITED: usize = usize::MAX;

    /// Allocation-window width in cycles (16 ns at 4 GHz).
    pub const WINDOW: u64 = 64;

    /// Creates a pool of `n` units (or unlimited for [`Self::UNLIMITED`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if a limited pool's window capacity
    /// (`n × WINDOW` unit-cycles) does not fit in a `u64`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit pool must have at least one unit");
        let unlimited = n == Self::UNLIMITED;
        let capacity = if unlimited {
            u64::MAX
        } else {
            u64::try_from(n)
                .ok()
                .and_then(|n| n.checked_mul(Self::WINDOW))
                .expect("unit pool window capacity overflows u64")
        };
        UnitPool {
            unlimited,
            capacity,
            base: 0,
            ledger: VecDeque::new(),
        }
    }

    fn used(&self, w: u64) -> u64 {
        w.checked_sub(self.base)
            .and_then(|i| self.ledger.get(usize::try_from(i).ok()?))
            .copied()
            .unwrap_or(0)
    }

    /// The ledger slot of window `w`, growing the run to cover it.
    fn slot(&mut self, w: u64) -> &mut u64 {
        if self.ledger.is_empty() {
            self.base = w;
        }
        while w < self.base {
            self.ledger.push_front(0);
            self.base -= 1;
        }
        let i = usize::try_from(w - self.base).expect("ledger run fits in memory");
        if i >= self.ledger.len() {
            self.ledger.resize(i + 1, 0);
        }
        &mut self.ledger[i]
    }

    /// Earliest time at which spare capacity exists, given the current time.
    pub fn free_at(&self, now: Cycles) -> Cycles {
        if self.unlimited {
            return now;
        }
        let mut w = now.0 / Self::WINDOW;
        while self.used(w) >= self.capacity {
            w += 1;
        }
        Cycles((w * Self::WINDOW).max(now.0))
    }

    /// Pipelined acquisition, starting no earlier than `now`: the result is
    /// ready `latency` after the work starts, but the unit accepts new work
    /// after the (shorter) initiation interval `ii` — hardware hash/AES
    /// engines are internally pipelined and accept a new cache line long
    /// before the previous result emerges. `ii` is clamped to `latency`.
    /// Returns the time the work starts and the time it ends.
    ///
    /// # Panics
    ///
    /// Panics if the occupancy, `min(ii, latency)`, exceeds one
    /// [`Self::WINDOW`].
    pub fn acquire_pipelined(
        &mut self,
        now: Cycles,
        latency: Cycles,
        ii: Cycles,
    ) -> (Cycles, Cycles) {
        let occupancy = ii.min(latency).0.max(1);
        assert!(
            occupancy <= Self::WINDOW,
            "an occupancy of {occupancy} cycles spans more than one window"
        );
        if self.unlimited {
            return (now, now + latency);
        }
        // First fit.
        let mut w = now.0 / Self::WINDOW;
        loop {
            let capacity = self.capacity;
            let used = self.slot(w);
            if *used + occupancy <= capacity {
                *used += occupancy;
                let start = Cycles((w * Self::WINDOW).max(now.0));
                return (start, start + latency);
            }
            w += 1;
        }
    }

    /// Forgets the windows strictly before `now`'s window.
    ///
    /// Exact whenever the caller's clock is monotone: every placement
    /// search and [`Self::free_at`] scan starts at `now / WINDOW` and only
    /// moves forward, so fully past windows are never consulted again.
    /// Dropping them from the front keeps the run as short as the furthest
    /// booking ahead of the clock.
    pub fn retire_before(&mut self, now: Cycles) {
        let past = (now.0 / Self::WINDOW).saturating_sub(self.base);
        let past = usize::try_from(past).map_or(self.ledger.len(), |n| n.min(self.ledger.len()));
        self.ledger.drain(..past);
        self.base += past as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-pipelined acquisition: the unit is held for the whole latency.
    fn acquire(pool: &mut UnitPool, now: Cycles, duration: Cycles) -> (Cycles, Cycles) {
        pool.acquire_pipelined(now, duration, duration)
    }

    #[test]
    fn unit_pool_serializes_beyond_capacity() {
        // One unit: each window offers 64 unit-cycles, so three 64-cycle
        // occupancies at t=0 land in consecutive windows.
        let mut pool = UnitPool::new(1);
        let d = Cycles(64);
        let (s1, _) = acquire(&mut pool, Cycles(0), d);
        let (s2, _) = acquire(&mut pool, Cycles(0), d);
        let (s3, _) = acquire(&mut pool, Cycles(0), d);
        assert_eq!((s1, s2, s3), (Cycles(0), Cycles(64), Cycles(128)));
        assert_eq!(pool.free_at(Cycles(0)), Cycles(192));
    }

    #[test]
    fn unit_pool_respects_now() {
        let mut pool = UnitPool::new(1);
        acquire(&mut pool, Cycles(0), Cycles(10));
        // Work requested at t=50 with spare capacity starts at t=50.
        assert_eq!(
            acquire(&mut pool, Cycles(50), Cycles(5)),
            (Cycles(50), Cycles(55))
        );
    }

    #[test]
    fn pipelined_acquisition_overlaps_long_latencies() {
        // One unit, long latency, short initiation interval: many jobs
        // overlap because each occupies the unit only briefly.
        let mut pool = UnitPool::new(1);
        let (s1, e1) = pool.acquire_pipelined(Cycles(0), Cycles(1000), Cycles(10));
        let (s2, e2) = pool.acquire_pipelined(Cycles(0), Cycles(1000), Cycles(10));
        assert_eq!((s1, e1), (Cycles(0), Cycles(1000)));
        assert_eq!(s2, Cycles(0), "pipelining admits the second job at once");
        assert_eq!(e2, Cycles(1000));
    }

    #[test]
    fn bandwidth_is_still_bounded() {
        // 1 unit × II 32: a window (64 cycles) fits exactly two ops.
        let mut pool = UnitPool::new(1);
        let starts: Vec<Cycles> = (0..6)
            .map(|_| pool.acquire_pipelined(Cycles(0), Cycles(500), Cycles(32)).0)
            .collect();
        assert_eq!(
            starts,
            vec![
                Cycles(0),
                Cycles(0),
                Cycles(64),
                Cycles(64),
                Cycles(128),
                Cycles(128)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "more than one window")]
    fn occupancy_beyond_one_window_panics() {
        acquire(
            &mut UnitPool::new(1),
            Cycles(0),
            Cycles(UnitPool::WINDOW + 1),
        );
    }

    #[test]
    #[should_panic(expected = "window capacity overflows")]
    fn window_capacity_overflow_panics() {
        UnitPool::new(1 << 60);
    }

    #[test]
    fn unlimited_pool_never_queues() {
        let mut pool = UnitPool::new(UnitPool::UNLIMITED);
        for _ in 0..1000 {
            let (start, end) = pool.acquire_pipelined(Cycles(7), Cycles(100), Cycles(40));
            assert_eq!((start, end), (Cycles(7), Cycles(107)));
        }
        assert_eq!(pool.free_at(Cycles(7)), Cycles(7));
    }

    #[test]
    fn utilization_accounting() {
        // Four units offer 256 unit-cycles per window. Each booking charges
        // its occupancy, and the window reads full exactly when they sum to
        // its capacity.
        let mut pool = UnitPool::new(4);
        acquire(&mut pool, Cycles(0), Cycles(10));
        acquire(&mut pool, Cycles(0), Cycles(30));
        for _ in 0..3 {
            acquire(&mut pool, Cycles(0), Cycles(64));
        }
        assert_eq!(pool.free_at(Cycles(0)), Cycles(0), "24 unit-cycles left");
        assert_eq!(
            acquire(&mut pool, Cycles(0), Cycles(24)),
            (Cycles(0), Cycles(24))
        );
        assert_eq!(pool.free_at(Cycles(0)), Cycles(64));
    }

    #[test]
    fn retire_before_drops_only_past_windows() {
        let mut pool = UnitPool::new(1);
        acquire(&mut pool, Cycles(0), Cycles(64)); // window 0 full
        acquire(&mut pool, Cycles(640), Cycles(64)); // window 10 full
        pool.retire_before(Cycles(640));
        // The past window is forgotten, the current one still binds.
        assert_eq!(pool.free_at(Cycles(0)), Cycles(0));
        assert_eq!(pool.free_at(Cycles(640)), Cycles(704));
    }
}
