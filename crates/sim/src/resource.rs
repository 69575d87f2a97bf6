//! Hardware resource model: the BMO execution-unit pool.
//!
//! The Janus hardware (paper §4.3.2, Figure 7a) shares a pool of BMO
//! execution units across cores ("4 units per core, shared");
//! [`UnitPool`] models it with windowed capacity bookkeeping. The bounded
//! pre-execution structures and their drop policies (§4.3.2, §4.6) live in
//! `janus-core`: the request queue (`queues::RequestQueue`), the operation
//! queue's bound in the memory controller, and the Intermediate Result
//! Buffer (`irb`).

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
/// occupancy to the earliest window(s) ≥ its ready time with room. This is
/// bandwidth-exact and start-time-accurate to within one window.
///
/// The special capacity [`UnitPool::UNLIMITED`] models the "Unlimited"
/// configuration of Figure 14.
#[derive(Clone, Debug)]
pub struct UnitPool {
    units: usize,
    unlimited: bool,
    /// Unit-cycles consumed per window index.
    ledger: crate::hash::FxHashMap<u64, u64>,
    total_busy: Cycles,
    acquisitions: u64,
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
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit pool must have at least one unit");
        UnitPool {
            units: n,
            unlimited: n == Self::UNLIMITED,
            ledger: crate::hash::FxHashMap::default(),
            total_busy: Cycles::ZERO,
            acquisitions: 0,
        }
    }

    /// Number of units, or `None` when unlimited.
    pub fn size(&self) -> Option<usize> {
        if self.unlimited {
            None
        } else {
            Some(self.units)
        }
    }

    fn window_capacity(&self) -> u64 {
        self.units as u64 * Self::WINDOW
    }

    fn used(&self, w: u64) -> u64 {
        self.ledger.get(&w).copied().unwrap_or(0)
    }

    /// Earliest time at which spare capacity exists, given the current time.
    pub fn free_at(&self, now: Cycles) -> Cycles {
        if self.unlimited {
            return now;
        }
        let cap = self.window_capacity();
        let mut w = now.0 / Self::WINDOW;
        while self.used(w) >= cap {
            w += 1;
        }
        Cycles((w * Self::WINDOW).max(now.0))
    }

    /// Whether spare capacity exists at `now`.
    pub fn has_free(&self, now: Cycles) -> bool {
        self.free_at(now) <= now
    }

    /// Reserves capacity for `duration`, starting no earlier than `now`.
    /// Returns the time the work starts and the time it ends.
    pub fn acquire(&mut self, now: Cycles, duration: Cycles) -> (Cycles, Cycles) {
        self.acquire_pipelined(now, duration, duration)
    }

    /// Pipelined acquisition: the result is ready `latency` after the work
    /// starts, but the unit accepts new work after the (shorter) initiation
    /// interval `ii` — hardware hash/AES engines are internally pipelined
    /// and accept a new cache line long before the previous result emerges.
    /// `ii` is clamped to `latency`.
    pub fn acquire_pipelined(
        &mut self,
        now: Cycles,
        latency: Cycles,
        ii: Cycles,
    ) -> (Cycles, Cycles) {
        self.acquisitions += 1;
        self.total_busy += latency;
        if self.unlimited {
            return (now, now + latency);
        }
        let occupancy = ii.min(latency).0.max(1);
        let cap = self.window_capacity();
        let mut w = now.0 / Self::WINDOW;
        'search: loop {
            // Try to place `occupancy` unit-cycles in consecutive windows
            // starting at `w` (at most WINDOW per window: one unit).
            let mut rem = occupancy;
            let mut i = w;
            while rem > 0 {
                let charge = rem.min(Self::WINDOW);
                if self.used(i) + charge > cap {
                    w = i + 1;
                    continue 'search;
                }
                rem -= charge;
                i += 1;
            }
            // Commit.
            let mut rem = occupancy;
            let mut i = w;
            while rem > 0 {
                let charge = rem.min(Self::WINDOW);
                *self.ledger.entry(i).or_insert(0) += charge;
                rem -= charge;
                i += 1;
            }
            let start = Cycles((w * Self::WINDOW).max(now.0));
            return (start, start + latency);
        }
    }

    /// Total busy time handed out (for utilization reporting).
    pub fn total_busy(&self) -> Cycles {
        self.total_busy
    }

    /// Number of acquisitions performed.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Whether the pool is the [`Self::UNLIMITED`] configuration.
    pub fn is_unlimited(&self) -> bool {
        self.unlimited
    }

    /// Whether `charge` additional unit-cycles fit in window `w` as-is.
    ///
    /// This is the validity probe of compiled-schedule replay: a template
    /// precomputes each sub-operation's window and charge, aggregates the
    /// charges per window, and asks this for every touched window. If all
    /// fit, first-fit placement ([`Self::acquire_pipelined`]) provably
    /// starts every operation exactly at its ready time, so the template
    /// can be committed wholesale with [`Self::charge_window`].
    pub fn window_fits(&self, w: u64, charge: u64) -> bool {
        self.unlimited || self.used(w) + charge <= self.window_capacity()
    }

    /// Charges `charge` unit-cycles to window `w` without searching.
    ///
    /// Only valid after [`Self::window_fits`] approved the same `(w,
    /// charge)` aggregate — template replay's commit half. A no-op on
    /// unlimited pools (which keep no ledger).
    pub fn charge_window(&mut self, w: u64, charge: u64) {
        if !self.unlimited {
            *self.ledger.entry(w).or_insert(0) += charge;
        }
    }

    /// Records an acquisition that bypassed [`Self::acquire_pipelined`]
    /// (template replay) in the utilization statistics, keeping
    /// [`Self::total_busy`]/[`Self::acquisitions`] exact either way.
    pub fn record_acquisition(&mut self, latency: Cycles) {
        self.acquisitions += 1;
        self.total_busy += latency;
    }

    /// Drops ledger entries for windows strictly before `now`'s window.
    ///
    /// Safe whenever the caller's clock is monotone: every placement
    /// search, fit probe, and [`Self::free_at`] scan starts at `now /
    /// WINDOW` and only moves forward, so fully past windows can never be
    /// consulted again. Without pruning the ledger grows one entry per ~64
    /// busy cycles for the whole run, and its rehashing shows up in the
    /// event-loop profile.
    pub fn retire_before(&mut self, now: Cycles) {
        if self.unlimited {
            return;
        }
        let w = now.0 / Self::WINDOW;
        self.ledger.retain(|&i, _| i >= w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_pool_serializes_beyond_capacity() {
        // One unit: each window offers 64 unit-cycles, so three 64-cycle
        // occupancies at t=0 land in consecutive windows.
        let mut pool = UnitPool::new(1);
        let d = Cycles(64);
        let (s1, _) = pool.acquire(Cycles(0), d);
        let (s2, _) = pool.acquire(Cycles(0), d);
        let (s3, _) = pool.acquire(Cycles(0), d);
        assert_eq!((s1, s2, s3), (Cycles(0), Cycles(64), Cycles(128)));
        assert_eq!(pool.free_at(Cycles(0)), Cycles(192));
    }

    #[test]
    fn unit_pool_respects_now() {
        let mut pool = UnitPool::new(1);
        pool.acquire(Cycles(0), Cycles(10));
        // Work requested at t=50 with spare capacity starts at t=50.
        assert_eq!(
            pool.acquire(Cycles(50), Cycles(5)),
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
    fn multi_window_occupancy_spans() {
        // occupancy 160 > window 64: spans three windows of a 1-unit pool.
        let mut pool = UnitPool::new(1);
        let (s1, _) = pool.acquire(Cycles(0), Cycles(160));
        assert_eq!(s1, Cycles(0));
        // Windows 0,1 are full (64 each), window 2 holds 32.
        let (s2, _) = pool.acquire(Cycles(0), Cycles(64));
        assert_eq!(
            s2,
            Cycles(192),
            "window 2 has only 32 spare; next fit is window 3"
        );
    }

    #[test]
    fn unlimited_pool_never_queues() {
        let mut pool = UnitPool::new(UnitPool::UNLIMITED);
        assert_eq!(pool.size(), None);
        for _ in 0..1000 {
            let (start, end) = pool.acquire(Cycles(7), Cycles(100));
            assert_eq!((start, end), (Cycles(7), Cycles(107)));
        }
        assert!(pool.has_free(Cycles(7)));
    }

    #[test]
    fn utilization_accounting() {
        let mut pool = UnitPool::new(4);
        pool.acquire(Cycles(0), Cycles(10));
        pool.acquire(Cycles(0), Cycles(30));
        assert_eq!(pool.total_busy(), Cycles(40));
        assert_eq!(pool.acquisitions(), 2);
    }

    #[test]
    fn window_fit_probe_matches_acquire() {
        // 1 unit: window capacity 64. A 40-cycle charge fits once more
        // after a 20-cycle occupant, but 50 does not.
        let mut pool = UnitPool::new(1);
        pool.acquire(Cycles(0), Cycles(20));
        assert!(pool.window_fits(0, 40));
        assert!(!pool.window_fits(0, 50));
        // Committing via charge_window affects subsequent placement the
        // same way a real acquisition would.
        pool.charge_window(0, 44);
        assert_eq!(pool.acquire(Cycles(0), Cycles(64)).0, Cycles(64));
        assert!(UnitPool::new(UnitPool::UNLIMITED).window_fits(0, u64::MAX));
    }

    #[test]
    fn replay_stat_recording_matches_acquire_stats() {
        let mut a = UnitPool::new(2);
        a.acquire(Cycles(0), Cycles(25));
        let mut b = UnitPool::new(2);
        b.record_acquisition(Cycles(25));
        assert_eq!(a.total_busy(), b.total_busy());
        assert_eq!(a.acquisitions(), b.acquisitions());
    }

    #[test]
    fn retire_before_drops_only_past_windows() {
        let mut pool = UnitPool::new(1);
        pool.acquire(Cycles(0), Cycles(64)); // window 0 full
        pool.acquire(Cycles(640), Cycles(64)); // window 10 full
        pool.retire_before(Cycles(640));
        // The past window is forgotten, the current one still binds.
        assert!(pool.window_fits(0, 64));
        assert!(!pool.window_fits(10, 1));
        assert_eq!(pool.free_at(Cycles(640)), Cycles(704));
    }
}
