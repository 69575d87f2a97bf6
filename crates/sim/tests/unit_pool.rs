//! Differential property for the unit pool's window ledger.
//!
//! [`UnitPool`] keeps its per-window bookings as a run of consecutive
//! windows from a base window. Its executable specification, kept here as
//! the test oracle, is the ledger it replaced: a hash map from window index
//! to booked unit-cycles, pruned by `retain`. The property drives both
//! through random call sequences and asserts identical answers at every
//! step.

use std::collections::HashMap;

use janus_check::{forall, gen};
use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;

/// The oracle: the hash-map ledger, first-fit over windows.
struct HashLedger {
    unlimited: bool,
    capacity: u64,
    ledger: HashMap<u64, u64>,
}

impl HashLedger {
    fn new(units: usize) -> Self {
        let unlimited = units == UnitPool::UNLIMITED;
        HashLedger {
            unlimited,
            capacity: if unlimited {
                u64::MAX
            } else {
                units as u64 * UnitPool::WINDOW
            },
            ledger: HashMap::new(),
        }
    }

    fn used(&self, w: u64) -> u64 {
        self.ledger.get(&w).copied().unwrap_or(0)
    }

    fn free_at(&self, now: Cycles) -> Cycles {
        if self.unlimited {
            return now;
        }
        let mut w = now.0 / UnitPool::WINDOW;
        while self.used(w) >= self.capacity {
            w += 1;
        }
        Cycles((w * UnitPool::WINDOW).max(now.0))
    }

    fn acquire_pipelined(&mut self, now: Cycles, latency: Cycles, ii: Cycles) -> (Cycles, Cycles) {
        let occupancy = ii.min(latency).0.max(1);
        if self.unlimited {
            return (now, now + latency);
        }
        let mut w = now.0 / UnitPool::WINDOW;
        loop {
            let used = self.ledger.entry(w).or_insert(0);
            if *used + occupancy <= self.capacity {
                *used += occupancy;
                let start = Cycles((w * UnitPool::WINDOW).max(now.0));
                return (start, start + latency);
            }
            w += 1;
        }
    }

    fn retire_before(&mut self, now: Cycles) {
        let w = now.0 / UnitPool::WINDOW;
        self.ledger.retain(|&i, _| i >= w);
    }
}

/// Random call sequences against 1–4 units and an unlimited pool. The
/// clock only moves forward; acquisitions are booked at or after it, as the
/// BMO engine books them, except for occasional stale ones up to 1000
/// cycles behind it (before the last retirement), which both ledgers must
/// treat as bookings on empty windows.
#[test]
fn unit_pool_matches_the_hash_ledger() {
    let call = gen::tuple4(
        &gen::range_u8(0..8),
        &gen::range_u64(0..300),
        &gen::range_u64(0..3_000),
        &gen::range_u64(1..65),
    );
    let g = gen::pair(&gen::range_usize(1..6), &gen::vec_of(&call, 1..300));
    forall(&g, |(units, calls)| {
        let units = if *units == 5 {
            UnitPool::UNLIMITED
        } else {
            *units
        };
        let mut pool = UnitPool::new(units);
        let mut oracle = HashLedger::new(units);
        let mut now = 0u64;
        for &(kind, step, offset, ii) in calls {
            now += step;
            let clock = Cycles(now);
            match kind {
                0 => {
                    pool.retire_before(clock);
                    oracle.retire_before(clock);
                }
                1 => assert_eq!(pool.free_at(clock), oracle.free_at(clock), "free_at({now})"),
                _ => {
                    let at = if kind == 2 {
                        Cycles(now.saturating_sub(offset % 1_000))
                    } else {
                        Cycles(now + offset)
                    };
                    let (latency, ii) = (Cycles(offset % 1_300 + 1), Cycles(ii));
                    assert_eq!(
                        pool.acquire_pipelined(at, latency, ii),
                        oracle.acquire_pipelined(at, latency, ii),
                        "acquire at {at:?}, latency {latency:?}, ii {ii:?}"
                    );
                }
            }
            assert_eq!(pool.free_at(clock), oracle.free_at(clock), "free_at({now})");
        }
    });
}
