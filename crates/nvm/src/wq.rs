//! The ADR-protected memory-controller write queue.
//!
//! "We assume a system with the Intel Asynchronous DRAM Refresh (ADR)
//! technique that ensures the write queues are in the persistence domain.
//! Therefore, writes to NVM become persistent as soon as they are placed in
//! the write queue in the memory controller, as the ADR technique can flush
//! the write queue to NVM in case of a crash." (§2.3)
//!
//! Timing-wise the queue provides *backpressure*: an entry occupies a slot
//! from acceptance until its NVM device write completes, and a full queue
//! delays acceptance — the source of the multi-core "memory bus contention
//! ... higher queuing latency in the memory controller" effect (§5.2.1).

use janus_sim::time::Cycles;
use janus_trace::{Category, Tracer};

use crate::addr::LineAddr;
use crate::device::{AccessKind, NvmDevice};
use crate::line::Line;
use crate::store::LineStore;

/// One accepted (persistent) write still draining to the device.
#[derive(Clone, Copy, Debug)]
struct Pending {
    addr: LineAddr,
    drains_at: Cycles,
}

/// The write queue's timing: occupancy against the device drain rate. What
/// the queue holds functionally, crash runs record in a [`DurabilityLog`].
///
/// # Example
///
/// ```
/// use janus_nvm::{wq::AdrWriteQueue, device::{NvmDevice, NvmTiming}, addr::LineAddr, line::Line};
/// use janus_sim::time::Cycles;
///
/// let mut dev = NvmDevice::new(NvmTiming::pcm());
/// let mut wq = AdrWriteQueue::new(64);
/// let t = wq.accept(Cycles(0), LineAddr(3), &mut dev);
/// assert_eq!(t, Cycles(0)); // accepted (and persistent) immediately
/// ```
#[derive(Clone, Debug)]
pub struct AdrWriteQueue {
    capacity: usize,
    coalescing: bool,
    pending: Vec<Pending>,
    accepted: u64,
    coalesced: u64,
    stall_cycles: Cycles,
    tracer: Tracer,
}

impl AdrWriteQueue {
    /// Creates a write queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue capacity must be non-zero");
        AdrWriteQueue {
            capacity,
            coalescing: true,
            pending: Vec::new(),
            accepted: 0,
            coalesced: 0,
            stall_cycles: Cycles::ZERO,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; acceptances emit `wq` occupancy counters plus
    /// coalesce/stall instants.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Disables same-line write coalescing (ablation).
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalescing = on;
    }

    fn reap(&mut self, now: Cycles) {
        self.pending.retain(|p| p.drains_at > now);
    }

    /// Accepts a write at the earliest possible time ≥ `now`, scheduling its
    /// drain on `device`. Returns the acceptance time — the moment the write
    /// is *persistent*.
    ///
    /// If the queue is full at `now`, acceptance is delayed until the
    /// earliest pending entry drains (backpressure).
    pub fn accept(&mut self, now: Cycles, addr: LineAddr, device: &mut NvmDevice) -> Cycles {
        self.reap(now);
        // Write coalescing: a pending (not yet drained) entry for the same
        // line absorbs the new write — one device access persists both.
        // Hot metadata lines (counters, remap entries, the log head) hit
        // this constantly, exactly as a write-back counter cache + WQ
        // merge would behave in hardware.
        if self.coalescing && self.pending.iter().any(|p| p.addr == addr) {
            self.accepted += 1;
            self.coalesced += 1;
            self.tracer
                .instant(Category::WriteQueue, "wq_coalesce", now, addr.0, 0);
            return now;
        }
        let accept_at = if self.pending.len() < self.capacity {
            now
        } else {
            let earliest = self
                .pending
                .iter()
                .map(|p| p.drains_at)
                .min()
                .expect("full queue is non-empty");
            self.stall_cycles += earliest - now;
            self.tracer.instant(
                Category::WriteQueue,
                "wq_stall",
                now,
                addr.0,
                (earliest - now).0,
            );
            self.reap(earliest);
            earliest
        };
        let drains_at = device.schedule(accept_at, addr, AccessKind::Write);
        self.pending.push(Pending { addr, drains_at });
        self.accepted += 1;
        self.tracer.counter(
            Category::WriteQueue,
            "wq_occupancy",
            accept_at,
            self.pending.len() as u64,
        );
        accept_at
    }

    /// Current occupancy at time `now`.
    pub fn occupancy(&mut self, now: Cycles) -> usize {
        self.reap(now);
        self.pending.len()
    }

    /// Total writes accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Writes absorbed by coalescing with a pending same-line entry.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Total cycles acceptance was delayed by a full queue.
    pub fn stall_cycles(&self) -> Cycles {
        self.stall_cycles
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// What survives a crash, as a log: every line value the controller hands
/// to the write queue, stamped with the cycle the write reached the
/// controller.
///
/// The functional model makes a write durable as a whole when it reaches
/// the controller, and ADR guarantees the queue drains, so a crash at cycle
/// `c` keeps exactly the entries stamped at or before `c`
/// ([`DurabilityLog::image_at`]) and loses all volatile state (caches,
/// in-flight BMOs, IRB). One log therefore yields the crash image at any
/// cycle of the run it recorded.
///
/// # Example
///
/// ```
/// use janus_nvm::{wq::DurabilityLog, addr::LineAddr, line::Line};
/// use janus_sim::time::Cycles;
///
/// let mut log = DurabilityLog::default();
/// log.record(Cycles(10), LineAddr(1), Line::splat(1));
/// log.record(Cycles(20), LineAddr(1), Line::splat(2));
/// assert_eq!(log.image_at(Cycles(15)).read(LineAddr(1)), Line::splat(1));
/// assert_eq!(log.image_at(Cycles(20)).read(LineAddr(1)), Line::splat(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DurabilityLog {
    entries: Vec<(Cycles, LineAddr, Line)>,
}

impl DurabilityLog {
    /// Appends a line value that became durable with a write stamped `at`.
    pub fn record(&mut self, at: Cycles, addr: LineAddr, value: Line) {
        self.entries.push((at, addr, value));
    }

    /// Number of entries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The durable image of a crash at `crash`: the entries stamped at or
    /// before it, applied in recording order, so the later of two entries
    /// for one line wins and a zero value leaves the line unwritten.
    pub fn image_at(&self, crash: Cycles) -> LineStore {
        self.entries
            .iter()
            .filter(|(at, _, _)| *at <= crash)
            .map(|&(_, addr, value)| (addr, value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NvmTiming;

    #[test]
    fn accepts_immediately_when_space() {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(4);
        for i in 0..4 {
            assert_eq!(wq.accept(Cycles(0), LineAddr(i), &mut dev), Cycles(0));
        }
        assert_eq!(wq.occupancy(Cycles(0)), 4);
    }

    #[test]
    fn full_queue_backpressures() {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(2);
        // Same bank (addr multiples of 16) so drains serialize.
        wq.accept(Cycles(0), LineAddr(0), &mut dev);
        wq.accept(Cycles(0), LineAddr(16), &mut dev);
        let t = wq.accept(Cycles(0), LineAddr(32), &mut dev);
        assert!(t > Cycles(0), "third write should wait for a drain");
        assert!(wq.stall_cycles() > Cycles::ZERO);
    }

    #[test]
    fn occupancy_decays_as_writes_drain() {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(8);
        wq.accept(Cycles(0), LineAddr(0), &mut dev);
        assert_eq!(wq.occupancy(Cycles(0)), 1);
        assert_eq!(wq.occupancy(Cycles(1_000_000)), 0);
    }

    #[test]
    fn empty_log_folds_to_an_empty_image() {
        let log = DurabilityLog::default();
        assert!(log.is_empty());
        assert!(log.image_at(Cycles::MAX).is_empty());
    }

    #[test]
    fn entries_after_the_crash_are_excluded() {
        let mut log = DurabilityLog::default();
        log.record(Cycles(5), LineAddr(1), Line::splat(1));
        log.record(Cycles(9), LineAddr(2), Line::splat(2));
        log.record(Cycles(12), LineAddr(1), Line::splat(3));
        assert_eq!(log.len(), 3);
        assert!(log.image_at(Cycles(4)).is_empty());
        let at_9 = log.image_at(Cycles(9));
        assert_eq!(at_9.len(), 2);
        assert_eq!(at_9.read(LineAddr(1)), Line::splat(1));
        assert_eq!(at_9.read(LineAddr(2)), Line::splat(2));
        assert_eq!(log.image_at(Cycles(11)).read(LineAddr(1)), Line::splat(1));
        assert_eq!(log.image_at(Cycles(12)).read(LineAddr(1)), Line::splat(3));
    }

    #[test]
    fn a_zero_value_removes_the_line() {
        let mut log = DurabilityLog::default();
        log.record(Cycles(1), LineAddr(7), Line::splat(9));
        log.record(Cycles(2), LineAddr(7), Line::zero());
        assert_eq!(log.image_at(Cycles(1)).read(LineAddr(7)), Line::splat(9));
        let image = log.image_at(Cycles(2));
        assert!(image.is_empty(), "zero is the default, as in LineStore");
        assert_eq!(image.read(LineAddr(7)), Line::zero());
    }

    #[test]
    fn the_later_of_two_same_cycle_entries_wins() {
        let mut log = DurabilityLog::default();
        log.record(Cycles(3), LineAddr(4), Line::splat(1));
        log.record(Cycles(3), LineAddr(4), Line::splat(2));
        let image = log.image_at(Cycles(3));
        assert_eq!(image.len(), 1);
        assert_eq!(image.read(LineAddr(4)), Line::splat(2));
    }

    #[test]
    fn the_image_iterates_in_ascending_address_order() {
        let mut log = DurabilityLog::default();
        for (i, a) in [40u64, 3, 17, 1 << 30, 0, 9].into_iter().enumerate() {
            log.record(Cycles(i as u64), LineAddr(a), Line::splat(i as u8 + 1));
        }
        let addrs: Vec<u64> = log.image_at(Cycles::MAX).iter().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, [0, 3, 9, 17, 40, 1 << 30]);
    }

    #[test]
    fn repeated_same_line_writes_coalesce() {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(8);
        wq.accept(Cycles(0), LineAddr(5), &mut dev);
        // Second write to the same line while the first still drains:
        // coalesces, no extra device write, immediate acceptance.
        let t = wq.accept(Cycles(10), LineAddr(5), &mut dev);
        assert_eq!(t, Cycles(10));
        assert_eq!(wq.coalesced(), 1);
        assert_eq!(dev.stats().1, 1, "only one device write");
        // After the drain completes, a new write schedules again.
        wq.accept(Cycles(10_000_000), LineAddr(5), &mut dev);
        assert_eq!(dev.stats().1, 2);
    }

    #[test]
    fn accepted_counter() {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(64);
        for i in 0..10 {
            wq.accept(Cycles(0), LineAddr(i), &mut dev);
        }
        assert_eq!(wq.accepted(), 10);
    }
}
