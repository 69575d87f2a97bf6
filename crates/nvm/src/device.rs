//! The NVM device timing model.
//!
//! Table 3: "4GB PCM, 533MHz, tRCD/tCL/tCWD/tFAW/tWTR/tWR =
//! 48/15/13/50/7.5/300 ns". The dominant terms for our purposes are the
//! array read (tRCD + tCL ≈ 63 ns) and the long PCM write (tWR = 300 ns).
//! The device is banked; accesses to distinct banks overlap, accesses to the
//! same bank serialize, and all accesses share a command/data bus.

use janus_sim::time::Cycles;
use janus_trace::{Category, Tracer};

use crate::addr::LineAddr;

/// Timing parameters for the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmTiming {
    /// Array read latency (tRCD + tCL).
    pub read: Cycles,
    /// Cell write latency (tWR); PCM writes are slow.
    pub write: Cycles,
    /// Channel occupancy per 64-byte transfer.
    pub bus: Cycles,
    /// Number of independent banks.
    pub banks: usize,
    /// Four-activation window (tFAW): at most four bank activations may
    /// begin within this window.
    pub t_faw: Cycles,
    /// Write-to-read turnaround (tWTR): a read following a write on the
    /// channel waits this long after the write's data burst.
    pub t_wtr: Cycles,
}

impl NvmTiming {
    /// The paper's PCM configuration.
    pub fn pcm() -> Self {
        NvmTiming {
            read: Cycles::from_ns(63),   // tRCD 48 + tCL 15
            write: Cycles::from_ns(300), // tWR
            bus: Cycles::from_ns(8),     // 64B burst at 533 MHz DDR
            banks: 16,
            t_faw: Cycles::from_ns(50),
            t_wtr: Cycles::from_ns(8), // 7.5 ns rounded to whole cycles
        }
    }
}

impl Default for NvmTiming {
    fn default() -> Self {
        Self::pcm()
    }
}

/// Kind of device access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Array read of one line.
    Read,
    /// Cell write of one line.
    Write,
}

/// The banked NVM device. Scheduling an access returns its completion time
/// given current bank and bus occupancy.
///
/// # Example
///
/// ```
/// use janus_nvm::{device::{NvmDevice, NvmTiming, AccessKind}, addr::LineAddr};
/// use janus_sim::time::Cycles;
///
/// let mut dev = NvmDevice::new(NvmTiming::pcm());
/// let t1 = dev.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
/// // Same bank: the second write waits for the first.
/// let t2 = dev.schedule(Cycles(0), LineAddr(16), AccessKind::Write);
/// assert!(t2 > t1);
/// ```
#[derive(Clone, Debug)]
pub struct NvmDevice {
    timing: NvmTiming,
    bank_busy: Vec<Cycles>,
    bus_busy: Cycles,
    /// Start times of the last four activations per rank (tFAW window).
    recent_activations: [[Cycles; 4]; 2],
    /// Total activations per rank (the constraint needs four on record).
    activation_count: [u64; 2],
    /// End of the last write burst (tWTR turnaround).
    last_write_burst_end: Cycles,
    reads: u64,
    writes: u64,
    tracer: Tracer,
}

impl NvmDevice {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `timing.banks` is zero.
    pub fn new(timing: NvmTiming) -> Self {
        assert!(timing.banks > 0, "device must have at least one bank");
        NvmDevice {
            bank_busy: vec![Cycles::ZERO; timing.banks],
            bus_busy: Cycles::ZERO,
            recent_activations: [[Cycles::ZERO; 4]; 2],
            activation_count: [0; 2],
            last_write_burst_end: Cycles::ZERO,
            timing,
            reads: 0,
            writes: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; every scheduled access becomes an `nvm` span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The bank an address maps to (line interleaving).
    pub fn bank_of(&self, addr: LineAddr) -> usize {
        (addr.0 % self.timing.banks as u64) as usize
    }

    /// Schedules an access beginning no earlier than `now`; returns its
    /// completion time. The access occupies the shared bus for the transfer
    /// and its bank for the array operation.
    pub fn schedule(&mut self, now: Cycles, addr: LineAddr, kind: AccessKind) -> Cycles {
        let bank = self.bank_of(addr);
        let latency = match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.timing.read
            }
            AccessKind::Write => {
                self.writes += 1;
                self.timing.write
            }
        };
        // Bus grant first, then the bank operation.
        let mut bus_start = now.max(self.bus_busy);
        // tWTR: reads turn the channel around after a write burst.
        if kind == AccessKind::Read {
            bus_start = bus_start.max(self.last_write_burst_end + self.timing.t_wtr);
        }
        self.bus_busy = bus_start + self.timing.bus;
        let mut start = self.bus_busy.max(self.bank_busy[bank]);
        // tFAW: within a rank (half the banks), the fifth activation waits
        // for the oldest of the last four to leave the window.
        let rank = bank % 2;
        if self.activation_count[rank] >= 4 {
            let oldest = self.recent_activations[rank][0];
            if start < oldest + self.timing.t_faw {
                start = oldest + self.timing.t_faw;
            }
        }
        self.activation_count[rank] += 1;
        self.recent_activations[rank].rotate_left(1);
        self.recent_activations[rank][3] = start;
        let done = start + latency;
        self.bank_busy[bank] = done;
        if kind == AccessKind::Write {
            self.last_write_burst_end = self.bus_busy;
        }
        let name = match kind {
            AccessKind::Read => "nvm_read",
            AccessKind::Write => "nvm_write",
        };
        self.tracer
            .span(Category::Nvm, name, start, done, addr.0, bank as u64);
        done
    }

    /// (reads, writes) issued so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// The timing parameters.
    pub fn timing(&self) -> NvmTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmTiming::pcm())
    }

    #[test]
    fn single_write_takes_bus_plus_twr() {
        let mut d = dev();
        let done = d.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
        assert_eq!(done, Cycles::from_ns(8) + Cycles::from_ns(300));
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = dev();
        let t1 = d.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
        let t2 = d.schedule(Cycles(0), LineAddr(16), AccessKind::Write); // 16 % 16 == bank 0
        assert!(t2 >= t1 + Cycles::from_ns(300));
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dev();
        let t1 = d.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
        let t2 = d.schedule(Cycles(0), LineAddr(1), AccessKind::Write);
        // Only the bus transfer serializes (8 ns), not the 300 ns write.
        assert_eq!(t2, t1 + Cycles::from_ns(8));
    }

    #[test]
    fn reads_are_faster_than_writes() {
        let mut d = dev();
        let r = d.schedule(Cycles(0), LineAddr(2), AccessKind::Read);
        let mut d2 = dev();
        let w = d2.schedule(Cycles(0), LineAddr(2), AccessKind::Write);
        assert!(r < w);
    }

    #[test]
    fn respects_now() {
        let mut d = dev();
        let done = d.schedule(Cycles(4000), LineAddr(0), AccessKind::Read);
        assert_eq!(
            done,
            Cycles(4000) + Cycles::from_ns(8) + Cycles::from_ns(63)
        );
    }

    #[test]
    fn stats_count_kinds() {
        let mut d = dev();
        d.schedule(Cycles(0), LineAddr(0), AccessKind::Read);
        d.schedule(Cycles(0), LineAddr(1), AccessKind::Write);
        d.schedule(Cycles(0), LineAddr(2), AccessKind::Write);
        assert_eq!(d.stats(), (1, 2));
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        let mut d = dev();
        // Five back-to-back reads to five distinct banks of one rank (even
        // banks): the fifth must wait for the tFAW window (50 ns) measured
        // from the first.
        let mut starts = Vec::new();
        for i in 0..5u64 {
            let done = d.schedule(Cycles(0), LineAddr(i * 2), AccessKind::Read);
            starts.push(done - Cycles::from_ns(63)); // back out the latency
        }
        assert!(
            starts[4] >= starts[0] + Cycles::from_ns(50),
            "fifth activation at {:?} vs first {:?}",
            starts[4],
            starts[0]
        );
        // The first four only pay bus serialization.
        assert!(starts[3] < starts[0] + Cycles::from_ns(50));
    }

    #[test]
    fn twtr_delays_read_after_write() {
        let mut d = dev();
        d.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
        // Read on another bank immediately after: bus free at 8 ns, but the
        // channel turnaround adds tWTR.
        let done = d.schedule(Cycles(0), LineAddr(1), AccessKind::Read);
        let min_no_wtr = Cycles::from_ns(8) + Cycles::from_ns(8) + Cycles::from_ns(63);
        assert!(
            done >= min_no_wtr + Cycles::from_ns(8) - Cycles(1),
            "done={done:?}"
        );
        // Write-after-write is not penalized.
        let mut d2 = dev();
        d2.schedule(Cycles(0), LineAddr(0), AccessKind::Write);
        let w2 = d2.schedule(Cycles(0), LineAddr(1), AccessKind::Write);
        assert_eq!(w2, Cycles::from_ns(16) + Cycles::from_ns(300));
    }

    #[test]
    fn bank_mapping_is_interleaved() {
        let d = dev();
        assert_eq!(d.bank_of(LineAddr(0)), 0);
        assert_eq!(d.bank_of(LineAddr(1)), 1);
        assert_eq!(d.bank_of(LineAddr(17)), 1);
    }
}
