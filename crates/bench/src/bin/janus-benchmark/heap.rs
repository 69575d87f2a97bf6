//! Peak heap of a run on the calling thread, counted by the global
//! allocator.
//!
//! Every allocation goes through [`Counting`], which keeps, per thread, the
//! bytes the thread has allocated and not freed, and the most it has held
//! since its last [`reset_peak`]. Unlike the resident set (`VmHWM`), the
//! count is exact: it does not move with the C allocator's trimming,
//! mmap-threshold and fragmentation choices, which made the `VmHWM` of one
//! single-threaded repetition differ from the next by up to 9% while the
//! bytes the simulator asked for did not change. Counting per thread keeps
//! atomic operations off the allocation path, which the sweep's worker
//! threads share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated and has not freed (negative when it
    /// freed more than it allocated).
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// What this thread held at its last reset.
    static BASE: Cell<isize> = const { Cell::new(0) };
    /// The most this thread held since its last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's held bytes.
struct Counting;

fn count(delta: isize) {
    let held = HELD.get() + delta;
    HELD.set(held);
    if held > PEAK.get() {
        PEAK.set(held);
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are only bookkeeping and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Starts a new high-water mark for the calling thread at what it holds now.
pub fn reset_peak() {
    let held = HELD.get();
    BASE.set(held);
    PEAK.set(held);
}

/// The most bytes the calling thread held at once since its last
/// [`reset_peak`], above what it held then, in MiB.
pub fn peak_mib() -> f64 {
    (PEAK.get() - BASE.get()) as f64 / (1024.0 * 1024.0)
}
