//! Persistent-heap layout for workload data.
//!
//! Each core owns a disjoint region of the logical data space (the
//! workloads are single-threaded instances, one per core, as in the paper's
//! multi-core experiments). Within a region the heap is a simple bump
//! allocator with named sub-regions for the undo log and commit records.

use janus_nvm::addr::LineAddr;

use crate::GenError;

/// Lines reserved per core region (2²⁰ lines = 64 MB of data space each).
pub const CORE_REGION_LINES: u64 = 1 << 20;

/// Lines reserved for the undo log within each region.
pub const LOG_LINES: u64 = 4096;

/// Lines reserved for commit records within each region.
pub const COMMIT_LINES: u64 = 256;

/// A per-core bump allocator over the logical data space.
///
/// # Example
///
/// ```
/// use janus_workloads::pmem::PmemHeap;
/// let mut h = PmemHeap::for_core(0);
/// let a = h.alloc(4)?;
/// let b = h.alloc(1)?;
/// assert_eq!(b.0, a.0 + 4);
/// # Ok::<(), janus_workloads::GenError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PmemHeap {
    base: u64,
    next: u64,
    limit: u64,
}

impl PmemHeap {
    /// The heap for core `core`'s region.
    pub fn for_core(core: usize) -> Self {
        let base = core as u64 * CORE_REGION_LINES;
        PmemHeap {
            base,
            next: base + LOG_LINES + COMMIT_LINES,
            limit: base + CORE_REGION_LINES,
        }
    }

    /// Allocates `nlines` consecutive lines.
    ///
    /// # Errors
    ///
    /// [`GenError::RegionExhausted`] when the rest of the region is
    /// smaller than `nlines`.
    pub fn alloc(&mut self, nlines: u64) -> Result<LineAddr, GenError> {
        let free = self.limit - self.next;
        if nlines > free {
            return Err(GenError::RegionExhausted {
                requested: nlines,
                free,
            });
        }
        let a = LineAddr(self.next);
        self.next += nlines;
        Ok(a)
    }

    /// First line of the undo-log area.
    pub fn log_base(&self) -> LineAddr {
        LineAddr(self.base)
    }

    /// First line of the commit-record area.
    pub fn commit_base(&self) -> LineAddr {
        LineAddr(self.base + LOG_LINES)
    }

    /// Lines allocated so far (excluding the log/commit areas).
    pub fn allocated(&self) -> u64 {
        self.next - self.base - LOG_LINES - COMMIT_LINES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_regions_are_disjoint() {
        let mut a = PmemHeap::for_core(0);
        let mut b = PmemHeap::for_core(1);
        let la = a.alloc(10).expect("fits");
        let lb = b.alloc(10).expect("fits");
        assert!(lb.0 >= la.0 + CORE_REGION_LINES - 10);
    }

    #[test]
    fn log_and_commit_do_not_overlap_heap() {
        let mut h = PmemHeap::for_core(0);
        let first = h.alloc(1).expect("fits");
        assert!(first.0 >= h.commit_base().0 + COMMIT_LINES);
        assert!(h.log_base().0 < h.commit_base().0);
    }

    #[test]
    fn allocations_are_consecutive() {
        let mut h = PmemHeap::for_core(2);
        let a = h.alloc(3).expect("fits");
        let b = h.alloc(2).expect("fits");
        assert_eq!(b.0, a.0 + 3);
        assert_eq!(h.allocated(), 5);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut h = PmemHeap::for_core(0);
        let free = CORE_REGION_LINES - LOG_LINES - COMMIT_LINES;
        assert_eq!(
            h.alloc(CORE_REGION_LINES),
            Err(GenError::RegionExhausted {
                requested: CORE_REGION_LINES,
                free
            })
        );
        // A failed request takes nothing: the whole rest still fits.
        assert!(h.alloc(free).is_ok());
        assert!(h.alloc(1).is_err());
    }
}
