//! Slot-indexed storage for per-slot BMO state.
//!
//! Slots index the dedup heap: dense from 0 when the dedup store allocates
//! them, but equal to the logical line — anywhere in the 2²⁶-line data
//! region — when dedup is not stacked. [`SlotTable`] serves both: a page
//! of [`PAGE`] entries is allocated the first time one of its slots is
//! written, a page directory grows on demand, and nothing is allocated up
//! front. A slot in an unallocated page reads as `T::default()`.

/// log₂ of the slots per page.
const PAGE_BITS: u32 = 12;
/// Slots per page.
pub(crate) const PAGE: usize = 1 << PAGE_BITS;

/// A paged table from slot to `T`.
#[derive(Clone, Debug)]
pub(crate) struct SlotTable<T> {
    pages: Vec<Option<Box<[T]>>>,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable { pages: Vec::new() }
    }
}

fn split(slot: u64) -> (usize, usize) {
    ((slot >> PAGE_BITS) as usize, slot as usize & (PAGE - 1))
}

impl<T: Copy + Default> SlotTable<T> {
    /// The entry of `slot`, or `None` while its page is unallocated.
    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        let (page, i) = split(slot);
        self.pages.get(page)?.as_ref().map(|p| &p[i])
    }

    /// The entry of `slot`, allocating its page on first touch.
    pub(crate) fn get_mut(&mut self, slot: u64) -> &mut T {
        let (page, i) = split(slot);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let p = self.pages[page].get_or_insert_with(|| vec![T::default(); PAGE].into_boxed_slice());
        &mut p[i]
    }

    /// Allocated pages and directory entries, for footprint checks.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (self.pages.iter().flatten().count(), self.pages.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_slots_read_default_and_cost_nothing() {
        let mut t: SlotTable<u32> = SlotTable::default();
        assert_eq!(t.get(7), None);
        *t.get_mut(PAGE as u64 + 3) = 9;
        assert_eq!(t.get(PAGE as u64 + 3), Some(&9));
        assert_eq!(t.get(PAGE as u64 + 4), Some(&0));
        assert_eq!(t.get(3), None, "page 0 was never touched");
        assert_eq!(t.footprint().0, 1);
    }
}
