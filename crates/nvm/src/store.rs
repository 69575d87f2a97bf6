//! Functional line-granular storage.
//!
//! A sparse map from [`LineAddr`] to [`Line`] with all-zero default
//! contents, used for: program-visible volatile state, the persistent NVM
//! array (ciphertext), and metadata regions.

use janus_sim::hash::FxHashMap;

use crate::addr::LineAddr;
use crate::line::Line;

/// Lines per group: one bit each in a `u64` presence mask.
const GROUP_SHIFT: u32 = 6;
const GROUP_MASK: u64 = (1 << GROUP_SHIFT) - 1;

/// The stored lines of one aligned 64-line group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Group {
    /// Bit `i` is set iff line `64·g + i` is stored.
    mask: u64,
    /// The stored lines in address order: line `i` sits at the number of
    /// set mask bits below bit `i`.
    lines: Vec<Line>,
}

impl Group {
    /// Position of bit `bit`'s line in `lines` (present or not).
    fn index(&self, bit: u32) -> usize {
        (self.mask & ((1u64 << bit) - 1)).count_ones() as usize
    }

    fn get(&self, bit: u32) -> Line {
        if self.mask & (1u64 << bit) == 0 {
            return Line::zero();
        }
        self.lines[self.index(bit)]
    }

    /// Stores `line` at `bit`, leaving the bit clear when `line` is zero.
    /// Returns the change in the number of stored lines.
    fn set(&mut self, bit: u32, line: Line) -> isize {
        let i = self.index(bit);
        match (self.mask & (1u64 << bit) != 0, line.is_zero()) {
            (true, false) => {
                self.lines[i] = line;
                0
            }
            (true, true) => {
                self.lines.remove(i);
                self.mask &= !(1u64 << bit);
                -1
            }
            (false, false) => {
                // Most groups of a scattered store hold one line: start at
                // exactly one rather than `Vec`'s minimum of four.
                if self.lines.capacity() == 0 {
                    self.lines.reserve_exact(1);
                }
                self.lines.insert(i, line);
                self.mask |= 1u64 << bit;
                1
            }
            (false, true) => 0,
        }
    }

    /// The stored lines with their addresses, ascending; `key` is the
    /// group's index (`addr >> 6`).
    fn iter(&self, key: u64) -> impl Iterator<Item = (LineAddr, &Line)> {
        let mut rest = self.mask;
        self.lines.iter().map(move |line| {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            (LineAddr(key << GROUP_SHIFT | u64::from(bit)), line)
        })
    }
}

fn split(addr: LineAddr) -> (u64, u32) {
    (addr.0 >> GROUP_SHIFT, (addr.0 & GROUP_MASK) as u32)
}

/// A sparse, zero-default map of line values.
///
/// # Example
///
/// ```
/// use janus_nvm::{store::LineStore, addr::LineAddr, line::Line};
/// let mut s = LineStore::new();
/// assert_eq!(s.read(LineAddr(1)), Line::zero());
/// s.write(LineAddr(1), Line::splat(3));
/// assert_eq!(s.read(LineAddr(1)), Line::splat(3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LineStore {
    // A directory of aligned 64-line groups, each a presence mask over its
    // non-zero lines packed in address order. A dense region costs one
    // directory entry per 64 lines and no per-line key; a lone line costs
    // about what a hash entry would. The directory is hashed rather than
    // paged because the regions this stores span about 2²⁸ lines, and a
    // scattered store (ORAM's) holds about one line per group. The hash is
    // deterministic FxHash, but [`LineStore::iter`] still sorts the groups:
    // iteration order feeds cache warm-up and recovery replay and must not
    // depend on insertion order. Invariants: no stored line is zero, no
    // group is empty, and `len` counts the stored lines.
    groups: FxHashMap<u64, Group>,
    len: usize,
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a line; unwritten lines read as zero.
    pub fn read(&self, addr: LineAddr) -> Line {
        let (key, bit) = split(addr);
        self.groups.get(&key).map_or(Line::zero(), |g| g.get(bit))
    }

    /// Writes a line.
    pub fn write(&mut self, addr: LineAddr, value: Line) {
        let (key, bit) = split(addr);
        let g = if value.is_zero() {
            // Zero is the default: a zero write never makes a group.
            match self.groups.get_mut(&key) {
                Some(g) => g,
                None => return,
            }
        } else {
            self.groups.entry(key).or_default()
        };
        let gained = g.set(bit, value);
        let emptied = g.mask == 0;
        self.settle(key, gained, emptied);
    }

    /// Read-modify-write of a u64 word within a line, in one directory
    /// lookup. Returns the updated line.
    pub fn update_u64(&mut self, addr: LineAddr, offset: usize, value: u64) -> Line {
        let (key, bit) = split(addr);
        let g = self.groups.entry(key).or_default();
        let mut line = g.get(bit);
        line.write_u64(offset, value);
        let gained = g.set(bit, line);
        let emptied = g.mask == 0;
        self.settle(key, gained, emptied);
        line
    }

    /// Read-modify-write of a u64 word within a line.
    pub fn write_u64(&mut self, addr: LineAddr, offset: usize, value: u64) {
        self.update_u64(addr, offset, value);
    }

    /// Reads a u64 word within a line.
    pub fn read_u64(&self, addr: LineAddr, offset: usize) -> u64 {
        self.read(addr).read_u64(offset)
    }

    /// Number of non-zero lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every line is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over non-zero lines in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        let mut groups: Vec<(u64, &Group)> = self.groups.iter().map(|(k, g)| (*k, g)).collect();
        groups.sort_unstable_by_key(|(k, _)| *k);
        groups.into_iter().flat_map(|(k, g)| g.iter(k))
    }

    /// Compares the non-zero contents of two stores (zero-default aware).
    pub fn same_contents(&self, other: &LineStore) -> bool {
        // Both sides hold only non-zero lines in non-empty groups, so equal
        // contents means equal groups.
        self.len == other.len
            && self.groups.len() == other.groups.len()
            && self
                .groups
                .iter()
                .all(|(k, g)| other.groups.get(k) == Some(g))
    }

    /// Books a group's change in stored lines, and drops the group once
    /// it is empty.
    fn settle(&mut self, key: u64, gained: isize, emptied: bool) {
        self.len = self.len.wrapping_add_signed(gained);
        if emptied {
            self.groups.remove(&key);
        }
    }
}

impl FromIterator<(LineAddr, Line)> for LineStore {
    fn from_iter<I: IntoIterator<Item = (LineAddr, Line)>>(iter: I) -> Self {
        let mut s = LineStore::new();
        for (a, l) in iter {
            s.write(a, l);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let s = LineStore::new();
        assert_eq!(s.read(LineAddr(12345)), Line::zero());
        assert!(s.is_empty());
    }

    #[test]
    fn writing_zero_keeps_store_sparse() {
        let mut s = LineStore::new();
        s.write(LineAddr(1), Line::splat(1));
        s.write(LineAddr(1), Line::zero());
        assert!(s.is_empty());
        assert_eq!(s.read(LineAddr(1)), Line::zero());
    }

    #[test]
    fn word_level_rmw() {
        let mut s = LineStore::new();
        s.write_u64(LineAddr(2), 8, 77);
        s.write_u64(LineAddr(2), 16, 88);
        assert_eq!(s.read_u64(LineAddr(2), 8), 77);
        assert_eq!(s.read_u64(LineAddr(2), 16), 88);
        assert_eq!(s.read_u64(LineAddr(2), 0), 0);
    }

    #[test]
    fn same_contents_ignores_zero_lines() {
        let mut a = LineStore::new();
        let mut b = LineStore::new();
        a.write(LineAddr(1), Line::splat(5));
        b.write(LineAddr(1), Line::splat(5));
        assert!(a.same_contents(&b));
        b.write(LineAddr(2), Line::splat(6));
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn from_iterator() {
        let s: LineStore = vec![(LineAddr(1), Line::splat(1)), (LineAddr(2), Line::splat(2))]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }
}
