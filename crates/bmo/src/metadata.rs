//! Co-located BMO metadata (the DeWrite scheme) and the physical address
//! map.
//!
//! "The encryption and deduplication mechanisms follow a recent work
//! \[DeWrite\], where the encryption counter and the deduplication address
//! mapping table share the same metadata entry to minimize the storage
//! overhead, i.e., if data is duplicated, the metadata entry stores the
//! address mapping, otherwise, it stores the counter." (§5.1)
//!
//! Our functional realization is content-addressed: every distinct line
//! value lives in one *slot* of a dedup heap, and each logical line's
//! metadata entry remaps it to its slot; each slot's metadata entry holds its
//! encryption counter. (The paper stores unique data at its home address —
//! the slot indirection is behaviour-preserving for every experiment: a
//! duplicate write is still a metadata-only update, a fresh write is still
//! one data write plus metadata, and the same co-located entry feeds the
//! Merkle tree. DESIGN.md records the substitution.)
//!
//! Metadata entries are 8 bytes, packed 8 per 64-byte line in a dedicated
//! metadata region, so they can be persisted through the ordinary write path
//! and re-parsed during crash recovery.

use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;

/// Number of logical data lines (4 GB at 64 B/line).
pub const DATA_LINES: u64 = 1 << 26;
/// First line of the dedup-heap slot region.
pub const SLOT_BASE: u64 = DATA_LINES;
/// Number of dedup-heap slots.
pub const SLOT_LINES: u64 = 1 << 26;
/// First line of the metadata region.
pub const META_BASE: u64 = SLOT_BASE + SLOT_LINES;
/// Metadata entries per 64-byte line.
pub const ENTRIES_PER_LINE: u64 = 8;
/// Number of metadata lines (logical entries then slot entries).
pub const META_LINES: u64 = (DATA_LINES + SLOT_LINES) / ENTRIES_PER_LINE;
/// First line of the MAC region (one line per slot).
pub const MAC_BASE: u64 = META_BASE + META_LINES;
/// First line of the auxiliary BMO region (wear/ORAM persistent state).
pub const AUX_BASE: u64 = MAC_BASE + SLOT_LINES;
/// The Start-Gap spare frame: physical frame index [`SLOT_LINES`] lives
/// here (the slot region holds frames `0..SLOT_LINES`).
pub const WEAR_SPARE_ADDR: LineAddr = LineAddr(AUX_BASE);
/// The persisted Start-Gap registers (start/gap/interval/…, see
/// [`crate::wear::StartGap::save`]).
pub const WEAR_REG_ADDR: LineAddr = LineAddr(AUX_BASE + 1);
/// The persisted ORAM relocation epoch register.
pub const ORAM_REG_ADDR: LineAddr = LineAddr(AUX_BASE + 2);
/// First line of the persisted ORAM position map (8 entries per line; an
/// entry stores `frame + 1`, zero meaning "identity, never relocated").
pub const ORAM_MAP_BASE: u64 = AUX_BASE + 3;

/// NVM line address of a slot-region physical frame. Frames `0..SLOT_LINES`
/// are the slot region itself; frame [`SLOT_LINES`] is the Start-Gap spare.
pub fn frame_data_addr(frame: u64) -> LineAddr {
    if frame < SLOT_LINES {
        LineAddr(SLOT_BASE + frame)
    } else {
        assert_eq!(frame, SLOT_LINES, "frame out of range: {frame}");
        WEAR_SPARE_ADDR
    }
}

/// Position-map location (line + byte offset) of a slot's ORAM entry.
pub fn oram_map_loc(slot: u64) -> MetaLoc {
    assert!(slot < SLOT_LINES, "slot out of range: {slot}");
    MetaLoc {
        line: LineAddr(ORAM_MAP_BASE + slot / ENTRIES_PER_LINE),
        offset: (slot % ENTRIES_PER_LINE) as usize * 8,
    }
}

/// One 8-byte co-located metadata entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetaEntry {
    /// Never written.
    #[default]
    Empty,
    /// Logical line remaps to a dedup-heap slot.
    Remap(u64),
    /// Slot's encryption counter.
    Counter(u64),
}

const TAG_SHIFT: u32 = 62;
const TAG_EMPTY: u64 = 0;
const TAG_REMAP: u64 = 1;
const TAG_COUNTER: u64 = 2;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

impl MetaEntry {
    /// Packs the entry into its 8-byte wire format (tag in the top 2 bits).
    pub fn encode(self) -> u64 {
        match self {
            MetaEntry::Empty => 0,
            MetaEntry::Remap(slot) => {
                assert!(slot <= PAYLOAD_MASK, "slot index overflow");
                (TAG_REMAP << TAG_SHIFT) | slot
            }
            MetaEntry::Counter(c) => {
                assert!(c <= PAYLOAD_MASK, "counter overflow");
                (TAG_COUNTER << TAG_SHIFT) | c
            }
        }
    }

    /// Parses the 8-byte wire format.
    pub fn decode(raw: u64) -> MetaEntry {
        match raw >> TAG_SHIFT {
            TAG_EMPTY => MetaEntry::Empty,
            TAG_REMAP => MetaEntry::Remap(raw & PAYLOAD_MASK),
            TAG_COUNTER => MetaEntry::Counter(raw & PAYLOAD_MASK),
            _ => MetaEntry::Empty, // tag 3 unused; treat as empty
        }
    }
}

/// Location of a metadata entry: the line that holds it and the byte offset
/// within that line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaLoc {
    /// Metadata-region line address.
    pub line: LineAddr,
    /// Byte offset of the 8-byte entry within the line.
    pub offset: usize,
}

/// Metadata location for a logical data line.
///
/// # Panics
///
/// Panics if `logical` is outside the data region.
pub fn meta_loc_of_logical(logical: LineAddr) -> MetaLoc {
    assert!(
        logical.0 < DATA_LINES,
        "logical line out of range: {logical}"
    );
    MetaLoc {
        line: LineAddr(META_BASE + logical.0 / ENTRIES_PER_LINE),
        offset: (logical.0 % ENTRIES_PER_LINE) as usize * 8,
    }
}

/// Metadata location for a dedup-heap slot's counter.
///
/// # Panics
///
/// Panics if `slot` is outside the slot region.
pub fn meta_loc_of_slot(slot: u64) -> MetaLoc {
    assert!(slot < SLOT_LINES, "slot out of range: {slot}");
    let index = DATA_LINES + slot;
    MetaLoc {
        line: LineAddr(META_BASE + index / ENTRIES_PER_LINE),
        offset: (index % ENTRIES_PER_LINE) as usize * 8,
    }
}

/// NVM line address of a dedup-heap slot's data.
pub fn slot_data_addr(slot: u64) -> LineAddr {
    LineAddr(SLOT_BASE + slot)
}

/// NVM line address holding a slot's MAC.
pub fn mac_addr_of_slot(slot: u64) -> LineAddr {
    LineAddr(MAC_BASE + slot)
}

/// Leaf index (within the Merkle tree) of a metadata line.
///
/// # Panics
///
/// Panics if `line` is not in the metadata region.
pub fn leaf_index_of_meta_line(line: LineAddr) -> u64 {
    assert!(
        (META_BASE..META_BASE + META_LINES).contains(&line.0),
        "not a metadata line: {line}"
    );
    line.0 - META_BASE
}

/// The functional metadata store: a line-packed view over a [`LineStore`],
/// readable/writable at entry granularity.
#[derive(Clone, Debug, Default)]
pub struct MetadataStore {
    lines: LineStore,
}

impl MetadataStore {
    /// An empty store (all entries [`MetaEntry::Empty`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a store from raw metadata-region lines (crash recovery).
    pub fn from_lines(lines: LineStore) -> Self {
        MetadataStore { lines }
    }

    fn get(&self, loc: MetaLoc) -> MetaEntry {
        MetaEntry::decode(self.lines.read_u64(loc.line, loc.offset))
    }

    /// Sets an entry and returns the updated metadata line value (what must
    /// be written back to NVM).
    fn set(&mut self, loc: MetaLoc, entry: MetaEntry) -> (LineAddr, Line) {
        (
            loc.line,
            self.lines.update_u64(loc.line, loc.offset, entry.encode()),
        )
    }

    /// The entry for a logical line.
    pub fn logical(&self, logical: LineAddr) -> MetaEntry {
        self.get(meta_loc_of_logical(logical))
    }

    /// Sets the remap entry for a logical line; returns the dirty meta line.
    pub fn set_logical(&mut self, logical: LineAddr, entry: MetaEntry) -> (LineAddr, Line) {
        self.set(meta_loc_of_logical(logical), entry)
    }

    /// The counter entry for a slot.
    pub fn slot(&self, slot: u64) -> MetaEntry {
        self.get(meta_loc_of_slot(slot))
    }

    /// Sets the counter entry for a slot; returns the dirty meta line.
    pub fn set_slot(&mut self, slot: u64, entry: MetaEntry) -> (LineAddr, Line) {
        self.set(meta_loc_of_slot(slot), entry)
    }

    /// Raw metadata line (Merkle leaf content).
    pub fn line(&self, addr: LineAddr) -> Line {
        self.lines.read(addr)
    }

    /// The underlying line store (for recovery snapshots).
    pub fn lines(&self) -> &LineStore {
        &self.lines
    }

    /// Iterates over all logical lines with non-empty entries.
    pub fn iter_logical(&self) -> impl Iterator<Item = (LineAddr, MetaEntry)> + '_ {
        self.lines.iter().flat_map(|(line, l)| {
            (0..ENTRIES_PER_LINE as usize).filter_map(move |i| {
                let index = (line.0 - META_BASE) * ENTRIES_PER_LINE + i as u64;
                if index >= DATA_LINES {
                    return None;
                }
                let e = MetaEntry::decode(l.read_u64(i * 8));
                (e != MetaEntry::Empty).then_some((LineAddr(index), e))
            })
        })
    }

    /// Iterates over all slots with non-empty entries.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u64, MetaEntry)> + '_ {
        self.lines.iter().flat_map(|(line, l)| {
            (0..ENTRIES_PER_LINE as usize).filter_map(move |i| {
                let index = (line.0 - META_BASE) * ENTRIES_PER_LINE + i as u64;
                if index < DATA_LINES {
                    return None;
                }
                let e = MetaEntry::decode(l.read_u64(i * 8));
                (e != MetaEntry::Empty).then_some((index - DATA_LINES, e))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for e in [
            MetaEntry::Empty,
            MetaEntry::Remap(0),
            MetaEntry::Remap(12345),
            MetaEntry::Counter(0),
            MetaEntry::Counter(u64::MAX >> 2),
        ] {
            assert_eq!(MetaEntry::decode(e.encode()), e, "{e:?}");
        }
    }

    #[test]
    fn remap_and_counter_do_not_collide() {
        assert_ne!(MetaEntry::Remap(5).encode(), MetaEntry::Counter(5).encode());
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics() {
        MetaEntry::Counter(u64::MAX).encode();
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the layout contract
    fn regions_do_not_overlap() {
        assert!(SLOT_BASE >= DATA_LINES);
        assert!(META_BASE >= SLOT_BASE + SLOT_LINES);
        assert!(MAC_BASE >= META_BASE + META_LINES);
    }

    #[test]
    fn entry_packing_locations() {
        let a = meta_loc_of_logical(LineAddr(0));
        let b = meta_loc_of_logical(LineAddr(7));
        let c = meta_loc_of_logical(LineAddr(8));
        assert_eq!(a.line, b.line);
        assert_eq!(b.offset, 56);
        assert_eq!(c.line, a.line.offset(1));
        assert_eq!(c.offset, 0);
    }

    #[test]
    fn logical_and_slot_entries_are_disjoint() {
        let mut m = MetadataStore::new();
        m.set_logical(LineAddr(3), MetaEntry::Remap(9));
        m.set_slot(3, MetaEntry::Counter(42));
        assert_eq!(m.logical(LineAddr(3)), MetaEntry::Remap(9));
        assert_eq!(m.slot(3), MetaEntry::Counter(42));
    }

    #[test]
    fn set_returns_dirty_line() {
        let mut m = MetadataStore::new();
        let (line, value) = m.set_logical(LineAddr(1), MetaEntry::Remap(77));
        assert_eq!(line, meta_loc_of_logical(LineAddr(1)).line);
        assert_eq!(
            MetaEntry::decode(value.read_u64(8)),
            MetaEntry::Remap(77),
            "entry 1 sits at byte offset 8"
        );
    }

    #[test]
    fn iteration_separates_kinds() {
        let mut m = MetadataStore::new();
        m.set_logical(LineAddr(10), MetaEntry::Remap(2));
        m.set_slot(2, MetaEntry::Counter(1));
        let logical: Vec<_> = m.iter_logical().collect();
        let slots: Vec<_> = m.iter_slots().collect();
        assert_eq!(logical, vec![(LineAddr(10), MetaEntry::Remap(2))]);
        assert_eq!(slots, vec![(2, MetaEntry::Counter(1))]);
    }

    #[test]
    fn round_trip_through_raw_lines() {
        let mut m = MetadataStore::new();
        m.set_logical(LineAddr(100), MetaEntry::Remap(55));
        m.set_slot(55, MetaEntry::Counter(7));
        // Recovery path: rebuild from raw lines.
        let rebuilt = MetadataStore::from_lines(m.lines().clone());
        assert_eq!(rebuilt.logical(LineAddr(100)), MetaEntry::Remap(55));
        assert_eq!(rebuilt.slot(55), MetaEntry::Counter(7));
    }

    #[test]
    fn leaf_indices_are_dense() {
        assert_eq!(leaf_index_of_meta_line(LineAddr(META_BASE)), 0);
        assert_eq!(
            leaf_index_of_meta_line(LineAddr(META_BASE + META_LINES - 1)),
            META_LINES - 1
        );
    }
}
