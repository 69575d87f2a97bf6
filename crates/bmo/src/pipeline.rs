//! The functional BMO pipeline, composed from a [`BmoStack`].
//!
//! [`BmoPipeline`] applies a write's backend operations *functionally* and
//! returns the exact set of NVM line writes the memory controller must
//! persist ([`WriteEffects`]). Which stages run — dedup slot allocation,
//! payload compression, counter-mode encryption + MAC, SECDED check bytes,
//! the Merkle tree over the metadata region, Start-Gap wear-leveling,
//! oblivious frame relocation — is decided by which BMOs the stack
//! contains: one flag per [`BmoId`], read from the stack once, switches
//! that BMO's stage, so any subset and ordering selectable by [`BmoStack`]
//! runs end-to-end, including crash recovery
//! ([`BmoPipeline::recover_stack`]). A BMO's stage is the one part of it
//! that lives here rather than in the [`crate::stack`] registry.
//!
//! The timing of the same operations is modeled separately by
//! [`crate::engine`] on the stack's composed dependency graph; keeping the
//! two in lock-step lets integration tests assert that Janus's
//! pre-execution never changes functional results.
//!
//! Frame indirection: a slot's payload lives at physical frame
//! `wear(oram(slot))` — the ORAM position map relocates slots obliviously,
//! Start-Gap rotates frames to level wear, and both default to the identity
//! when their BMO is absent, which keeps the default paper stack's NVM
//! layout byte-compatible with the original hard-wired pipeline.

use janus_crypto::ctr::line_mac;
use janus_crypto::FingerprintAlgo;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;

use crate::compression::{compress, decompress, Compressed, Scheme};
use crate::dedup::DedupStore;
use crate::encryption::EncryptionEngine;
use crate::integrity::{MerkleTree, NodeHash};
use crate::metadata::{
    frame_data_addr, leaf_index_of_meta_line, mac_addr_of_slot, meta_loc_of_logical,
    meta_loc_of_slot, oram_map_loc, MetaEntry, MetadataStore, DATA_LINES, ENTRIES_PER_LINE,
    META_BASE, META_LINES, ORAM_MAP_BASE, ORAM_REG_ADDR, SLOT_LINES, WEAR_REG_ADDR,
};
use crate::slots::SlotTable;
use crate::stack::{BmoId, BmoStack};
use crate::wear::StartGap;

/// Merkle-tree height covering the metadata region (8⁸ = 2²⁴ leaves =
/// `META_LINES`).
pub const TREE_HEIGHT: u32 = 8;

/// Writes between Start-Gap movements when wear-leveling is stacked (the
/// paper's citation uses 100; we move more often so short tests exercise
/// gap copies).
pub const WEAR_INTERVAL: u64 = 64;

/// The default memory encryption key (also used by the memory controller
/// when no explicit key is configured).
pub const DEFAULT_KEY: [u8; 16] = *b"janus-memory-key";

/// Byte offset of the SECDED check bytes within a slot's auxiliary line
/// (after the 20-byte MAC).
const AUX_ECC_OFFSET: usize = 20;
/// Byte offset of the compression scheme tag within the auxiliary line.
const AUX_COMP_TAG_OFFSET: usize = 28;

/// Everything a single logical-line write changes in NVM.
#[derive(Clone, Debug)]
pub struct WriteEffects {
    /// Whether the dedup BMO cancelled the data write.
    pub dup: bool,
    /// The slot now holding this line's value.
    pub slot: u64,
    /// A slot freed by dropping the line's previous value, if any.
    pub freed_slot: Option<u64>,
    /// The NVM lines to persist (payload, metadata lines, auxiliary line).
    /// These must persist atomically with the root update (metadata
    /// atomicity, §4.3.2). The root itself is read from
    /// [`BmoPipeline::root`], which folds pending leaf updates in lazily —
    /// eagerly recomputing it per write made the root path the hot-loop
    /// bottleneck.
    pub line_writes: Vec<(LineAddr, Line)>,
}

/// Why a verified read or recovery failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// Payload/counter MAC mismatch.
    MacMismatch {
        /// Offending slot.
        slot: u64,
    },
    /// A metadata line failed Merkle verification.
    TamperedMetadata {
        /// Offending metadata line.
        line: LineAddr,
    },
    /// Metadata is structurally inconsistent (e.g. remap to a slot without
    /// a counter).
    MetadataCorrupt {
        /// Human-readable description.
        what: String,
    },
    /// Recomputed root does not match the secure register.
    RootMismatch,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::MacMismatch { slot } => write!(f, "MAC mismatch on slot {slot}"),
            IntegrityError::TamperedMetadata { line } => {
                write!(f, "metadata line {line} failed Merkle verification")
            }
            IntegrityError::MetadataCorrupt { what } => write!(f, "corrupt metadata: {what}"),
            IntegrityError::RootMismatch => write!(f, "merkle root does not match secure register"),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Which functional stages the stack enables: one per member BMO, read
/// once from the stack.
#[derive(Clone, Copy, Debug, Default)]
struct Caps {
    dedup: bool,
    compress: bool,
    encrypt: bool,
    ecc: bool,
    merkle: bool,
    wear: bool,
    oram: bool,
}

impl Caps {
    fn of(stack: &BmoStack) -> Caps {
        Caps {
            dedup: stack.contains(BmoId::Dedup),
            compress: stack.contains(BmoId::Compression),
            encrypt: stack.contains(BmoId::Encryption),
            ecc: stack.contains(BmoId::Ecc),
            merkle: stack.contains(BmoId::Integrity),
            wear: stack.contains(BmoId::WearLeveling),
            oram: stack.contains(BmoId::Oram),
        }
    }
}

/// Volatile per-slot auxiliary state mirroring the slot's auxiliary line.
/// The default (no MAC, tag 0) is what a slot never written reads as.
#[derive(Clone, Copy, Debug, Default)]
struct SlotAux {
    mac: Option<[u8; 20]>,
    comp_tag: u8,
}

/// Persistent ORAM relocation state: the epoch counter feeding the partner
/// generator and the position map (both mirrored to NVM lines).
#[derive(Clone, Debug)]
struct OramState {
    epoch: u64,
    map: LineStore,
}

fn push_write(writes: &mut Vec<(LineAddr, Line)>, addr: LineAddr, value: Line) {
    if let Some(e) = writes.iter_mut().find(|(a, _)| *a == addr) {
        e.1 = value;
    } else {
        writes.push((addr, value));
    }
}

/// The functional pipeline. See the module docs.
///
/// # Example
///
/// ```
/// use janus_bmo::pipeline::BmoPipeline;
/// use janus_nvm::{addr::LineAddr, line::Line};
///
/// let mut p = BmoPipeline::new();
/// let fx = p.write(LineAddr(1), Line::splat(7));
/// assert!(!fx.dup);
/// let fx2 = p.write(LineAddr(2), Line::splat(7));
/// assert!(fx2.dup, "same value dedups");
/// assert_eq!(p.read_verified(LineAddr(2)).unwrap(), Line::splat(7));
/// ```
#[derive(Clone, Debug)]
pub struct BmoPipeline {
    stack: BmoStack,
    caps: Caps,
    meta: MetadataStore,
    tree: Option<MerkleTree>,
    dedup: Option<DedupStore>,
    enc: Option<EncryptionEngine>,
    /// Next fresh write counter (starts at 1; 0 means "never written").
    next_counter: u64,
    /// Volatile mirror of stored payloads, keyed by physical frame address.
    stored: LineStore,
    aux: SlotTable<SlotAux>,
    wear: Option<StartGap>,
    oram: Option<OramState>,
    /// Recycled line-write buffer: [`BmoPipeline::write`] takes it, the
    /// caller hands it back via [`BmoPipeline::recycle`], so the
    /// steady-state write path performs no heap allocation.
    spare: Vec<(LineAddr, Line)>,
}

impl Default for BmoPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl BmoPipeline {
    /// Creates an empty default-stack (paper trio) pipeline with the
    /// default memory encryption key.
    pub fn new() -> Self {
        Self::for_stack_with_key(&BmoStack::paper(), DEFAULT_KEY)
    }

    /// Creates an empty pipeline running exactly the given stack's
    /// transforms, with the default key. `_algo` is not read: a dedup
    /// lookup's outcome does not depend on the fingerprint algorithm,
    /// which sets only D1's latency
    /// ([`crate::latency::BmoLatencies::dedup_algo`]).
    pub fn for_stack(stack: &BmoStack, _algo: FingerprintAlgo) -> Self {
        Self::for_stack_with_key(stack, DEFAULT_KEY)
    }

    /// Creates an empty pipeline for the given stack with an explicit key.
    pub fn for_stack_with_key(stack: &BmoStack, key: [u8; 16]) -> Self {
        let caps = Caps::of(stack);
        BmoPipeline {
            stack: stack.clone(),
            caps,
            meta: MetadataStore::new(),
            tree: caps.merkle.then(|| MerkleTree::new(TREE_HEIGHT)),
            dedup: caps.dedup.then(DedupStore::new),
            enc: caps.encrypt.then(|| EncryptionEngine::new(key)),
            next_counter: 1,
            stored: LineStore::new(),
            aux: SlotTable::default(),
            wear: caps.wear.then(|| StartGap::new(SLOT_LINES, WEAR_INTERVAL)),
            oram: caps.oram.then(|| OramState {
                epoch: 0,
                map: LineStore::new(),
            }),
            spare: Vec::new(),
        }
    }

    /// The stack this pipeline runs.
    pub fn stack(&self) -> &BmoStack {
        &self.stack
    }

    /// The virtual frame a slot maps to through the ORAM position map
    /// (identity when ORAM is not stacked or the slot was never relocated).
    fn oram_vframe(&self, slot: u64) -> u64 {
        match &self.oram {
            Some(o) => {
                let loc = oram_map_loc(slot);
                let raw = o.map.read_u64(loc.line, loc.offset);
                if raw == 0 {
                    slot
                } else {
                    raw - 1
                }
            }
            None => slot,
        }
    }

    fn set_oram_vframe(&mut self, slot: u64, frame: u64) -> (LineAddr, Line) {
        let o = self.oram.as_mut().expect("oram stacked");
        let loc = oram_map_loc(slot);
        o.map.write_u64(loc.line, loc.offset, frame + 1);
        (loc.line, o.map.read(loc.line))
    }

    /// Physical frame address of a virtual frame (Start-Gap remap when
    /// wear-leveling is stacked, identity otherwise).
    fn phys_addr_of_vframe(&self, vframe: u64) -> LineAddr {
        match &self.wear {
            Some(w) => frame_data_addr(w.frame_of(vframe)),
            None => frame_data_addr(vframe),
        }
    }

    /// Physical NVM address currently holding a slot's payload.
    fn frame_addr_of_slot(&self, slot: u64) -> LineAddr {
        self.phys_addr_of_vframe(self.oram_vframe(slot))
    }

    /// O1: obliviously swap the written slot's frame with a pseudo-random
    /// partner frame, persisting the position map and epoch register.
    fn oram_relocate(&mut self, slot: u64, line_writes: &mut Vec<(LineAddr, Line)>) {
        let epoch = {
            let o = self.oram.as_mut().expect("oram stacked");
            o.epoch = o
                .epoch
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            o.epoch
        };
        let mut partner = epoch % SLOT_LINES;
        if partner == slot {
            partner = (partner + 1) % SLOT_LINES;
        }
        let vs = self.oram_vframe(slot);
        let vp = self.oram_vframe(partner);
        let pa_s = self.phys_addr_of_vframe(vs);
        let pa_p = self.phys_addr_of_vframe(vp);
        let a = self.stored.read(pa_s);
        let b = self.stored.read(pa_p);
        self.stored.write(pa_s, b);
        self.stored.write(pa_p, a);
        push_write(line_writes, pa_s, b);
        push_write(line_writes, pa_p, a);
        let (l1, v1) = self.set_oram_vframe(slot, vp);
        push_write(line_writes, l1, v1);
        let (l2, v2) = self.set_oram_vframe(partner, vs);
        push_write(line_writes, l2, v2);
        let mut reg = Line::zero();
        reg.write_u64(0, epoch);
        push_write(line_writes, ORAM_REG_ADDR, reg);
    }

    /// W1: record one write with the Start-Gap remapper, performing the gap
    /// copy when due and persisting the registers.
    fn wear_record(&mut self, vframe: u64, line_writes: &mut Vec<(LineAddr, Line)>) {
        let moved = self
            .wear
            .as_mut()
            .expect("wear stacked")
            .record_write(vframe);
        if let Some((from, to)) = moved {
            let fa_from = frame_data_addr(from);
            let fa_to = frame_data_addr(to);
            let v = self.stored.read(fa_from);
            self.stored.write(fa_to, v);
            push_write(line_writes, fa_to, v);
        }
        let regs = self.wear.as_ref().expect("wear stacked").save();
        let mut reg_line = Line::zero();
        for (i, r) in regs.iter().enumerate() {
            reg_line.write_u64(i * 8, *r);
        }
        push_write(line_writes, WEAR_REG_ADDR, reg_line);
    }

    /// Merkle-updates the leaf of a dirty metadata line (no-op without
    /// integrity).
    fn touch_leaf(&mut self, mline: LineAddr, mval: &Line) {
        if let Some(tree) = &mut self.tree {
            tree.update_leaf(leaf_index_of_meta_line(mline), mval);
        }
    }

    /// Applies a logical-line write through the stack's transforms and
    /// returns the NVM effects to persist.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is outside the data region.
    pub fn write(&mut self, logical: LineAddr, data: Line) -> WriteEffects {
        assert!(logical.0 < DATA_LINES, "write outside data region");
        let mut line_writes = std::mem::take(&mut self.spare);
        line_writes.clear();

        // Release the line's previous value (refcount drop; D3 prelude).
        // Without dedup a line owns its identity slot forever, so there is
        // nothing to release.
        let mut freed_slot = None;
        if self.caps.dedup {
            if let MetaEntry::Remap(old) = self.meta.logical(logical) {
                if self.dedup.as_mut().expect("dedup stacked").release(old) {
                    freed_slot = Some(old);
                    *self.aux.get_mut(old) = SlotAux::default();
                    let fa = self.frame_addr_of_slot(old);
                    self.stored.write(fa, Line::zero());
                    push_write(&mut line_writes, fa, Line::zero());
                    push_write(&mut line_writes, mac_addr_of_slot(old), Line::zero());
                    let (mline, mval) = self.meta.set_slot(old, MetaEntry::Empty);
                    self.touch_leaf(mline, &mval);
                    push_write(&mut line_writes, mline, mval);
                }
            }
        }

        // D1 + D2: look up (identity slot without dedup).
        let (dup, slot) = match &mut self.dedup {
            Some(d) => {
                let outcome = d.lookup(&data);
                (outcome.is_duplicate(), outcome.slot())
            }
            None => (false, logical.0),
        };

        if !dup {
            // O1 then W1: relocation happens before the store so the
            // payload lands in its final frame.
            if self.caps.oram {
                self.oram_relocate(slot, &mut line_writes);
            }
            if self.caps.wear {
                let vframe = self.oram_vframe(slot);
                self.wear_record(vframe, &mut line_writes);
            }

            let counter = self.next_counter;
            self.next_counter += 1;

            // C1: compress the payload before any cipher stage.
            let (payload, comp_tag) = if self.caps.compress {
                let c = compress(&data);
                let mut l = Line::zero();
                l.write_bytes(0, &c.bytes);
                (l, c.scheme.tag())
            } else {
                (data, 0)
            };

            // E1–E4: encrypt + MAC; without encryption a keyless MAC still
            // binds the stored payload to its counter when integrity is
            // stacked.
            let (stored_line, mac) = match &self.enc {
                Some(enc) => {
                    let w = enc.encrypt_slot_with_counter(slot, counter, &payload);
                    (w.cipher, Some(w.mac))
                }
                None if self.caps.merkle => (payload, Some(line_mac(payload.as_bytes(), counter))),
                None => (payload, None),
            };

            let fa = self.frame_addr_of_slot(slot);
            self.stored.write(fa, stored_line);
            push_write(&mut line_writes, fa, stored_line);
            *self.aux.get_mut(slot) = SlotAux { mac, comp_tag };

            // Auxiliary line: MAC ‖ SECDED check bytes ‖ compression tag.
            if mac.is_some() || self.caps.ecc || self.caps.compress {
                let mut aux_line = Line::zero();
                if let Some(m) = &mac {
                    aux_line.write_bytes(0, m);
                }
                if self.caps.ecc {
                    for (i, c) in crate::ecc::encode_line(&stored_line).iter().enumerate() {
                        aux_line.write_bytes(AUX_ECC_OFFSET + i, &[c.0]);
                    }
                }
                if self.caps.compress {
                    aux_line.write_bytes(AUX_COMP_TAG_OFFSET, &[comp_tag]);
                }
                push_write(&mut line_writes, mac_addr_of_slot(slot), aux_line);
            }

            // Slot counter metadata + I1–I3.
            let (mline, mval) = self.meta.set_slot(slot, MetaEntry::Counter(counter));
            self.touch_leaf(mline, &mval);
            push_write(&mut line_writes, mline, mval);
        }

        // D3 + D4: record the logical mapping; I1–I3 over the meta line.
        let (mline, mval) = self.meta.set_logical(logical, MetaEntry::Remap(slot));
        self.touch_leaf(mline, &mval);
        push_write(&mut line_writes, mline, mval);

        WriteEffects {
            dup,
            slot,
            freed_slot,
            line_writes,
        }
    }

    /// Hands a consumed [`WriteEffects`]'s line-write buffer back to the
    /// pipeline so the next [`BmoPipeline::write`] reuses its allocation.
    pub fn recycle(&mut self, fx: WriteEffects) {
        if fx.line_writes.capacity() > self.spare.capacity() {
            self.spare = fx.line_writes;
        }
    }

    /// Decompresses a stored payload when compression is stacked.
    fn expand(&self, slot: u64, payload: Line) -> Line {
        if !self.caps.compress {
            return payload;
        }
        let tag = self.aux.get(slot).map_or(0, |a| a.comp_tag);
        let scheme = Scheme::from_tag(tag).expect("valid scheme tag");
        decompress(&Compressed {
            scheme,
            bytes: payload.as_bytes()[..scheme.size()].to_vec(),
        })
    }

    /// Reads a logical line without integrity checks (fast path used by the
    /// simulator's load handling; unwritten lines read zero).
    pub fn read(&self, logical: LineAddr) -> Line {
        match self.meta.logical(logical) {
            MetaEntry::Empty => Line::zero(),
            MetaEntry::Remap(slot) => match self.meta.slot(slot) {
                MetaEntry::Counter(c) => {
                    let stored = self.stored.read(self.frame_addr_of_slot(slot));
                    let payload = match &self.enc {
                        Some(enc) => enc.decrypt_slot(slot, c, &stored),
                        None => stored,
                    };
                    self.expand(slot, payload)
                }
                other => panic!("remap target {slot} has no counter: {other:?}"),
            },
            MetaEntry::Counter(_) => panic!("logical line {logical} holds a counter entry"),
        }
    }

    /// Reads a logical line with every stacked verification: Merkle check
    /// of both metadata leaves (integrity), MAC check of the stored payload
    /// (encryption or integrity), then decrypt + decompress.
    ///
    /// # Errors
    ///
    /// Returns an [`IntegrityError`] describing the first check that failed.
    pub fn read_verified(&self, logical: LineAddr) -> Result<Line, IntegrityError> {
        let lloc = meta_loc_of_logical(logical);
        if let Some(tree) = &self.tree {
            if !tree.verify_leaf(
                leaf_index_of_meta_line(lloc.line),
                &self.meta.line(lloc.line),
            ) {
                return Err(IntegrityError::TamperedMetadata { line: lloc.line });
            }
        }
        match self.meta.logical(logical) {
            MetaEntry::Empty => Ok(Line::zero()),
            MetaEntry::Counter(_) => Err(IntegrityError::MetadataCorrupt {
                what: format!("logical line {logical} holds a counter entry"),
            }),
            MetaEntry::Remap(slot) => {
                let sloc = meta_loc_of_slot(slot);
                if let Some(tree) = &self.tree {
                    if !tree.verify_leaf(
                        leaf_index_of_meta_line(sloc.line),
                        &self.meta.line(sloc.line),
                    ) {
                        return Err(IntegrityError::TamperedMetadata { line: sloc.line });
                    }
                }
                let counter = match self.meta.slot(slot) {
                    MetaEntry::Counter(c) => c,
                    other => {
                        return Err(IntegrityError::MetadataCorrupt {
                            what: format!("remap target {slot} holds {other:?}"),
                        })
                    }
                };
                let stored = self.stored.read(self.frame_addr_of_slot(slot));
                if self.caps.encrypt || self.caps.merkle {
                    let mac = self.aux.get(slot).and_then(|a| a.mac).unwrap_or([0; 20]);
                    if line_mac(stored.as_bytes(), counter) != mac {
                        return Err(IntegrityError::MacMismatch { slot });
                    }
                }
                let payload = match &self.enc {
                    Some(enc) => enc.decrypt_slot(slot, counter, &stored),
                    None => stored,
                };
                Ok(self.expand(slot, payload))
            }
        }
    }

    /// The current Merkle root (what the secure register should hold;
    /// all-zero when integrity is not stacked).
    pub fn root(&self) -> NodeHash {
        match &self.tree {
            Some(tree) => tree.root(),
            None => [0u8; 20],
        }
    }

    /// Non-mutating prediction of the dedup outcome for `data`: `Some(slot)`
    /// when a write of this value would be detected as a duplicate of
    /// `slot`. Used by pre-execution (which must not change memory state).
    pub fn predict_dup(&self, data: &Line) -> Option<u64> {
        self.dedup.as_ref().and_then(|d| d.peek(data))
    }

    /// The slot a logical line currently maps to, if any.
    pub fn slot_of(&self, logical: LineAddr) -> Option<u64> {
        match self.meta.logical(logical) {
            MetaEntry::Remap(slot) => Some(slot),
            _ => None,
        }
    }

    /// The physical NVM address currently holding a logical line's payload
    /// (through the ORAM/wear frame indirection), if the line was written.
    pub fn data_addr_of(&self, logical: LineAddr) -> Option<LineAddr> {
        self.slot_of(logical).map(|s| self.frame_addr_of_slot(s))
    }

    /// Rebuilds a default-stack (paper trio) pipeline from the persistent
    /// domain after a crash. See [`BmoPipeline::recover_stack`].
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError::RootMismatch`] when the persisted metadata
    /// does not match the secure register (torn metadata / tampering), or
    /// the first MAC / structural error found.
    pub fn recover(
        persist: &LineStore,
        key: [u8; 16],
        secure_root: NodeHash,
    ) -> Result<Self, IntegrityError> {
        Self::recover_stack(&BmoStack::paper(), persist, key, secure_root)
    }

    /// Rebuilds a pipeline for the given stack from the persistent domain.
    ///
    /// Parses the metadata region; when integrity is stacked, recomputes
    /// the Merkle root and compares it against `secure_root`; restores the
    /// Start-Gap registers and ORAM position map when stacked; then per
    /// slot: SECDED-corrects the stored payload (ECC), verifies its MAC
    /// (encryption/integrity), decrypts (encryption), decompresses
    /// (compression), and rebuilds the dedup key table and refcounts
    /// (dedup).
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError::RootMismatch`] on a secure-register
    /// mismatch, or the first MAC / structural error found.
    pub fn recover_stack(
        stack: &BmoStack,
        persist: &LineStore,
        key: [u8; 16],
        secure_root: NodeHash,
    ) -> Result<Self, IntegrityError> {
        let caps = Caps::of(stack);

        // Collect metadata-region lines.
        let meta_lines: LineStore = persist
            .iter()
            .filter(|(a, _)| (META_BASE..META_BASE + META_LINES).contains(&a.0))
            .map(|(a, l)| (a, *l))
            .collect();
        let meta = MetadataStore::from_lines(meta_lines);

        // Recompute the tree and check the root (integrity only).
        let tree = if caps.merkle {
            let tree = MerkleTree::from_leaves(
                TREE_HEIGHT,
                meta.lines()
                    .iter()
                    .map(|(a, l)| (leaf_index_of_meta_line(a), *l)),
            );
            if tree.root() != secure_root {
                return Err(IntegrityError::RootMismatch);
            }
            Some(tree)
        } else {
            None
        };

        // Start-Gap registers (all-zero register line = never moved).
        let wear = if caps.wear {
            let reg = persist.read(WEAR_REG_ADDR);
            if reg.is_zero() {
                Some(StartGap::new(SLOT_LINES, WEAR_INTERVAL))
            } else {
                let mut regs = [0u64; 6];
                for (i, r) in regs.iter_mut().enumerate() {
                    *r = reg.read_u64(i * 8);
                }
                Some(StartGap::restore(regs))
            }
        } else {
            None
        };

        // ORAM epoch + position map.
        let oram = if caps.oram {
            let epoch = persist.read(ORAM_REG_ADDR).read_u64(0);
            let map_lines = SLOT_LINES / ENTRIES_PER_LINE;
            let map: LineStore = persist
                .iter()
                .filter(|(a, _)| (ORAM_MAP_BASE..ORAM_MAP_BASE + map_lines).contains(&a.0))
                .map(|(a, l)| (a, *l))
                .collect();
            Some(OramState { epoch, map })
        } else {
            None
        };

        // Refcounts: how many logical lines point at each slot. Ordered, so
        // the missing-slot check below reports the lowest dangling slot.
        let mut refcounts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (_, entry) in meta.iter_logical() {
            match entry {
                MetaEntry::Remap(slot) => *refcounts.entry(slot).or_insert(0) += 1,
                other => {
                    return Err(IntegrityError::MetadataCorrupt {
                        what: format!("logical entry is {other:?}"),
                    })
                }
            }
        }

        let mut p = BmoPipeline {
            stack: stack.clone(),
            caps,
            meta,
            tree,
            dedup: caps.dedup.then(DedupStore::new),
            enc: caps.encrypt.then(|| EncryptionEngine::new(key)),
            next_counter: 1,
            stored: LineStore::new(),
            aux: SlotTable::default(),
            wear,
            oram,
            spare: Vec::new(),
        };

        // Rebuild slots: ECC-correct, MAC-check, decrypt, decompress,
        // re-register with dedup.
        let mut max_counter = 0u64;
        let slots: Vec<(u64, MetaEntry)> = p.meta.iter_slots().collect();
        for (slot, entry) in slots {
            let counter = match entry {
                MetaEntry::Counter(c) => c,
                other => {
                    return Err(IntegrityError::MetadataCorrupt {
                        what: format!("slot {slot} entry is {other:?}"),
                    })
                }
            };
            max_counter = max_counter.max(counter);
            let fa = p.frame_addr_of_slot(slot);
            let raw = persist.read(fa);
            let aux_line = persist.read(mac_addr_of_slot(slot));
            // Run the payload through SECDED first: single-bit NVM faults
            // are corrected transparently; multi-bit damage falls through
            // to the MAC check (ECC never *hides* tampering — the MAC is
            // still verified on whatever ECC reconstructs).
            let stored_line = if caps.ecc {
                let mut checks = [crate::ecc::Check(0); 8];
                for (k, c) in checks.iter_mut().enumerate() {
                    *c = crate::ecc::Check(aux_line.as_bytes()[AUX_ECC_OFFSET + k]);
                }
                match crate::ecc::decode_line(&raw, &checks) {
                    Some((fixed, _corrected)) => fixed,
                    None => raw, // uncorrectable: let the MAC reject it
                }
            } else {
                raw
            };
            let mac = if caps.encrypt || caps.merkle {
                let mac: [u8; 20] = aux_line.as_bytes()[0..20].try_into().expect("20 bytes");
                if line_mac(stored_line.as_bytes(), counter) != mac {
                    return Err(IntegrityError::MacMismatch { slot });
                }
                Some(mac)
            } else {
                None
            };
            let payload = match &p.enc {
                Some(enc) => enc.decrypt_slot(slot, counter, &stored_line),
                None => stored_line,
            };
            let comp_tag = aux_line.as_bytes()[AUX_COMP_TAG_OFFSET];
            let plain = if caps.compress {
                let scheme =
                    Scheme::from_tag(comp_tag).ok_or_else(|| IntegrityError::MetadataCorrupt {
                        what: format!("slot {slot} has invalid compression tag {comp_tag}"),
                    })?;
                decompress(&Compressed {
                    scheme,
                    bytes: payload.as_bytes()[..scheme.size()].to_vec(),
                })
            } else {
                payload
            };
            let refs = refcounts.get(&slot).copied().unwrap_or(0);
            if refs == 0 {
                // Leaked slot (possible only without metadata atomicity);
                // drop it rather than resurrect garbage.
                continue;
            }
            if let Some(d) = &mut p.dedup {
                d.recover_slot(slot, plain, refs);
            }
            p.stored.write(fa, stored_line);
            *p.aux.get_mut(slot) = SlotAux { mac, comp_tag };
        }

        // Every referenced slot must exist.
        for &slot in refcounts.keys() {
            if !matches!(p.meta.slot(slot), MetaEntry::Counter(_)) {
                return Err(IntegrityError::MetadataCorrupt {
                    what: format!("logical lines reference missing slot {slot}"),
                });
            }
        }
        p.next_counter = max_counter + 1;

        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::slot_data_addr;
    use crate::stack::BmoId;

    fn pipeline() -> BmoPipeline {
        BmoPipeline::new()
    }

    fn pipeline_for(stack: &BmoStack) -> BmoPipeline {
        BmoPipeline::for_stack_with_key(stack, DEFAULT_KEY)
    }

    fn stack_of(ids: &[BmoId]) -> BmoStack {
        BmoStack::new(ids.iter().copied()).expect("valid stack")
    }

    /// Applies effects to a persistent store plus root register, as the MC
    /// does at write-queue acceptance.
    fn persist(p: &BmoPipeline, fx: &WriteEffects, store: &mut LineStore, root: &mut NodeHash) {
        for (a, l) in &fx.line_writes {
            store.write(*a, *l);
        }
        *root = p.root();
    }

    /// Writes a workload through a stack's pipeline, crashes (keeps only
    /// the persisted lines + root), recovers, and verifies every line.
    fn crash_recover_verify(stack: &BmoStack, lines: u64) {
        let mut p = pipeline_for(stack);
        let mut store = LineStore::new();
        let mut root = p.root();
        let value = |i: u64| Line::from_words(&[i % 5, i * 3, 0xABCD]);
        for i in 0..lines * 3 {
            let fx = p.write(LineAddr(i % lines), value(i));
            persist(&p, &fx, &mut store, &mut root);
        }
        let r = BmoPipeline::recover_stack(stack, &store, DEFAULT_KEY, root)
            .unwrap_or_else(|e| panic!("recovery under stack [{stack}]: {e}"));
        for i in 0..lines {
            let expect = p.read(LineAddr(i));
            assert_eq!(r.read(LineAddr(i)), expect, "stack [{stack}] line {i}");
            assert_eq!(
                r.read_verified(LineAddr(i)).expect("verified"),
                expect,
                "stack [{stack}] verified line {i}"
            );
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut p = pipeline();
        let data = Line::from_words(&[11, 22, 33]);
        p.write(LineAddr(5), data);
        assert_eq!(p.read(LineAddr(5)), data);
        assert_eq!(p.read_verified(LineAddr(5)).unwrap(), data);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let p = pipeline();
        assert_eq!(p.read(LineAddr(9)), Line::zero());
        assert_eq!(p.read_verified(LineAddr(9)).unwrap(), Line::zero());
    }

    #[test]
    fn duplicate_write_shares_slot_and_skips_data_write() {
        let mut p = pipeline();
        let fx1 = p.write(LineAddr(1), Line::splat(7));
        let fx2 = p.write(LineAddr(2), Line::splat(7));
        assert!(!fx1.dup);
        assert!(fx2.dup);
        assert_eq!(fx1.slot, fx2.slot);
        // Duplicate write touches only its logical metadata line.
        assert_eq!(fx2.line_writes.len(), 1);
        assert!(fx1.line_writes.len() >= 3); // payload + aux + 2 meta lines (may share)
        assert_eq!(p.read(LineAddr(1)), p.read(LineAddr(2)));
    }

    #[test]
    fn overwrite_releases_previous_value() {
        let mut p = pipeline();
        let fx1 = p.write(LineAddr(1), Line::splat(1));
        let fx2 = p.write(LineAddr(1), Line::splat(2));
        assert_eq!(fx2.freed_slot, Some(fx1.slot));
        assert_eq!(p.read(LineAddr(1)), Line::splat(2));
    }

    #[test]
    fn overwrite_of_shared_value_keeps_it_for_other_referrers() {
        let mut p = pipeline();
        p.write(LineAddr(1), Line::splat(1));
        p.write(LineAddr(2), Line::splat(1)); // shares slot
        let fx = p.write(LineAddr(1), Line::splat(2));
        assert_eq!(fx.freed_slot, None, "slot still referenced by line 2");
        assert_eq!(p.read(LineAddr(2)), Line::splat(1));
        assert_eq!(p.read(LineAddr(1)), Line::splat(2));
    }

    #[test]
    fn effects_fully_describe_persistence() {
        // Replaying only `line_writes` into an empty store must allow full
        // recovery with identical reads.
        let mut p = pipeline();
        let mut store = LineStore::new();
        let mut root = p.root();
        for i in 0..20u64 {
            let fx = p.write(LineAddr(i % 7), Line::from_words(&[i % 3, i]));
            persist(&p, &fx, &mut store, &mut root);
        }
        let r = BmoPipeline::recover(&store, DEFAULT_KEY, root).expect("recovery succeeds");
        for i in 0..7u64 {
            assert_eq!(
                r.read_verified(LineAddr(i)).unwrap(),
                p.read(LineAddr(i)),
                "line {i}"
            );
        }
    }

    #[test]
    fn recovery_detects_root_mismatch() {
        let mut p = pipeline();
        let mut store = LineStore::new();
        let mut root = p.root();
        let fx = p.write(LineAddr(1), Line::splat(3));
        persist(&p, &fx, &mut store, &mut root);
        // Torn metadata: drop one persisted meta line.
        let meta_line = fx
            .line_writes
            .iter()
            .find(|(a, _)| (META_BASE..META_BASE + META_LINES).contains(&a.0))
            .expect("write touched metadata")
            .0;
        store.write(meta_line, Line::zero());
        let err = BmoPipeline::recover(&store, DEFAULT_KEY, root).expect_err("must detect");
        assert_eq!(err, IntegrityError::RootMismatch);
    }

    #[test]
    fn recovery_corrects_single_bit_nvm_faults() {
        // A single stuck/flipped cell in the ciphertext is a *device*
        // fault, not tampering: with ECC stacked, SECDED corrects it and
        // recovery succeeds.
        let stack = stack_of(&[
            BmoId::Encryption,
            BmoId::Integrity,
            BmoId::Dedup,
            BmoId::Ecc,
        ]);
        let mut p = pipeline_for(&stack);
        let mut store = LineStore::new();
        let mut root = p.root();
        let fx = p.write(LineAddr(1), Line::splat(3));
        persist(&p, &fx, &mut store, &mut root);
        let slot_addr = slot_data_addr(fx.slot);
        let mut ct = store.read(slot_addr);
        ct.0[5] ^= 1;
        store.write(slot_addr, ct);
        let r = BmoPipeline::recover_stack(&stack, &store, DEFAULT_KEY, root)
            .expect("ECC corrects a single-bit fault");
        assert_eq!(r.read_verified(LineAddr(1)).unwrap(), Line::splat(3));
    }

    #[test]
    fn recovery_detects_multibit_tampering() {
        // Beyond SECDED's reach (bits in several words), the MAC rejects.
        let stack = stack_of(&[
            BmoId::Encryption,
            BmoId::Integrity,
            BmoId::Dedup,
            BmoId::Ecc,
        ]);
        let mut p = pipeline_for(&stack);
        let mut store = LineStore::new();
        let mut root = p.root();
        let fx = p.write(LineAddr(1), Line::splat(3));
        persist(&p, &fx, &mut store, &mut root);
        let slot_addr = slot_data_addr(fx.slot);
        let mut ct = store.read(slot_addr);
        ct.0[5] ^= 0xFF;
        ct.0[13] ^= 0xFF;
        ct.0[47] ^= 0xFF;
        store.write(slot_addr, ct);
        let err =
            BmoPipeline::recover_stack(&stack, &store, DEFAULT_KEY, root).expect_err("must detect");
        assert_eq!(err, IntegrityError::MacMismatch { slot: fx.slot });
    }

    #[test]
    fn without_ecc_single_bit_fault_is_rejected_not_corrected() {
        // The default stack has no ECC: the same single-bit fault that the
        // ECC stack corrects must be *detected* by the MAC instead.
        let mut p = pipeline();
        let mut store = LineStore::new();
        let mut root = p.root();
        let fx = p.write(LineAddr(1), Line::splat(3));
        persist(&p, &fx, &mut store, &mut root);
        let slot_addr = slot_data_addr(fx.slot);
        let mut ct = store.read(slot_addr);
        ct.0[5] ^= 1;
        store.write(slot_addr, ct);
        let err = BmoPipeline::recover(&store, DEFAULT_KEY, root).expect_err("no ECC stacked");
        assert_eq!(err, IntegrityError::MacMismatch { slot: fx.slot });
    }

    #[test]
    fn verified_read_detects_in_memory_tamper() {
        let mut p = pipeline();
        let fx = p.write(LineAddr(1), Line::splat(3));
        // Tamper with the volatile payload mirror.
        let addr = slot_data_addr(fx.slot);
        let mut ct = p.stored.read(addr);
        ct.0[0] ^= 0xFF;
        p.stored.write(addr, ct);
        assert!(matches!(
            p.read_verified(LineAddr(1)),
            Err(IntegrityError::MacMismatch { .. })
        ));
    }

    #[test]
    fn dedup_ratio_visible_in_stats() {
        // The write effects carry the dedup outcome the controller counts.
        let mut p = pipeline();
        let dups: Vec<bool> = (0..10)
            .map(|i| p.write(LineAddr(i), Line::splat(42)).dup)
            .collect();
        assert_eq!(dups.iter().filter(|&&d| d).count(), 9, "1 fresh + 9 dups");
        assert!(!dups[0], "the first write stores the value");
    }

    #[test]
    fn crc32_pipeline_round_trips() {
        // The fingerprint algorithm sets D1's latency only: a CRC-32
        // pipeline writes exactly what the default one does.
        let mut p = BmoPipeline::for_stack(&BmoStack::paper(), FingerprintAlgo::Crc32);
        let mut q = pipeline();
        for i in 0..50u64 {
            let value = Line::from_words(&[i % 7, i % 3]);
            let (a, b) = (
                p.write(LineAddr(i % 20), value),
                q.write(LineAddr(i % 20), value),
            );
            assert_eq!((a.dup, a.slot, a.freed_slot), (b.dup, b.slot, b.freed_slot));
            assert_eq!(a.line_writes, b.line_writes, "write {i}");
        }
        for i in 0..20u64 {
            assert_eq!(p.read_verified(LineAddr(i)).unwrap(), q.read(LineAddr(i)));
        }
    }

    #[test]
    fn root_changes_on_every_fresh_write() {
        let mut p = pipeline();
        let r0 = p.root();
        p.write(LineAddr(1), Line::splat(1));
        let r1 = p.root();
        assert_ne!(r1, r0);
        p.write(LineAddr(2), Line::splat(2));
        assert_ne!(p.root(), r1);
    }

    #[test]
    fn recovery_of_empty_system() {
        let store = LineStore::new();
        let p = pipeline();
        let r = BmoPipeline::recover(&store, DEFAULT_KEY, p.root()).expect("empty recovery");
        assert_eq!(r.read(LineAddr(0)), Line::zero());
    }

    #[test]
    fn single_bmo_stacks_round_trip_through_recovery() {
        for ids in [
            &[BmoId::Encryption][..],
            &[BmoId::Integrity][..],
            &[BmoId::Dedup][..],
            &[BmoId::Compression][..],
        ] {
            crash_recover_verify(&stack_of(ids), 9);
        }
    }

    #[test]
    fn empty_stack_is_raw_nvm() {
        crash_recover_verify(&BmoStack::new([]).unwrap(), 6);
    }

    #[test]
    fn wear_and_oram_stacks_round_trip_through_recovery() {
        // Enough writes to force several Start-Gap moves (interval 64) and
        // many ORAM swaps, across frame indirection layers.
        for ids in [
            &[BmoId::WearLeveling][..],
            &[BmoId::Oram][..],
            &[BmoId::Oram, BmoId::WearLeveling][..],
            &[
                BmoId::Encryption,
                BmoId::Integrity,
                BmoId::Oram,
                BmoId::WearLeveling,
            ][..],
        ] {
            crash_recover_verify(&stack_of(ids), 40);
        }
    }

    #[test]
    fn all_seven_stack_round_trips_through_recovery() {
        crash_recover_verify(&BmoStack::all(), 40);
    }

    #[test]
    fn extended_stack_round_trips_through_recovery() {
        crash_recover_verify(&BmoStack::extended(), 12);
    }

    #[test]
    fn integrity_without_encryption_detects_payload_tamper() {
        // The keyless MAC binds the plaintext payload to its counter.
        let stack = stack_of(&[BmoId::Integrity]);
        let mut p = pipeline_for(&stack);
        let mut store = LineStore::new();
        let mut root = p.root();
        let fx = p.write(LineAddr(1), Line::splat(9));
        persist(&p, &fx, &mut store, &mut root);
        let mut v = store.read(slot_data_addr(fx.slot));
        v.0[0] ^= 0xFF;
        store.write(slot_data_addr(fx.slot), v);
        let err = BmoPipeline::recover_stack(&stack, &store, DEFAULT_KEY, root)
            .expect_err("tamper must be caught");
        assert_eq!(err, IntegrityError::MacMismatch { slot: fx.slot });
    }

    #[test]
    fn compression_stores_compressed_payload() {
        let stack = stack_of(&[BmoId::Compression]);
        let mut p = pipeline_for(&stack);
        let data = Line::splat(7); // Repeat8: compresses to 9 bytes
        let fx = p.write(LineAddr(1), data);
        let stored = p.stored.read(slot_data_addr(fx.slot));
        assert_ne!(stored, data, "payload is stored compressed");
        assert_eq!(p.read(LineAddr(1)), data, "round-trips through decompress");
    }

    #[test]
    fn wear_leveling_migrates_hot_frames() {
        // The Start-Gap gap starts at the spare frame and walks downward,
        // so the first line it displaces is the top slot.
        let stack = stack_of(&[BmoId::WearLeveling]);
        let mut p = pipeline_for(&stack);
        let top = LineAddr(SLOT_LINES - 1);
        let marker = Line::from_words(&[0xFEED]);
        p.write(top, marker);
        let first = p.data_addr_of(top).expect("written");
        // Hot line 0: enough writes to trigger a gap move past the top slot.
        for i in 0..WEAR_INTERVAL * 2 {
            p.write(LineAddr(0), Line::from_words(&[i]));
        }
        let after = p.data_addr_of(top).expect("still mapped");
        assert_ne!(first, after, "gap move must relocate the top frame");
        assert_eq!(p.read(top), marker, "content follows the gap copy");
        assert_eq!(
            p.read(LineAddr(0)),
            Line::from_words(&[WEAR_INTERVAL * 2 - 1])
        );
    }

    #[test]
    fn oram_relocates_frames_on_fresh_writes() {
        let stack = stack_of(&[BmoId::Oram]);
        let mut p = pipeline_for(&stack);
        p.write(LineAddr(3), Line::splat(1));
        let a0 = p.data_addr_of(LineAddr(3)).unwrap();
        // Every fresh write relocates; after several the frame has moved.
        let mut moved = false;
        for i in 0..8u64 {
            p.write(LineAddr(3), Line::from_words(&[i + 2]));
            if p.data_addr_of(LineAddr(3)).unwrap() != a0 {
                moved = true;
            }
        }
        assert!(moved, "ORAM never relocated the frame");
        assert_eq!(p.read(LineAddr(3)), Line::from_words(&[9]));
    }

    /// The counter a fresh write stored in its slot's metadata entry.
    fn counter_of(p: &BmoPipeline, fx: &WriteEffects) -> u64 {
        match p.meta.slot(fx.slot) {
            MetaEntry::Counter(c) => c,
            other => panic!("slot {} holds {other:?}", fx.slot),
        }
    }

    #[test]
    fn counters_are_unique_and_nonzero() {
        let mut p = pipeline();
        let a = p.write(LineAddr(1), Line::splat(1));
        let a = counter_of(&p, &a);
        let b = p.write(LineAddr(1), Line::splat(2));
        let b = counter_of(&p, &b);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_floor_after_recovery() {
        let mut p = pipeline();
        let mut store = LineStore::new();
        let mut root = p.root();
        let mut highest = 0;
        for i in 0..5u64 {
            let fx = p.write(LineAddr(i), Line::splat(i as u8 + 1));
            highest = highest.max(counter_of(&p, &fx));
            persist(&p, &fx, &mut store, &mut root);
        }
        let mut r = BmoPipeline::recover(&store, DEFAULT_KEY, root).expect("recovery succeeds");
        let fx = r.write(LineAddr(9), Line::splat(77));
        assert!(counter_of(&r, &fx) > highest, "recovered counter reused");
    }

    #[test]
    fn recovery_reports_lowest_dangling_slot() {
        // Two logical lines remap to slots that hold no counter. The
        // error must name the lower slot on every run.
        let mut meta = MetadataStore::new();
        let mut store = LineStore::new();
        for (logical, slot) in [(1, 9), (2, 4), (3, 700)] {
            let (line, value) = meta.set_logical(LineAddr(logical), MetaEntry::Remap(slot));
            store.write(line, value);
        }
        let err =
            BmoPipeline::recover_stack(&stack_of(&[BmoId::Dedup]), &store, DEFAULT_KEY, [0; 20])
                .expect_err("dangling remaps");
        assert_eq!(
            err,
            IntegrityError::MetadataCorrupt {
                what: "logical lines reference missing slot 4".into()
            }
        );
    }

    #[test]
    fn sparse_top_slot_allocates_one_aux_page() {
        // Without dedup the top logical line is the top slot: its
        // auxiliary state costs one page, not a table over every slot.
        let mut p = pipeline_for(&stack_of(&[BmoId::WearLeveling]));
        p.write(LineAddr(SLOT_LINES - 1), Line::splat(1));
        let (pages, directory) = p.aux.footprint();
        let bytes = directory * std::mem::size_of::<Option<Box<[SlotAux]>>>()
            + pages * crate::slots::PAGE * std::mem::size_of::<SlotAux>();
        assert_eq!(pages, 1);
        assert!(bytes < 1 << 20, "{bytes} bytes of auxiliary state");
    }
}
