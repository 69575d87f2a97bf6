//! The undo-logging transaction runtime (§2.1) and its instrumentation.
//!
//! "An undo log transaction typically has three steps: (1) creating a backup
//! of the old data, (2) updating in-place and (3) committing the
//! transaction. The backup needs to be written back to NVM before the
//! actual in-place update happens; the in-place update needs to be written
//! back before committing the transaction."
//!
//! [`WorkloadCtx`] wraps a [`ProgramBuilder`] with that protocol, the
//! per-core persistent-heap layout, an expected-final-state recorder used by
//! the functional tests, and the two instrumentation styles of the
//! evaluation:
//!
//! * [`Instrumentation::Manual`] — the workload author places `PRE_*` calls
//!   at the earliest points where the address/data of each write is
//!   architecturally known (Figure 8).
//! * [`Instrumentation::None`] — no interface calls; only provenance
//!   markers are emitted, which either serve the automated compiler pass
//!   (`janus-instrument`) or are ignored by the baselines.

use std::collections::HashMap;

use janus_core::ir::{PreObjId, Program, ProgramBuilder};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;

use crate::pmem::{PmemHeap, COMMIT_LINES, LOG_LINES};

/// How a workload issues pre-execution requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Instrumentation {
    /// Markers only (baselines / input to the automated pass).
    #[default]
    None,
    /// Hand-placed `PRE_*` calls (the paper's "Janus (Manual)").
    Manual,
}

/// Magic word marking a valid commit record.
pub const COMMIT_MAGIC: u64 = 0xC0_FF_EE;

/// Transaction-begin bookkeeping cost (allocator, tx descriptor setup —
/// common to every undo-log runtime).
pub const TX_BOOKKEEPING: u32 = 1300;

/// Builder context shared by all workload generators.
#[derive(Debug)]
pub struct WorkloadCtx {
    /// The underlying program builder (workloads may use it directly for
    /// loads/compute/markers).
    pub b: ProgramBuilder,
    /// The per-core persistent heap.
    pub heap: PmemHeap,
    /// Final expected value of every line written (functional oracle).
    pub expected: LineStore,
    mode: Instrumentation,
    log_cursor: u64,
    tx_serial: u64,
    objs: HashMap<usize, PreObjId>,
}

impl WorkloadCtx {
    /// Creates a context for `core` with the given instrumentation.
    pub fn new(core: usize, mode: Instrumentation) -> Self {
        WorkloadCtx {
            b: ProgramBuilder::new(),
            heap: PmemHeap::for_core(core),
            expected: LineStore::new(),
            mode,
            log_cursor: 0,
            tx_serial: 0,
            objs: HashMap::new(),
        }
    }

    /// The instrumentation mode.
    pub fn mode(&self) -> Instrumentation {
        self.mode
    }

    /// Emits a load.
    pub fn load(&mut self, line: LineAddr) {
        self.b.load(line);
    }

    /// Emits computation.
    pub fn compute(&mut self, cycles: u32) {
        self.b.compute(cycles);
    }

    /// The current value of a line per the recorded expected state.
    pub fn current(&self, line: LineAddr) -> Line {
        self.expected.read(line)
    }

    fn obj_for(&mut self, key: usize) -> PreObjId {
        if let Some(&obj) = self.objs.get(&key) {
            return obj;
        }
        let obj = self.b.pre_init();
        self.objs.insert(key, obj);
        obj
    }

    // ------------------------------------------------------------------
    // Declarations: provenance markers + (manual) PRE calls
    // ------------------------------------------------------------------

    /// Both address and data of a future write under `key` became known.
    pub fn declare_both(&mut self, key: usize, line: LineAddr, values: &[Line]) {
        self.b.addr_gen(line, values.len() as u32);
        self.b.data_gen(line, values.to_vec());
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_both(obj, line, values.to_vec());
        }
    }

    /// The data of a future write under `key` became known (address still
    /// unknown — e.g. before a lookup).
    ///
    /// `eventual_line` records where the data will eventually land (the
    /// marker needs it to pair with the write; the hardware request does
    /// not carry it).
    pub fn declare_data(&mut self, key: usize, eventual_line: LineAddr, values: &[Line]) {
        self.b.data_gen(eventual_line, values.to_vec());
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_data(obj, values.to_vec());
        }
    }

    /// The address of a future write under `key` became known.
    pub fn declare_addr(&mut self, key: usize, line: LineAddr, nlines: u32) {
        self.b.addr_gen(line, nlines);
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_addr(obj, line, nlines);
        }
    }

    /// Manual-only `PRE_BOTH` without a provenance marker: used where the
    /// programmer knows the target but the static pass provably cannot
    /// (pointer-chasing loops — the RB-Tree case of §5.2.3).
    pub fn manual_pre_both(&mut self, key: usize, line: LineAddr, values: &[Line]) {
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_both(obj, line, values.to_vec());
        }
    }

    /// Manual-only `PRE_DATA` without a marker.
    pub fn manual_pre_data(&mut self, key: usize, values: &[Line]) {
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_data(obj, values.to_vec());
        }
    }

    /// Manual-only `PRE_ADDR` without a marker.
    pub fn manual_pre_addr(&mut self, key: usize, line: LineAddr, nlines: u32) {
        if self.mode == Instrumentation::Manual {
            let obj = self.obj_for(key);
            self.b.pre_addr(obj, line, nlines);
        }
    }

    // ------------------------------------------------------------------
    // Undo-logging transaction protocol
    // ------------------------------------------------------------------

    /// Line of the commit record for transaction `serial`.
    pub fn commit_line_of(&self, serial: u64) -> LineAddr {
        LineAddr(self.heap.commit_base().0 + serial % COMMIT_LINES)
    }

    /// The commit-record value for transaction `serial`.
    pub fn commit_value_of(serial: u64) -> Line {
        Line::from_words(&[serial, COMMIT_MAGIC])
    }

    /// Step 0: begin the transaction. The commit record's address and value
    /// are known immediately, so manual instrumentation pre-executes the
    /// commit write here (the `PRE_BOTH_VAL` pattern).
    ///
    /// Reserved declaration keys: `usize::MAX` (commit record) and
    /// `usize::MAX - 1` (undo log); workloads use small keys.
    pub fn begin_tx(&mut self) {
        self.objs.clear();
        self.b.tx_begin();
        self.b.compute(TX_BOOKKEEPING);
        let serial = self.tx_serial;
        let cline = self.commit_line_of(serial);
        let cval = Self::commit_value_of(serial);
        self.declare_both(usize::MAX, cline, &[cval]);
    }

    /// Step 1: back up the old values of the lines about to change. Emits
    /// the log header + one log line per backed-up line, `clwb`s and a
    /// fence. Returns the first log line used.
    pub fn backup(&mut self, entries: &[(LineAddr, Line)]) -> LineAddr {
        assert!(!entries.is_empty(), "backup of nothing");
        let lines_needed = 1 + entries.len() as u64;
        if self.log_cursor + lines_needed > LOG_LINES {
            self.log_cursor = 0; // circular log
        }
        let base = LineAddr(self.heap.log_base().0 + self.log_cursor);
        self.log_cursor += lines_needed;

        // Header: [tx_serial, n, addr0, addr1, …] (up to 6 addresses; huge
        // transactions chain headers in practice — our workloads back up at
        // most a handful of distinct objects per tx, payload lines follow).
        let mut header = vec![self.tx_serial, entries.len() as u64];
        for (addr, _) in entries.iter().take(6) {
            header.push(addr.0);
        }
        let header_line = Line::from_words(&header);

        // The log's address range and contents are known right here — the
        // window is small, but the markers keep the automated pass honest
        // about which writes it can and cannot help.
        self.b.addr_gen(base, lines_needed as u32);
        let mut log_values = vec![header_line];
        log_values.extend(entries.iter().map(|(_, old)| *old));
        self.b.data_gen(base, log_values.clone());

        for (i, v) in log_values.iter().enumerate() {
            let l = base.offset(i as u64);
            self.b.store(l, *v);
            self.expected.write(l, *v);
        }
        for i in 0..log_values.len() {
            self.b.clwb(base.offset(i as u64));
        }
        self.b.fence();
        base
    }

    /// Step 2: the in-place updates. Stores, `clwb`s, and one fence.
    pub fn update(&mut self, entries: &[(LineAddr, Line)]) {
        assert!(!entries.is_empty(), "empty update");
        for (line, value) in entries {
            self.b.store(*line, *value);
            self.expected.write(*line, *value);
        }
        for (line, _) in entries {
            self.b.clwb(*line);
        }
        self.b.fence();
    }

    /// Step 3: commit. Writes the commit record and ends the transaction.
    pub fn commit(&mut self) {
        let serial = self.tx_serial;
        let cline = self.commit_line_of(serial);
        let cval = Self::commit_value_of(serial);
        self.b.store(cline, cval);
        self.expected.write(cline, cval);
        self.b.clwb(cline);
        self.b.fence();
        self.b.tx_commit();
        self.tx_serial += 1;
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.b.build()
    }
}

/// Host-side undo-log recovery: given the post-crash readable state (a
/// closure over logical lines), determine which lines must be rolled back
/// to their logged old values.
///
/// Scans the log region for the newest transaction header; if its commit
/// record is absent, returns the `(line, old_value)` pairs to restore.
pub fn undo_recovery(core: usize, read: impl Fn(LineAddr) -> Line) -> Vec<(LineAddr, Line)> {
    let heap = PmemHeap::for_core(core);
    let log_base = heap.log_base();
    // Find the header with the largest tx serial.
    let mut newest: Option<(u64, LineAddr, u64)> = None; // (serial, header, n)
    let mut i = 0u64;
    while i < LOG_LINES {
        let line = read(log_base.offset(i));
        let serial = line.read_u64(0);
        let n = line.read_u64(8);
        if n == 0 || n > 16 || line.is_zero() {
            i += 1;
            continue;
        }
        if newest.is_none_or(|(s, _, _)| serial > s) {
            newest = Some((serial, log_base.offset(i), n));
        }
        i += 1 + n;
    }
    let Some((serial, header, n)) = newest else {
        return Vec::new();
    };
    // Committed? Check the commit record slot.
    let commit = read(LineAddr(heap.commit_base().0 + serial % COMMIT_LINES));
    if commit.read_u64(0) == serial && commit.read_u64(8) == COMMIT_MAGIC {
        return Vec::new();
    }
    // Roll back using header addresses + logged values.
    let hline = read(header);
    (0..n.min(6))
        .map(|k| {
            let addr = LineAddr(hline.read_u64(16 + 8 * k as usize));
            let old = read(header.offset(1 + k));
            (addr, old)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::Op;

    fn tx_ops(mode: Instrumentation) -> Program {
        let mut ctx = WorkloadCtx::new(0, mode);
        let target = ctx.heap.alloc(1).expect("fits");
        ctx.begin_tx();
        ctx.declare_both(0, target, &[Line::splat(2)]);
        ctx.load(target);
        ctx.backup(&[(target, Line::zero())]);
        ctx.update(&[(target, Line::splat(2))]);
        ctx.commit();
        ctx.build()
    }

    #[test]
    fn manual_mode_emits_pre_calls() {
        let manual = tx_ops(Instrumentation::Manual);
        let plain = tx_ops(Instrumentation::None);
        assert!(manual.pre_op_count() > 0);
        assert_eq!(plain.pre_op_count(), 0);
        // The interface adds requests, never writebacks.
        assert_eq!(manual.write_count(), plain.write_count());
    }

    #[test]
    fn protocol_order_backup_update_commit() {
        let p = tx_ops(Instrumentation::None);
        // Three fences per transaction: backup, update, commit.
        let fences = p.ops.iter().filter(|o| matches!(o, Op::Fence)).count();
        assert_eq!(fences, 3);
        // Writes: header + 1 log line + 1 update + 1 commit = 4 clwbs.
        assert_eq!(p.write_count(), 4);
    }

    #[test]
    fn expected_state_records_all_writes() {
        let mut ctx = WorkloadCtx::new(0, Instrumentation::None);
        let t = ctx.heap.alloc(1).expect("fits");
        ctx.begin_tx();
        ctx.backup(&[(t, Line::zero())]);
        ctx.update(&[(t, Line::splat(9))]);
        ctx.commit();
        assert_eq!(ctx.expected.read(t), Line::splat(9));
        assert_eq!(
            ctx.expected.read(ctx.commit_line_of(0)),
            WorkloadCtx::commit_value_of(0)
        );
    }

    #[test]
    fn log_wraps_around() {
        let mut ctx = WorkloadCtx::new(0, Instrumentation::None);
        let t = ctx.heap.alloc(1).expect("fits");
        for _ in 0..(LOG_LINES as usize) {
            ctx.begin_tx();
            ctx.backup(&[(t, ctx.current(t))]);
            ctx.update(&[(t, Line::splat(1))]);
            ctx.commit();
        }
        // No panic and the cursor stayed in range — the build succeeds.
        let p = ctx.build();
        assert!(p.write_count() > 0);
    }

    #[test]
    fn recovery_noop_when_committed() {
        let mut ctx = WorkloadCtx::new(0, Instrumentation::None);
        let t = ctx.heap.alloc(1).expect("fits");
        ctx.begin_tx();
        ctx.backup(&[(t, Line::zero())]);
        ctx.update(&[(t, Line::splat(5))]);
        ctx.commit();
        let state = ctx.expected.clone();
        let fixes = undo_recovery(0, |l| state.read(l));
        assert!(fixes.is_empty());
    }

    #[test]
    fn recovery_rolls_back_uncommitted_tx() {
        let mut ctx = WorkloadCtx::new(0, Instrumentation::None);
        let t = ctx.heap.alloc(1).expect("fits");
        // Committed tx 0 establishing old value 5.
        ctx.begin_tx();
        ctx.backup(&[(t, Line::zero())]);
        ctx.update(&[(t, Line::splat(5))]);
        ctx.commit();
        // Tx 1 crashes after the in-place update, before commit.
        ctx.begin_tx();
        ctx.backup(&[(t, Line::splat(5))]);
        ctx.update(&[(t, Line::splat(6))]);
        // (no commit)
        let state = ctx.expected.clone();
        let fixes = undo_recovery(0, |l| state.read(l));
        assert_eq!(fixes, vec![(t, Line::splat(5))]);
    }

    #[test]
    fn commit_records_cycle() {
        let ctx = WorkloadCtx::new(0, Instrumentation::None);
        assert_eq!(ctx.commit_line_of(0), ctx.commit_line_of(COMMIT_LINES));
        assert_ne!(ctx.commit_line_of(0), ctx.commit_line_of(1));
    }
}
