//! The program representation executed by the simulated cores.
//!
//! Workloads are expressed as explicit operation streams: computation,
//! loads/stores, `clwb`/`sfence` persistence primitives, transaction
//! markers, and the Janus software interface of Table 2 as one op per call:
//! [`Op::PreInit`], [`Op::PreStartBuf`], and [`Op::Pre`] for the six
//! request calls (`PRE_ADDR`, `PRE_DATA`, `PRE_BOTH` and their `*_BUF`
//! forms). An [`Op::Pre`] names once what it carries, its [`PreFunc`] (the
//! `Func` field of Figure 7b), and whether it waits for `PRE_START_BUF`.
//! Because the stream is concrete (a trace), requests carry the actual
//! address/line values the hardware request would.
//!
//! For the automated compiler pass (`janus-instrument`), programs also carry
//! *provenance markers*: where an address was generated ([`Op::AddrGen`]),
//! where a store's data was last defined ([`Op::DataGen`]), and the
//! function/loop/conditional region structure the pass's placement rules
//! depend on (§4.5).

use std::collections::BTreeSet;

use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

/// Identifier of a `pre_obj` (unique per dynamic use within a thread;
/// combined with the thread id it matches the paper's PRE_ID ⊕ ThreadID ⊕
/// TransactionID triple).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PreObjId(pub u32);

/// One operation of the program trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Busy computation for the given number of cycles.
    Compute(u32),
    /// Load of a line (cache-modeled latency).
    Load(LineAddr),
    /// Store of a full line value into the cache.
    Store {
        /// Target line.
        line: LineAddr,
        /// New value.
        value: Line,
    },
    /// `clwb`: initiate writeback of the line toward the memory controller.
    Clwb(LineAddr),
    /// `sfence`: block until every previously `clwb`'d line is persistent
    /// (accepted into the ADR write queue).
    Fence,
    /// Transaction begin marker (statistics + TransactionID).
    TxBegin,
    /// Transaction commit marker.
    TxCommit,

    // ---- Janus software interface (Table 2) ----
    /// `PRE_INIT(pre_obj*)`.
    PreInit(PreObjId),
    /// A `PRE_ADDR`, `PRE_DATA` or `PRE_BOTH` request (`PRE_BOTH_VAL` lowers
    /// to `PRE_BOTH`), or its `*_BUF` form.
    Pre {
        /// The pre-execution object.
        obj: PreObjId,
        /// What the request carries.
        func: PreFunc,
        /// A `*_BUF` request: held in the request queue until a
        /// `PRE_START_BUF` of `obj` releases it.
        buffered: bool,
    },
    /// `PRE_START_BUF(pre_obj*)` — release the buffered requests of `obj`.
    PreStartBuf(PreObjId),

    // ---- Provenance markers for the automated compiler pass ----
    /// The address of a future write became architecturally known here.
    AddrGen {
        /// First line of the addressed object.
        line: LineAddr,
        /// Number of lines.
        nlines: u32,
    },
    /// The data of a future write was last defined here.
    DataGen {
        /// Target line the data will eventually be stored to.
        line: LineAddr,
        /// The defined value(s), one per line.
        values: Vec<Line>,
    },
    /// Start of a function body.
    FuncBegin(&'static str),
    /// End of a function body.
    FuncEnd,
    /// Start of a loop region (the static pass cannot hoist across it).
    LoopBegin,
    /// End of a loop region.
    LoopEnd,
    /// Start of a conditional region (insertions stay inside it).
    CondBegin,
    /// End of a conditional region.
    CondEnd,
}

/// What a pre-execution request carries: the `Func` field of Figure 7b.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PreFunc {
    /// `PRE_ADDR(pre_obj*, addr, size)`: pre-execute the address-dependent
    /// sub-operations of `nlines` lines starting at `line`.
    Addr {
        /// First target line.
        line: LineAddr,
        /// Number of lines.
        nlines: u32,
    },
    /// `PRE_DATA(pre_obj*, data, size)`: pre-execute the data-dependent
    /// sub-operations with the captured line values.
    Data {
        /// Captured data, one entry per line.
        values: Vec<Line>,
    },
    /// `PRE_BOTH(pre_obj*, addr, data, size)`: both inputs, one value per
    /// line starting at `line`.
    Both {
        /// First target line.
        line: LineAddr,
        /// Captured data, one entry per line.
        values: Vec<Line>,
    },
}

impl PreFunc {
    /// The lines the request covers: `nlines` when it is address-only, one
    /// per value otherwise.
    pub fn nlines(&self) -> u32 {
        match self {
            PreFunc::Addr { nlines, .. } => *nlines,
            PreFunc::Data { values } | PreFunc::Both { values, .. } => values.len() as u32,
        }
    }

    /// The request decoded into cache-line-sized operations (Figure 7b,
    /// bottom), in order: each line's address when the request carries
    /// one, and its value when it carries data.
    pub fn lines(&self) -> impl Iterator<Item = (Option<LineAddr>, Option<Line>)> + '_ {
        let (first, values) = match self {
            PreFunc::Addr { line, .. } => (Some(*line), &[][..]),
            PreFunc::Data { values } => (None, &values[..]),
            PreFunc::Both { line, values } => (Some(*line), &values[..]),
        };
        (0..self.nlines() as usize)
            .map(move |k| (first.map(|l| l.offset(k as u64)), values.get(k).copied()))
    }
}

impl Op {
    /// Whether this op is part of the Janus pre-execution interface.
    pub fn is_pre(&self) -> bool {
        matches!(self, Op::PreInit(_) | Op::Pre { .. } | Op::PreStartBuf(_))
    }

    /// The `pre_obj` this op operates on, if it is an interface op.
    pub fn pre_obj(&self) -> Option<PreObjId> {
        match self {
            Op::PreInit(obj) | Op::PreStartBuf(obj) | Op::Pre { obj, .. } => Some(*obj),
            _ => None,
        }
    }

    /// Whether this op is a pure marker (no execution cost).
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            Op::AddrGen { .. }
                | Op::DataGen { .. }
                | Op::FuncBegin(_)
                | Op::FuncEnd
                | Op::LoopBegin
                | Op::LoopEnd
                | Op::CondBegin
                | Op::CondEnd
        )
    }
}

/// A complete single-threaded program trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The operation stream.
    pub ops: Vec<Op>,
}

impl Program {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Counts persistent writes (`Clwb` ops).
    pub fn write_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Clwb(_))).count()
    }

    /// Counts pre-execution interface calls.
    pub fn pre_op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_pre()).count()
    }

    /// Strips every Janus interface op (for running the same workload on
    /// the serialized/ideal baselines without issue overhead).
    pub fn without_pre_ops(&self) -> Program {
        Program {
            ops: self.ops.iter().filter(|o| !o.is_pre()).cloned().collect(),
        }
    }

    /// The first `pre_obj` id above every id an op of this program uses:
    /// a rewrite numbering its objects from here never collides with an
    /// existing one.
    pub fn next_pre_obj(&self) -> u32 {
        self.ops
            .iter()
            .filter_map(|o| o.pre_obj().map(|PreObjId(n)| n + 1))
            .max()
            .unwrap_or(0)
    }

    /// The program rewritten: each `(at, ops)` of `insert` lands before
    /// the op at index `at` (`at == len` appends), and the ops at the
    /// indices in `remove` are left out. Inserts at one index keep their
    /// given order and precede the op there, even when that op is removed.
    pub fn splice(&self, mut insert: Vec<(usize, Vec<Op>)>, remove: &BTreeSet<usize>) -> Program {
        insert.sort_by_key(|(at, _)| *at);
        let kept = self.ops.len() - remove.range(..self.ops.len()).count();
        let inserted: usize = insert.iter().map(|(_, ops)| ops.len()).sum();
        let mut out = Vec::with_capacity(kept + inserted);
        let mut pending = insert.into_iter().peekable();
        for (i, op) in self.ops.iter().enumerate() {
            while let Some((_, ops)) = pending.next_if(|(at, _)| *at == i) {
                out.extend(ops);
            }
            if !remove.contains(&i) {
                out.push(op.clone());
            }
        }
        out.extend(pending.flat_map(|(_, ops)| ops));
        Program { ops: out }
    }
}

/// Summary statistics of a program trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total operations.
    pub ops: usize,
    /// Persistent writes (`Clwb`).
    pub writes: usize,
    /// Ordering fences.
    pub fences: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Total busy-compute cycles.
    pub compute_cycles: u64,
    /// Janus interface calls.
    pub pre_ops: usize,
    /// Committed transactions.
    pub transactions: usize,
    /// Distinct lines written.
    pub footprint_lines: usize,
}

impl Program {
    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            ops: self.ops.len(),
            ..TraceStats::default()
        };
        let mut lines = std::collections::HashSet::new();
        for op in &self.ops {
            match op {
                Op::Clwb(_) => s.writes += 1,
                Op::Fence => s.fences += 1,
                Op::Load(_) => s.loads += 1,
                Op::Store { line, .. } => {
                    s.stores += 1;
                    lines.insert(*line);
                }
                Op::Compute(c) => s.compute_cycles += *c as u64,
                Op::TxCommit => s.transactions += 1,
                op if op.is_pre() => s.pre_ops += 1,
                _ => {}
            }
        }
        s.footprint_lines = lines.len();
        s
    }
}

/// Convenience builder for hand-written programs and workload generators.
///
/// # Example
///
/// ```
/// use janus_core::ir::{Op, ProgramBuilder};
/// use janus_nvm::{addr::LineAddr, line::Line};
///
/// let mut b = ProgramBuilder::new();
/// b.tx_begin();
/// let obj = b.pre_init();
/// b.pre_both(obj, LineAddr(4), vec![Line::splat(1)]);
/// b.compute(500);
/// b.persist_store(LineAddr(4), Line::splat(1));
/// b.tx_commit();
/// let p = b.build();
/// assert_eq!(p.write_count(), 1);
/// assert_eq!(p.pre_op_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    next_obj: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Busy computation.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.push(Op::Compute(cycles))
    }

    /// Load.
    pub fn load(&mut self, line: LineAddr) -> &mut Self {
        self.push(Op::Load(line))
    }

    /// Store.
    pub fn store(&mut self, line: LineAddr, value: Line) -> &mut Self {
        self.push(Op::Store { line, value })
    }

    /// `clwb`.
    pub fn clwb(&mut self, line: LineAddr) -> &mut Self {
        self.push(Op::Clwb(line))
    }

    /// `sfence`.
    pub fn fence(&mut self) -> &mut Self {
        self.push(Op::Fence)
    }

    /// Store + `clwb` + `sfence` — the canonical persist sequence.
    pub fn persist_store(&mut self, line: LineAddr, value: Line) -> &mut Self {
        self.store(line, value).clwb(line).fence()
    }

    /// Transaction begin.
    pub fn tx_begin(&mut self) -> &mut Self {
        self.push(Op::TxBegin)
    }

    /// Transaction commit.
    pub fn tx_commit(&mut self) -> &mut Self {
        self.push(Op::TxCommit)
    }

    /// Allocates and initializes a fresh `pre_obj`.
    pub fn pre_init(&mut self) -> PreObjId {
        let obj = PreObjId(self.next_obj);
        self.next_obj += 1;
        self.push(Op::PreInit(obj));
        obj
    }

    /// `PRE_ADDR`.
    pub fn pre_addr(&mut self, obj: PreObjId, line: LineAddr, nlines: u32) -> &mut Self {
        self.pre(obj, PreFunc::Addr { line, nlines }, false)
    }

    /// `PRE_DATA`.
    pub fn pre_data(&mut self, obj: PreObjId, values: Vec<Line>) -> &mut Self {
        self.pre(obj, PreFunc::Data { values }, false)
    }

    /// `PRE_BOTH`.
    pub fn pre_both(&mut self, obj: PreObjId, line: LineAddr, values: Vec<Line>) -> &mut Self {
        self.pre(obj, PreFunc::Both { line, values }, false)
    }

    /// `PRE_ADDR_BUF`.
    pub fn pre_addr_buf(&mut self, obj: PreObjId, line: LineAddr, nlines: u32) -> &mut Self {
        self.pre(obj, PreFunc::Addr { line, nlines }, true)
    }

    /// `PRE_DATA_BUF`.
    pub fn pre_data_buf(&mut self, obj: PreObjId, values: Vec<Line>) -> &mut Self {
        self.pre(obj, PreFunc::Data { values }, true)
    }

    /// `PRE_BOTH_BUF`.
    pub fn pre_both_buf(&mut self, obj: PreObjId, line: LineAddr, values: Vec<Line>) -> &mut Self {
        self.pre(obj, PreFunc::Both { line, values }, true)
    }

    fn pre(&mut self, obj: PreObjId, func: PreFunc, buffered: bool) -> &mut Self {
        self.push(Op::Pre {
            obj,
            func,
            buffered,
        })
    }

    /// `PRE_START_BUF`.
    pub fn pre_start_buf(&mut self, obj: PreObjId) -> &mut Self {
        self.push(Op::PreStartBuf(obj))
    }

    /// Provenance marker: address known.
    pub fn addr_gen(&mut self, line: LineAddr, nlines: u32) -> &mut Self {
        self.push(Op::AddrGen { line, nlines })
    }

    /// Provenance marker: data defined.
    pub fn data_gen(&mut self, line: LineAddr, values: Vec<Line>) -> &mut Self {
        self.push(Op::DataGen { line, values })
    }

    /// Wraps `body` in function markers.
    pub fn func(&mut self, name: &'static str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.push(Op::FuncBegin(name));
        body(self);
        self.push(Op::FuncEnd)
    }

    /// Wraps `body` in loop markers.
    pub fn loop_region(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.push(Op::LoopBegin);
        body(self);
        self.push(Op::LoopEnd)
    }

    /// Wraps `body` in conditional markers.
    pub fn cond_region(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.push(Op::CondBegin);
        body(self);
        self.push(Op::CondEnd)
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_stream() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.persist_store(LineAddr(1), Line::splat(1));
        b.tx_commit();
        let p = b.build();
        assert_eq!(
            p.ops,
            vec![
                Op::TxBegin,
                Op::Store {
                    line: LineAddr(1),
                    value: Line::splat(1)
                },
                Op::Clwb(LineAddr(1)),
                Op::Fence,
                Op::TxCommit,
            ]
        );
    }

    #[test]
    fn pre_obj_ids_are_unique() {
        let mut b = ProgramBuilder::new();
        let a = b.pre_init();
        let c = b.pre_init();
        assert_ne!(a, c);
    }

    #[test]
    fn without_pre_ops_strips_interface() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_addr(obj, LineAddr(2), 1);
        b.persist_store(LineAddr(2), Line::splat(2));
        let p = b.build();
        assert_eq!(p.pre_op_count(), 2);
        let stripped = p.without_pre_ops();
        assert_eq!(stripped.pre_op_count(), 0);
        assert_eq!(stripped.write_count(), 1);
    }

    #[test]
    fn markers_are_cost_free_classified() {
        assert!(Op::LoopBegin.is_marker());
        assert!(Op::AddrGen {
            line: LineAddr(0),
            nlines: 1
        }
        .is_marker());
        assert!(!Op::Fence.is_marker());
        assert!(Op::PreStartBuf(PreObjId(0)).is_pre());
        assert!(!Op::Compute(1).is_pre());
    }

    #[test]
    fn region_helpers_nest() {
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.loop_region(|b| {
                b.compute(10);
            });
            b.cond_region(|b| {
                b.compute(5);
            });
        });
        let p = b.build();
        assert_eq!(p.ops[0], Op::FuncBegin("update"));
        assert_eq!(*p.ops.last().unwrap(), Op::FuncEnd);
        assert!(p.ops.contains(&Op::LoopBegin));
        assert!(p.ops.contains(&Op::CondEnd));
    }

    fn computes(cycles: &[u32]) -> Program {
        Program {
            ops: cycles.iter().map(|&c| Op::Compute(c)).collect(),
        }
    }

    #[test]
    fn splice_keeps_the_given_order_of_inserts_at_one_index() {
        let p = computes(&[0, 1]);
        let out = p.splice(
            vec![
                (1, vec![Op::Compute(10)]),
                (0, vec![Op::Compute(20)]),
                (1, vec![Op::Compute(11), Op::Compute(12)]),
            ],
            &BTreeSet::new(),
        );
        assert_eq!(out, computes(&[20, 0, 10, 11, 12, 1]));
    }

    #[test]
    fn splice_at_len_appends() {
        let p = computes(&[0, 1]);
        let out = p.splice(vec![(2, vec![Op::Fence])], &BTreeSet::new());
        assert_eq!(out.ops.last(), Some(&Op::Fence));
        assert_eq!(out.len(), 3);
        assert_eq!(
            Program::default().splice(vec![(0, vec![Op::Fence])], &BTreeSet::new()),
            Program {
                ops: vec![Op::Fence]
            }
        );
    }

    #[test]
    fn splice_emits_inserts_before_removing_the_op_at_their_index() {
        let p = computes(&[0, 1, 2]);
        let out = p.splice(vec![(1, vec![Op::Compute(10)])], &BTreeSet::from([1, 2]));
        assert_eq!(out, computes(&[0, 10]));
        assert_eq!(out.ops.capacity(), out.len(), "sized exactly");
    }

    #[test]
    fn next_pre_obj_counts_every_interface_op() {
        assert_eq!(Program::default().next_pre_obj(), 0);
        let mut b = ProgramBuilder::new();
        b.pre_init(); // PreObjId(0)
        b.pre_addr(PreObjId(5), LineAddr(1), 1); // no PreInit for 5
        b.pre_start_buf(PreObjId(3));
        assert_eq!(b.build().next_pre_obj(), 6);
    }

    #[test]
    fn write_count_counts_clwbs() {
        let mut b = ProgramBuilder::new();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.clwb(LineAddr(1)); // re-flush counts as another write
        b.fence();
        assert_eq!(b.build().write_count(), 2);
    }
}
