//! The program-level lints over the `PRE_*` interface (§6 plus extensions).
//!
//! The three misuse patterns of the paper are checked by an abstract
//! interpretation of the program against the IRB's pairing rules: requests
//! register hints per target line, `PRE_DATA` values bind to address-only
//! hints of the same `pre_obj` exactly like the hardware pairs them, stores
//! compare their value against the hinted data, and `clwb`s consume hints
//! and check the statically estimated issue→consume window against the
//! configured stack's critical path. On a concrete trace program this
//! interpretation is exact, which is what makes the static verdict *sound*:
//! a program reported clean produces zero dynamic misuses (the trace-based
//! checker in `janus-instrument` is kept as a differential oracle for
//! exactly this property).
//!
//! Three lints extend the paper's set:
//!
//! * **redundant-pre** — a request that re-announces a still-live hint with
//!   identical target and data, or a `PRE_INIT` whose object is never used;
//! * **irb-pressure** — more simultaneously live hints than one core's IRB
//!   has entries (the overflow ages out results before use);
//! * **persist-ordering** — inside a transaction, a store left dirty after
//!   the line's last flush, or a flushed line left unordered (no fence)
//!   before commit: the undo-log protocol's recovery guarantee depends on
//!   both orderings.

use std::collections::BTreeMap;

use janus_bmo::latency::BmoLatencies;
use janus_bmo::BmoStack;
use janus_core::config::{JanusConfig, SystemMode};
use janus_core::ir::{Op, PreFunc, PreObjId, Program};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;

use crate::report::{Diagnostic, LintCode, LintReport};

/// The window (cycles) a request must cover for full pre-execution: the
/// `stack`'s dependency-graph critical path under the paper's latencies.
pub fn required_window(stack: &BmoStack) -> Cycles {
    stack.graph(&BmoLatencies::paper()).critical_path()
}

/// Static per-op cost estimate used for window calculations.
fn op_cost(op: &Op, fence: Cycles) -> Cycles {
    match op {
        Op::Compute(c) => Cycles(*c as u64),
        Op::Load(_) => Cycles(8),
        Op::Store { .. } => Cycles(4),
        Op::Clwb(_) => Cycles(4),
        Op::Fence => fence,
        op if op.is_pre() => Cycles(6),
        _ => Cycles::ZERO,
    }
}

#[derive(Clone, Debug)]
struct Hint {
    pre_index: usize,
    obj: PreObjId,
    data: Option<Line>,
    issue_cost: Cycles,
    flagged_stale: bool,
}

/// Per-line persist state inside the current transaction.
#[derive(Clone, Copy, Debug, Default)]
struct PersistState {
    last_store: Option<usize>,
    last_clwb: Option<usize>,
}

/// Runs all program-level lints against the BMO `stack`, returning a
/// sorted report. A fence is charged the stack's critical path: a fence in
/// crash-consistent code waits for at least one write's BMO completion, so
/// this conservative lower bound only narrows estimated windows. The IRB
/// holds the paper's per-core entry count.
pub fn lint_program(program: &Program, stack: &BmoStack) -> LintReport {
    let required = required_window(stack);
    let irb_entries = JanusConfig::paper(SystemMode::Janus, 1).irb_entries_per_core;
    let mut report = LintReport::default();

    // Active hints by target line; data-only hints by obj until bound.
    let mut by_line: BTreeMap<LineAddr, Hint> = BTreeMap::new();
    let mut unbound: BTreeMap<PreObjId, Vec<Hint>> = BTreeMap::new();
    let mut elapsed = Cycles::ZERO;

    // redundant-pre bookkeeping: objects initialized but never used.
    let mut inited: BTreeMap<PreObjId, usize> = BTreeMap::new();
    // irb-pressure bookkeeping.
    let mut peak_live: usize = 0;
    let mut peak_at: usize = 0;
    // persist-ordering bookkeeping.
    let mut in_tx = false;
    let mut tx_lines: BTreeMap<LineAddr, PersistState> = BTreeMap::new();
    let mut last_fence: Option<usize> = None;

    let register = |by_line: &mut BTreeMap<LineAddr, Hint>,
                    report: &mut LintReport,
                    i: usize,
                    line: LineAddr,
                    hint: Hint| {
        report.requests += 1;
        if let Some(old) = by_line.insert(line, hint) {
            if old.data == by_line[&line].data {
                report.diagnostics.push(
                    Diagnostic::new(
                        LintCode::RedundantPre,
                        i,
                        format!(
                            "request duplicates the still-live hint from @{} for line {} \
                             with identical data",
                            old.pre_index, line.0
                        ),
                    )
                    .with_other(old.pre_index)
                    .with_line(line.0)
                    .with_obj(old.obj.0),
                );
            }
            report.diagnostics.push(
                Diagnostic::new(
                    LintCode::UselessPre,
                    old.pre_index,
                    format!(
                        "pre-execution for line {} is shadowed before any write consumes it",
                        line.0
                    ),
                )
                .with_line(line.0)
                .with_obj(old.obj.0),
            );
        }
    };

    for (i, op) in program.ops.iter().enumerate() {
        if let Some(obj) = op.pre_obj() {
            match op {
                Op::PreInit(_) => {
                    inited.insert(obj, i);
                }
                _ => {
                    inited.remove(&obj);
                }
            }
        }
        match op {
            Op::Pre { obj, func, .. } => match func {
                PreFunc::Addr { line, nlines } => {
                    // Bind pending data-only hints of the same obj first.
                    let mut pending = unbound.remove(obj).unwrap_or_default();
                    for k in 0..*nlines as u64 {
                        let target = line.offset(k);
                        let hint = if pending.is_empty() {
                            Hint {
                                pre_index: i,
                                obj: *obj,
                                data: None,
                                issue_cost: elapsed,
                                flagged_stale: false,
                            }
                        } else {
                            let mut h = pending.remove(0);
                            h.pre_index = h.pre_index.min(i);
                            h
                        };
                        register(&mut by_line, &mut report, i, target, hint);
                    }
                    if !pending.is_empty() {
                        unbound.insert(*obj, pending);
                    }
                }
                PreFunc::Data { values } => {
                    for v in values {
                        // Attach to an existing address-only hint of the same
                        // pre_obj (the hardware pairs them in the IRB); queue
                        // as unbound otherwise.
                        if let Some(h) = by_line
                            .values_mut()
                            .find(|h| h.obj == *obj && h.data.is_none())
                        {
                            h.data = Some(*v);
                            continue;
                        }
                        unbound.entry(*obj).or_default().push(Hint {
                            pre_index: i,
                            obj: *obj,
                            data: Some(*v),
                            issue_cost: elapsed,
                            flagged_stale: false,
                        });
                    }
                }
                PreFunc::Both { line, values } => {
                    for (k, v) in values.iter().enumerate() {
                        register(
                            &mut by_line,
                            &mut report,
                            i,
                            line.offset(k as u64),
                            Hint {
                                pre_index: i,
                                obj: *obj,
                                data: Some(*v),
                                issue_cost: elapsed,
                                flagged_stale: false,
                            },
                        );
                    }
                }
            },
            Op::Store { line, value } => {
                if let Some(h) = by_line.get_mut(line) {
                    if let Some(d) = h.data {
                        if d != *value && !h.flagged_stale {
                            h.flagged_stale = true;
                            report.diagnostics.push(
                                Diagnostic::new(
                                    LintCode::ModifiedAfterPre,
                                    i,
                                    format!(
                                        "store to line {} overwrites pre-executed data \
                                         (stale hint from @{})",
                                        line.0, h.pre_index
                                    ),
                                )
                                .with_other(h.pre_index)
                                .with_line(line.0)
                                .with_obj(h.obj.0),
                            );
                        }
                    }
                }
                if in_tx {
                    let st = tx_lines.entry(*line).or_default();
                    st.last_store = Some(i);
                }
            }
            Op::Clwb(line) => {
                if let Some(h) = by_line.remove(line) {
                    let window = elapsed.saturating_sub(h.issue_cost);
                    if window < required && !h.flagged_stale {
                        report.diagnostics.push(
                            Diagnostic::new(
                                LintCode::InsufficientWindow,
                                i,
                                format!(
                                    "window of the pre-execution at @{} for line {} is \
                                     {} cycles, short of the {}-cycle BMO critical path",
                                    h.pre_index, line.0, window.0, required.0
                                ),
                            )
                            .with_other(h.pre_index)
                            .with_line(line.0)
                            .with_obj(h.obj.0)
                            .with_window(window.0, required.0),
                        );
                    } else if !h.flagged_stale {
                        report.well_placed += 1;
                    }
                }
                if in_tx {
                    let st = tx_lines.entry(*line).or_default();
                    st.last_clwb = Some(i);
                }
            }
            Op::Fence => {
                last_fence = Some(i);
            }
            Op::TxBegin => {
                in_tx = true;
                tx_lines.clear();
                last_fence = None;
            }
            Op::TxCommit => {
                for (line, st) in &tx_lines {
                    let Some(clwb) = st.last_clwb else {
                        continue; // never flushed in this tx: volatile use
                    };
                    if let Some(store) = st.last_store {
                        if store > clwb {
                            report.diagnostics.push(
                                Diagnostic::new(
                                    LintCode::PersistOrdering,
                                    store,
                                    format!(
                                        "store to line {} after its last flush (@{}) is \
                                         still dirty at commit",
                                        line.0, clwb
                                    ),
                                )
                                .with_other(clwb)
                                .with_line(line.0),
                            );
                            continue;
                        }
                    }
                    if last_fence.is_none_or(|f| f < clwb) {
                        report.diagnostics.push(
                            Diagnostic::new(
                                LintCode::PersistOrdering,
                                clwb,
                                format!(
                                    "flush of line {} is not ordered by a fence before \
                                     commit",
                                    line.0
                                ),
                            )
                            .with_line(line.0),
                        );
                    }
                }
                in_tx = false;
                tx_lines.clear();
            }
            _ => {}
        }
        let live = by_line.len() + unbound.values().map(Vec::len).sum::<usize>();
        if live > peak_live {
            peak_live = live;
            peak_at = i;
        }
        elapsed += op_cost(op, required);
    }

    if peak_live > irb_entries {
        report.diagnostics.push(
            Diagnostic::new(
                LintCode::IrbPressure,
                peak_at,
                format!(
                    "{peak_live} live pre-execution results exceed the {irb_entries} IRB \
                     entries; overflowing results age out before use"
                ),
            )
            .with_window(peak_live as u64, irb_entries as u64),
        );
    }

    // Leftovers are useless.
    for (line, h) in by_line {
        report.diagnostics.push(
            Diagnostic::new(
                LintCode::UselessPre,
                h.pre_index,
                format!("pre-execution for line {} is never consumed", line.0),
            )
            .with_line(line.0)
            .with_obj(h.obj.0),
        );
    }
    for (obj, hints) in unbound {
        for h in hints {
            report.diagnostics.push(
                Diagnostic::new(
                    LintCode::UselessPre,
                    h.pre_index,
                    format!(
                        "data-only pre-execution (obj {}) never binds to an address",
                        obj.0
                    ),
                )
                .with_obj(obj.0),
            );
        }
    }
    for (obj, at) in inited {
        report.diagnostics.push(
            Diagnostic::new(
                LintCode::RedundantPre,
                at,
                format!("pre_obj {} is initialized but never used", obj.0),
            )
            .with_obj(obj.0),
        );
    }

    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;
    use janus_core::ir::ProgramBuilder;

    fn lint(p: &Program) -> LintReport {
        lint_program(p, &BmoStack::paper())
    }

    #[test]
    fn clean_program_is_clean() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = lint(&b.build());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.well_placed, 1);
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn stale_hint_fires_modified_after_pre() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(2));
        b.clwb(LineAddr(1));
        b.fence();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::ModifiedAfterPre), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.line, Some(1));
        assert_eq!(d.other, Some(1), "points back at the request");
    }

    #[test]
    fn short_window_reports_arithmetic() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::InsufficientWindow), 1);
        let (window, required) = r.diagnostics[0].window.unwrap();
        assert!(window < required);
        assert_eq!(required, 2764, "paper stack critical path");
    }

    #[test]
    fn duplicate_request_fires_redundant_and_useless() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(1)]); // same data
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::RedundantPre), 1);
        assert_eq!(r.count(LintCode::UselessPre), 1);
        assert_eq!(r.well_placed, 1);
    }

    #[test]
    fn changed_duplicate_is_only_useless() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(9)]); // new data
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(9));
        b.clwb(LineAddr(1));
        b.fence();
        let r = lint(&b.build());
        assert_eq!(
            r.count(LintCode::RedundantPre),
            0,
            "data changed: an update, not a dup"
        );
        assert_eq!(r.count(LintCode::UselessPre), 1);
    }

    #[test]
    fn unused_init_is_redundant() {
        let mut b = ProgramBuilder::new();
        let _obj = b.pre_init();
        b.compute(10);
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::RedundantPre), 1);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    }

    #[test]
    fn irb_pressure_fires_above_capacity() {
        let live = |n: u64| {
            let mut b = ProgramBuilder::new();
            let obj = b.pre_init();
            for k in 0..n {
                b.pre_both(obj, LineAddr(100 + k), vec![Line::splat(k as u8)]);
            }
            b.compute(5000);
            for k in 0..n {
                b.store(LineAddr(100 + k), Line::splat(k as u8));
                b.clwb(LineAddr(100 + k));
            }
            b.fence();
            lint(&b.build())
        };
        let r = live(80);
        assert_eq!(r.count(LintCode::IrbPressure), 1);
        let (peak, cap) = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::IrbPressure)
            .unwrap()
            .window
            .unwrap();
        assert_eq!((peak, cap), (80, 64));
        // Exactly at capacity: no pressure.
        assert_eq!(live(64).count(LintCode::IrbPressure), 0);
    }

    #[test]
    fn dirty_store_at_commit_fires_persist_ordering() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        b.store(LineAddr(1), Line::splat(2)); // dirty again, never re-flushed
        b.tx_commit();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::PersistOrdering), 1);
        assert!(r.diagnostics[0].message.contains("dirty at commit"));
    }

    #[test]
    fn unfenced_flush_at_commit_fires_persist_ordering() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1)); // no fence before commit
        b.tx_commit();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::PersistOrdering), 1);
        assert!(r.diagnostics[0].message.contains("not ordered by a fence"));
    }

    #[test]
    fn well_formed_tx_is_ordering_clean() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.persist_store(LineAddr(1), Line::splat(1));
        b.persist_store(LineAddr(2), Line::splat(2));
        b.tx_commit();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::PersistOrdering), 0);
    }

    #[test]
    fn volatile_store_in_tx_is_not_flagged() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(9), Line::splat(1)); // scratch, never flushed
        b.persist_store(LineAddr(1), Line::splat(1));
        b.tx_commit();
        let r = lint(&b.build());
        assert_eq!(r.count(LintCode::PersistOrdering), 0);
    }

    #[test]
    fn data_then_addr_binds_like_hardware() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_data(obj, vec![Line::splat(7)]);
        b.compute(3000);
        b.pre_addr(obj, LineAddr(4), 1);
        b.compute(3000);
        b.store(LineAddr(4), Line::splat(7));
        b.clwb(LineAddr(4));
        b.fence();
        let r = lint(&b.build());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.well_placed, 1);
    }

    #[test]
    fn required_window_follows_the_stack() {
        let enc = BmoStack::parse("enc").unwrap();
        let enc_only = required_window(&enc);
        assert!(enc_only < required_window(&BmoStack::paper()));
        // A window too short for the trio may suffice for encryption alone.
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(enc_only.0 as u32 + 50);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let p = b.build();
        assert_eq!(
            lint_program(&p, &enc).count(LintCode::InsufficientWindow),
            0
        );
        assert_eq!(lint(&p).count(LintCode::InsufficientWindow), 1);
    }

    #[test]
    fn report_is_deterministic() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        for k in 0..10u64 {
            b.pre_both(obj, LineAddr(k), vec![Line::splat(0)]);
        }
        b.compute(50);
        for k in 0..10u64 {
            b.store(LineAddr(k), Line::splat(1)); // all stale
            b.clwb(LineAddr(k));
        }
        b.fence();
        let p = b.build();
        let a = lint(&p).to_json();
        let b2 = lint(&p).to_json();
        assert_eq!(a, b2);
    }
}
