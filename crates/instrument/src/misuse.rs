//! The trace-walking misuse oracle and the `--fix` verification for the
//! Janus software interface (§6 "Tools for misuse detection").
//!
//! The hardware guarantees correctness regardless of how `PRE_*` calls are
//! placed (§4.4), but misplaced calls waste pre-execution work or leave
//! performance on the table. The paper describes three misuse patterns:
//!
//! 1. **Modifications on the pre-execution object** — the data stored at
//!    the target differs from the hinted data (the IRB will detect the
//!    stale value and re-run data-dependent sub-operations: a slowdown).
//! 2. **Useless pre-execution functions** — a request with no matching
//!    subsequent blocking writeback (the result ages out of the IRB).
//! 3. **Insufficient pre-execution window** — the statically estimated
//!    cycles between the request and the writeback are smaller than the
//!    BMO latency the request is meant to hide.
//!
//! The findings themselves come from `janus-lint`'s static pass
//! ([`janus_lint::lint_program`]). This module keeps the original
//! trace-walking implementation as [`trace_oracle`]: it interprets the
//! concrete trace against the IRB pairing rules on its own walk, which makes
//! it an independent differential oracle for the lints — on any program,
//! the static findings for the three paper patterns must *equal* the
//! oracle's (see the property tests in this crate). [`verify_fix`] is the
//! one verification a `janus-lint --fix` rewrite must pass before it is
//! emitted.

use std::collections::BTreeMap;

use janus_bmo::latency::BmoLatencies;
use janus_bmo::BmoStack;
use janus_core::ir::{Op, PreObjId, Program};
use janus_lint::{lint_program, Diagnostic, FixOutcome, LintCode, LintReport};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;

/// The result of verifying a `janus-lint --fix` rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixVerification {
    /// Re-linting the fixed program reproduces the engine's own post-fix
    /// report — a fix that regresses diagnostics, or any tampering between
    /// engine and output, fails here.
    pub relint_agrees: bool,
    /// The fixed program's `Store`/`Load` stream is byte-identical to the
    /// original's — fixes only touch `PRE_*` ops and persist primitives,
    /// never the workload's semantics.
    pub stream_preserved: bool,
    /// Oracle findings on the original program.
    pub oracle_before: usize,
    /// Oracle findings on the fixed program.
    pub oracle_after: usize,
}

impl FixVerification {
    /// Whether the fix passes both gates: the re-lint agrees, and the
    /// oracle replay finds the stream preserved and no more misuses than
    /// before. (The lint's window is the *active stack's* critical path
    /// while the oracle always charges the paper trio, so a legitimate fix
    /// under `--bmos` can shift an oracle finding between kinds — the
    /// total, though, must never grow.)
    pub fn ok(&self) -> bool {
        self.relint_agrees && self.stream_preserved && self.oracle_after <= self.oracle_before
    }

    /// Whether the fixed program is oracle-clean (zero dynamic misuses) —
    /// guaranteed by the fix engine on the paper stack, where the lint
    /// window equals the oracle window.
    pub fn clean(&self) -> bool {
        self.oracle_after == 0
    }
}

impl std::fmt::Display for FixVerification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "relint_agrees={} stream_preserved={} oracle {} -> {}",
            self.relint_agrees, self.stream_preserved, self.oracle_before, self.oracle_after
        )
    }
}

/// Verifies a fix `outcome` of `original` under the BMO `stack`: the
/// fixed program must re-lint to exactly the engine's post-fix report, and
/// replaying both programs through the trace oracle must show the
/// `Store`/`Load` stream preserved and the oracle's finding count not
/// grown.
pub fn verify_fix(original: &Program, outcome: &FixOutcome, stack: &BmoStack) -> FixVerification {
    fn stream(p: &Program) -> impl Iterator<Item = &Op> {
        p.ops
            .iter()
            .filter(|o| matches!(o, Op::Store { .. } | Op::Load(_)))
    }
    FixVerification {
        relint_agrees: lint_program(&outcome.program, stack) == outcome.after,
        stream_preserved: stream(original).eq(stream(&outcome.program)),
        oracle_before: trace_oracle(original).diagnostics.len(),
        oracle_after: trace_oracle(&outcome.program).diagnostics.len(),
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

/// Static per-op cost estimate used for window calculations. Fences are
/// charged the BMO critical path — a fence in crash-consistent code waits
/// for at least one write's persistence, so this is a conservative *lower*
/// bound on real fence time (and matches the lint's accounting, keeping
/// the oracle exactly comparable).
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

/// The original trace-walking misuse detector, kept as an independent
/// differential oracle for the static lints: it abstractly interprets the
/// concrete trace against the IRB's pairing rules (requests register hints
/// per line, `PRE_DATA` binds to the lowest-line address-only hint of the
/// same `pre_obj`, stores compare values, `clwb`s consume and check
/// windows), charging windows against the paper trio's critical path under
/// the paper's latencies. It reports only the three §6 codes, with the same spans and
/// structured context as [`janus_lint::lint_program`].
pub fn trace_oracle(program: &Program) -> LintReport {
    let required = BmoStack::paper()
        .graph(&BmoLatencies::paper())
        .critical_path();
    let mut report = LintReport::default();
    // Active hints by target line; data-only hints by obj until bound.
    // Ordered maps, so a `PRE_DATA` binds to the lowest-line address-only
    // hint of its obj (as the lint does) in every process.
    let mut by_line: BTreeMap<LineAddr, Hint> = BTreeMap::new();
    let mut unbound: BTreeMap<PreObjId, Vec<Hint>> = BTreeMap::new();
    let mut elapsed = Cycles::ZERO;

    let register = |by_line: &mut BTreeMap<LineAddr, Hint>,
                    report: &mut LintReport,
                    line: LineAddr,
                    hint: Hint| {
        report.requests += 1;
        if let Some(old) = by_line.insert(line, hint) {
            report
                .diagnostics
                .push(useless(old.pre_index, old.obj, Some(line)));
        }
    };

    for (i, op) in program.ops.iter().enumerate() {
        match op {
            Op::PreAddr { obj, line, nlines } | Op::PreAddrBuf { obj, line, nlines } => {
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
                    register(&mut by_line, &mut report, target, hint);
                }
                if !pending.is_empty() {
                    unbound.insert(*obj, pending);
                }
            }
            Op::PreData { obj, values } | Op::PreDataBuf { obj, values } => {
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
            Op::PreBoth { obj, line, values } | Op::PreBothBuf { obj, line, values } => {
                for (k, v) in values.iter().enumerate() {
                    register(
                        &mut by_line,
                        &mut report,
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
                                        "store @{i} to {line} overwrites pre-executed data \
                                         (stale hint)"
                                    ),
                                )
                                .with_other(h.pre_index)
                                .with_line(line.0)
                                .with_obj(h.obj.0),
                            );
                        }
                    }
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
                                    "window of pre-execution @{} for {line} is {window} < \
                                     required {required}",
                                    h.pre_index
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
            }
            _ => {}
        }
        elapsed += op_cost(op, required);
    }

    // Leftovers are useless.
    for (line, h) in by_line {
        report
            .diagnostics
            .push(useless(h.pre_index, h.obj, Some(line)));
    }
    for h in unbound.into_values().flatten() {
        report.diagnostics.push(useless(h.pre_index, h.obj, None));
    }
    report.sort();
    report
}

/// A useless-pre finding for the request at `pre_index`.
fn useless(pre_index: usize, obj: PreObjId, line: Option<LineAddr>) -> Diagnostic {
    let d = Diagnostic::new(
        LintCode::UselessPre,
        pre_index,
        format!("pre-execution @{pre_index} (obj {obj:?}) is never consumed"),
    )
    .with_obj(obj.0);
    match line {
        Some(line) => d.with_line(line.0),
        None => d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;
    use janus_lint::{fix_program, seed_stale_hint};

    type Finding = (
        LintCode,
        usize,
        Option<usize>,
        Option<u64>,
        Option<u32>,
        Option<(u64, u64)>,
    );

    /// A report's §6 findings, without the free-text messages.
    fn findings(r: &LintReport) -> Vec<Finding> {
        r.diagnostics
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    LintCode::ModifiedAfterPre
                        | LintCode::UselessPre
                        | LintCode::InsufficientWindow
                )
            })
            .map(|d| (d.code, d.at, d.other, d.line, d.obj, d.window))
            .collect()
    }

    /// The oracle's report, after checking it agrees with the static lints.
    fn both_ways(p: &Program) -> LintReport {
        let (lint, oracle) = (lint_program(p, &BmoStack::paper()), trace_oracle(p));
        assert_eq!(findings(&lint), findings(&oracle));
        assert_eq!(
            (lint.requests, lint.well_placed),
            (oracle.requests, oracle.well_placed)
        );
        oracle
    }

    #[test]
    fn clean_program_has_no_findings() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000); // ample window
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = both_ways(&b.build());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.well_placed, 1);
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn detects_stale_data() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(2)); // differs from hint
        b.clwb(LineAddr(1));
        b.fence();
        let r = both_ways(&b.build());
        assert_eq!(r.count(LintCode::ModifiedAfterPre), 1);
        assert_eq!(r.well_placed, 0);
    }

    #[test]
    fn detects_useless_pre() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        // no write at all
        let r = both_ways(&b.build());
        assert_eq!(r.count(LintCode::UselessPre), 1);
    }

    #[test]
    fn detects_insufficient_window() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100); // far less than the ~2764-cycle BMO latency
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = both_ways(&b.build());
        assert_eq!(r.count(LintCode::InsufficientWindow), 1);
        let (window, required) = r.diagnostics[0].window.unwrap();
        assert!(window < required);
    }

    #[test]
    fn detects_double_pre_as_useless() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(1)]); // shadows the first
        b.compute(5000);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        let r = both_ways(&b.build());
        assert_eq!(r.count(LintCode::UselessPre), 1);
        assert_eq!(r.well_placed, 1);
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
        let r = both_ways(&b.build());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.well_placed, 1);
    }

    #[test]
    fn unbound_data_hint_is_useless() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_data(obj, vec![Line::splat(7)]);
        b.compute(100);
        let r = both_ways(&b.build());
        assert_eq!(r.count(LintCode::UselessPre), 1);
        assert_eq!(r.diagnostics[0].line, None);
    }

    #[test]
    fn display_is_informative() {
        let d = useless(3, PreObjId(1), None);
        assert!(d.to_string().contains("never consumed"), "{d}");
        let v = FixVerification {
            relint_agrees: false,
            stream_preserved: true,
            oracle_before: 2,
            oracle_after: 1,
        };
        assert!(v.to_string().contains("relint_agrees=false"), "{v}");
    }

    #[test]
    fn verify_fix_rejects_a_tampered_rewrite() {
        let mut b = ProgramBuilder::new();
        b.compute(10);
        b.persist_store(LineAddr(3), Line::splat(5));
        let mut seeded = b.build();
        seed_stale_hint(&mut seeded);
        let stack = BmoStack::paper();
        let mut outcome = fix_program(&seeded, &stack);
        let v = verify_fix(&seeded, &outcome, &stack);
        assert!(v.ok() && v.clean(), "{v}");

        // A misuse slipped in after the engine ran: the re-lint disagrees.
        seed_stale_hint(&mut outcome.program);
        let v = verify_fix(&seeded, &outcome, &stack);
        assert!(!v.relint_agrees && !v.ok(), "{v}");

        // A dropped store: the stream is no longer the original's.
        let mut outcome = fix_program(&seeded, &stack);
        outcome
            .program
            .ops
            .retain(|o| !matches!(o, Op::Store { .. }));
        outcome.after = lint_program(&outcome.program, &stack);
        let v = verify_fix(&seeded, &outcome, &stack);
        assert!(v.relint_agrees && !v.stream_preserved && !v.ok(), "{v}");
    }
}
