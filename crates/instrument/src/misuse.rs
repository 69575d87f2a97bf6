//! Static misuse detection for the Janus software interface (§6 "Tools for
//! misuse detection").
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
//! [`detect_misuse`] delegates to the real static-analysis pass in
//! `janus-lint` ([`janus_lint::lint_program`]) and maps its diagnostics
//! back onto the legacy [`Misuse`] shape. The original trace-walking
//! implementation is kept verbatim as [`trace_oracle`]: it interprets the
//! concrete trace against the IRB pairing rules, which makes it an
//! independent differential oracle for the lints — on any program, the
//! static findings for the three paper patterns must *equal* the oracle's
//! (see the property tests in this crate).

use std::collections::HashMap;

use janus_bmo::latency::BmoLatencies;
use janus_bmo::BmoStack;
use janus_core::ir::{Op, PreObjId, Program};
use janus_lint::{LintCode, LintOptions, LintReport};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;

/// One detected misuse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Misuse {
    /// The value written differs from the pre-executed data — the
    /// pre-execution will be invalidated at the memory controller.
    ModifiedAfterPre {
        /// Index of the offending `Store` in the program.
        store_index: usize,
        /// Target line.
        line: LineAddr,
        /// Index of the pre-execution op that hinted stale data.
        pre_index: usize,
    },
    /// A pre-execution request whose result no write ever consumes.
    UselessPre {
        /// Index of the request op.
        pre_index: usize,
        /// The `pre_obj`.
        obj: PreObjId,
        /// Target line, if the request carried one.
        line: Option<LineAddr>,
    },
    /// The window between the request and the writeback is too small for
    /// the BMOs to complete.
    InsufficientWindow {
        /// Index of the request op.
        pre_index: usize,
        /// Index of the consuming `Clwb`.
        clwb_index: usize,
        /// Target line.
        line: LineAddr,
        /// Statically estimated window.
        window: Cycles,
        /// Latency the window must cover for full pre-execution.
        required: Cycles,
    },
}

impl std::fmt::Display for Misuse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Misuse::ModifiedAfterPre {
                store_index, line, ..
            } => write!(
                f,
                "store @{store_index} to {line} overwrites pre-executed data (stale hint)"
            ),
            Misuse::UselessPre { pre_index, obj, .. } => {
                write!(
                    f,
                    "pre-execution @{pre_index} (obj {obj:?}) is never consumed"
                )
            }
            Misuse::InsufficientWindow {
                pre_index,
                line,
                window,
                required,
                ..
            } => write!(
                f,
                "window of pre-execution @{pre_index} for {line} is {window} < required {required}"
            ),
        }
    }
}

/// Analysis summary.
#[derive(Clone, Debug, Default)]
pub struct MisuseReport {
    /// All findings, in program order.
    pub findings: Vec<Misuse>,
    /// Pre-execution requests analyzed (line granularity).
    pub requests: usize,
    /// Requests consumed by a write with a full window.
    pub well_placed: usize,
}

impl MisuseReport {
    /// Findings of the stale-data kind.
    pub fn stale_hints(&self) -> usize {
        self.findings
            .iter()
            .filter(|m| matches!(m, Misuse::ModifiedAfterPre { .. }))
            .count()
    }

    /// Findings of the useless kind.
    pub fn useless(&self) -> usize {
        self.findings
            .iter()
            .filter(|m| matches!(m, Misuse::UselessPre { .. }))
            .count()
    }

    /// Findings of the short-window kind.
    pub fn short_windows(&self) -> usize {
        self.findings
            .iter()
            .filter(|m| matches!(m, Misuse::InsufficientWindow { .. }))
            .count()
    }
}

/// Runs the analyzer with the paper's default BMO latencies.
pub fn detect_misuse(program: &Program) -> MisuseReport {
    detect_misuse_with(program, &BmoLatencies::paper())
}

/// Runs the analyzer against a specific BMO configuration by delegating to
/// the `janus-lint` static-analysis pass and projecting its diagnostics
/// onto the three §6 misuse patterns (the additional lint codes —
/// redundant requests, IRB pressure, persist ordering — are reported only
/// through `janus-lint` itself).
pub fn detect_misuse_with(program: &Program, lat: &BmoLatencies) -> MisuseReport {
    let opts = LintOptions::with_latencies(*lat);
    project_lint_report(&janus_lint::lint_program(program, &opts))
}

/// Maps a lint report onto the legacy [`MisuseReport`] shape.
fn project_lint_report(lint: &LintReport) -> MisuseReport {
    let mut report = MisuseReport {
        findings: Vec::new(),
        requests: lint.requests,
        well_placed: lint.well_placed,
    };
    for d in &lint.diagnostics {
        let line = d.line.map(LineAddr);
        let obj = d.obj.map(PreObjId);
        match d.code {
            LintCode::ModifiedAfterPre => report.findings.push(Misuse::ModifiedAfterPre {
                store_index: d.at,
                line: line.expect("stale-hint diagnostics carry a line"),
                pre_index: d.other.expect("stale-hint diagnostics carry the request"),
            }),
            LintCode::UselessPre => report.findings.push(Misuse::UselessPre {
                pre_index: d.at,
                obj: obj.expect("useless-pre diagnostics carry the obj"),
                line,
            }),
            LintCode::InsufficientWindow => {
                let (window, required) = d.window.expect("window diagnostics carry cycles");
                report.findings.push(Misuse::InsufficientWindow {
                    pre_index: d.other.expect("window diagnostics carry the request"),
                    clwb_index: d.at,
                    line: line.expect("window diagnostics carry a line"),
                    window: Cycles(window),
                    required: Cycles(required),
                });
            }
            _ => {} // extended lints have no legacy equivalent
        }
    }
    report
}

/// The result of differentially checking a `janus-lint --fix` rewrite
/// against the trace-walking oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixVerification {
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
    /// Whether the fix is semantics-preserving and never regresses the
    /// oracle. (The lint's window is the *active stack's* critical path
    /// while the oracle always charges the paper trio, so a legitimate fix
    /// under `--bmos` can shift an oracle finding between kinds — the
    /// total, though, must never grow.)
    pub fn ok(&self) -> bool {
        self.stream_preserved && self.oracle_after <= self.oracle_before
    }

    /// Whether the fixed program is oracle-clean (zero dynamic misuses) —
    /// guaranteed by the fix engine when linting with paper-default
    /// options, where the lint window equals the oracle window.
    pub fn clean(&self) -> bool {
        self.oracle_after == 0
    }
}

/// Differentially checks a fix rewrite with the paper's default latencies.
pub fn verify_fix(original: &Program, fixed: &Program) -> FixVerification {
    verify_fix_with(original, fixed, &BmoLatencies::paper())
}

/// Differentially checks a fix rewrite: the `Store`/`Load` stream must be
/// preserved exactly, and the trace oracle's finding count must not grow.
pub fn verify_fix_with(original: &Program, fixed: &Program, lat: &BmoLatencies) -> FixVerification {
    fn stream(p: &Program) -> Vec<&Op> {
        p.ops
            .iter()
            .filter(|o| matches!(o, Op::Store { .. } | Op::Load(_)))
            .collect()
    }
    FixVerification {
        stream_preserved: stream(original) == stream(fixed),
        oracle_before: trace_oracle_with(original, lat).findings.len(),
        oracle_after: trace_oracle_with(fixed, lat).findings.len(),
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

/// Runs the trace-walking oracle with the paper's default BMO latencies.
pub fn trace_oracle(program: &Program) -> MisuseReport {
    trace_oracle_with(program, &BmoLatencies::paper())
}

/// The original trace-walking misuse detector, kept as an independent
/// differential oracle for the static lints: it abstractly interprets the
/// concrete trace against the IRB's pairing rules (requests register hints
/// per line, `PRE_DATA` binds to address-only hints of the same `pre_obj`,
/// stores compare values, `clwb`s consume and check windows).
pub fn trace_oracle_with(program: &Program, lat: &BmoLatencies) -> MisuseReport {
    let required = BmoStack::paper().graph(lat).critical_path();
    let mut report = MisuseReport::default();
    // Active hints by target line; data-only hints by obj until bound.
    let mut by_line: HashMap<LineAddr, Hint> = HashMap::new();
    let mut unbound: HashMap<PreObjId, Vec<Hint>> = HashMap::new();
    let mut elapsed = Cycles::ZERO;

    let register = |by_line: &mut HashMap<LineAddr, Hint>,
                    report: &mut MisuseReport,
                    line: LineAddr,
                    hint: Hint| {
        report.requests += 1;
        if let Some(old) = by_line.insert(line, hint) {
            report.findings.push(Misuse::UselessPre {
                pre_index: old.pre_index,
                obj: old.obj,
                line: Some(line),
            });
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
                            report.findings.push(Misuse::ModifiedAfterPre {
                                store_index: i,
                                line: *line,
                                pre_index: h.pre_index,
                            });
                        }
                    }
                }
            }
            Op::Clwb(line) => {
                if let Some(h) = by_line.remove(line) {
                    let window = elapsed.saturating_sub(h.issue_cost);
                    if window < required && !h.flagged_stale {
                        report.findings.push(Misuse::InsufficientWindow {
                            pre_index: h.pre_index,
                            clwb_index: i,
                            line: *line,
                            window,
                            required,
                        });
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
    let mut leftovers: Vec<(LineAddr, Hint)> = by_line.into_iter().collect();
    leftovers.sort_by_key(|(line, _)| line.0);
    for (line, h) in leftovers {
        report.findings.push(Misuse::UselessPre {
            pre_index: h.pre_index,
            obj: h.obj,
            line: Some(line),
        });
    }
    let mut unbound: Vec<(PreObjId, Vec<Hint>)> = unbound.into_iter().collect();
    unbound.sort_by_key(|(obj, _)| obj.0);
    for (obj, hints) in unbound {
        for h in hints {
            report.findings.push(Misuse::UselessPre {
                pre_index: h.pre_index,
                obj,
                line: None,
            });
        }
    }
    report.findings.sort_by_key(|m| match m {
        Misuse::ModifiedAfterPre { store_index, .. } => *store_index,
        Misuse::UselessPre { pre_index, .. } => *pre_index,
        Misuse::InsufficientWindow { clwb_index, .. } => *clwb_index,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;

    fn both_ways(p: &Program) -> (MisuseReport, MisuseReport) {
        (detect_misuse(p), trace_oracle(p))
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
        let (r, oracle) = both_ways(&b.build());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.well_placed, 1);
        assert_eq!(r.requests, 1);
        assert_eq!(r.findings, oracle.findings);
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
        let (r, oracle) = both_ways(&b.build());
        assert_eq!(r.stale_hints(), 1);
        assert_eq!(r.well_placed, 0);
        assert_eq!(r.findings, oracle.findings);
    }

    #[test]
    fn detects_useless_pre() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        // no write at all
        let (r, oracle) = both_ways(&b.build());
        assert_eq!(r.useless(), 1);
        assert_eq!(r.findings, oracle.findings);
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
        let (r, oracle) = both_ways(&b.build());
        assert_eq!(r.short_windows(), 1);
        match &r.findings[0] {
            Misuse::InsufficientWindow {
                window, required, ..
            } => {
                assert!(window < required);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(r.findings, oracle.findings);
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
        let (r, oracle) = both_ways(&b.build());
        assert_eq!(r.useless(), 1);
        assert_eq!(r.well_placed, 1);
        assert_eq!(r.findings, oracle.findings);
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
        let (r, oracle) = both_ways(&b.build());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.well_placed, 1);
        assert_eq!(r.findings, oracle.findings);
    }

    #[test]
    fn unbound_data_hint_is_useless() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_data(obj, vec![Line::splat(7)]);
        b.compute(100);
        let (r, oracle) = both_ways(&b.build());
        assert_eq!(r.useless(), 1);
        assert_eq!(r.findings, oracle.findings);
    }

    #[test]
    fn display_is_informative() {
        let m = Misuse::UselessPre {
            pre_index: 3,
            obj: PreObjId(1),
            line: None,
        };
        assert!(m.to_string().contains("never consumed"));
    }
}
