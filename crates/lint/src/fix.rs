//! Proven autofix rewrites for the program lints (`janus-lint --fix`).
//!
//! [`fix_program`] joins each [`Diagnostic`] with a dominance-based rewrite
//! and runs the result through a fixpoint loop with a *strict-reduction
//! acceptance gate*: a candidate rewrite is applied only if re-linting the
//! rewritten IR shows the diagnostic set strictly shrinking (fewer total
//! diagnostics, and no lint code's count ever increasing). Every emitted
//! fix is therefore proven against the analysis itself — a rewrite that
//! merely trades one misuse for another is refused and the engine falls
//! through to the next candidate.
//!
//! Rewrites, in the order they are attempted per diagnostic:
//!
//! * **insufficient-window** — *hoist* the request to the earliest
//!   dominating address marker found by the reaching-defs dataflow
//!   ([`analyze_writes`]), clamped inside the writeback's conditional
//!   region exactly like [`crate::auto_place`]; when no marker dominates
//!   (hand-placed requests without provenance), fall back to deletion.
//! * **modified-after-pre** — *retarget* the hint to the value the store
//!   actually writes (sound: the hinted value is data the request captured,
//!   not program state); if the corrected hint would surface a different
//!   misuse (e.g. the window was also short), the gate refuses it and the
//!   stale request is deleted instead.
//! * **useless-pre** / refused hoists — *delete* the request: first the
//!   narrow op (plus its `PRE_INIT` when that pair is the whole object
//!   group), then the whole `pre_obj` group as a fallback.
//! * **redundant-pre** — *merge* duplicates by deleting the later request
//!   (the earlier one has the wider window); an initialized-but-unused
//!   `pre_obj` loses its `PRE_INIT`.
//! * **persist-ordering** — insert the missing `clwb`+`sfence` (dirty line
//!   at commit) or `sfence` (unfenced flush) directly before the enclosing
//!   `TxCommit`.
//!
//! Termination is by well-founded measure: each accepted fix strictly
//! decreases the total diagnostic count, so the loop runs at most
//! `initial_count` acceptances; a full pass that accepts nothing ends the
//! loop. If any of the three §6 misuse patterns survives the fixpoint
//! (every candidate refused), the engine *escalates*: it strips every
//! `PRE_*` op, which provably passes the gate whenever a request-related
//! diagnostic exists (no requests ⇒ no request diagnostics, and
//! persist-ordering findings are index-shifted but structurally
//! unchanged). The fixed program therefore always re-lints free of the
//! §6 patterns.
//!
//! Fixes never touch the `Store`/`Load` stream — `janus-instrument`'s
//! `verify_fix` checks exactly that, re-lints the rewritten program against
//! the engine's own report, and replays both programs through the trace
//! oracle (the `janus-lint` bin refuses to emit a fix that fails it).

use std::collections::BTreeSet;

use janus_bmo::BmoStack;
use janus_core::ir::{Op, PreFunc, PreObjId, Program};
use janus_nvm::addr::LineAddr;

use crate::cfg::Cfg;
use crate::dataflow::{analyze_writes, Defs, WriteKnowledge};
use crate::lints::lint_program;
use crate::place::clamp_to_cond;
use crate::report::{Diagnostic, LintCode, LintReport};

/// The rewrite family an applied fix belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FixKind {
    /// A request moved to the earliest dominating marker.
    Hoist,
    /// A request's hinted data rewritten to the value actually stored.
    Retarget,
    /// A single interface op (plus its paired `PRE_INIT`) removed.
    Delete,
    /// A whole `pre_obj` group removed.
    DeleteGroup,
    /// A missing `clwb`/`sfence` inserted before the enclosing commit.
    InsertPersist,
    /// Escalation: every `PRE_*` op stripped.
    StripAll,
}

impl FixKind {
    /// Stable kebab-case identifier used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FixKind::Hoist => "hoist",
            FixKind::Retarget => "retarget",
            FixKind::Delete => "delete",
            FixKind::DeleteGroup => "delete-group",
            FixKind::InsertPersist => "insert-persist",
            FixKind::StripAll => "strip-all",
        }
    }
}

/// One fix the engine applied (and proved via re-lint).
#[derive(Clone, Debug)]
pub struct AppliedFix {
    /// The rewrite family.
    pub kind: FixKind,
    /// The lint the fix resolves.
    pub code: LintCode,
    /// The diagnostic's primary span in the program the fix was applied to
    /// (indices are pre-rewrite for that iteration).
    pub at: usize,
    /// Human-readable description of the rewrite.
    pub detail: String,
}

impl std::fmt::Display for AppliedFix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fix[{}] {} @{}: {}",
            self.kind.as_str(),
            self.code.as_str(),
            self.at,
            self.detail
        )
    }
}

/// The result of one [`fix_program`] run.
#[derive(Clone, Debug)]
pub struct FixOutcome {
    /// The rewritten program.
    pub program: Program,
    /// Every fix applied, in application order.
    pub applied: Vec<AppliedFix>,
    /// Fixpoint iterations run (one accepted fix per iteration).
    pub iterations: usize,
    /// Candidate rewrites the acceptance gate refused.
    pub refused: usize,
    /// The lint report of the input program.
    pub before: LintReport,
    /// The lint report of the rewritten program — by construction, never
    /// worse than `before` on any lint code.
    pub after: LintReport,
}

impl FixOutcome {
    /// Whether any fix was applied.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

/// One candidate rewrite: ops to remove and ops to splice in, applied by
/// [`Program::splice`] (insertions land *before* the given index; an index
/// equal to the program length appends).
#[derive(Clone, Debug)]
struct Edit {
    kind: FixKind,
    remove: BTreeSet<usize>,
    insert: Vec<(usize, Vec<Op>)>,
    detail: String,
}

/// The lint codes [`lint_program`] can emit (the graph lints never appear
/// in a program report); the acceptance gate compares per-code counts over
/// exactly this set.
const PROGRAM_CODES: [LintCode; 6] = [
    LintCode::ModifiedAfterPre,
    LintCode::UselessPre,
    LintCode::InsufficientWindow,
    LintCode::RedundantPre,
    LintCode::IrbPressure,
    LintCode::PersistOrdering,
];

/// The acceptance gate: the trial report must have strictly fewer
/// diagnostics in total, and no lint code may gain findings.
fn strictly_reduces(base: &LintReport, trial: &LintReport) -> bool {
    trial.diagnostics.len() < base.diagnostics.len()
        && PROGRAM_CODES
            .iter()
            .all(|&c| trial.count(c) <= base.count(c))
}

/// Indices of every op operating on `obj`, in program order.
fn obj_group(ops: &[Op], obj: PreObjId) -> Vec<usize> {
    ops.iter()
        .enumerate()
        .filter(|(_, op)| op.pre_obj() == Some(obj))
        .map(|(i, _)| i)
        .collect()
}

/// Deletion candidates for the interface op at `at`: the narrow removal
/// first (the op alone, or op + `PRE_INIT` when that pair is the whole
/// object group), then the whole group as a fallback.
fn delete_candidates(ops: &[Op], at: usize, code: LintCode) -> Vec<Edit> {
    let Some(obj) = ops.get(at).and_then(Op::pre_obj) else {
        return Vec::new();
    };
    let group = obj_group(ops, obj);
    let mut out = Vec::new();
    let init_partner = group
        .iter()
        .find(|&&i| i != at && matches!(ops[i], Op::PreInit(_)));
    if group.len() == 2 && group.contains(&at) {
        if let Some(&init) = init_partner {
            out.push(Edit {
                kind: FixKind::Delete,
                remove: BTreeSet::from([at, init]),
                insert: Vec::new(),
                detail: format!(
                    "delete the {} request @{at} and its pre_init @{init} (obj {})",
                    code.as_str(),
                    obj.0
                ),
            });
            return out;
        }
    }
    out.push(Edit {
        kind: FixKind::Delete,
        remove: BTreeSet::from([at]),
        insert: Vec::new(),
        detail: format!("delete the {} op @{at} (obj {})", code.as_str(), obj.0),
    });
    if group.len() > 1 {
        out.push(Edit {
            kind: FixKind::DeleteGroup,
            remove: group.iter().copied().collect(),
            insert: Vec::new(),
            detail: format!(
                "delete all {} ops of obj {} ({} motivated)",
                group.len(),
                obj.0,
                code.as_str()
            ),
        });
    }
    out
}

/// Rewrites the hinted value(s) of a `PRE_BOTH` or `PRE_BOTH_BUF` request
/// so the entry for `line` matches `value`.
fn retarget_edit(
    ops: &[Op],
    request: usize,
    line: u64,
    value: janus_nvm::line::Line,
) -> Option<Edit> {
    let mut new_op = ops[request].clone();
    let Op::Pre {
        func: PreFunc::Both {
            line: first,
            values,
        },
        ..
    } = &mut new_op
    else {
        return None;
    };
    let k = usize::try_from(line.checked_sub(first.0)?).ok()?;
    *values.get_mut(k)? = value;
    Some(Edit {
        kind: FixKind::Retarget,
        remove: BTreeSet::from([request]),
        insert: vec![(request, vec![new_op])],
        detail: format!("rewrite the hint @{request} for line {line} to the stored value"),
    })
}

/// Moves the request at `r` (plus its `PRE_INIT` if that would otherwise
/// end up after the request) to `target`.
fn hoist_edit(ops: &[Op], r: usize, obj: Option<PreObjId>, target: usize) -> Edit {
    let mut remove = BTreeSet::from([r]);
    let mut moved = Vec::new();
    if let Some(obj) = obj {
        if let Some(p) = obj_group(ops, obj)
            .into_iter()
            .find(|&i| matches!(ops[i], Op::PreInit(_)) && i >= target && i < r)
        {
            remove.insert(p);
            moved.push(ops[p].clone());
        }
    }
    moved.push(ops[r].clone());
    Edit {
        kind: FixKind::Hoist,
        remove,
        insert: vec![(target, moved)],
        detail: format!("hoist the request @{r} to the dominating marker point @{target}"),
    }
}

/// Index of the first `TxCommit` after `at`, if any.
fn enclosing_commit(ops: &[Op], at: usize) -> Option<usize> {
    ops[at + 1..]
        .iter()
        .position(|op| matches!(op, Op::TxCommit))
        .map(|k| at + 1 + k)
}

/// Candidate rewrites for one diagnostic, in attempt order.
fn candidates_for(
    d: &Diagnostic,
    ops: &[Op],
    flow: Option<&(Cfg, Vec<WriteKnowledge>)>,
) -> Vec<Edit> {
    match d.code {
        LintCode::ModifiedAfterPre => {
            let Some(r) = d.other else { return Vec::new() };
            let mut out = Vec::new();
            if let (Some(line), Op::Store { value, .. }) = (d.line, &ops[d.at]) {
                out.extend(retarget_edit(ops, r, line, *value));
            }
            out.extend(delete_candidates(ops, r, d.code));
            out
        }
        LintCode::UselessPre => delete_candidates(ops, d.at, d.code),
        LintCode::InsufficientWindow => {
            let Some(r) = d.other else { return Vec::new() };
            let mut out = Vec::new();
            if let Some((cfg, writes)) = flow {
                if let Some(wk) = writes.iter().find(|wk| wk.clwb == d.at) {
                    if let Some(m) = wk.addr_known {
                        let target = clamp_to_cond(&cfg.regions, d.at, m + 1);
                        if target < r {
                            let obj = ops[r].pre_obj();
                            out.push(hoist_edit(ops, r, obj, target));
                        }
                    }
                }
            }
            out.extend(delete_candidates(ops, r, d.code));
            out
        }
        LintCode::RedundantPre => {
            if d.other.is_some() {
                // A duplicate of a still-live hint: merge by deleting the
                // later request (the earlier has the wider window).
                delete_candidates(ops, d.at, d.code)
            } else {
                // An initialized-but-unused pre_obj.
                vec![Edit {
                    kind: FixKind::Delete,
                    remove: BTreeSet::from([d.at]),
                    insert: Vec::new(),
                    detail: format!("delete the unused pre_init @{}", d.at),
                }]
            }
        }
        LintCode::PersistOrdering => {
            let Some(commit) = enclosing_commit(ops, d.at) else {
                return Vec::new();
            };
            let ops_to_insert = match (d.other, d.line) {
                // A store left dirty after its last flush: re-flush and
                // order it before the commit.
                (Some(_), Some(line)) => vec![Op::Clwb(LineAddr(line)), Op::Fence],
                // A flush never ordered by a fence before commit.
                (None, _) => vec![Op::Fence],
                _ => return Vec::new(),
            };
            let detail = if ops_to_insert.len() == 2 {
                format!(
                    "re-flush line {} and fence before the commit @{commit}",
                    d.line.unwrap_or_default()
                )
            } else {
                format!("fence the flush @{} before the commit @{commit}", d.at)
            };
            vec![Edit {
                kind: FixKind::InsertPersist,
                remove: BTreeSet::new(),
                insert: vec![(commit, ops_to_insert)],
                detail,
            }]
        }
        // IRB pressure has no local rewrite (it is a capacity property of
        // the whole program), and the graph lints are not program lints.
        _ => Vec::new(),
    }
}

/// Runs the autofix engine against the BMO `stack`: joins diagnostics
/// with rewrites, applies each through the strict-reduction acceptance
/// gate, and iterates to a fixpoint (see the module docs for the rewrite
/// catalogue and the termination/escalation argument).
pub fn fix_program(program: &Program, stack: &BmoStack) -> FixOutcome {
    let before = lint_program(program, stack);
    let mut current = program.clone();
    let mut report = before.clone();
    let mut applied: Vec<AppliedFix> = Vec::new();
    let mut refused = 0usize;
    let mut iterations = 0usize;
    // Each iteration accepts at most one fix, and every accepted fix
    // strictly decreases the total diagnostic count — so this cap can
    // never bind; it is a backstop, not a budget.
    let cap = before.diagnostics.len() + 1;

    while iterations < cap && !report.diagnostics.is_empty() {
        iterations += 1;
        let flow = report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::InsufficientWindow)
            .then(|| {
                let cfg = Cfg::build(&current);
                let defs = Defs::collect(&current);
                let writes = analyze_writes(&current, &cfg, &defs);
                (cfg, writes)
            });
        let mut accepted = false;
        'diags: for d in &report.diagnostics {
            for edit in candidates_for(d, &current.ops, flow.as_ref()) {
                let trial = current.splice(edit.insert, &edit.remove);
                let trial_report = lint_program(&trial, stack);
                if strictly_reduces(&report, &trial_report) {
                    applied.push(AppliedFix {
                        kind: edit.kind,
                        code: d.code,
                        at: d.at,
                        detail: edit.detail,
                    });
                    current = trial;
                    report = trial_report;
                    accepted = true;
                    break 'diags;
                }
                refused += 1;
            }
        }
        if !accepted {
            break;
        }
    }

    // Escalation: the §6 misuse patterns must not survive a --fix run. If
    // targeted rewrites could not clear them, strip every PRE_* op — this
    // passes the gate whenever a request-related diagnostic exists.
    let misuses_left = report.count(LintCode::ModifiedAfterPre)
        + report.count(LintCode::UselessPre)
        + report.count(LintCode::InsufficientWindow);
    if misuses_left > 0 {
        let strip = Edit {
            kind: FixKind::StripAll,
            remove: current
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| op.is_pre())
                .map(|(i, _)| i)
                .collect(),
            insert: Vec::new(),
            detail: format!(
                "strip all {} PRE_* ops ({misuses_left} unfixable misuse diagnostics left)",
                current.pre_op_count()
            ),
        };
        let trial = current.splice(strip.insert, &strip.remove);
        let trial_report = lint_program(&trial, stack);
        if strictly_reduces(&report, &trial_report) {
            applied.push(AppliedFix {
                kind: FixKind::StripAll,
                code: LintCode::UselessPre,
                at: 0,
                detail: strip.detail,
            });
            current = trial;
            report = trial_report;
        } else {
            refused += 1;
        }
    }

    FixOutcome {
        program: current,
        applied,
        iterations,
        refused,
        before,
        after: report,
    }
}

/// Injects the canonical CI red-path misuse: a `PRE_BOTH` hinting the
/// wrong value for the first store's target line, immediately before that
/// store (so the lint must flag the store as `modified-after-pre` and the
/// request's window is far too short). Used by `janus-lint --seeded` and
/// the fix-engine tests.
pub fn seed_stale_hint(program: &mut Program) {
    let Some(idx) = program
        .ops
        .iter()
        .position(|op| matches!(op, Op::Store { .. }))
    else {
        return;
    };
    let Op::Store { line, value } = program.ops[idx] else {
        unreachable!();
    };
    let mut wrong = value;
    wrong.0[0] ^= 0xFF;
    let obj = PreObjId(u32::MAX);
    program.ops.insert(
        idx,
        Op::Pre {
            obj,
            func: PreFunc::Both {
                line,
                values: vec![wrong],
            },
            buffered: false,
        },
    );
    program.ops.insert(idx, Op::PreInit(obj));
}

// ---------------------------------------------------------------------------
// Deterministic program rendering + unified diff (for --fix --dry-run and
// the golden before/after snapshots).
// ---------------------------------------------------------------------------

fn render_values(values: &[janus_nvm::line::Line]) -> String {
    let bytes: Vec<String> = values.iter().map(|v| format!("{:#04x}", v.0[0])).collect();
    format!("[{}]", bytes.join(" "))
}

/// Renders one op as a stable single line of text.
pub fn render_op(op: &Op) -> String {
    match op {
        Op::Compute(c) => format!("compute {c}"),
        Op::Load(l) => format!("load L{}", l.0),
        Op::Store { line, value } => format!("store L{} {:#04x}", line.0, value.0[0]),
        Op::Clwb(l) => format!("clwb L{}", l.0),
        Op::Fence => "fence".to_string(),
        Op::TxBegin => "tx_begin".to_string(),
        Op::TxCommit => "tx_commit".to_string(),
        Op::PreInit(obj) => format!("pre_init obj={}", obj.0),
        Op::Pre {
            obj,
            func,
            buffered,
        } => {
            let (name, args) = match func {
                PreFunc::Addr { line, nlines } => ("pre_addr", format!("L{} n={nlines}", line.0)),
                PreFunc::Data { values } => ("pre_data", render_values(values)),
                PreFunc::Both { line, values } => {
                    ("pre_both", format!("L{} {}", line.0, render_values(values)))
                }
            };
            let buf = if *buffered { "_buf" } else { "" };
            format!("{name}{buf} obj={} {args}", obj.0)
        }
        Op::PreStartBuf(obj) => format!("pre_start_buf obj={}", obj.0),
        Op::AddrGen { line, nlines } => format!("addr_gen L{} n={nlines}", line.0),
        Op::DataGen { line, values } => {
            format!("data_gen L{} {}", line.0, render_values(values))
        }
        Op::FuncBegin(name) => format!("func_begin {name}"),
        Op::FuncEnd => "func_end".to_string(),
        Op::LoopBegin => "loop_begin".to_string(),
        Op::LoopEnd => "loop_end".to_string(),
        Op::CondBegin => "cond_begin".to_string(),
        Op::CondEnd => "cond_end".to_string(),
    }
}

/// Renders a program as deterministic text, one op per line (no indices,
/// so diffs stay local to the edited region).
pub fn render_program(program: &Program) -> String {
    let mut out = String::with_capacity(program.ops.len() * 24);
    for op in &program.ops {
        out.push_str(&render_op(op));
        out.push('\n');
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DiffTag {
    Keep,
    Del,
    Ins,
}

/// Myers O((N+M)·D) shortest-edit-script over lines.
fn diff_script<'a>(a: &[&'a str], b: &[&'a str]) -> Vec<(DiffTag, &'a str)> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let max = n + m;
    if max == 0 {
        return Vec::new();
    }
    let offset = max;
    let width = (2 * max + 1) as usize;
    let mut v = vec![0isize; width];
    let mut trace: Vec<Vec<isize>> = Vec::new();
    let mut found = None;
    'outer: for d in 0..=max {
        trace.push(v.clone());
        let mut k = -d;
        while k <= d {
            let ki = (k + offset) as usize;
            let mut x = if k == -d || (k != d && v[ki - 1] < v[ki + 1]) {
                v[ki + 1]
            } else {
                v[ki - 1] + 1
            };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[ki] = x;
            if x >= n && y >= m {
                found = Some(d);
                break 'outer;
            }
            k += 2;
        }
    }
    let found = found.expect("edit distance is at most n+m");

    // Backtrack from (n, m) through the stored V snapshots.
    let mut script: Vec<(DiffTag, &str)> = Vec::new();
    let (mut x, mut y) = (n, m);
    for d in (0..=found).rev() {
        let vd = &trace[d as usize];
        let k = x - y;
        let prev_k = if k == -d
            || (k != d && vd[(k - 1 + offset) as usize] < vd[(k + 1 + offset) as usize])
        {
            k + 1
        } else {
            k - 1
        };
        let prev_x = vd[(prev_k + offset) as usize];
        let prev_y = prev_x - prev_k;
        while x > prev_x && y > prev_y {
            script.push((DiffTag::Keep, a[(x - 1) as usize]));
            x -= 1;
            y -= 1;
        }
        if d > 0 {
            if x == prev_x {
                script.push((DiffTag::Ins, b[(y - 1) as usize]));
            } else {
                script.push((DiffTag::Del, a[(x - 1) as usize]));
            }
        }
        x = prev_x;
        y = prev_y;
    }
    script.reverse();
    script
}

/// Renders a unified diff (3 lines of context) between two texts; empty
/// string when they are identical.
pub fn unified_diff(before: &str, after: &str, from_label: &str, to_label: &str) -> String {
    if before == after {
        return String::new();
    }
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let script = diff_script(&a, &b);

    // Prefix counts of a- and b-lines for hunk headers.
    let mut a_before = vec![0usize; script.len() + 1];
    let mut b_before = vec![0usize; script.len() + 1];
    for (i, (tag, _)) in script.iter().enumerate() {
        a_before[i + 1] = a_before[i] + usize::from(*tag != DiffTag::Ins);
        b_before[i + 1] = b_before[i] + usize::from(*tag != DiffTag::Del);
    }

    const CONTEXT: usize = 3;
    // Group changed entries into hunk ranges with context, merging ranges
    // whose context overlaps.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (i, (tag, _)) in script.iter().enumerate() {
        if *tag == DiffTag::Keep {
            continue;
        }
        let lo = i.saturating_sub(CONTEXT);
        let hi = (i + CONTEXT + 1).min(script.len());
        match ranges.last_mut() {
            Some((_, end)) if lo <= *end => *end = hi,
            _ => ranges.push((lo, hi)),
        }
    }

    let mut out = format!("--- {from_label}\n+++ {to_label}\n");
    for (lo, hi) in ranges {
        let a_len = a_before[hi] - a_before[lo];
        let b_len = b_before[hi] - b_before[lo];
        let a_start = if a_len == 0 {
            a_before[lo]
        } else {
            a_before[lo] + 1
        };
        let b_start = if b_len == 0 {
            b_before[lo]
        } else {
            b_before[lo] + 1
        };
        out.push_str(&format!("@@ -{a_start},{a_len} +{b_start},{b_len} @@\n"));
        for (tag, text) in &script[lo..hi] {
            let prefix = match tag {
                DiffTag::Keep => ' ',
                DiffTag::Del => '-',
                DiffTag::Ins => '+',
            };
            out.push(prefix);
            out.push_str(text);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;
    use janus_nvm::line::Line;

    fn fix_paper(p: &Program) -> FixOutcome {
        fix_program(p, &BmoStack::paper())
    }

    fn assert_gate_held(outcome: &FixOutcome) {
        assert!(outcome.after.diagnostics.len() <= outcome.before.diagnostics.len());
        for c in PROGRAM_CODES {
            assert!(
                outcome.after.count(c) <= outcome.before.count(c),
                "{c:?} regressed: {} -> {}",
                outcome.before.count(c),
                outcome.after.count(c)
            );
        }
    }

    #[test]
    fn clean_program_is_untouched() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(1));
        let p = b.build();
        let outcome = fix_paper(&p);
        assert!(!outcome.changed());
        assert_eq!(outcome.program, p);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn stale_hint_is_retargeted_when_the_window_is_wide() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(9)); // differs from hint
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.applied.len(), 1);
        assert_eq!(outcome.applied[0].kind, FixKind::Retarget);
        assert_eq!(outcome.after.well_placed, 1, "hint now consumed cleanly");
        assert_gate_held(&outcome);
    }

    #[test]
    fn stale_hint_with_short_window_is_deleted_not_retargeted() {
        // Retargeting would convert modified-after-pre into
        // insufficient-window; the gate refuses that and deletion wins.
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.persist_store(LineAddr(1), Line::splat(9));
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert!(outcome.refused > 0, "retarget must have been refused");
        assert_eq!(outcome.applied[0].kind, FixKind::Delete);
        assert_eq!(outcome.program.pre_op_count(), 0);
        assert_gate_held(&outcome);
    }

    #[test]
    fn late_request_is_hoisted_to_the_dominating_marker() {
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(5000);
            let obj = b.pre_init();
            b.pre_both(obj, LineAddr(4), vec![Line::splat(1)]); // far too late
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.applied.len(), 1);
        assert_eq!(outcome.applied[0].kind, FixKind::Hoist);
        assert_eq!(outcome.after.well_placed, 1);
        // The request now sits right after the address marker.
        let gen = outcome
            .program
            .ops
            .iter()
            .position(|o| matches!(o, Op::AddrGen { .. }))
            .unwrap();
        assert!(matches!(outcome.program.ops[gen + 1], Op::PreInit(_)));
        assert!(matches!(
            outcome.program.ops[gen + 2],
            Op::Pre {
                func: PreFunc::Both { .. },
                buffered: false,
                ..
            }
        ));
        assert_gate_held(&outcome);
    }

    #[test]
    fn late_request_without_markers_is_deleted() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.persist_store(LineAddr(1), Line::splat(1));
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.applied[0].kind, FixKind::Delete);
        assert_eq!(outcome.program.pre_op_count(), 0);
        assert_gate_held(&outcome);
    }

    #[test]
    fn duplicate_request_is_merged_into_the_earlier_one() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(1));
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.after.well_placed, 1);
        // Exactly one request (with its init) survives the merge; which of
        // the two identical hints is kept is the gate's choice — the lint
        // anchors the shadowed earlier hint first, so the later one wins.
        assert_eq!(outcome.program.pre_op_count(), 2);
        let objs: Vec<u32> = outcome
            .program
            .ops
            .iter()
            .filter_map(|o| o.pre_obj().map(|obj| obj.0))
            .collect();
        assert!(objs.iter().all(|&o| o == objs[0]), "{objs:?}");
        assert_gate_held(&outcome);
    }

    #[test]
    fn unused_init_is_deleted() {
        let mut b = ProgramBuilder::new();
        let _obj = b.pre_init();
        b.compute(10);
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.program.pre_op_count(), 0);
        assert_gate_held(&outcome);
    }

    #[test]
    fn dirty_commit_gets_a_reflush_and_fence() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        b.store(LineAddr(1), Line::splat(2)); // dirty again, never re-flushed
        b.tx_commit();
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.count(LintCode::PersistOrdering), 0);
        assert_eq!(outcome.applied[0].kind, FixKind::InsertPersist);
        let commit = outcome
            .program
            .ops
            .iter()
            .position(|o| matches!(o, Op::TxCommit))
            .unwrap();
        assert_eq!(outcome.program.ops[commit - 1], Op::Fence);
        assert_eq!(outcome.program.ops[commit - 2], Op::Clwb(LineAddr(1)));
        assert_gate_held(&outcome);
    }

    #[test]
    fn unfenced_flush_gets_a_fence_before_commit() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.tx_commit();
        let outcome = fix_paper(&b.build());
        assert_eq!(outcome.after.count(LintCode::PersistOrdering), 0);
        let commit = outcome
            .program
            .ops
            .iter()
            .position(|o| matches!(o, Op::TxCommit))
            .unwrap();
        assert_eq!(outcome.program.ops[commit - 1], Op::Fence);
        assert_gate_held(&outcome);
    }

    #[test]
    fn fix_is_idempotent() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(2)]);
        b.compute(100);
        b.persist_store(LineAddr(1), Line::splat(3));
        b.tx_begin();
        b.store(LineAddr(7), Line::splat(7));
        b.clwb(LineAddr(7));
        b.tx_commit();
        let outcome = fix_paper(&b.build());
        let again = fix_paper(&outcome.program);
        assert!(!again.changed(), "{:?}", again.applied);
        assert_eq!(again.program, outcome.program);
    }

    #[test]
    fn seeded_misuse_round_trips_clean() {
        let mut b = ProgramBuilder::new();
        b.compute(10);
        b.persist_store(LineAddr(3), Line::splat(5));
        let clean = b.build();
        let mut seeded = clean.clone();
        seed_stale_hint(&mut seeded);
        assert!(lint_program(&seeded, &BmoStack::paper()).errors() > 0);
        let outcome = fix_paper(&seeded);
        assert_eq!(outcome.after.diagnostics.len(), 0);
        assert_eq!(outcome.program, clean, "fix restores the clean program");
    }

    #[test]
    fn fixes_never_touch_the_store_load_stream() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.load(LineAddr(2));
        b.persist_store(LineAddr(1), Line::splat(9));
        let p = b.build();
        let outcome = fix_paper(&p);
        let stream = |p: &Program| -> Vec<Op> {
            p.ops
                .iter()
                .filter(|o| matches!(o, Op::Store { .. } | Op::Load(_)))
                .cloned()
                .collect()
        };
        assert_eq!(stream(&p), stream(&outcome.program));
    }

    #[test]
    fn render_and_diff_are_deterministic() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.persist_store(LineAddr(1), Line::splat(9));
        let p = b.build();
        let outcome = fix_paper(&p);
        let before = render_program(&p);
        let after = render_program(&outcome.program);
        let d1 = unified_diff(&before, &after, "a", "b");
        let d2 = unified_diff(&before, &after, "a", "b");
        assert_eq!(d1, d2);
        assert!(d1.starts_with("--- a\n+++ b\n@@ "), "{d1}");
        assert!(d1.contains("-pre_both obj=0 L1 [0x01]"), "{d1}");
        assert_eq!(unified_diff(&before, &before, "a", "b"), "");
    }

    #[test]
    fn unified_diff_matches_hand_checked_hunks() {
        let a = "one\ntwo\nthree\nfour\nfive\nsix\nseven\n";
        let b2 = "one\ntwo\nTHREE\nfour\nfive\nsix\nseven\n";
        let d = unified_diff(a, b2, "x", "y");
        assert_eq!(
            d,
            "--- x\n+++ y\n@@ -1,6 +1,6 @@\n one\n two\n-three\n+THREE\n four\n five\n six\n"
        );
    }
}
