//! Structural linter over BMO dependency graphs.
//!
//! Independent of any program, a BMO stack can itself be ill-formed: a
//! composition order whose inter edges close a cycle, an edge declared
//! twice, an edge already implied by a longer path (harmless for
//! correctness but noise for the scheduler and a red flag in a BMO's
//! declaration), or a BMO whose declared pre-executability class (§4.2)
//! disagrees with the external inputs its own sub-operations actually
//! touch. [`lint_stack`] checks one stack; [`lint_permutations`] sweeps
//! every ordering of the full registry, so a newly added BMO whose edges
//! only misbehave under some composition order is caught in CI.

use janus_bmo::latency::BmoLatencies;
use janus_bmo::subop::{EdgeKind, SubOp};
use janus_bmo::{BmoId, BmoStack, EdgeError, ExternalClass};

use crate::report::{Diagnostic, LintCode};

/// Lints one stack's composed dependency graph (paper latencies).
pub fn lint_stack(stack: &BmoStack) -> Vec<Diagnostic> {
    let lat = BmoLatencies::paper();
    let mut out = Vec::new();
    let label = stack.id_list();
    let (g, issues) = stack.try_graph(&lat);
    for issue in issues {
        let (code, detail) = match issue.error {
            EdgeError::SelfEdge(_) | EdgeError::Cycle(..) => (
                LintCode::GraphCycle,
                "closes a dependency cycle".to_string(),
            ),
            EdgeError::Duplicate(..) => (
                LintCode::GraphDuplicateEdge,
                "is declared more than once".to_string(),
            ),
        };
        out.push(
            Diagnostic::new(
                code,
                0,
                format!("edge {} -> {} {detail}", issue.from, issue.to),
            )
            .with_stack(label.clone()),
        );
    }
    for (from, to, kind) in g.redundant_edges() {
        if kind != EdgeKind::Inter {
            continue; // intra chains encode declaration order, not deps
        }
        out.push(
            Diagnostic::new(
                LintCode::GraphRedundantEdge,
                0,
                format!(
                    "inter edge {} -> {} is implied by a longer path and can be dropped",
                    g.node(from).name,
                    g.node(to).name
                ),
            )
            .with_stack(label.clone()),
        );
    }
    for &id in stack.members() {
        if let Some(d) = lint_bmo_class(id, id.pre_exec(), &id.sub_ops(&lat)) {
            out.push(d.with_stack(label.clone()));
        }
    }
    out
}

/// Checks BMO `id`'s `declared` pre-executability class against the union
/// of the direct external inputs of its sub-operation `fragment`.
pub fn lint_bmo_class(
    id: BmoId,
    declared: ExternalClass,
    fragment: &[SubOp],
) -> Option<Diagnostic> {
    let derived = ExternalClass::of(
        fragment.iter().any(|o| o.needs_addr),
        fragment.iter().any(|o| o.needs_data),
    );
    if declared == derived {
        return None;
    }
    Some(Diagnostic::new(
        LintCode::GraphClassMismatch,
        0,
        format!("{id} declares pre-executability {declared:?} but its sub-ops require {derived:?}"),
    ))
}

/// Sweeps [`lint_stack`] over every ordering of the full seven-BMO
/// registry (7! = 5040 stacks), deduplicating findings by `(code,
/// message)`. Each surviving diagnostic keeps the lexicographically first
/// stack that exhibited it, so the output is deterministic.
pub fn lint_permutations() -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    for perm in permutations(&BmoId::ALL) {
        let stack = BmoStack::new(perm).expect("permutations have no duplicates");
        for d in lint_stack(&stack) {
            if !out
                .iter()
                .any(|e| e.code == d.code && e.message == d.message)
            {
                out.push(d);
            }
        }
    }
    out.sort_by(|a, b| (a.code, &a.message).cmp(&(b.code, &b.message)));
    out
}

/// All permutations of `items`, in lexicographic order of positions.
fn permutations(items: &[BmoId]) -> Vec<Vec<BmoId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest: Vec<BmoId> = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    #[test]
    fn paper_stack_is_structurally_clean() {
        let ds = lint_stack(&BmoStack::paper());
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn full_stack_reports_the_two_redundant_ecc_edges() {
        let ds = lint_stack(&BmoStack::all());
        let redundant: Vec<&str> = ds
            .iter()
            .filter(|d| d.code == LintCode::GraphRedundantEdge)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(redundant.len(), 2, "{ds:?}");
        assert!(redundant.iter().any(|m| m.contains("D2 -> EC1")));
        assert!(redundant.iter().any(|m| m.contains("C1 -> EC1")));
        // Redundant edges are advisory, not errors.
        assert!(
            ds.iter().all(|d| d.severity() == Severity::Warning),
            "{ds:?}"
        );
    }

    #[test]
    fn class_mismatch_fires_on_a_lying_bmo() {
        let lat = BmoLatencies::paper();
        // A lie: C1 needs data, not the address.
        let fragment = BmoId::Compression.sub_ops(&lat);
        let d = lint_bmo_class(BmoId::Compression, ExternalClass::Addr, &fragment)
            .expect("mismatch must fire");
        assert_eq!(d.code, LintCode::GraphClassMismatch);
        assert!(
            d.message.contains("Addr") && d.message.contains("Data"),
            "{}",
            d.message
        );
        // And the real registry is honest.
        for id in BmoId::ALL {
            assert!(
                lint_bmo_class(id, id.pre_exec(), &id.sub_ops(&lat)).is_none(),
                "{id}"
            );
        }
    }

    #[test]
    fn permutation_sweep_is_deterministic_and_error_free() {
        let a = lint_permutations();
        let b = lint_permutations();
        assert_eq!(a, b);
        // Composition is order-independent in edge *set*, so no ordering of
        // the registry may produce a cycle or duplicate: warnings only.
        assert!(a.iter().all(|d| d.severity() == Severity::Warning), "{a:?}");
        assert_eq!(
            a.iter()
                .filter(|d| d.code == LintCode::GraphRedundantEdge)
                .count(),
            2
        );
    }

    #[test]
    fn permutations_enumerate_factorial_many() {
        assert_eq!(permutations(&BmoId::ALL[..3]).len(), 6);
        assert_eq!(permutations(&BmoId::ALL[..1]).len(), 1);
    }
}
