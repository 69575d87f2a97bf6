//! Differential tests between the static misuse lints (`janus-lint`) and
//! the original trace-walking checker, kept as [`trace_oracle`]. On any
//! program — including adversarially mis-instrumented ones — the static
//! findings for the three §6 misuse patterns must *equal* the oracle's,
//! and a lint-clean program must produce zero dynamic misuses.

#[path = "support/misroutines.rs"]
mod misroutines;

use janus_bmo::BmoStack;
use janus_check::{forall_cfg, Config};
use janus_core::ir::ProgramBuilder;
use janus_instrument::instrument;
use janus_instrument::misuse::trace_oracle;
use janus_lint::{auto_place, lint_program, LintCode, LintReport};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use misroutines::{arb_misroutines, build};

type Finding = (
    LintCode,
    usize,
    Option<usize>,
    Option<u64>,
    Option<u32>,
    Option<(u64, u64)>,
);

/// A report's §6 findings in report order, every structured field but the
/// free-text message.
fn findings(r: &LintReport) -> Vec<Finding> {
    r.diagnostics
        .iter()
        .filter(|d| {
            matches!(
                d.code,
                LintCode::ModifiedAfterPre | LintCode::UselessPre | LintCode::InsufficientWindow
            )
        })
        .map(|d| (d.code, d.at, d.other, d.line, d.obj, d.window))
        .collect()
}

/// The static pass and the trace oracle agree *exactly* on the three
/// paper misuse patterns: same findings (codes, spans, lines, objects,
/// windows), same request and well-placed counts.
#[test]
fn static_lints_equal_trace_oracle() {
    forall_cfg(&Config::with_cases(96), &arb_misroutines(), |routines| {
        let p = build(routines);
        let stat = lint_program(&p, &BmoStack::paper());
        let dyn_ = trace_oracle(&p);
        assert_eq!(findings(&stat), findings(&dyn_), "program: {routines:?}");
        assert_eq!(stat.requests, dyn_.requests);
        assert_eq!(stat.well_placed, dyn_.well_placed);
    });
}

/// The satellite property: a statically lint-clean program produces zero
/// dynamic misuses. Checked on the output of both automated passes —
/// `instrument` and `janus_lint::auto_place` — over marker-annotated
/// uninstrumented programs.
#[test]
fn static_clean_implies_dynamic_clean() {
    forall_cfg(&Config::with_cases(64), &arb_misroutines(), |routines| {
        // Strip the hand instrumentation, keep only provenance markers.
        let mut b = ProgramBuilder::new();
        for r in routines {
            b.func("routine", |b| {
                let value = Line::splat(r.value);
                b.addr_gen(LineAddr(r.line), 1);
                b.data_gen(LineAddr(r.line), vec![value]);
                b.compute(r.compute);
                b.store(LineAddr(r.line), value);
                b.clwb(LineAddr(r.line));
                b.fence();
            });
        }
        let bare = b.build();

        for p in [instrument(&bare).0, auto_place(&bare).0] {
            let lint = lint_program(&p, &BmoStack::paper());
            if lint.errors() == 0 {
                let oracle = trace_oracle(&p);
                assert!(
                    oracle.diagnostics.is_empty(),
                    "lint-clean program has dynamic misuses: {:?}",
                    oracle.diagnostics
                );
            }
        }
    });
}
