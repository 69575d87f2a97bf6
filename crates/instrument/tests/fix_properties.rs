//! Property tests for the `janus-lint --fix` engine, driven by the same
//! adversarially mis-instrumented program generator the lint-differential
//! suite uses. The engine's contract, checked on every generated program:
//!
//! * the strict-reduction gate holds (no lint code's count ever rises and
//!   the total never grows);
//! * the fixpoint terminates within its well-founded bound and leaves the
//!   three §6 misuse patterns extinct;
//! * `--fix` is idempotent — fixing a fixed program changes nothing;
//! * `verify_fix` passes both halves of the `--fix` gate: the fixed program
//!   re-lints to the engine's own report, and it preserves the
//!   `Store`/`Load` stream and passes the dynamic trace oracle with zero
//!   misuses.

#[path = "support/misroutines.rs"]
mod misroutines;

use janus_bmo::BmoStack;
use janus_check::{forall_cfg, Config};
use janus_core::ir::{Program, ProgramBuilder};
use janus_instrument::misuse::verify_fix;
use janus_lint::{fix_program, seed_stale_hint, FixOutcome, LintCode};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use misroutines::{arb_misroutines, build};

fn fix_paper(p: &Program) -> FixOutcome {
    fix_program(p, &BmoStack::paper())
}

/// Every lint code a program report can carry.
const PROGRAM_CODES: [LintCode; 6] = [
    LintCode::ModifiedAfterPre,
    LintCode::UselessPre,
    LintCode::InsufficientWindow,
    LintCode::RedundantPre,
    LintCode::IrbPressure,
    LintCode::PersistOrdering,
];

/// The strict-reduction gate holds over the whole run, the fixpoint stays
/// inside its well-founded bound, and no §6 misuse survives the fix.
#[test]
fn fix_reduces_and_clears_the_misuse_patterns() {
    forall_cfg(&Config::with_cases(72), &arb_misroutines(), |routines| {
        let p = build(routines);
        let outcome = fix_paper(&p);
        assert!(
            outcome.after.diagnostics.len() <= outcome.before.diagnostics.len(),
            "total diagnostics grew: {routines:?}"
        );
        for c in PROGRAM_CODES {
            assert!(
                outcome.after.count(c) <= outcome.before.count(c),
                "{c:?} regressed on {routines:?}"
            );
        }
        for c in [
            LintCode::ModifiedAfterPre,
            LintCode::UselessPre,
            LintCode::InsufficientWindow,
        ] {
            assert_eq!(
                outcome.after.count(c),
                0,
                "{c:?} survived the fix on {routines:?}: {:?}",
                outcome.after.diagnostics
            );
        }
        // Termination measure: one accepted fix per iteration, each
        // strictly decreasing the diagnostic count.
        assert!(
            outcome.iterations <= outcome.before.diagnostics.len() + 1,
            "fixpoint overran its bound: {} iterations for {} diagnostics",
            outcome.iterations,
            outcome.before.diagnostics.len()
        );
    });
}

/// Fixing a fixed program is a no-op, byte for byte.
#[test]
fn fix_is_idempotent_on_adversarial_programs() {
    forall_cfg(&Config::with_cases(48), &arb_misroutines(), |routines| {
        let outcome = fix_paper(&build(routines));
        let again = fix_paper(&outcome.program);
        assert!(
            !again.changed(),
            "second fix pass changed the program: {:?} on {routines:?}",
            again.applied
        );
        assert_eq!(again.program, outcome.program);
    });
}

/// The `--fix` verification gate, both halves: the fixed program re-lints
/// to the engine's own report, preserves the `Store`/`Load` stream and
/// replays through the dynamic trace oracle with zero misuses.
#[test]
fn fixed_programs_pass_the_trace_oracle() {
    forall_cfg(&Config::with_cases(48), &arb_misroutines(), |routines| {
        let p = build(routines);
        let outcome = fix_paper(&p);
        let v = verify_fix(&p, &outcome, &BmoStack::paper());
        assert!(v.relint_agrees, "re-lint disagrees on {routines:?}: {v}");
        assert!(v.ok(), "stream/oracle regression on {routines:?}: {v}");
        assert!(
            v.clean(),
            "dynamic misuses survive the fix on {routines:?}: {v}"
        );
    });
}

/// The canonical seeded misuse is always repaired, on any generated
/// uninstrumented store stream.
#[test]
fn seeded_misuse_is_always_repaired() {
    forall_cfg(&Config::with_cases(48), &arb_misroutines(), |routines| {
        let mut b = ProgramBuilder::new();
        for r in routines {
            b.func("routine", |b| {
                b.compute(r.compute);
                b.store(LineAddr(r.line), Line::splat(r.value));
                b.clwb(LineAddr(r.line));
                b.fence();
            });
        }
        let mut seeded = b.build();
        seed_stale_hint(&mut seeded);
        let outcome = fix_paper(&seeded);
        assert_eq!(
            outcome.after.errors(),
            0,
            "seeded program not repaired: {routines:?}"
        );
        let v = verify_fix(&seeded, &outcome, &BmoStack::paper());
        assert!(v.relint_agrees && v.ok() && v.clean(), "{routines:?}: {v}");
    });
}
