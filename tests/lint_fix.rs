//! Integration tests for the `janus-lint --fix` engine: golden
//! before/after IR snapshots for every §6 misuse pattern (regenerate with
//! `JANUS_REGEN_GOLDEN=1 cargo test --test lint_fix`), byte-determinism of
//! the rendered programs and diffs, and both halves of the `--fix`
//! verification gate (re-lint equality and the trace-oracle replay) on
//! every fixed program.

use std::path::PathBuf;

use janus::bmo::BmoStack;
use janus::core::ir::{Op, PreFunc, Program, ProgramBuilder};
use janus::instrument::misuse::verify_fix;
use janus::lint::fix::render_op;
use janus::lint::{
    fix_program, lint_program, render_program, seed_stale_hint, unified_diff, FixKind, FixOutcome,
};
use janus::nvm::addr::LineAddr;
use janus::nvm::line::Line;

fn fix_paper(p: &Program) -> FixOutcome {
    fix_program(p, &BmoStack::paper())
}

/// One canonical program per §6 misuse pattern (plus the two
/// persist-ordering hazards), paired with the fix kind the engine must
/// choose for it.
fn patterns() -> Vec<(&'static str, Program, FixKind)> {
    let stale = {
        // Wrong hinted value, wide window: the hint is retargeted.
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(2));
        b.build()
    };
    let useless = {
        // A request no write ever consumes: the pair is deleted.
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(100);
        b.build()
    };
    let window = {
        // A request issued after the compute, far too close to its flush,
        // with a dominating address marker available: hoisted.
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(5000);
            let obj = b.pre_init();
            b.pre_both(obj, LineAddr(4), vec![Line::splat(1)]);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        b.build()
    };
    let redundant = {
        // An exact duplicate of a live request: merged down to one.
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(1));
        b.build()
    };
    let persist_dirty = {
        // A line stored after its last flush, still dirty at commit: the
        // engine re-flushes and fences before the commit.
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.fence();
        b.store(LineAddr(1), Line::splat(2));
        b.tx_commit();
        b.build()
    };
    let persist_unfenced = {
        // A flush never ordered by a fence before commit: fence inserted.
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        b.tx_commit();
        b.build()
    };
    vec![
        ("stale", stale, FixKind::Retarget),
        ("useless", useless, FixKind::Delete),
        ("window", window, FixKind::Hoist),
        ("redundant", redundant, FixKind::Delete),
        ("persist_dirty", persist_dirty, FixKind::InsertPersist),
        ("persist_unfenced", persist_unfenced, FixKind::InsertPersist),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/lint/fix")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("JANUS_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); regenerate with JANUS_REGEN_GOLDEN=1")
    });
    assert_eq!(
        rendered, golden,
        "{name} diverged from its golden snapshot; regenerate with JANUS_REGEN_GOLDEN=1 if intended"
    );
}

/// Golden snapshots: for every misuse pattern, the rendered program before
/// and after `--fix` matches the committed files byte-for-byte, the chosen
/// rewrite is the expected one, and the fixed program lints clean.
#[test]
fn golden_fix_snapshots() {
    for (name, program, kind) in patterns() {
        assert!(
            !lint_program(&program, &BmoStack::paper())
                .diagnostics
                .is_empty(),
            "{name}: the pattern must trip at least one lint"
        );
        let outcome = fix_paper(&program);
        assert!(outcome.changed(), "{name}: a fix must be applied");
        assert_eq!(
            outcome.applied[0].kind, kind,
            "{name}: wrong rewrite chosen: {:?}",
            outcome.applied
        );
        assert_eq!(
            outcome.after.diagnostics.len(),
            0,
            "{name}: fixed program must lint clean: {:?}",
            outcome.after.diagnostics
        );
        check_golden(&format!("{name}.before.txt"), &render_program(&program));
        check_golden(
            &format!("{name}.after.txt"),
            &render_program(&outcome.program),
        );
    }
}

/// Byte-determinism: building, fixing, rendering, and diffing the same
/// pattern twice gives identical bytes (the engine holds no hidden state,
/// so this also pins the `--jobs`-independence of the bin's output).
#[test]
fn fix_snapshots_are_byte_deterministic() {
    for (name, program, _) in patterns() {
        let a = fix_paper(&program);
        let b = fix_paper(&program);
        assert_eq!(
            render_program(&a.program),
            render_program(&b.program),
            "{name}: fixed IR diverged between runs"
        );
        let d1 = unified_diff(
            &render_program(&program),
            &render_program(&a.program),
            "before",
            "after",
        );
        let d2 = unified_diff(
            &render_program(&program),
            &render_program(&b.program),
            "before",
            "after",
        );
        assert_eq!(d1, d2, "{name}: diff diverged between runs");
        assert!(!d1.is_empty(), "{name}: a fix must produce a diff");
    }
}

/// The `--fix` verification gate on every fixed pattern: the re-lint
/// reproduces the engine's report, the `Store`/`Load` stream is preserved,
/// and the trace oracle finds zero dynamic misuses.
#[test]
fn fixed_patterns_pass_the_trace_oracle() {
    for (name, program, _) in patterns() {
        let outcome = fix_paper(&program);
        let v = verify_fix(&program, &outcome, &BmoStack::paper());
        assert!(v.relint_agrees, "{name}: re-lint disagrees: {v}");
        assert!(
            v.ok(),
            "{name}: store/load stream or oracle count regressed: {v}"
        );
        assert!(v.clean(), "{name}: fixed program has dynamic misuses: {v}");
    }
}

/// The seeded CI misuse round-trips: seeding a clean program and fixing it
/// restores the original ops exactly.
#[test]
fn seeded_misuse_round_trips_through_fix() {
    let mut b = ProgramBuilder::new();
    b.compute(50);
    b.persist_store(LineAddr(7), Line::splat(3));
    let clean = b.build();
    let mut seeded = clean.clone();
    seed_stale_hint(&mut seeded);
    assert!(seeded.ops.len() > clean.ops.len());
    let outcome = fix_paper(&seeded);
    assert_eq!(outcome.program, clean);
    assert_eq!(render_program(&outcome.program), render_program(&clean));
}

/// Hoist keeps the request's `PRE_INIT` in front of it and lands both at
/// the dominating marker (structural check on top of the golden bytes).
#[test]
fn hoisted_request_sits_at_the_marker() {
    let (_, program, _) = patterns().remove(2);
    let outcome = fix_paper(&program);
    let marker = outcome
        .program
        .ops
        .iter()
        .position(|o| matches!(o, Op::AddrGen { .. }))
        .expect("marker survives the fix");
    assert!(matches!(outcome.program.ops[marker + 1], Op::PreInit(_)));
    assert!(matches!(
        outcome.program.ops[marker + 2],
        Op::Pre {
            func: PreFunc::Both { .. },
            buffered: false,
            ..
        }
    ));
}

/// Each of Table 2's eight calls renders as its own line of IR text (the
/// goldens above cover only `pre_init` and `pre_both`).
#[test]
fn render_op_prints_every_interface_form() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_addr(obj, LineAddr(3), 1);
    b.pre_data(obj, vec![Line::splat(2)]);
    b.pre_both(obj, LineAddr(5), vec![Line::splat(7), Line::splat(8)]);
    b.pre_addr_buf(obj, LineAddr(4), 2);
    b.pre_data_buf(obj, vec![Line::splat(0xAB)]);
    b.pre_both_buf(obj, LineAddr(6), vec![Line::splat(1)]);
    b.pre_start_buf(obj);
    let rendered: Vec<String> = b.build().ops.iter().map(render_op).collect();
    assert_eq!(
        rendered,
        [
            "pre_init obj=0",
            "pre_addr obj=0 L3 n=1",
            "pre_data obj=0 [0x02]",
            "pre_both obj=0 L5 [0x07 0x08]",
            "pre_addr_buf obj=0 L4 n=2",
            "pre_data_buf obj=0 [0xab]",
            "pre_both_buf obj=0 L6 [0x01]",
            "pre_start_buf obj=0",
        ]
    );
}
