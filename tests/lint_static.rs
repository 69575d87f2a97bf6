//! Integration tests for `janus-lint`: golden lint-report snapshots over
//! the workload suite, negative tests that misplace `PRE_*` calls and
//! assert each lint fires at the right span, byte-determinism of the JSON
//! reports, and the headline guarantee for the automated placement pass —
//! `auto_place` must recover ≥95% of the hand instrumentation's Figure 9
//! speedup.

use janus::bmo::BmoStack;
use janus::core::config::{JanusConfig, SystemMode};
use janus::core::ir::{Program, ProgramBuilder};
use janus::core::system::System;
use janus::instrument::instrument;
use janus::lint::{
    auto_place, fix_program, lint_permutations, lint_program, seed_stale_hint, LintCode,
    LintReport, Severity,
};
use janus::nvm::addr::LineAddr;
use janus::nvm::line::Line;
use janus::workloads::{generate, Instrumentation, Workload, WorkloadConfig};

fn lint(p: &Program) -> LintReport {
    lint_program(p, &BmoStack::paper())
}

fn manual_program(w: Workload) -> Program {
    generate(
        w,
        0,
        &WorkloadConfig {
            transactions: 50,
            instrumentation: Instrumentation::Manual,
            ..WorkloadConfig::default()
        },
    )
    .program
}

fn bare_program(w: Workload, tx: usize) -> janus::workloads::WorkloadOutput {
    generate(
        w,
        0,
        &WorkloadConfig {
            transactions: tx,
            instrumentation: Instrumentation::None,
            ..WorkloadConfig::default()
        },
    )
}

/// Golden snapshots: the lint report for every workload's manual
/// instrumentation (clean, with pinned request counts) and for the legacy
/// compiler pass's output (which carries short-window diagnostics). The
/// files under `tests/golden/lint/` are regenerated with
/// `cargo run -p janus-bench --bin janus-lint -- --all --json [--instr auto]`.
#[test]
fn golden_lint_reports() {
    let golden: [(&str, &str, &str); 7] = [
        (
            "array_swap",
            include_str!("golden/lint/array_swap.json"),
            include_str!("golden/lint/array_swap.auto.json"),
        ),
        (
            "queue",
            include_str!("golden/lint/queue.json"),
            include_str!("golden/lint/queue.auto.json"),
        ),
        (
            "hash_table",
            include_str!("golden/lint/hash_table.json"),
            include_str!("golden/lint/hash_table.auto.json"),
        ),
        (
            "btree",
            include_str!("golden/lint/btree.json"),
            include_str!("golden/lint/btree.auto.json"),
        ),
        (
            "rb_tree",
            include_str!("golden/lint/rb_tree.json"),
            include_str!("golden/lint/rb_tree.auto.json"),
        ),
        (
            "tatp",
            include_str!("golden/lint/tatp.json"),
            include_str!("golden/lint/tatp.auto.json"),
        ),
        (
            "tpcc",
            include_str!("golden/lint/tpcc.json"),
            include_str!("golden/lint/tpcc.auto.json"),
        ),
    ];

    for w in Workload::all() {
        let (_, manual_golden, auto_golden) = golden
            .iter()
            .find(|(slug, _, _)| *slug == w.slug())
            .expect("golden file per workload");
        let manual = lint(&manual_program(w));
        assert_eq!(
            manual.to_json(),
            manual_golden.trim_end(),
            "{w}: manual lint report diverged from golden"
        );
        assert_eq!(
            manual.errors(),
            0,
            "{w}: manual instrumentation must lint clean"
        );

        let auto = lint(&instrument(&bare_program(w, 50).program).0);
        assert_eq!(
            auto.to_json(),
            auto_golden.trim_end(),
            "{w}: auto lint report diverged from golden"
        );
    }
}

/// Byte-determinism: regenerating the workload and linting again must give
/// the identical JSON string, and the permutation sweep is stable too.
#[test]
fn lint_reports_are_byte_deterministic() {
    for w in [Workload::Tatp, Workload::Tpcc] {
        let a = lint(&manual_program(w)).to_json();
        let b = lint(&manual_program(w)).to_json();
        assert_eq!(a, b);
    }
    assert_eq!(lint_permutations(), lint_permutations());
}

/// A store that changes the hinted value is flagged at the store's span,
/// pointing back at the request.
#[test]
fn misplaced_stale_hint_fires_at_the_store() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init(); // @0
    b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]); // @1
    b.compute(5000); // @2
    b.store(LineAddr(1), Line::splat(2)); // @3 — differs from hint
    b.clwb(LineAddr(1)); // @4
    b.fence(); // @5
    let r = lint(&b.build());
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::ModifiedAfterPre)
        .expect("stale hint must be flagged");
    assert_eq!((d.at, d.other, d.line), (3, Some(1), Some(1)));
    assert_eq!(d.severity, Severity::Error);
}

/// A request no write ever consumes is flagged at the request's span.
#[test]
fn misplaced_unconsumed_request_fires_at_the_request() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init(); // @0
    b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]); // @1
    b.compute(100); // @2 — and no write follows
    let r = lint(&b.build());
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::UselessPre)
        .expect("unconsumed request must be flagged");
    assert_eq!((d.at, d.line), (1, Some(1)));
}

/// A request issued too close to its flush is flagged at the flush, with
/// the window and the required BMO critical path (2764 cycles for the
/// paper stack).
#[test]
fn misplaced_late_request_fires_at_the_flush() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init(); // @0
    b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]); // @1
    b.compute(100); // @2 — far less than the critical path
    b.store(LineAddr(1), Line::splat(1)); // @3
    b.clwb(LineAddr(1)); // @4
    b.fence(); // @5
    let r = lint(&b.build());
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::InsufficientWindow)
        .expect("short window must be flagged");
    assert_eq!((d.at, d.other), (4, Some(1)));
    let (window, required) = d.window.expect("window diagnostics carry cycles");
    assert!(window < required);
    assert_eq!(required, 2764);
}

/// An exact duplicate of a live request is a redundant-pre warning (and
/// the shadowed original a useless-pre error).
#[test]
fn duplicate_request_fires_redundant_pre() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init(); // @0
    b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]); // @1
    let obj2 = b.pre_init(); // @2
    b.pre_both(obj2, LineAddr(1), vec![Line::splat(1)]); // @3 — identical
    b.compute(5000);
    b.store(LineAddr(1), Line::splat(1));
    b.clwb(LineAddr(1));
    b.fence();
    let r = lint(&b.build());
    let dup = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::RedundantPre)
        .expect("duplicate must be flagged redundant");
    assert_eq!(dup.at, 3);
    assert_eq!(dup.severity, Severity::Warning);
    let shadowed = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::UselessPre)
        .expect("shadowed original is useless");
    assert_eq!(shadowed.at, 1);
}

/// A flush that never reaches a fence before commit is a persist-ordering
/// hazard at the flush's span.
#[test]
fn unfenced_flush_fires_persist_ordering() {
    let mut b = ProgramBuilder::new();
    b.tx_begin();
    b.store(LineAddr(1), Line::splat(1));
    let clwb_at = {
        b.clwb(LineAddr(1));
        2
    };
    b.tx_commit(); // no fence between the clwb and the commit
    let r = lint(&b.build());
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::PersistOrdering)
        .expect("unfenced flush must be flagged");
    assert_eq!(d.at, clwb_at);
}

/// More live requests than the IRB holds is an IRB-pressure warning
/// carrying (peak, capacity).
#[test]
fn over_capacity_requests_fire_irb_pressure() {
    let mut b = ProgramBuilder::new();
    for k in 0..80u64 {
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(k), vec![Line::splat(k as u8)]);
    }
    b.compute(5000);
    for k in 0..80u64 {
        b.store(LineAddr(k), Line::splat(k as u8));
        b.clwb(LineAddr(k));
    }
    b.fence();
    let r = lint(&b.build());
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::IrbPressure)
        .expect("IRB pressure must be flagged");
    assert_eq!(d.window, Some((80, 64)));
    assert_eq!(d.severity, Severity::Warning);
}

fn run_cycles(program: Program, out: &janus::workloads::WorkloadOutput) -> f64 {
    let mode = if program.ops.iter().any(|o| o.is_pre()) {
        SystemMode::Janus
    } else {
        SystemMode::Serialized
    };
    let mut sys = System::new(JanusConfig::paper(mode, 1));
    sys.warm_caches(out.expected.iter().map(|(a, _)| a));
    for (first, n) in &out.resident {
        sys.warm_caches(first.span(*n));
    }
    sys.run(vec![program]).cycles.0 as f64
}

/// The acceptance bar for the fix engine: seed the canonical §6 misuse
/// into every workload's manual instrumentation, repair it with the
/// `--fix` engine, and the fixed program must lint clean *and* recover at
/// least 95% of the hand instrumentation's Figure 9 speedup over the
/// serialized baseline.
#[test]
fn fixed_seeded_misuse_recovers_manual_speedup() {
    const TX: usize = 40;
    for w in Workload::all() {
        let bare = bare_program(w, TX);
        let manual = generate(
            w,
            0,
            &WorkloadConfig {
                transactions: TX,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        );
        let mut seeded = manual.program.clone();
        seed_stale_hint(&mut seeded);
        assert!(
            lint(&seeded).errors() > 0,
            "{w}: the seeded misuse must trip the lint"
        );
        let outcome = fix_program(&seeded, &BmoStack::paper());
        assert_eq!(
            outcome.after.errors(),
            0,
            "{w}: fixed program must lint clean: {:?}",
            outcome.after.diagnostics
        );
        let serialized = run_cycles(bare.program.clone(), &bare);
        let manual_cycles = run_cycles(manual.program.clone(), &manual);
        let fixed_cycles = run_cycles(outcome.program.clone(), &manual);
        let manual_speedup = serialized / manual_cycles;
        let fixed_speedup = serialized / fixed_cycles;
        assert!(
            fixed_speedup >= 0.95 * manual_speedup,
            "{w}: fixed speedup {fixed_speedup:.2}x < 95% of manual {manual_speedup:.2}x"
        );
    }
}

/// The acceptance bar for the placement pass: on the Figure 9 workloads,
/// `auto_place`'s speedup over the serialized baseline must be at least
/// 95% of the hand instrumentation's, and it must never take more cycles
/// than the paper's pass it succeeds.
#[test]
fn auto_place_recovers_manual_speedup() {
    const TX: usize = 40;
    for w in Workload::all() {
        let bare = bare_program(w, TX);
        let manual = generate(
            w,
            0,
            &WorkloadConfig {
                transactions: TX,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        );
        let serialized = run_cycles(bare.program.clone(), &bare);
        let manual_cycles = run_cycles(manual.program.clone(), &manual);
        let placed_cycles = run_cycles(auto_place(&bare.program).0, &bare);
        let paper_cycles = run_cycles(instrument(&bare.program).0, &bare);
        let manual_speedup = serialized / manual_cycles;
        let placed_speedup = serialized / placed_cycles;
        assert!(
            placed_speedup >= 0.95 * manual_speedup,
            "{w}: auto_place speedup {placed_speedup:.2}x < 95% of manual {manual_speedup:.2}x"
        );
        assert!(
            placed_cycles <= paper_cycles,
            "{w}: auto_place {placed_cycles} cycles > the paper pass's {paper_cycles}"
        );
    }
}
