//! Crash-consistency integration tests: power failures, integrity
//! verification, and undo-log rollback across the full stack.

use janus::core::config::{JanusConfig, SystemMode};
use janus::core::controller::MemoryController;
use janus::core::system::System;
use janus::nvm::{addr::LineAddr, line::Line};
use janus::sim::time::Cycles;
use janus::workloads::undo::{undo_recovery, Instrumentation, WorkloadCtx};
use janus::workloads::{generate, Workload, WorkloadConfig};

fn config() -> JanusConfig {
    JanusConfig::paper(SystemMode::Janus, 1)
}

#[test]
fn every_workload_survives_a_post_run_crash() {
    for w in Workload::all() {
        let out = generate(
            w,
            0,
            &WorkloadConfig {
                transactions: 10,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        );
        let mut sys = System::new(config());
        let (snapshot, root) = sys
            .run_until_crash(vec![out.program], Cycles(u64::MAX / 2))
            .expect("one program per core");
        let rec = MemoryController::recover(&snapshot, config(), root)
            .unwrap_or_else(|e| panic!("{w}: recovery failed: {e}"));
        for (line, expected) in out.expected.iter() {
            assert_eq!(&rec.read_value(line), expected, "{w}: {line} after crash");
        }
    }
}

#[test]
fn mid_run_crash_recovers_to_a_consistent_prefix() {
    // Crash part-way through: whatever recovered must be *consistent* —
    // integrity verifies, and each line holds one of the values the program
    // wrote to it (never garbage).
    let out = generate(
        Workload::ArraySwap,
        0,
        &WorkloadConfig {
            transactions: 40,
            ..WorkloadConfig::default()
        },
    );
    // Legal values per line: every value ever written plus zero.
    let mut legal: std::collections::HashMap<LineAddr, Vec<Line>> =
        std::collections::HashMap::new();
    for op in &out.program.ops {
        if let janus::core::ir::Op::Store { line, value } = op {
            legal.entry(*line).or_default().push(*value);
        }
    }

    for crash_at in [50_000u64, 200_000, 400_000, 800_000] {
        let mut sys = System::new(config());
        let (snapshot, root) = sys
            .run_until_crash(vec![out.program.clone()], Cycles(crash_at))
            .expect("one program per core");
        let rec = MemoryController::recover(&snapshot, config(), root)
            .unwrap_or_else(|e| panic!("crash@{crash_at}: {e}"));
        for (line, values) in &legal {
            let got = rec.read_value(*line);
            assert!(
                got.is_zero() || values.contains(&got),
                "crash@{crash_at}: line {line} holds a value never written"
            );
        }
    }
}

#[test]
fn undo_log_rolls_back_torn_transactions() {
    // Build a program whose last transaction updates but never commits.
    let mut ctx = WorkloadCtx::new(0, Instrumentation::None);
    let target = ctx.heap.alloc(1).expect("fits");
    ctx.begin_tx();
    ctx.backup(&[(target, Line::zero())]);
    ctx.update(&[(target, Line::splat(1))]);
    ctx.commit();
    ctx.begin_tx();
    ctx.backup(&[(target, Line::splat(1))]);
    ctx.update(&[(target, Line::splat(2))]);
    // crash before commit
    let program = ctx.build();

    let mut sys = System::new(config());
    let (snapshot, root) = sys
        .run_until_crash(vec![program], Cycles(u64::MAX / 2))
        .expect("one program per core");
    let rec = MemoryController::recover(&snapshot, config(), root).expect("recovery");
    // The in-place update persisted...
    assert_eq!(rec.read_value(target), Line::splat(2));
    // ...but the undo log knows to roll it back.
    let fixes = undo_recovery(0, |l| rec.read_value(l));
    assert_eq!(fixes, vec![(target, Line::splat(1))]);
}

#[test]
fn tampered_snapshot_is_rejected() {
    let out = generate(
        Workload::Tatp,
        0,
        &WorkloadConfig {
            transactions: 5,
            ..WorkloadConfig::default()
        },
    );
    let mut sys = System::new(config());
    let (mut snapshot, root) = sys
        .run_until_crash(vec![out.program], Cycles(u64::MAX / 2))
        .expect("one program per core");
    // Attacker rewrites chunks of some non-zero persisted line (multi-bit
    // damage: beyond SECDED correction, so it must be *detected*).
    let victim = snapshot.iter().next().map(|(a, _)| a).expect("non-empty");
    let mut line = snapshot.read(victim);
    for b in [2usize, 13, 30, 55] {
        line.0[b] ^= 0x5A;
    }
    snapshot.write(victim, line);
    assert!(
        MemoryController::recover(&snapshot, config(), root).is_err(),
        "tampering with {victim} must be detected"
    );
}

#[test]
fn secure_root_tracks_every_write() {
    let mut mc = MemoryController::new(config());
    let r0 = mc.secure_root();
    mc.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), true);
    let r1 = mc.secure_root();
    assert_ne!(r0, r1);
    mc.handle_write(Cycles(100_000), 0, LineAddr(2), Line::splat(2), true);
    assert_ne!(r1, mc.secure_root());
}
