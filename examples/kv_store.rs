//! A crash-consistent persistent key-value store on the Janus stack.
//!
//! Builds a small hash-indexed KV store with undo-log transactions, runs it
//! under the Janus memory system, then simulates a power failure and
//! recovers: the committed puts survive, the integrity chain verifies, and
//! an uncommitted transaction is rolled back with the undo log.
//!
//! Run with: `cargo run --release --example kv_store`

use janus::core::config::{JanusConfig, SystemMode};
use janus::core::controller::MemoryController;
use janus::core::system::System;
use janus::nvm::{addr::LineAddr, line::Line};
use janus::workloads::undo::{undo_recovery, Instrumentation, WorkloadCtx};

/// Keys live at `base + hash(key) % BUCKETS`, one line per entry.
const BUCKETS: u64 = 64;

fn bucket_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (58 % BUCKETS)
}

fn main() {
    let mut ctx = WorkloadCtx::new(0, Instrumentation::Manual);
    let base = ctx
        .heap
        .alloc(BUCKETS)
        .expect("64 lines fit a fresh core region");
    let entry = |key: u64| LineAddr(base.0 + bucket_of(key) % BUCKETS);

    // Five committed puts.
    let puts: Vec<(u64, u64)> = (1..=5).map(|k| (k * 7, k * 1000)).collect();
    for &(key, value) in &puts {
        let line = entry(key);
        let new = Line::from_words(&[key, value]);
        ctx.begin_tx();
        ctx.declare_both(0, line, &[new]);
        ctx.load(line);
        ctx.backup(&[(line, ctx.current(line))]);
        ctx.update(&[(line, new)]);
        ctx.commit();
    }
    // One *uncommitted* put: the crash hits between update and commit.
    let (bad_key, bad_value) = (99u64, 31337u64);
    {
        let line = entry(bad_key);
        ctx.begin_tx();
        ctx.load(line);
        ctx.backup(&[(line, ctx.current(line))]);
        ctx.update(&[(line, Line::from_words(&[bad_key, bad_value]))]);
        // no commit — power fails here
    }

    let program = ctx.build();
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
    // Run everything, then pull the plug (all accepted writes are in the
    // persistent domain thanks to ADR).
    let (snapshot, root) = sys
        .run_until_crash(vec![program], janus::sim::time::Cycles(u64::MAX / 2))
        .expect("one program per core");

    println!("power failure! recovering from the persistent domain...");
    let recovered =
        MemoryController::recover(&snapshot, JanusConfig::paper(SystemMode::Janus, 1), root)
            .expect("integrity verified: metadata matches the secure root");

    // Undo-log recovery rolls back the uncommitted put.
    let fixes = undo_recovery(0, |l| recovered.read_value(l));
    println!("undo log: {} line(s) to roll back", fixes.len());
    let view = |l: LineAddr| {
        fixes
            .iter()
            .find(|(a, _)| *a == l)
            .map(|(_, old)| *old)
            .unwrap_or_else(|| recovered.read_value(l))
    };

    for &(key, value) in &puts {
        let line = entry(key);
        let got = view(line);
        assert_eq!(got.read_u64(0), key);
        assert_eq!(got.read_u64(8), value);
        println!("get({key:3}) = {} (committed, survived)", got.read_u64(8));
    }
    let bad = view(entry(bad_key));
    assert_ne!(
        bad.read_u64(8),
        bad_value,
        "uncommitted put must not survive recovery"
    );
    println!("get({bad_key:3}) = rolled back (uncommitted transaction)");
    println!("all checks passed");
}
