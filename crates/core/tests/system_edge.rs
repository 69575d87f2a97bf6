//! Edge-case integration tests for the full-system simulator: IRB aging,
//! swap invalidation, operation-queue overflow, dirty evictions, and the
//! real-world exception handling of §4.6.

use janus_core::config::{JanusConfig, SystemMode, IRB_MAX_AGE};
use janus_core::controller::MemoryController;
use janus_core::ir::{PreFunc, ProgramBuilder};
use janus_core::irb::IrbKey;
use janus_core::queues::PreRequest;
use janus_core::system::System;
use janus_core::PreObjId;
use janus_nvm::{addr::LineAddr, line::Line};
use janus_sim::time::Cycles;

/// An immediate request from thread 0 for `obj`.
fn request(obj: u32, func: PreFunc) -> PreRequest {
    PreRequest {
        key: IrbKey {
            core: 0,
            obj: PreObjId(obj),
        },
        func,
        buffered: false,
    }
}

fn pre_both(mc: &mut MemoryController, now: Cycles, obj: u32, line: u64, data: Line) {
    let line = LineAddr(line);
    let values = vec![data];
    mc.handle_pre_request(now, request(obj, PreFunc::Both { line, values }));
}

#[test]
fn aged_out_pre_execution_results_are_discarded() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 1));
    pre_both(&mut mc, Cycles(0), 1, 5, Line::splat(9));
    // Another pre-request once the first outlived the 1 ms age register
    // triggers the sweep.
    let later = IRB_MAX_AGE + Cycles(1);
    pre_both(&mut mc, later, 2, 6, Line::splat(8));
    // The aged write misses the IRB.
    mc.handle_write(later + Cycles(100), 0, LineAddr(5), Line::splat(9), false);
    assert_eq!(mc.stats().pre_miss, 1);
    assert_eq!(mc.stats().irb_expired, 1);
    // Functional contents are still correct.
    assert_eq!(mc.read_value(LineAddr(5)), Line::splat(9));
}

#[test]
fn swapped_out_range_clears_pre_execution_state() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 1));
    pre_both(&mut mc, Cycles(0), 1, 100, Line::splat(1));
    pre_both(&mut mc, Cycles(0), 2, 900, Line::splat(2));
    // The OS swaps out lines [0, 512).
    mc.range_swapped(LineAddr(0), 512);
    mc.handle_write(Cycles(50_000), 0, LineAddr(100), Line::splat(1), false);
    mc.handle_write(Cycles(100_000), 0, LineAddr(900), Line::splat(2), false);
    assert_eq!(mc.stats().pre_miss, 1, "swapped entry gone");
    assert_eq!(mc.stats().pre_full, 1, "other entry intact");
}

#[test]
fn operation_queue_overflow_drops_excess_requests() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 1));
    // 200 one-line requests at the same instant; the 64-entry operation
    // queue (plus the congestion arbiter) must drop the overflow.
    for i in 0..200u32 {
        pre_both(
            &mut mc,
            Cycles(4),
            1000 + i,
            2000 + i as u64,
            Line::splat(i as u8),
        );
    }
    let dropped = mc.stats().pre_op_dropped;
    assert!(dropped > 0, "expected drops, got none");
    let admitted = mc.stats().pre_ops_admitted;
    assert!(admitted >= 64, "queue capacity should still be used");
    // Dropped requests are harmless: the writes still complete correctly.
    mc.handle_write(Cycles(900_000), 0, LineAddr(2199), Line::splat(199), false);
    assert_eq!(mc.read_value(LineAddr(2199)), Line::splat(199));
}

#[test]
fn dirty_evictions_write_back_off_the_critical_path() {
    // Store (without clwb) to enough distinct lines mapping to one L1 set
    // to force dirty evictions; the evicted data must still reach NVM
    // functionally.
    let mut b = ProgramBuilder::new();
    // L1: 128 sets, 8 ways → lines k*128 share set 0; 12 > 8 ways.
    for k in 0..12u64 {
        b.store(LineAddr(k * 128), Line::from_words(&[k + 1]));
    }
    b.compute(1_000_000); // let evictions drain
    let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
    let report = sys.run(vec![b.build()]);
    assert!(report.writes >= 4, "evictions produced writebacks");
    // Evicted lines' values are in NVM; still-resident dirty lines are not
    // (they were never flushed) — check at least one evicted value landed.
    let evicted_present = (0..12u64)
        .filter(|k| sys.read_value(LineAddr(k * 128)) == Line::from_words(&[k + 1]))
        .count();
    assert!(
        evicted_present >= 4,
        "{evicted_present} evicted lines persisted"
    );
}

#[test]
fn commit_criticality_is_detected_from_the_fence_commit_pattern() {
    // A clwb whose fence is immediately followed by TxCommit is
    // commit-critical (metadata flushed even under selective atomicity).
    let mut b = ProgramBuilder::new();
    b.tx_begin();
    b.store(LineAddr(1), Line::splat(1));
    b.clwb(LineAddr(1));
    b.fence();
    b.tx_commit();
    let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
    let r = sys.run(vec![b.build()]);
    // The commit write flushed its metadata lines to the device: more than
    // one device write happened for a single logical write.
    assert!(r.counter("nvm_device_writes") > 1);

    // A non-commit write under selective atomicity only sends its data line.
    let mut b2 = ProgramBuilder::new();
    b2.store(LineAddr(1), Line::splat(1));
    b2.clwb(LineAddr(1));
    b2.fence();
    let mut sys2 = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
    let r2 = sys2.run(vec![b2.build()]);
    assert!(r2.counter("nvm_device_writes") < r.counter("nvm_device_writes"));
}

#[test]
fn ideal_mode_counts_transactions_and_skips_bmo_latency() {
    let mut b = ProgramBuilder::new();
    for i in 0..5u64 {
        b.tx_begin();
        b.store(LineAddr(i), Line::splat(1));
        b.clwb(LineAddr(i));
        b.fence();
        b.tx_commit();
    }
    let mut sys = System::new(JanusConfig::paper(SystemMode::Ideal, 1));
    let r = sys.run(vec![b.build()]);
    assert_eq!(r.transactions, 5);
    assert!(r.cycles < Cycles::from_ns(500), "cycles = {}", r.cycles);
}

#[test]
fn pre_request_for_multiple_lines_decodes_per_line() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 1));
    let line = LineAddr(10);
    let values = (0..4).map(|i| Line::splat(i as u8 + 1)).collect();
    mc.handle_pre_request(Cycles(0), request(1, PreFunc::Both { line, values }));
    for k in 0..4u64 {
        let out = mc.handle_write(
            Cycles(50_000 + k * 1_000),
            0,
            LineAddr(10 + k),
            Line::splat(k as u8 + 1),
            false,
        );
        assert!(
            out.persist_at <= Cycles(50_000 + k * 1_000 + 16),
            "line {k}"
        );
    }
    assert_eq!(mc.stats().pre_full, 4);
}

#[test]
fn wrong_core_write_does_not_consume_anothers_entry() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 2));
    pre_both(&mut mc, Cycles(0), 1, 7, Line::splat(3));
    // Core 1 writes the same line: must miss core 0's entry.
    mc.handle_write(Cycles(50_000), 1, LineAddr(7), Line::splat(3), false);
    assert_eq!(mc.stats().pre_miss, 1);
    // Core 0's entry still valid afterwards.
    mc.handle_write(Cycles(100_000), 0, LineAddr(7), Line::splat(3), false);
    assert_eq!(mc.stats().pre_full, 1);
}

#[test]
fn stats_dump_is_machine_readable() {
    let mut b = ProgramBuilder::new();
    b.tx_begin();
    b.persist_store(LineAddr(1), Line::splat(1));
    b.tx_commit();
    let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
    let r = sys.run(vec![b.build()]);
    let mut out = Vec::new();
    r.dump(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    for needle in [
        "sim.cycles ",
        "sim.writes 1",
        "cache.l1_hits",
        "mc.writes 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every line is exactly `key value`.
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        assert!(parts.next().is_some() && parts.next().is_some() && parts.next().is_none());
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let mk = || {
        let mut b = ProgramBuilder::new();
        for i in 0..10u64 {
            b.tx_begin();
            let obj = b.pre_init();
            b.pre_both(obj, LineAddr(i % 4), vec![Line::from_words(&[i])]);
            b.compute(3000);
            b.store(LineAddr(i % 4), Line::from_words(&[i]));
            b.clwb(LineAddr(i % 4));
            b.fence();
            b.tx_commit();
        }
        let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
        sys.run(vec![b.build()])
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
    assert_eq!(a.counters, b.counters);
}

#[test]
fn admission_backlog_knob_controls_drops() {
    let mut mc = MemoryController::new(JanusConfig::paper(SystemMode::Janus, 1));
    // 200 demand writes at one instant book the BMO units more than 500 ns
    // ahead, so the arbiter refuses every pre-execution behind them (100
    // writes leave it admitting all 32).
    for i in 0..200u64 {
        let value = Line::from_words(&[i + 1]);
        mc.handle_write(Cycles(0), 0, LineAddr(500 + i), value, false);
    }
    for i in 0..32u32 {
        pre_both(&mut mc, Cycles(0), i, 100 + i as u64, Line::splat(i as u8));
    }
    assert_eq!(mc.stats().pre_op_dropped, 32);
    assert_eq!(mc.stats().pre_ops_admitted, 0);
}
