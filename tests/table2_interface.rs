//! Table 2, function by function: each Janus software-interface call's
//! observable semantics at the system level.

use janus::core::config::{JanusConfig, SystemMode};
use janus::core::ir::ProgramBuilder;
use janus::core::system::{ExecutionReport, System};
use janus::nvm::{addr::LineAddr, line::Line};

fn run(p: janus::core::ir::Program) -> (ExecutionReport, System) {
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
    let report = sys.run(vec![p]);
    (report, sys)
}

const WINDOW: u32 = 5_000; // enough compute for full pre-execution

/// `PRE_BOTH(obj, addr, data, size)`: pre-execute all sub-operations.
#[test]
fn pre_both_hides_the_entire_bmo_latency() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
    b.compute(WINDOW);
    b.persist_store(LineAddr(1), Line::splat(1));
    let (r, _) = run(b.build());
    assert_eq!(r.counter("pre_full"), 1);
    assert_eq!(r.counter("pre_partial") + r.counter("pre_miss"), 0);
}

/// `PRE_ADDR(obj, addr, size)`: only address-dependent sub-operations run
/// early; the data-dependent chain still runs at the write.
#[test]
fn pre_addr_alone_gives_partial_benefit() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_addr(obj, LineAddr(1), 1);
    b.compute(WINDOW);
    b.persist_store(LineAddr(1), Line::splat(1));
    let (r, _) = run(b.build());
    // Consumed, but completion happens after arrival (data arrived late).
    assert_eq!(r.counter("pre_partial"), 1);
    assert_eq!(r.counter("pre_full"), 0);
}

/// `PRE_DATA(obj, data, size)` + later `PRE_ADDR` on the same obj pair up
/// in the IRB (the Figure 8a pattern).
#[test]
fn pre_data_then_pre_addr_pair_up() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_data(obj, vec![Line::splat(2)]);
    b.compute(WINDOW / 2);
    b.pre_addr(obj, LineAddr(3), 1);
    b.compute(WINDOW);
    b.persist_store(LineAddr(3), Line::splat(2));
    let (r, _) = run(b.build());
    assert_eq!(r.counter("pre_full"), 1);
    // One IRB entry, not two.
    assert_eq!(r.irb.0, 1, "inserted");
    assert_eq!(r.irb.1, 1, "consumed");
}

/// `PRE_DATA` alone (never bound to an address) can never be consumed —
/// the guideline in §4.4 — and must be harmless.
#[test]
fn pre_data_alone_is_wasted_but_harmless() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_data(obj, vec![Line::splat(2)]);
    b.compute(WINDOW);
    b.persist_store(LineAddr(3), Line::splat(2));
    let (r, sys) = run(b.build());
    assert_eq!(r.counter("pre_miss"), 1);
    assert_eq!(sys.read_value(LineAddr(3)), Line::splat(2));
}

/// `PRE_BOTH_VAL(obj, addr, int)` — the commit-record idiom: a one-word
/// value is pre-executed exactly like a full line.
#[test]
fn pre_both_val_idiom_for_commit_records() {
    let mut b = ProgramBuilder::new();
    let commit_val = Line::from_words(&[42, 0xC0FFEE]);
    let obj = b.pre_init();
    b.pre_both(obj, LineAddr(9), vec![commit_val]); // PRE_BOTH_VAL lowering
    b.compute(WINDOW);
    b.persist_store(LineAddr(9), commit_val);
    let (r, sys) = run(b.build());
    assert_eq!(r.counter("pre_full"), 1);
    assert_eq!(sys.read_value(LineAddr(9)).read_u64(8), 0xC0FFEE);
}

/// `*_BUF` + `PRE_START_BUF`: buffered requests do nothing until started.
#[test]
fn buffered_requests_wait_for_start() {
    // Without PRE_START_BUF the buffered request never executes.
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_both_buf(obj, LineAddr(5), vec![Line::splat(5)]);
    b.compute(WINDOW);
    b.persist_store(LineAddr(5), Line::splat(5));
    let (r, _) = run(b.build());
    assert_eq!(r.counter("pre_miss"), 1, "unstarted buffer is inert");

    // With PRE_START_BUF it becomes a normal pre-execution.
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_both_buf(obj, LineAddr(5), vec![Line::splat(5)]);
    b.pre_start_buf(obj);
    b.compute(WINDOW);
    b.persist_store(LineAddr(5), Line::splat(5));
    let (r, _) = run(b.build());
    assert_eq!(r.counter("pre_full"), 1);
}

/// Buffered requests to adjacent lines coalesce into one request (the
/// deferred-execution efficiency argument of §4.4).
#[test]
fn buffered_adjacent_fields_coalesce() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_both_buf(obj, LineAddr(16), vec![Line::splat(1)]);
    b.pre_both_buf(obj, LineAddr(17), vec![Line::splat(2)]);
    b.pre_start_buf(obj);
    b.compute(WINDOW);
    b.store(LineAddr(16), Line::splat(1));
    b.store(LineAddr(17), Line::splat(2));
    b.clwb(LineAddr(16));
    b.clwb(LineAddr(17));
    b.fence();
    let (r, _) = run(b.build());
    assert_eq!(r.counter("pre_full"), 2);
    assert_eq!(
        r.irb.0, 2,
        "two line-granular entries from one coalesced request"
    );
}

/// `PRE_INIT` alone has no observable effect.
#[test]
fn pre_init_alone_is_a_no_op() {
    let mut b = ProgramBuilder::new();
    let _obj = b.pre_init();
    b.persist_store(LineAddr(1), Line::splat(1));
    let (r, _) = run(b.build());
    assert_eq!(r.irb.0, 0);
    assert_eq!(r.counter("pre_miss"), 1);
}

/// Requests are per-thread: TransactionID/ThreadID keep streams apart
/// (exercised at the multi-core level elsewhere; here: two objs on one
/// thread never interfere).
#[test]
fn distinct_objs_do_not_interfere() {
    let mut b = ProgramBuilder::new();
    let o1 = b.pre_init();
    let o2 = b.pre_init();
    b.pre_both(o1, LineAddr(1), vec![Line::splat(1)]);
    b.pre_both(o2, LineAddr(2), vec![Line::splat(2)]);
    b.compute(WINDOW);
    b.store(LineAddr(1), Line::splat(1));
    b.store(LineAddr(2), Line::splat(2));
    b.clwb(LineAddr(1));
    b.clwb(LineAddr(2));
    b.fence();
    let (r, sys) = run(b.build());
    assert_eq!(r.counter("pre_full"), 2);
    assert_eq!(sys.read_value(LineAddr(1)), Line::splat(1));
    assert_eq!(sys.read_value(LineAddr(2)), Line::splat(2));
}

/// `PRE_DATA_BUF` + `PRE_ADDR_BUF` on one object wait in the request queue
/// and, released by `PRE_START_BUF`, pair up in one IRB entry that the
/// write consumes fully pre-executed.
#[test]
fn buffered_data_and_addr_pair_up_when_started() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_data_buf(obj, vec![Line::splat(4)]);
    b.pre_addr_buf(obj, LineAddr(8), 1);
    b.pre_start_buf(obj);
    b.compute(WINDOW);
    b.persist_store(LineAddr(8), Line::splat(4));
    let (r, sys) = run(b.build());
    assert_eq!(r.irb.0, 1, "inserted");
    assert_eq!(r.irb.1, 1, "consumed");
    assert_eq!(r.counter("pre_full"), 1);
    assert_eq!(sys.read_value(LineAddr(8)), Line::splat(4));
}

/// A `PRE_DATA` that completes an earlier `PRE_ADDR` (the split hint) is
/// checked against the write like a `PRE_BOTH`: a store of another value
/// re-runs the data-dependent sub-operations.
#[test]
fn pre_addr_then_stale_pre_data_invalidates_the_data() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_addr(obj, LineAddr(3), 1);
    b.pre_data(obj, vec![Line::splat(2)]);
    b.compute(WINDOW);
    b.persist_store(LineAddr(3), Line::splat(9));
    let (r, sys) = run(b.build());
    assert_eq!(r.counter("inval_data"), 1);
    assert_eq!(r.counter("pre_partial"), 1);
    assert_eq!(r.counter("pre_full"), 0);
    assert_eq!(sys.read_value(LineAddr(3)), Line::splat(9));
}

/// Each value of a multi-line `PRE_DATA` completes the next address-only
/// entry of its object, lowest line first, as `lint_program` binds them.
#[test]
fn multi_line_pre_data_binds_one_value_per_address_only_entry() {
    let mut b = ProgramBuilder::new();
    let obj = b.pre_init();
    b.pre_addr(obj, LineAddr(3), 2);
    b.pre_data(obj, vec![Line::splat(2), Line::splat(7)]);
    b.compute(WINDOW);
    b.store(LineAddr(3), Line::splat(2));
    b.store(LineAddr(4), Line::splat(7));
    b.clwb(LineAddr(3));
    b.clwb(LineAddr(4));
    b.fence();
    let (r, _) = run(b.build());
    assert_eq!(r.counter("inval_data"), 0);
    assert_eq!(r.counter("pre_full"), 2);
}

/// A consume reorders the IRB's bank, yet a later `PRE_DATA` still binds
/// the lowest-line address-only entry of its object: here line 3, not
/// line 5, which took line 100's slot when that line's write consumed it.
#[test]
fn pre_data_after_a_consume_binds_the_lowest_line() {
    let mut b = ProgramBuilder::new();
    let other = b.pre_init();
    let obj = b.pre_init();
    b.pre_both(other, LineAddr(100), vec![Line::splat(1)]);
    b.pre_addr(obj, LineAddr(3), 3);
    b.compute(WINDOW);
    b.persist_store(LineAddr(100), Line::splat(1));
    b.pre_data(obj, vec![Line::splat(2)]);
    b.compute(WINDOW);
    b.store(LineAddr(3), Line::splat(2));
    b.store(LineAddr(5), Line::splat(8));
    b.clwb(LineAddr(3));
    b.clwb(LineAddr(5));
    b.fence();
    let (r, _) = run(b.build());
    assert_eq!(r.counter("inval_data"), 0);
    assert_eq!(r.counter("pre_full"), 2, "lines 100 and 3");
}
