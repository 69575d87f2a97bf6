//! Figure 1: critical write latency with and without BMOs (§2.3).
//!
//! Paper claim: without BMOs only the ~15 ns cache writeback is on the
//! critical path; with BMOs "the critical latency increases by more than 10
//! times".

use janus_bench::banner;
use janus_core::config::{JanusConfig, SystemMode, WRITEBACK};
use janus_core::controller::MemoryController;
use janus_nvm::{addr::LineAddr, line::Line};
use janus_sim::time::Cycles;

fn main() {
    janus_bench::require_known_args(&["--tx"], &[]);
    banner(
        "Figure 1 — Critical write latency with and without BMOs",
        "single write, paper configuration",
    );
    let writeback = WRITEBACK;

    // Without BMOs: the write is persistent on write-queue acceptance.
    let mut ideal = MemoryController::new(JanusConfig::paper(SystemMode::Ideal, 1));
    let a = ideal.handle_write(writeback, 0, LineAddr(1), Line::splat(1), false);
    let no_bmo = a.persist_at; // includes the writeback journey

    // With serialized BMOs.
    let mut ser = MemoryController::new(JanusConfig::paper(SystemMode::Serialized, 1));
    let b = ser.handle_write(writeback, 0, LineAddr(1), Line::splat(1), false);
    let with_bmo = b.persist_at;

    println!("cache writeback latency:      {writeback}");
    println!("critical latency w/o BMOs:    {no_bmo}");
    println!("critical latency with BMOs:   {with_bmo}");
    println!(
        "increase: {:.1}x (paper: \"more than 10 times\")",
        with_bmo.0 as f64 / no_bmo.0.max(1) as f64
    );
    assert!(with_bmo > no_bmo * 10);
    let _ = Cycles::ZERO;
}
