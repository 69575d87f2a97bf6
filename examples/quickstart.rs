//! Quickstart: persist a handful of values through the full Janus stack and
//! see what pre-execution does to the critical path.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Observability: `--trace out.json` records every controller, IRB, BMO
//! sub-op, and NVM event of the Janus run and writes a Chrome trace-event
//! file (load it at <https://ui.perfetto.dev>). `--metrics out.json` writes
//! the run's metrics registry as a single JSON object. `--profile out.json`
//! traces in causal mode and writes a `janus-profile-v1` causal profile
//! (cycle accounting, critical path, p99 blame — see `janus-prof`).
//! `--bmos id,...` selects the BMO stack (see `janus-cli --list-bmos`),
//! e.g. `--bmos enc,ecc` or `--bmos none`.

use janus::bmo::BmoStack;
use janus::core::config::{JanusConfig, SystemMode};
use janus::core::ir::ProgramBuilder;
use janus::core::system::System;
use janus::nvm::{addr::LineAddr, line::Line};
use janus::trace::TraceConfig;
use janus_bench::cli::{self, parse_with};

fn build_program(pre_execute: bool) -> janus::core::ir::Program {
    let mut b = ProgramBuilder::new();
    for i in 0..20u64 {
        b.tx_begin();
        let line = LineAddr(i % 8);
        let value = Line::from_words(&[i, i * i]);
        if pre_execute {
            // Tell the memory controller about the write ahead of time: the
            // backend memory operations (dedup hash, AES pad, Merkle
            // update) start now instead of when the write arrives.
            let obj = b.pre_init();
            if i % 5 == 0 {
                // Every fifth transaction announces a value that the store
                // then contradicts — the speculative data sub-ops are
                // invalidated and redone, the address sub-ops still hit.
                b.pre_both(obj, line, vec![Line::from_words(&[i + 1, 7])]);
            } else {
                b.pre_both(obj, line, vec![value]);
            }
        }
        b.compute(4000); // the rest of the transaction's work
        b.store(line, value);
        b.clwb(line);
        b.fence(); // blocks until the write is persistent
        b.tx_commit();
    }
    b.build()
}

fn main() {
    // Every flag is read before the run: a malformed one, or an output file
    // that cannot be created, exits 2 without simulating anything.
    cli::require_known_args(&["--trace", "--metrics", "--profile", "--bmos"], &[]);
    let stack = parse_with("--bmos", BmoStack::parse).unwrap_or_else(BmoStack::paper);
    let trace_path = parse_with("--trace", cli::output_path);
    let profile_path = parse_with("--profile", cli::output_path);
    let metrics_path = parse_with("--metrics", cli::output_path);
    let config = |mode| JanusConfig {
        bmo_stack: stack.members().to_vec(),
        ..JanusConfig::paper(mode, 1)
    };

    // Baseline: every write pays the serialized BMO latency on its fence.
    let mut baseline = System::new(config(SystemMode::Serialized));
    let base = baseline.run(vec![build_program(false)]);

    // Janus: parallelized sub-operations + pre-execution.
    let janus_config = config(SystemMode::Janus);
    let mut janus = System::new(janus_config.clone());
    if profile_path.is_some() {
        // Causal mode records the ordinary trace vocabulary plus the
        // prof_* link events the profiler reconstructs chains from.
        janus.enable_profiling(&TraceConfig::default());
    } else if trace_path.is_some() {
        janus.enable_trace(&TraceConfig::default());
    }
    let report = janus.run(vec![build_program(true)]);

    println!(
        "serialized : {} cycles ({} writes)",
        base.cycles, base.writes
    );
    println!("janus      : {} cycles", report.cycles);
    println!(
        "speedup    : {:.2}x  (fully pre-executed: {:.0}%)",
        base.cycles.0 as f64 / report.cycles.0 as f64,
        report.fully_preexecuted_fraction * 100.0
    );

    if let Some(path) = &trace_path {
        let mut out = Vec::new();
        janus
            .tracer()
            .export_chrome(&mut out)
            .expect("serializing trace");
        cli::write_output("--trace", path, out);
        println!(
            "trace      : {} events -> {path} (open in ui.perfetto.dev)",
            janus.tracer().len()
        );
    }
    if let Some(path) = &profile_path {
        let graph = janus_config.stack().graph(&janus_config.latencies);
        let tracer = janus.tracer();
        let profile = janus::prof::Profile::build(&tracer.snapshot(), tracer.dropped(), &graph)
            .expect("causal profile");
        let json = profile.to_json();
        janus::prof::validate_profile_json(&json).expect("emitted profile validates");
        cli::write_output("--profile", path, json);
        println!(
            "profile    : {} writes, critical path {} cycles -> {path}",
            profile.writes().len(),
            profile
                .critical_write()
                .map(|w| w.latency())
                .unwrap_or_default()
        );
    }
    if let Some(path) = &metrics_path {
        let mut out = Vec::new();
        report.dump_json(&mut out).expect("serializing metrics");
        cli::write_output("--metrics", path, out);
        println!("metrics    : -> {path}");
    }

    // The data really is there, encrypted + integrity-protected in NVM.
    for i in 0..8u64 {
        let v = janus.read_value(LineAddr(i));
        println!("line {i}: {:?}", v);
    }
    assert_eq!(
        janus.read_value(LineAddr(3)),
        baseline.read_value(LineAddr(3))
    );
}
