//! Causal profiler driver: run a workload with causal tracing enabled and
//! emit the cycle-accounting / critical-path / tail-blame report.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-prof -- \
//!     --workload tatp --variant janus --tx 40 --json out.json --chrome out.trace.json
//! ```
//!
//! Flags: `--workload`, `--variant`, `--cores N`, `--tx N`, `--seed N`
//! (same vocabulary as `janus-cli`), `--sample N` (counter sample period in
//! cycles for the Chrome counter tracks, default 2000), `--out PATH` (text
//! report; always also printed to stdout), `--json PATH` (profile JSON,
//! schema `janus-profile-v1`), `--chrome PATH` (Chrome/Perfetto trace with
//! occupancy counter tracks merged in).
//!
//! The run starts with a calibration probe: one cold write through the
//! default paper stack under parallelized timing must measure a critical
//! path of exactly 2764 cycles — the same number `janus-lint`'s `DepGraph`
//! computes analytically. A disagreement means the profiler's causal chain
//! reconstruction is broken, and the binary refuses to continue.

use janus_bench::cli::{self, arg};
use janus_bench::{arg_usize, run_quiet, RunSpec, Variant};
use janus_core::controller::MemoryController;
use janus_core::{JanusConfig, SystemMode};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_prof::Profile;
use janus_sim::time::Cycles;
use janus_trace::TraceConfig;
use janus_workloads::Workload;

/// One cold write, parallelized paper stack: the measured BMO critical
/// path must equal the `DepGraph` oracle (2764 cycles on the default
/// trio). This cross-checks the profiler against the analytical model
/// before any numbers are reported.
fn calibration_probe() {
    let config = JanusConfig::paper(SystemMode::Parallelized, 1);
    let graph = config.stack().graph(&config.latencies);
    let oracle = graph.critical_path().0;
    let mut mc = MemoryController::new(config.clone());
    let tracer = mc.enable_profiling(&TraceConfig::default());
    mc.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
    let p =
        Profile::build(&tracer.snapshot(), tracer.dropped(), &graph).expect("calibration profile");
    let measured = p.writes()[0].bmo_critical_path();
    println!("calibration: measured critical path {measured} cycles, DepGraph oracle {oracle}");
    assert_eq!(
        measured, oracle,
        "profiler disagrees with the DepGraph oracle — refusing to report"
    );
}

fn main() {
    janus_bench::require_known_args(
        &[
            "--workload",
            "--variant",
            "--cores",
            "--tx",
            "--seed",
            "--sample",
            "--out",
            "--json",
            "--chrome",
        ],
        &[],
    );
    let cores = cli::cores(1);
    calibration_probe();

    let workload: Workload = match arg("--workload").as_deref().unwrap_or("tatp").parse() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let variant = match arg("--variant").as_deref().unwrap_or("janus") {
        "serialized" => Variant::Serialized,
        "parallelized" => Variant::Parallelized,
        "janus" | "manual" => Variant::JanusManual,
        "auto" | "compiler" => Variant::JanusAuto,
        "ideal" => Variant::Ideal,
        other => {
            eprintln!("unknown variant {other:?}");
            std::process::exit(2);
        }
    };
    let mut spec = RunSpec::new(workload, variant);
    spec.cores = cores;
    spec.transactions = arg_usize("--tx", 40);
    spec.seed = arg_usize("--seed", 42) as u64;
    spec.profile = true;
    spec.sample_every = Some(arg_usize("--sample", 2000) as u64);

    let result = run_quiet(spec);
    let config = result.spec.config();
    let graph = config.stack().graph(&config.latencies);
    let profile = Profile::build(&result.tracer.snapshot(), result.tracer.dropped(), &graph)
        .unwrap_or_else(|e| {
            eprintln!("profile failed: {e}");
            std::process::exit(1);
        });

    println!(
        "profiled {} [{}]: {} transactions, {} cycles",
        result.spec.workload,
        result.spec.variant.label(),
        result.spec.transactions,
        result.report.cycles
    );
    println!();
    let text = profile.render_text();
    print!("{text}");
    if let Some(path) = arg("--out") {
        std::fs::write(&path, &text).expect("write text report");
    }
    if let Some(path) = arg("--json") {
        let json = profile.to_json();
        janus_prof::validate_profile_json(&json).expect("emitted profile validates");
        std::fs::write(&path, json).expect("write profile JSON");
        println!("profile json -> {path}");
    }
    if let Some(path) = arg("--chrome") {
        let mut out = Vec::new();
        janus_prof::export_chrome_with_counters(
            &result.tracer.snapshot(),
            &result.samples,
            result.tracer.dropped(),
            &mut out,
        )
        .expect("serialize chrome trace");
        std::fs::write(&path, out).expect("write chrome trace");
        println!("chrome trace (+counter tracks) -> {path}");
    }
}
