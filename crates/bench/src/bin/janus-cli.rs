//! General-purpose experiment driver: run any workload on any system design
//! with any knob, and dump machine-readable statistics.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-cli -- \
//!     --workload btree --variant janus --cores 2 --tx 200 --dump
//! ```
//!
//! Flags: `--workload <array|queue|hash|rbtree|btree|tatp|tpcc>`,
//! `--variant <serialized|parallelized|janus|auto|place|ideal>`
//! (any name [`Variant`]'s `FromStr` accepts; a comma-separated list sweeps
//! several variants in one invocation),
//! `--cores N` (at most 64, one data region per core), `--tx N`,
//! `--size BYTES`, `--dedup RATIO` (in [0, 1]), `--seed N`, `--crc32`,
//! `--scale <N|unlimited>` (N ≥ 1), `--skew THETA` (in [0, 1)),
//! `--aux FRACTION` (in [0, 1]),
//! `--bmos <id,...|none>` (BMO stack override; see `--list-bmos`),
//! `--jobs N` (worker threads for multi-variant sweeps, else the
//! `JANUS_JOBS` environment variable; output is identical at any value),
//! `--dump` (gem5-style stats to stdout),
//! `--profile PATH` (causal profile: text report to PATH, `-` for stdout;
//! see the `janus-prof` binary for the full profiling workflow). Every
//! value is checked before the run starts: a malformed one exits with
//! status 2.

use janus_bench::cli::{self, flag, list_with, parse_with};
use janus_bench::{run_all, RunSpec, Variant};
use janus_bmo::BmoStack;
use janus_core::config::JanusConfig;
use janus_workloads::Workload;

/// `--skew`: a Zipf θ in [0, 1).
fn skew(v: &str) -> Result<f64, &'static str> {
    v.parse()
        .ok()
        .filter(|theta| (0.0..1.0).contains(theta))
        .ok_or("requires a number in [0, 1)")
}

/// `--scale`: `unlimited`, or a resource multiplier of at least one whose
/// scaled resource counts fit `base`.
fn scale(v: &str, base: &JanusConfig) -> Result<usize, &'static str> {
    if v == "unlimited" {
        return Ok(usize::MAX);
    }
    let k = cli::positive(v).map_err(|_| "requires a positive integer or `unlimited`")?;
    base.clone()
        .scale_resources(k)
        .map(|_| k)
        .ok_or("overflows the simulated resource counts")
}

fn main() {
    janus_bench::require_known_args(
        &[
            "--workload",
            "--variant",
            "--cores",
            "--tx",
            "--size",
            "--dedup",
            "--seed",
            "--skew",
            "--aux",
            "--scale",
            "--bmos",
            "--profile",
        ],
        &["--crc32", "--dump", "--list-bmos"],
    );
    let workload = parse_with("--workload", str::parse::<Workload>).unwrap_or(Workload::Tatp);
    let variants =
        list_with("--variant", str::parse::<Variant>).unwrap_or(vec![Variant::JanusManual]);
    let mut spec = RunSpec::new(workload, variants[0]);
    spec.cores = cli::cores(spec.cores);
    spec.transactions = cli::arg_usize("--tx", spec.transactions);
    spec.tx_size_bytes = cli::arg_usize("--size", spec.tx_size_bytes);
    spec.dedup_ratio = parse_with("--dedup", cli::fraction).unwrap_or(spec.dedup_ratio);
    spec.seed = parse_with("--seed", cli::unsigned).unwrap_or(spec.seed);
    spec.key_skew = parse_with("--skew", skew);
    spec.aux_tx_fraction = parse_with("--aux", cli::fraction).unwrap_or(spec.aux_tx_fraction);
    spec.crc32 = flag("--crc32");
    let base = spec.config();
    spec.resource_scale = parse_with("--scale", |v| scale(v, &base));
    spec.bmo_stack = parse_with("--bmos", BmoStack::parse).map(|s| s.members().to_vec());
    let profile_path = parse_with("--profile", |v| match v {
        "-" => Ok(v.to_string()),
        _ => cli::output_path(v),
    });
    spec.profile = profile_path.is_some();

    if flag("--list-bmos") {
        println!(
            "Registered BMOs (stack with --bmos id,id,...; default: {}):",
            BmoStack::paper()
        );
        for id in janus_bmo::BmoId::ALL {
            println!(
                "  {:<6} {:<40} pre-exec: {:?}",
                id.as_str(),
                id.name(),
                id.pre_exec()
            );
        }
        return;
    }

    let specs: Vec<RunSpec> = variants
        .iter()
        .map(|&v| {
            let mut s = spec.clone();
            s.variant = v;
            s
        })
        .collect();
    for result in run_all(specs) {
        if let Some(path) = &profile_path {
            let config = result.spec.config();
            let graph = config.stack().graph(&config.latencies);
            let profile = janus_prof::Profile::build(
                &result.tracer.snapshot(),
                result.tracer.dropped(),
                &graph,
            )
            .unwrap_or_else(|e| {
                eprintln!("profile failed: {e}");
                std::process::exit(1);
            });
            let text = profile.render_text();
            if path == "-" {
                print!("{text}");
            } else {
                cli::write_output("--profile", path, text);
            }
        }
        if flag("--dump") {
            result
                .report
                .dump(&mut std::io::stdout())
                .expect("write stats");
        } else {
            println!(
                "{} [{}] cores={} tx={}: {} cycles, {:.2} tx/Mcycle, \
                 {:.0}% fully pre-executed, {} writes ({} dup)",
                result.spec.workload,
                result.spec.variant.label(),
                result.spec.cores,
                result.spec.transactions,
                result.report.cycles,
                result.report.tx_per_mcycle(),
                result.report.fully_preexecuted_fraction * 100.0,
                result.report.writes,
                result.report.dup_writes,
            );
        }
    }
}
