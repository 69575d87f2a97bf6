//! General-purpose experiment driver: run any workload on any system design
//! with any knob, and dump machine-readable statistics.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-cli -- \
//!     --workload btree --variant janus --cores 2 --tx 200 --dump
//! ```
//!
//! Flags: `--workload <array|queue|hash|rbtree|btree|tatp|tpcc>`,
//! `--variant <serialized|parallelized|janus|auto|pgo|place|fixed|ideal>`
//! (accepts a comma-separated list to sweep several variants in one
//! invocation; `fixed` = manual instrumentation with a seeded §6 misuse
//! repaired by the `janus-lint --fix` engine),
//! `--cores N`, `--tx N`, `--size BYTES`, `--dedup RATIO`, `--seed N`,
//! `--crc32`, `--scale <N|unlimited>`, `--skew THETA`, `--aux FRACTION`,
//! `--bmos <id,...|none>` (BMO stack override; see `--list-bmos`),
//! `--jobs N` (worker threads for multi-variant sweeps, else the
//! `JANUS_JOBS` environment variable; output is identical at any value, and
//! zero or a non-number exits with status 2),
//! `--dump` (gem5-style stats to stdout),
//! `--profile PATH` (causal profile: text report to PATH, `-` for stdout;
//! see the `janus-prof` binary for the full profiling workflow).

use janus_bench::cli::{self, arg, flag};
use janus_bench::{run_all, RunSpec, Variant};
use janus_bmo::BmoStack;
use janus_workloads::Workload;

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
    if flag("--list-bmos") {
        println!(
            "Registered BMOs (stack with --bmos id,id,...; default: {}):",
            BmoStack::paper()
        );
        for id in janus_bmo::BmoId::ALL {
            let spec = id.spec();
            println!(
                "  {:<6} {:<40} pre-exec: {:?}",
                id.as_str(),
                spec.name(),
                spec.pre_exec()
            );
        }
        return;
    }
    let workload: Workload = match arg("--workload").as_deref().unwrap_or("tatp").parse() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let variants: Vec<Variant> = arg("--variant")
        .unwrap_or_else(|| "janus".into())
        .split(',')
        .map(|v| match v.trim() {
            "serialized" => Variant::Serialized,
            "parallelized" => Variant::Parallelized,
            "janus" | "manual" => Variant::JanusManual,
            "auto" | "compiler" => Variant::JanusAuto,
            "pgo" | "profile" => Variant::JanusAutoPgo,
            "place" | "autoplace" => Variant::JanusAutoPlace,
            "fixed" => Variant::JanusFixed,
            "ideal" => Variant::Ideal,
            other => {
                eprintln!("unknown variant {other:?}");
                std::process::exit(2);
            }
        })
        .collect();

    let mut spec = RunSpec::new(workload, variants[0]);
    spec.cores = cli::cores(spec.cores);
    if let Some(v) = arg("--tx") {
        spec.transactions = v.parse().expect("--tx N");
    }
    if let Some(v) = arg("--size") {
        spec.tx_size_bytes = v.parse().expect("--size BYTES");
    }
    if let Some(v) = arg("--dedup") {
        spec.dedup_ratio = v.parse().expect("--dedup RATIO");
    }
    if let Some(v) = arg("--seed") {
        spec.seed = v.parse().expect("--seed N");
    }
    if let Some(v) = arg("--skew") {
        spec.key_skew = Some(v.parse().expect("--skew THETA"));
    }
    if let Some(v) = arg("--aux") {
        spec.aux_tx_fraction = v.parse().expect("--aux FRACTION");
    }
    if flag("--crc32") {
        spec.crc32 = true;
    }
    if let Some(v) = arg("--scale") {
        spec.resource_scale = Some(if v == "unlimited" {
            usize::MAX
        } else {
            v.parse().expect("--scale N|unlimited")
        });
    }
    if let Some(v) = arg("--bmos") {
        match BmoStack::parse(&v) {
            Ok(stack) => spec.bmo_stack = Some(stack.members().to_vec()),
            Err(e) => {
                eprintln!("--bmos {v}: {e}");
                std::process::exit(2);
            }
        }
    }

    let profile_path = arg("--profile");
    spec.profile = profile_path.is_some();

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
                std::fs::write(path, text).expect("write profile report");
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
