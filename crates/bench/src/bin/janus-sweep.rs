//! General spec-grid sweep driver: workloads × variants at a fixed core
//! count, through the shared sweep engine.
//!
//! Unlike the figure binaries (each pinned to one published plot), this is
//! the open-ended driver for ad-hoc grids: pick workloads (`--workloads`
//! CSV of slugs), variants (`--variants` CSV of the names `janus-cli`
//! takes), `--tx`, `--cores`, and `--seed`, and get one row per point with
//! cycles, throughput, and speedup over the grid's first variant. The JSONL
//! sink and the global `--jobs N` thread fan-out apply as everywhere else —
//! output is byte-identical at any worker count, and any malformed value,
//! `--jobs` (or `JANUS_JOBS`) included, exits with status 2.

use janus_bench::cli::{self, list_with, parse_with};
use janus_bench::{arg_usize, banner, row, run_all, RunSpec, Variant};
use janus_workloads::Workload;

fn main() {
    janus_bench::require_known_args(
        &["--workloads", "--variants", "--tx", "--cores", "--seed"],
        &[],
    );
    let tx = arg_usize("--tx", 60);
    let cores = cli::cores(1);
    let seed = parse_with("--seed", cli::unsigned).unwrap_or(42);
    let workloads = list_with("--workloads", str::parse::<Workload>)
        .unwrap_or_else(|| Workload::all().to_vec());
    // The grid's first variant is the speedup baseline.
    let variants = list_with("--variants", str::parse::<Variant>).unwrap_or(vec![
        Variant::Serialized,
        Variant::Parallelized,
        Variant::JanusManual,
        Variant::JanusAuto,
    ]);

    let mut specs = Vec::with_capacity(workloads.len() * variants.len());
    for &w in &workloads {
        for &v in &variants {
            let mut s = RunSpec::new(w, v);
            s.transactions = tx;
            s.cores = cores;
            s.seed = seed;
            specs.push(s);
        }
    }
    let results = run_all(specs);

    banner(
        "janus-sweep — workload x variant grid",
        &format!(
            "{} workloads x {} variants; {tx} tx/core; {cores} core(s); seed {seed}; \
             speedup vs {}",
            workloads.len(),
            variants.len(),
            variants[0].label(),
        ),
    );
    let widths = [12, 18, 12, 9, 9];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "variant".into(),
                "cycles".into(),
                "tx/Mcyc".into(),
                "speedup".into(),
            ],
            &widths
        )
    );
    for chunk in results.chunks(variants.len()) {
        let base = &chunk[0];
        for r in chunk {
            println!(
                "{}",
                row(
                    &[
                        r.spec.workload.slug().into(),
                        r.spec.variant.label().into(),
                        r.report.cycles.0.to_string(),
                        format!("{:.1}", r.report.tx_per_mcycle()),
                        format!("{:.2}x", base.cycles() / r.cycles()),
                    ],
                    &widths
                )
            );
        }
    }
}
