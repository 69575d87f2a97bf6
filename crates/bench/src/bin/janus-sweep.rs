//! General spec-grid sweep driver: workloads × variants at a fixed core
//! count, through the shared sweep engine.
//!
//! Unlike the figure binaries (each pinned to one published plot), this is
//! the open-ended driver for ad-hoc grids: pick workloads (`--workloads`
//! CSV of slugs), variants (`--variants` CSV), `--tx`, `--cores`, and
//! `--seed`, and get one row per point with cycles, throughput, and speedup
//! over the grid's first variant. The JSONL sink and the global `--jobs N`
//! thread fan-out apply as everywhere else — output is byte-identical at any
//! worker count, and a zero or non-numeric `--jobs` (or `JANUS_JOBS`) exits
//! with status 2.

use janus_bench::cli::{self, arg_str, arg_u64};
use janus_bench::{arg_usize, banner, row, run_all, RunSpec, Variant};
use janus_workloads::Workload;

/// The sweepable variants by slug (the grid's first entry is the speedup
/// baseline).
const VARIANTS: [(&str, Variant); 7] = [
    ("serialized", Variant::Serialized),
    ("parallelized", Variant::Parallelized),
    ("janus-manual", Variant::JanusManual),
    ("janus-auto", Variant::JanusAuto),
    ("janus-pgo", Variant::JanusAutoPgo),
    ("janus-autoplace", Variant::JanusAutoPlace),
    ("ideal", Variant::Ideal),
];

fn parse_variant(s: &str) -> Variant {
    match VARIANTS.iter().find(|(slug, _)| *slug == s) {
        Some(&(_, v)) => v,
        None => {
            let known: Vec<&str> = VARIANTS.iter().map(|(s, _)| *s).collect();
            eprintln!("error: unknown variant {s:?} (known: {})", known.join(", "));
            std::process::exit(2);
        }
    }
}

fn parse_workload(s: &str) -> Workload {
    s.parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    janus_bench::require_known_args(
        &["--workloads", "--variants", "--tx", "--cores", "--seed"],
        &[],
    );
    let tx = arg_usize("--tx", 60);
    let cores = cli::cores(1);
    let seed = arg_u64("--seed", 42);
    let workloads: Vec<Workload> = match arg_str("--workloads", "").as_str() {
        "" => Workload::all().to_vec(),
        csv => csv.split(',').map(parse_workload).collect(),
    };
    let variants: Vec<Variant> = match arg_str("--variants", "").as_str() {
        "" => vec![
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
            Variant::JanusAuto,
        ],
        csv => csv.split(',').map(parse_variant).collect(),
    };

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
