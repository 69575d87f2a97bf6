//! Extensibility experiment: the same programs, unchanged, on a system with
//! five BMOs (encryption, integrity, dedup + inline compression +
//! wear-leveling) instead of the evaluated three.
//!
//! §4.4 requirement 3: "programs developed with the same interface should be
//! compatible even though the BMOs change in the hardware" — the software
//! interface only exposes addresses and data, so adding BMOs requires no
//! program changes and Janus's benefit persists.

use janus_bench::{arg_usize, banner, geomean, row, run_quiet, RunSpec, Variant};
use janus_bmo::BmoStack;
use janus_workloads::{generate, Workload, WorkloadConfig};

/// Simulated cycles of `tx` transactions of `w` under `variant`, on the
/// paper's three BMOs or (`extended`) the five-BMO stack.
fn cycles(w: Workload, variant: Variant, extended: bool, tx: usize) -> f64 {
    let mut spec = RunSpec::new(w, variant);
    spec.transactions = tx;
    if extended {
        spec.bmo_stack = Some(BmoStack::extended().members().to_vec());
    }
    run_quiet(spec).cycles()
}

fn main() {
    janus_bench::require_known_args(&["--tx"], &[]);
    let tx = arg_usize("--tx", 120);
    banner(
        "Extensibility — Janus speedup with 3 vs 5 BMOs, same programs",
        &format!("1 core, {tx} tx; extended set adds compression + wear-leveling"),
    );
    let widths = [12, 12, 12];
    println!(
        "{}",
        row(
            &["workload".into(), "3 BMOs".into(), "5 BMOs".into()],
            &widths
        )
    );
    let mut std3 = Vec::new();
    let mut ext5 = Vec::new();
    for w in Workload::all() {
        let s3 =
            cycles(w, Variant::Serialized, false, tx) / cycles(w, Variant::JanusManual, false, tx);
        let s5 =
            cycles(w, Variant::Serialized, true, tx) / cycles(w, Variant::JanusManual, true, tx);
        std3.push(s3);
        ext5.push(s5);
        println!(
            "{}",
            row(
                &[w.name().into(), format!("{s3:.2}x"), format!("{s5:.2}x")],
                &widths
            )
        );
    }
    println!("{}", "-".repeat(40));
    println!(
        "{}",
        row(
            &[
                "Avg".into(),
                format!("{:.2}x", geomean(&std3)),
                format!("{:.2}x", geomean(&ext5)),
            ],
            &widths
        )
    );
    println!("\nPrograms are byte-identical across the two systems; the interface only");
    println!("exposes addresses and data, so extra BMOs change nothing in software.");

    // What the C1 compression sub-operation achieves on real workload data
    // (BDI over every line each workload writes).
    println!("\nBDI compression on workload write data:");
    for w in Workload::all() {
        let out = generate(
            w,
            0,
            &WorkloadConfig {
                transactions: 60,
                ..WorkloadConfig::default()
            },
        );
        let mut total = 0usize;
        let mut compressed = 0usize;
        for (_, line) in out.expected.iter() {
            let c = janus_bmo::compression::compress(line);
            total += janus_nvm::line::LINE_BYTES;
            compressed += c.bytes.len();
        }
        println!(
            "  {:<12} {:>5.2}x ({} -> {} bytes)",
            w.name(),
            total as f64 / compressed as f64,
            total,
            compressed
        );
    }
}
