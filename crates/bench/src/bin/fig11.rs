//! Figure 11: manual vs. automated instrumentation (§5.2.3).
//!
//! Paper result: 2.35× (manual) vs 2.00× (auto) average speedup over the
//! serialized baseline; "the automated solution does not provide a
//! significant performance benefit in RB-Tree and Queue" (loops and
//! pointers); "on average, the automated solution is only 13.3% slower than
//! our best-effort manual instrumentation". The third column is
//! `janus_lint::auto_place`, placement beyond the paper's pass (§6 future
//! work); the coverage column is the paper pass's.

use janus_bench::{arg_usize, banner, geomean, row, run_all, speedup, RunSpec, Variant};
use janus_instrument::instrument;
use janus_workloads::{generate, Workload, WorkloadConfig};

const VARIANTS: [Variant; 4] = [
    Variant::Serialized,
    Variant::JanusManual,
    Variant::JanusAuto,
    Variant::JanusAutoPlace,
];

fn main() {
    janus_bench::require_known_args(&["--tx"], &[]);
    let tx = arg_usize("--tx", 150);
    banner(
        "Figure 11 — Speedup over Serialized: manual vs automated instrumentation",
        &format!("1 core, {tx} tx"),
    );
    let widths = [12, 10, 10, 10, 16];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "manual".into(),
                "auto".into(),
                "auto-place".into(),
                "pass coverage".into()
            ],
            &widths
        )
    );
    let mut specs = Vec::new();
    for w in Workload::all() {
        for variant in VARIANTS {
            let mut s = RunSpec::new(w, variant);
            s.transactions = tx;
            specs.push(s);
        }
    }
    let mut results = run_all(specs).into_iter();

    let mut manual_all = Vec::new();
    let mut auto_all = Vec::new();
    let mut place_all = Vec::new();
    for w in Workload::all() {
        let serialized = results.next().expect("one result per spec");
        let manual = speedup(&serialized, &results.next().expect("one result per spec"));
        let auto = speedup(&serialized, &results.next().expect("one result per spec"));
        let place = speedup(&serialized, &results.next().expect("one result per spec"));
        // The paper pass's coverage of the program the auto column ran.
        let plain = generate(
            w,
            0,
            &WorkloadConfig {
                transactions: tx,
                ..WorkloadConfig::default()
            },
        );
        let (_, rep) = instrument(&plain.program);
        manual_all.push(manual);
        auto_all.push(auto);
        place_all.push(place);
        println!(
            "{}",
            row(
                &[
                    w.name().into(),
                    format!("{manual:.2}x"),
                    format!("{auto:.2}x"),
                    format!("{place:.2}x"),
                    format!("{:.0}%", rep.coverage() * 100.0),
                ],
                &widths
            )
        );
    }
    println!("{}", "-".repeat(66));
    let m = geomean(&manual_all);
    let a = geomean(&auto_all);
    let p = geomean(&place_all);
    println!(
        "{}",
        row(
            &[
                "Avg".into(),
                format!("{m:.2}x"),
                format!("{a:.2}x"),
                format!("{p:.2}x"),
                format!("gap {:.1}%", (m / a - 1.0) * 100.0),
            ],
            &widths
        )
    );
    println!("\npaper: manual 2.35x, auto 2.00x, gap 13.3%; RB-Tree and Queue see");
    println!("       little automated benefit (loops and pointers, §4.5.2).");
    println!("auto-place goes beyond the paper's pass (§6 future work): janus-lint's");
    println!("dominance-based placement recovers the loop/pointer workloads the");
    println!("static pass cannot handle.");
}
