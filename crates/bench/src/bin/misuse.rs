//! §6 "Tools for misuse detection": run the static analyzer over every
//! workload's manual instrumentation and over the compiler pass's output.

use janus_bench::banner;
use janus_bmo::BmoStack;
use janus_instrument::instrument;
use janus_lint::{lint_program, LintCode};
use janus_workloads::{generate, Instrumentation, Workload, WorkloadConfig};

fn main() {
    janus_bench::require_known_args(&["--tx"], &[]);
    banner(
        "Misuse detection (§6) — static analysis of pre-execution placement",
        "stale hints / useless requests / short windows, per workload",
    );
    println!(
        "{:<12} {:<8} {:>9} {:>12} {:>8} {:>8} {:>8}",
        "workload", "instr", "requests", "well-placed", "stale", "useless", "short"
    );
    println!("{}", "-".repeat(72));
    for w in Workload::all() {
        for (label, manual) in [("manual", true), ("auto", false)] {
            let cfg = WorkloadConfig {
                transactions: 50,
                instrumentation: if manual {
                    Instrumentation::Manual
                } else {
                    Instrumentation::None
                },
                ..WorkloadConfig::default()
            };
            let out = generate(w, 0, &cfg);
            let program = if manual {
                out.program
            } else {
                instrument(&out.program).0
            };
            let r = lint_program(&program, &BmoStack::paper());
            println!(
                "{:<12} {:<8} {:>9} {:>12} {:>8} {:>8} {:>8}",
                w.name(),
                label,
                r.requests,
                r.well_placed,
                r.count(LintCode::ModifiedAfterPre),
                r.count(LintCode::UselessPre),
                r.count(LintCode::InsufficientWindow)
            );
        }
    }
    println!("\nShort windows flag requests that cannot fully hide the ~691 ns BMO");
    println!("critical path; the undo-log pattern covers them dynamically (the fence");
    println!("of the preceding step extends the real window), so treat them as hints.");
}
