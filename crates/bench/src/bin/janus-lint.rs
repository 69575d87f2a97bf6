//! The `janus-lint` driver: run the static `PRE_*` analysis over the
//! workload suite, (optionally) apply the proven autofix engine, compute
//! the cross-tenant IRB-contention bound, and (optionally) run the
//! structural dependency-graph linter over every BMO stack permutation.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-lint -- \
//!     --all --instr manual --deny
//! ```
//!
//! Flags: `--workload <array|queue|hash|rbtree|btree|tatp|tpcc|all>`
//! (default `all`; `--all` is a shorthand), `--instr
//! <manual|auto|place|none>` (which instrumentation to lint, default
//! `manual`), `--tx N` (transactions per program, default 50), `--bmos
//! <id,...>` (BMO stack override — changes the required pre-execution
//! window), `--stacks` (also lint the dependency graph of the configured
//! stack and of every stack permutation), `--seeded` (inject a deliberate
//! stale-hint misuse before linting — the CI red-path check), `--fix`
//! (apply the autofix engine; every fix must pass `verify_fix` — a re-lint
//! that reproduces the engine's report plus a trace-oracle replay — or the
//! run exits 2), `--dry-run` (with `--fix`: print the unified diff of the
//! rewrite instead of only the summary), `--tenants N` + `--irb-policy
//! <shared|banked[:N]|partitioned[:N]>` (compute the static cross-tenant
//! IRB no-drop bound for an N-tenant mix of the selected workloads),
//! `--json` (one deterministic JSON object per program instead of text),
//! `--deny` (exit 1 if any error-severity diagnostic fired; with `--fix`,
//! post-fix diagnostics are counted). Every value is checked before any
//! analysis runs: a malformed one (`--irb-policy` without `--tenants`
//! included) exits with status 2. Output is byte-deterministic: same
//! flags, same bytes, at any `--jobs` value.

use janus_bench::banner;
use janus_bench::cli::{self, flag, parse_with};
use janus_bmo::BmoStack;
use janus_core::config::{JanusConfig, SystemMode};
use janus_core::irb::IrbPolicy;
use janus_instrument::instrument;
use janus_instrument::misuse::verify_fix;
use janus_lint::{
    auto_place, fix_program, irb_bound_for_tenants, lint_permutations, lint_program, lint_stack,
    render_program, required_window, seed_stale_hint, unified_diff,
};
use janus_sim::time::Cycles;
use janus_trace::json;
use janus_workloads::traffic::{try_generate_tenants, Arrival, TenantSpec};
use janus_workloads::{try_generate, Instrumentation, Workload, WorkloadConfig};

fn main() {
    janus_bench::require_known_args(
        &[
            "--workload",
            "--instr",
            "--tx",
            "--bmos",
            "--tenants",
            "--irb-policy",
        ],
        &[
            "--all",
            "--stacks",
            "--seeded",
            "--json",
            "--deny",
            "--fix",
            "--dry-run",
        ],
    );
    let tx = janus_bench::arg_usize("--tx", 50);
    let stack = parse_with("--bmos", BmoStack::parse).unwrap_or_else(BmoStack::paper);
    let workloads = parse_with("--workload", |v| match v {
        "all" => Ok(Workload::all().to_vec()),
        w => w.parse().map(|w| vec![w]),
    })
    .unwrap_or_else(|| Workload::all().to_vec());
    let instr = parse_with("--instr", |v| match v {
        "manual" | "auto" | "place" | "none" => Ok(v.to_string()),
        _ => Err(format!("must be one of manual|auto|place|none, got {v:?}")),
    })
    .unwrap_or_else(|| "manual".into());
    let tenants = parse_with("--tenants", cli::positive);
    let policy = parse_with("--irb-policy", IrbPolicy::parse).unwrap_or(IrbPolicy::Shared);
    let json_out = flag("--json");
    let dry_run = flag("--dry-run");
    let fix = flag("--fix") || dry_run;
    // CI red-path hook: tamper with the fixed program after the engine ran,
    // emulating a fix that regresses diagnostics. The verification below
    // must catch it and exit 2.
    let sabotage = std::env::var("JANUS_FIX_SABOTAGE").is_ok_and(|v| v == "1");

    if !json_out {
        banner(
            "janus-lint — static analysis of the PRE_* interface",
            &format!(
                "instr={instr} tx={tx} stack={stack} required-window={}",
                required_window(&stack)
            ),
        );
    }

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for w in workloads.iter().copied() {
        let cfg = WorkloadConfig {
            transactions: tx,
            instrumentation: if instr == "manual" {
                Instrumentation::Manual
            } else {
                Instrumentation::None
            },
            ..WorkloadConfig::default()
        };
        let out = try_generate(w, 0, &cfg).unwrap_or_else(|e| cli::cannot_generate(w, e));
        let mut program = match instr.as_str() {
            "auto" => instrument(&out.program).0,
            "place" => auto_place(&out.program).0,
            _ => out.program,
        };
        if flag("--seeded") {
            seed_stale_hint(&mut program);
        }
        let report = lint_program(&program, &stack);
        let fixed = fix.then(|| {
            let mut outcome = fix_program(&program, &stack);
            if sabotage {
                seed_stale_hint(&mut outcome.program);
            }
            let v = verify_fix(&program, &outcome, &stack);
            if !v.ok() {
                eprintln!(
                    "janus-lint --fix: {}: fix verification failed ({v}) — refusing to emit",
                    w.slug()
                );
                std::process::exit(2);
            }
            outcome
        });

        let shown = fixed.as_ref().map_or(&report, |outcome| &outcome.after);
        total_errors += shown.errors();
        total_warnings += shown.warnings();

        if json_out {
            if let Some(outcome) = &fixed {
                let mut applied = String::new();
                for (i, f) in outcome.applied.iter().enumerate() {
                    if i > 0 {
                        applied.push(',');
                    }
                    applied.push_str(&format!(
                        "{{\"kind\":\"{}\",\"code\":\"{}\",\"at\":{},\"detail\":",
                        f.kind.as_str(),
                        f.code.as_str(),
                        f.at
                    ));
                    json::write_str(&mut applied, &f.detail);
                    applied.push('}');
                }
                println!(
                    "{{\"workload\":\"{}\",\"instr\":\"{instr}\",\"report\":{},\
                     \"fix\":{{\"iterations\":{},\"refused\":{},\"applied\":[{applied}],\
                     \"report\":{}}}}}",
                    w.slug(),
                    report.to_json(),
                    outcome.iterations,
                    outcome.refused,
                    outcome.after.to_json()
                );
            } else {
                println!(
                    "{{\"workload\":\"{}\",\"instr\":\"{instr}\",\"report\":{}}}",
                    w.slug(),
                    report.to_json()
                );
            }
        } else {
            println!(
                "{:<12} requests={:<5} well-placed={:<5} errors={} warnings={}",
                w.name(),
                report.requests,
                report.well_placed,
                report.errors(),
                report.warnings()
            );
            for d in &report.diagnostics {
                println!("  {d}");
            }
            if let Some(outcome) = &fixed {
                for f in &outcome.applied {
                    println!("  {f}");
                }
                println!(
                    "  fixed: errors={} warnings={} applied={} iterations={} refused={}",
                    outcome.after.errors(),
                    outcome.after.warnings(),
                    outcome.applied.len(),
                    outcome.iterations,
                    outcome.refused
                );
                if dry_run && !outcome.applied.is_empty() {
                    let before = render_program(&program);
                    let after = render_program(&outcome.program);
                    print!(
                        "{}",
                        unified_diff(
                            &before,
                            &after,
                            &format!("{}/before", w.slug()),
                            &format!("{}/after", w.slug())
                        )
                    );
                }
            }
        }
    }

    if let Some(tenants) = tenants {
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|t| {
                let mut s = TenantSpec::new(
                    workloads[t % workloads.len()],
                    tx,
                    Arrival::Poisson {
                        mean: Cycles(20_000),
                    },
                );
                s.instrumentation = if instr == "manual" {
                    Instrumentation::Manual
                } else {
                    Instrumentation::None
                };
                s
            })
            .collect();
        let traffic = try_generate_tenants(&specs, 0)
            .unwrap_or_else(|e| cli::cannot_generate("tenant traffic", e));
        let streams: Vec<Vec<janus_core::ir::Program>> =
            traffic.into_iter().map(|t| t.stream.txs).collect();
        let capacity = JanusConfig::paper(SystemMode::Janus, tenants).total_irb_entries();
        let bound = irb_bound_for_tenants(&streams, policy, capacity);
        if json_out {
            let mut demands = String::new();
            for (i, d) in bound.demands.iter().enumerate() {
                if i > 0 {
                    demands.push(',');
                }
                demands.push_str(&format!(
                    "{{\"tenant\":{i},\"workload\":\"{}\",\"peak\":{},\"requests\":{}}}",
                    specs[i].workload.slug(),
                    d.peak,
                    d.requests
                ));
            }
            println!(
                "{{\"tenants\":{tenants},\"policy\":\"{policy}\",\"capacity\":{capacity},\
                 \"demands\":[{demands}],\"total_peak\":{},\"safe\":{}}}",
                bound.total_peak(),
                bound.verdict.is_safe()
            );
        } else {
            println!(
                "\ncross-tenant IRB bound: tenants={tenants} policy={policy} capacity={capacity}"
            );
            for (i, d) in bound.demands.iter().enumerate() {
                println!(
                    "  tenant {i} ({:<10}) peak={:<4} requests={}",
                    specs[i].workload.slug(),
                    d.peak,
                    d.requests
                );
            }
            println!(
                "  total peak={} verdict: {}",
                bound.total_peak(),
                bound.verdict
            );
        }
    }

    if flag("--stacks") {
        let configured = lint_stack(&stack);
        let sweep = lint_permutations();
        total_errors += configured
            .iter()
            .chain(&sweep)
            .filter(|d| d.severity == janus_lint::Severity::Error)
            .count();
        total_warnings += configured
            .iter()
            .chain(&sweep)
            .filter(|d| d.severity == janus_lint::Severity::Warning)
            .count();
        if json_out {
            print!("{{\"stack\":\"{stack}\",\"graph\":[");
            for (i, d) in configured.iter().enumerate() {
                if i > 0 {
                    print!(",");
                }
                let mut s = String::new();
                d.write_json(&mut s);
                print!("{s}");
            }
            print!("],\"permutations\":[");
            for (i, d) in sweep.iter().enumerate() {
                if i > 0 {
                    print!(",");
                }
                let mut s = String::new();
                d.write_json(&mut s);
                print!("{s}");
            }
            println!("]}}");
        } else {
            println!("\ndependency-graph lint of stack {stack}:");
            if configured.is_empty() {
                println!("  clean");
            }
            for d in &configured {
                println!("  {d}");
            }
            println!(
                "permutation sweep over all {} BMOs:",
                janus_bmo::BmoId::ALL.len()
            );
            if sweep.is_empty() {
                println!("  clean");
            }
            for d in &sweep {
                println!("  {d}");
            }
        }
    }

    if !json_out {
        println!("\ntotal: {total_errors} errors, {total_warnings} warnings");
    }
    if flag("--deny") && total_errors > 0 {
        std::process::exit(1);
    }
}
