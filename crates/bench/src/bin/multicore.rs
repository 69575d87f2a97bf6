//! Multi-tenant open-loop sweep: IRB policies × tenant counts × arrival
//! rates on a shared multi-core Janus memory system.
//!
//! Each run drives `--cores` worker cores from N open-loop tenant streams
//! (mixed TATP / Hash Table / Queue / TPC-C traffic, round-robin) and
//! reports per-tenant p50/p99/p999 arrival→persistence latency, system
//! throughput, and the Jain fairness index across tenants. The default
//! sweep crosses {shared, banked:64, partitioned:64} IRB policies with
//! {1, 4, 16} tenants and two Poisson arrival rates; `--tenants`,
//! `--irb-policy`, and `--arrival` each pin their dimension to a single
//! point (the worked single-configuration mode in the README).
//!
//! `--traffic-digest` prints a fingerprint of the generated tenant streams
//! instead of running them: traffic is a pure function of (spec, seed) and
//! never reads the core count, and CI diffs this output across `--cores`
//! values to prove tenant placement cannot change the traffic.
//!
//! Output is deterministic: byte-identical across reruns and at any
//! `--jobs` fan-out.

use janus_bench::cli::{self, flag, parse_with};
use janus_bench::{arg_usize, banner, row, run_all, OpenLoopSpec, RunSpec, Variant};
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_workloads::traffic::{digest, try_generate_tenants, Arrival};
use janus_workloads::Workload;

/// The tenant transaction mixes, assigned round-robin.
const MIX: [Workload; 4] = [
    Workload::Tatp,
    Workload::HashTable,
    Workload::Queue,
    Workload::Tpcc,
];

fn spec_for(
    cores: usize,
    tx: usize,
    seed: u64,
    policy: IrbPolicy,
    tenants: usize,
    arrival: Arrival,
) -> RunSpec {
    let mut s = RunSpec::new(MIX[0], Variant::JanusManual);
    s.cores = cores;
    s.transactions = tx;
    s.seed = seed;
    s.irb_policy = policy;
    s.open_loop = Some(OpenLoopSpec {
        tenants,
        arrival,
        mix: MIX.to_vec(),
    });
    s
}

fn main() {
    janus_bench::require_known_args(
        &[
            "--tx",
            "--cores",
            "--tenants",
            "--irb-policy",
            "--arrival",
            "--seed",
        ],
        &["--traffic-digest"],
    );
    let tx = arg_usize("--tx", 40);
    // Worker cores run no workload instance of their own (the tenants do),
    // so only the tenant count is bounded by the data region.
    let cores = parse_with("--cores", cli::positive).unwrap_or(4);
    let seed = parse_with("--seed", cli::unsigned).unwrap_or(42);
    let policies = match parse_with("--irb-policy", IrbPolicy::parse) {
        Some(p) => vec![p],
        None => vec![
            IrbPolicy::Shared,
            IrbPolicy::Banked { per_tenant: 64 },
            IrbPolicy::Partitioned { quota: 64 },
        ],
    };
    let tenant_counts = match parse_with("--tenants", cli::instances) {
        Some(t) => vec![t],
        None => vec![1, 4, 16],
    };
    let arrivals = match parse_with("--arrival", Arrival::parse) {
        Some(a) => vec![a],
        None => vec![
            Arrival::Poisson {
                mean: Cycles(40_000),
            },
            Arrival::Poisson {
                mean: Cycles(10_000),
            },
        ],
    };

    if flag("--traffic-digest") {
        // Traffic fingerprints for every (tenants, arrival) point of the
        // sweep — independent of cores, policy, and jobs by construction.
        for &tenants in &tenant_counts {
            for &arrival in &arrivals {
                let spec = spec_for(cores, tx, seed, IrbPolicy::Shared, tenants, arrival);
                let streams: Vec<_> = try_generate_tenants(&spec.tenant_specs(), seed)
                    .unwrap_or_else(|e| cli::cannot_generate("tenant traffic", e))
                    .into_iter()
                    .map(|t| t.stream)
                    .collect();
                println!(
                    "tenants={tenants} arrival={arrival} digest={:016x}",
                    digest(&streams)
                );
            }
        }
        return;
    }

    banner(
        "Multi-tenant open-loop sweep — IRB policy x tenants x arrival rate",
        &format!(
            "{cores} cores; {tx} tx/tenant; mix TATP/Hash/Queue/TPCC; \
             per-tenant arrival->persistence latency"
        ),
    );
    let widths = [16, 8, 15, 9, 6, 11, 11, 11];
    println!(
        "{}",
        row(
            &[
                "irb-policy".into(),
                "tenants".into(),
                "arrival".into(),
                "tx/Mcyc".into(),
                "jain".into(),
                "p50".into(),
                "p99".into(),
                "p999".into(),
            ],
            &widths
        )
    );

    let mut specs = Vec::new();
    for &policy in &policies {
        for &tenants in &tenant_counts {
            for &arrival in &arrivals {
                specs.push(spec_for(cores, tx, seed, policy, tenants, arrival));
            }
        }
    }
    let results = run_all(specs);

    for r in &results {
        let ol = r.spec.open_loop.as_ref().expect("open-loop spec");
        let worst = |f: fn(&janus_core::system::TenantReport) -> Cycles| {
            r.report.tenants.iter().map(f).max().unwrap_or(Cycles::ZERO)
        };
        println!(
            "{}",
            row(
                &[
                    r.spec.irb_policy.to_string(),
                    ol.tenants.to_string(),
                    ol.arrival.to_string(),
                    format!("{:.1}", r.report.tx_per_mcycle()),
                    format!("{:.3}", r.report.jain_fairness()),
                    worst(|t| t.p50).to_string(),
                    worst(|t| t.p99).to_string(),
                    worst(|t| t.p999).to_string(),
                ],
                &widths
            )
        );
        // Per-tenant tail detail (the JSONL sink carries the same numbers
        // as tenant{i}.* keys).
        for (i, t) in r.report.tenants.iter().enumerate() {
            println!(
                "    tenant {i:>2} [{:>10}]  done {:>3}/{:<3}  p50 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}",
                MIX[i % MIX.len()].slug(),
                t.completed,
                t.dispatched,
                t.p50,
                t.p99,
                t.p999,
                t.max,
            );
        }
    }
    println!("\ncolumns: worst-tenant latency percentiles (cycles); jain = fairness index over");
    println!("per-tenant service rates (1.0 = perfectly fair)");
}
