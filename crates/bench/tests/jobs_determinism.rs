//! The sweep engine's determinism contract: fanning a batch of specs across
//! worker threads changes wall-clock only — every rendered result is
//! byte-identical at any `--jobs` value, across a sweep of three different
//! BMO stacks plus multi-tenant open-loop runs. A worker count that is zero
//! or not a number is a usage error (exit status 2), never a silent serial
//! run, and so is such a core count, never a panic, and a partitioned IRB
//! quota above the IRB's capacity. So is every other malformed flag value
//! of the bench drivers, checked before any work starts, while every
//! variant name one driver accepts works in the others.

use std::process::Command;

use janus_bench::{run_all_jobs, OpenLoopSpec, RunSpec, Variant};
use janus_bmo::BmoStack;
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_workloads::traffic::Arrival;
use janus_workloads::Workload;

fn sweep() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for stack in ["enc,int,dedup", "enc,ecc", "int"] {
        for variant in [Variant::Serialized, Variant::JanusManual] {
            let mut s = RunSpec::new(Workload::HashTable, variant);
            s.transactions = 12;
            s.bmo_stack = Some(BmoStack::parse(stack).unwrap().members().to_vec());
            specs.push(s);
        }
    }
    // Open-loop tenants sharing two cores: the per-tenant report section
    // must come back from the workers in spec order too.
    for policy in [IrbPolicy::Shared, IrbPolicy::Partitioned { quota: 64 }] {
        let mut s = RunSpec::new(Workload::Tatp, Variant::JanusManual);
        s.cores = 2;
        s.transactions = 8;
        s.irb_policy = policy;
        s.open_loop = Some(OpenLoopSpec {
            tenants: 4,
            arrival: Arrival::Poisson {
                mean: Cycles(10_000),
            },
            mix: vec![Workload::Tatp, Workload::HashTable],
        });
        specs.push(s);
    }
    specs
}

fn rendered(jobs: usize) -> Vec<String> {
    run_all_jobs(sweep(), jobs)
        .iter()
        .map(|r| r.metrics().to_json())
        .collect()
}

#[test]
fn jobs_1_4_8_render_byte_identical_results() {
    let serial = rendered(1);
    assert_eq!(serial.len(), 8);
    assert!(
        serial[6].contains("\"tenant3."),
        "open-loop specs carry per-tenant rows: {}",
        serial[6]
    );
    assert_eq!(serial, rendered(4), "--jobs 4 diverged from --jobs 1");
    assert_eq!(serial, rendered(8), "--jobs 8 diverged from --jobs 1");
}

#[test]
fn oversubscribed_pool_still_ordered() {
    // More workers than specs: each worker gets at most one item and the
    // result order must still be spec order.
    let serial = rendered(1);
    assert_eq!(serial, rendered(64));
}

#[test]
fn malformed_worker_counts_exit_2() {
    let sweep = |args: &[&str], env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_janus-sweep"));
        cmd.args([
            "--workloads",
            "queue",
            "--variants",
            "serialized",
            "--tx",
            "2",
        ]);
        cmd.args(args)
            .env_remove("JANUS_JOBS")
            .env_remove("JANUS_RESULTS_JSON_DIR");
        if let Some(v) = env {
            cmd.env("JANUS_JOBS", v);
        }
        cmd.output().expect("spawn janus-sweep")
    };
    for (args, env, source) in [
        (&["--jobs", "abc"][..], None, "--jobs"),
        (&["--jobs", "0"][..], None, "--jobs"),
        (&[][..], Some("lots"), "JANUS_JOBS"),
    ] {
        let out = sweep(args, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert!(stderr.contains(source), "{args:?} {env:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} {env:?}: ran anyway");
    }
    let ok = sweep(&["--jobs", "1"], None);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}

#[test]
fn malformed_core_counts_exit_2() {
    for (bin, value) in [
        (env!("CARGO_BIN_EXE_janus-cli"), "0"),
        (env!("CARGO_BIN_EXE_janus-cli"), "abc"),
        (env!("CARGO_BIN_EXE_multicore"), "0"),
        (env!("CARGO_BIN_EXE_janus-sweep"), "0"),
        (env!("CARGO_BIN_EXE_janus-prof"), "0"),
    ] {
        let out = Command::new(bin)
            .args(["--cores", value])
            .env_remove("JANUS_JOBS")
            .env_remove("JANUS_RESULTS_JSON_DIR")
            .output()
            .expect("spawn bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} --cores {value}: {stderr}"
        );
        assert_eq!(
            stderr.trim_end(),
            "error: --cores requires a positive integer value",
            "{bin} --cores {value}"
        );
        assert!(out.stdout.is_empty(), "{bin} --cores {value}: ran anyway");
    }
}

#[test]
fn malformed_values_exit_2_before_any_work() {
    // A path under a regular file can never be created.
    let unwritable = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    let cli = env!("CARGO_BIN_EXE_janus-cli");
    let prof = env!("CARGO_BIN_EXE_janus-prof");
    let lint = env!("CARGO_BIN_EXE_janus-lint");
    for (bin, args) in [
        (cli, &["--tx", "abc"][..]),
        (cli, &["--size", "abc"][..]),
        (cli, &["--seed", "x"][..]),
        (cli, &["--dedup", "x"][..]),
        (cli, &["--scale", "abc"][..]),
        (cli, &["--dedup", "2"][..]),
        (cli, &["--skew", "-1"][..]),
        (cli, &["--skew", "1"][..]),
        (cli, &["--scale", "0"][..]),
        (cli, &["--profile", unwritable][..]),
        (cli, &["--aux", "5"][..]),
        (cli, &["--aux", "-1"][..]),
        (prof, &["--out", unwritable][..]),
        (prof, &["--json", unwritable][..]),
        (prof, &["--chrome", unwritable][..]),
        (lint, &["--tenants", "abc"][..]),
        (lint, &["--irb-policy", "bogus"][..]),
        (lint, &["--instr", "bogus"][..]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .env_remove("JANUS_JOBS")
            .env_remove("JANUS_RESULTS_JSON_DIR")
            .output()
            .expect("spawn bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{bin} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert_eq!(stderr.lines().count(), 1, "{what}");
        assert!(
            stderr.starts_with(&format!("error: {} ", args[0])),
            "{what}"
        );
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(out.stdout.is_empty(), "{what}: ran anyway");
    }
}

#[test]
fn every_driver_takes_every_variant_name() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_janus-sweep"),
            &["--variants", "janus", "--workloads", "queue", "--tx", "2"][..],
        ),
        (
            env!("CARGO_BIN_EXE_janus-prof"),
            &["--variant", "pgo", "--tx", "2"][..],
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .env_remove("JANUS_JOBS")
            .env_remove("JANUS_RESULTS_JSON_DIR")
            .output()
            .expect("spawn bench binary");
        assert!(
            out.status.success(),
            "{bin} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn irb_quota_above_capacity_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_multicore"))
        .args([
            "--irb-policy",
            "partitioned:99999999",
            "--tx",
            "4",
            "--tenants",
            "2",
            "--cores",
            "1",
        ])
        .env_remove("JANUS_JOBS")
        .env_remove("JANUS_RESULTS_JSON_DIR")
        .output()
        .expect("spawn multicore");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: invalid run configuration: \
         IRB policy partitioned:99999999 exceeds the IRB's 64 entries"
    );
}
