//! The sweep engine's determinism contract: fanning a batch of specs across
//! worker threads changes wall-clock only — every rendered result is
//! byte-identical at any `--jobs` value, across a sweep of three different
//! BMO stacks plus multi-tenant open-loop runs. A worker count that is zero
//! or not a number is a usage error (exit status 2), never a silent serial
//! run, and so is such a core count, never a panic, and a partitioned IRB
//! quota above the IRB's capacity. So is every other malformed flag value
//! of the bench drivers, checked before any work starts, while every
//! variant name one driver accepts works in the others. `janus-cli
//! --list-bmos` prints the BMO registry byte for byte as pinned here.

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
    let sweep = env!("CARGO_BIN_EXE_janus-sweep");
    let prof = env!("CARGO_BIN_EXE_janus-prof");
    let lint = env!("CARGO_BIN_EXE_janus-lint");
    let multicore = env!("CARGO_BIN_EXE_multicore");
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
        // 4 units per core wrap to 0; the units' window capacity wraps.
        (cli, &["--scale", "4611686018427387904"][..]),
        (cli, &["--scale", "1152921504606846976"][..]),
        (cli, &["--profile", unwritable][..]),
        (cli, &["--aux", "5"][..]),
        (cli, &["--aux", "-1"][..]),
        (prof, &["--out", unwritable][..]),
        (prof, &["--json", unwritable][..]),
        (prof, &["--chrome", unwritable][..]),
        (lint, &["--tenants", "abc"][..]),
        (lint, &["--irb-policy", "bogus"][..]),
        (lint, &["--instr", "bogus"][..]),
        // The deleted profile-guided pass's names, and the retired
        // `fixed` variant (it ran the manual program).
        (cli, &["--variant", "pgo"][..]),
        (sweep, &["--variants", "janus-pgo"][..]),
        (prof, &["--variant", "profile"][..]),
        (cli, &["--variant", "fixed"][..]),
        // Each closed-loop core and open-loop tenant runs a workload
        // instance in its own region of the data region, which has 64.
        (cli, &["--cores", "65", "--tx", "1"][..]),
        (sweep, &["--cores", "65", "--tx", "1"][..]),
        (prof, &["--cores", "65", "--tx", "1"][..]),
        (multicore, &["--tenants", "65", "--tx", "1"][..]),
        (multicore, &["--tenants", "0", "--tx", "1"][..]),
    ] {
        let stderr = exits_2(bin, args);
        assert!(
            stderr.starts_with(&format!("error: {} ", args[0])),
            "{bin} {args:?}: {stderr}"
        );
    }
    // Well-formed flags whose workload cannot be generated: the array does
    // not fit its core region, and more distinct keys arrive than the hash
    // table has slots, closed-loop or split into open-loop tenants.
    // multicore's sweep and janus-lint print their banner before they
    // generate (`banner`); the rest print nothing.
    let hash_full = "slots of the hash table";
    for (bin, args, reason, banner) in [
        (
            cli,
            &["--workload", "array", "--size", "65536", "--tx", "1"][..],
            "core region",
            false,
        ),
        (
            cli,
            &["--workload", "hash", "--tx", "20000", "--size", "4096"][..],
            hash_full,
            false,
        ),
        (
            multicore,
            &["--tx", "20000", "--tenants", "2", "--cores", "1"][..],
            hash_full,
            true,
        ),
        (
            multicore,
            &["--traffic-digest", "--tx", "20000", "--tenants", "2"][..],
            hash_full,
            false,
        ),
        (
            lint,
            &["--workload", "hash", "--tx", "20000"][..],
            hash_full,
            true,
        ),
    ] {
        let (stderr, stdout) = usage_error(bin, args);
        let what = format!("{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: cannot generate ") && stderr.contains(reason),
            "{what}"
        );
        assert!(banner || stdout.is_empty(), "{what}: ran anyway");
    }
}

/// Runs `bin` with `args` and checks the usage-error contract: exit 2, one
/// `error:` line on stderr, no panic. Returns stderr and stdout.
fn usage_error(bin: &str, args: &[&str]) -> (String, String) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("JANUS_JOBS")
        .env_remove("JANUS_RESULTS_JSON_DIR")
        .output()
        .expect("spawn bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let what = format!("{bin} {args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(2), "{what}");
    assert_eq!(stderr.lines().count(), 1, "{what}");
    assert!(stderr.starts_with("error: "), "{what}");
    assert!(!stderr.contains("panicked"), "{what}");
    (stderr, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// [`usage_error`] for a value read before any work starts: nothing
/// reaches stdout. Returns stderr.
fn exits_2(bin: &str, args: &[&str]) -> String {
    let (stderr, stdout) = usage_error(bin, args);
    assert!(stdout.is_empty(), "{bin} {args:?}: {stderr}: ran anyway");
    stderr
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
            &["--variant", "place", "--tx", "2"][..],
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
fn open_loop_worker_cores_are_not_workload_instances() {
    // The tenants own the data regions; any number of worker cores serves
    // them, 64 regions or not.
    assert_eq!(janus_bench::cli::MAX_INSTANCES, 64);
    let out = Command::new(env!("CARGO_BIN_EXE_multicore"))
        .args(["--cores", "65", "--tenants", "4", "--tx", "2"])
        .env_remove("JANUS_JOBS")
        .env_remove("JANUS_RESULTS_JSON_DIR")
        .output()
        .expect("spawn multicore");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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

#[test]
fn list_bmos_prints_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_janus-cli"))
        .arg("--list-bmos")
        .env_remove("JANUS_JOBS")
        .output()
        .expect("spawn janus-cli");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "\
Registered BMOs (stack with --bmos id,id,...; default: enc,int,dedup):
  enc    counter-mode encryption                  pre-exec: Both
  int    Merkle-tree integrity                    pre-exec: None
  dedup  fingerprint deduplication                pre-exec: Both
  comp   inline compression                       pre-exec: Data
  wear   Start-Gap wear-leveling                  pre-exec: Addr
  ecc    SECDED error correction                  pre-exec: Data
  oram   oblivious frame relocation               pre-exec: Addr
"
    );
}
