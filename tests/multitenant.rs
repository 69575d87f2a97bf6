//! Integration tests for the multi-tenant open-loop front end: functional
//! correctness against per-tenant oracles, seed-replay determinism, IRB
//! policy behaviour, and the typed config-validation errors.

use janus::core::config::{JanusConfig, SystemMode};
use janus::core::ir::ProgramBuilder;
use janus::core::irb::IrbPolicy;
use janus::core::system::{ConfigError, ExecutionReport, System};
use janus::core::tenant::TenantStream;
use janus::nvm::addr::LineAddr;
use janus::nvm::line::Line;
use janus::sim::time::Cycles;
use janus::workloads::traffic::{generate_tenants, Arrival, TenantSpec};
use janus::workloads::Workload;

fn specs(tenants: usize, mean: u64) -> Vec<TenantSpec> {
    let mix = [
        Workload::Tatp,
        Workload::HashTable,
        Workload::Queue,
        Workload::Tpcc,
    ];
    (0..tenants)
        .map(|t| {
            TenantSpec::new(
                mix[t % mix.len()],
                6,
                Arrival::Poisson { mean: Cycles(mean) },
            )
        })
        .collect()
}

fn run(cores: usize, tenants: usize, policy: IrbPolicy, seed: u64) -> (System, ExecutionReport) {
    let mut config = JanusConfig::paper(SystemMode::Janus, cores);
    config.irb_policy = policy;
    let mut sys = System::new(config);
    let traffic = generate_tenants(&specs(tenants, 20_000), seed);
    let streams: Vec<TenantStream> = traffic.iter().map(|t| t.stream.clone()).collect();
    let report = sys.try_run_tenants(streams).expect("valid streams");
    // Per-tenant functional oracle: every line each tenant wrote holds its
    // expected final value (tenants occupy disjoint address regions).
    for (tenant, t) in traffic.iter().enumerate() {
        for (line, expected) in t.expected.iter() {
            assert_eq!(
                sys.read_value(line),
                *expected,
                "tenant {tenant} line {line:?}"
            );
        }
    }
    (sys, report)
}

#[test]
fn open_loop_run_completes_every_transaction() {
    let (_, report) = run(4, 4, IrbPolicy::Shared, 42);
    assert_eq!(report.tenants.len(), 4);
    for (i, t) in report.tenants.iter().enumerate() {
        assert_eq!(t.dispatched, 6, "tenant {i}");
        assert_eq!(t.completed, 6, "tenant {i}");
        assert!(t.p50 <= t.p99 && t.p99 <= t.p999, "tenant {i}");
        assert!(t.p999 <= t.max, "tenant {i}");
        assert!(t.mean >= Cycles(1), "tenant {i}: latency can't be zero");
    }
    assert_eq!(report.transactions, 24);
    let jain = report.jain_fairness();
    assert!((0.0..=1.0).contains(&jain), "jain={jain}");
    assert!(
        jain > 0.5,
        "similar tenants should be served fairly: {jain}"
    );
}

#[test]
fn seed_replay_is_byte_identical() {
    for policy in [
        IrbPolicy::Shared,
        IrbPolicy::Banked { per_tenant: 64 },
        IrbPolicy::Partitioned { quota: 64 },
    ] {
        let (_, a) = run(4, 4, policy, 7);
        let (_, b) = run(4, 4, policy, 7);
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        a.dump(&mut ta).unwrap();
        b.dump(&mut tb).unwrap();
        assert_eq!(ta, tb, "policy {policy} replay diverged");
    }
}

#[test]
fn core_count_does_not_change_the_traffic_only_the_timing() {
    // Same tenant set on 1 vs 4 cores: identical transaction counts and
    // functional outcome (checked inside `run`), and more cores can only
    // help latency-wise on this workload.
    let (_, one) = run(1, 4, IrbPolicy::Shared, 11);
    let (_, four) = run(4, 4, IrbPolicy::Shared, 11);
    assert_eq!(one.transactions, four.transactions);
    let worst = |r: &ExecutionReport| r.tenants.iter().map(|t| t.max).max().unwrap();
    assert!(
        worst(&four) <= worst(&one),
        "4 cores {} vs 1 core {}",
        worst(&four),
        worst(&one)
    );
}

#[test]
fn single_tenant_open_loop_degenerates_to_the_closed_loop_program() {
    // One tenant, arrivals all at cycle 0: the open-loop run executes the
    // same ops in the same order as the closed-loop run of the unsplit
    // program, so writes/transactions match exactly.
    let traffic = generate_tenants(&specs(1, 1), 3);
    let mut stream = traffic[0].stream.clone();
    for a in &mut stream.arrivals {
        *a = Cycles::ZERO;
    }
    let mut open = System::new(JanusConfig::paper(SystemMode::Janus, 1));
    let open_report = open.try_run_tenants(vec![stream.clone()]).unwrap();

    let mut joined = ProgramBuilder::new().build();
    for frag in &stream.txs {
        joined.ops.extend(frag.ops.iter().cloned());
    }
    let mut closed = System::new(JanusConfig::paper(SystemMode::Janus, 1));
    let closed_report = closed.run(vec![joined]);
    assert_eq!(open_report.transactions, closed_report.transactions);
    assert_eq!(open_report.writes, closed_report.writes);
    for (line, expected) in traffic[0].expected.iter() {
        assert_eq!(open.read_value(line), *expected);
        assert_eq!(closed.read_value(line), *expected);
    }
}

#[test]
fn partitioned_quota_records_drops_under_pressure() {
    // A tiny quota forces IRB rejections that the shared policy accepts.
    let run_policy = |policy: IrbPolicy| {
        let mut config = JanusConfig::paper(SystemMode::Janus, 2);
        config.irb_policy = policy;
        let mut sys = System::new(config);
        let sp: Vec<TenantSpec> = (0..4)
            .map(|_| {
                let mut s = TenantSpec::new(
                    Workload::HashTable,
                    8,
                    Arrival::Poisson { mean: Cycles(500) },
                );
                s.instrumentation = janus::workloads::Instrumentation::Manual;
                s
            })
            .collect();
        let streams = generate_tenants(&sp, 9)
            .into_iter()
            .map(|t| t.stream)
            .collect();
        sys.try_run_tenants(streams).unwrap()
    };
    let shared = run_policy(IrbPolicy::Shared);
    let strict = run_policy(IrbPolicy::Partitioned { quota: 1 });
    assert_eq!(shared.irb.2, 0, "shared policy should not drop here");
    assert!(
        strict.irb.2 > 0,
        "quota=1 must reject some inserts: {:?}",
        strict.irb
    );
    assert_eq!(
        shared.transactions, strict.transactions,
        "drops are a performance event, not a correctness one"
    );
}

#[test]
fn config_errors_are_typed_not_panics() {
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 2));
    let err = sys.try_run(vec![]).unwrap_err();
    assert_eq!(
        err,
        ConfigError::ProgramCount {
            programs: 0,
            cores: 2
        }
    );
    assert!(err.to_string().contains("2 configured core"));

    let mut b = ProgramBuilder::new();
    b.persist_store(LineAddr(1), Line::splat(1));
    let err = sys
        .run_until_crash(vec![b.build()], Cycles(1000))
        .unwrap_err();
    assert!(matches!(
        err,
        ConfigError::ProgramCount {
            programs: 1,
            cores: 2
        }
    ));

    assert_eq!(
        sys.try_run_tenants(vec![]).unwrap_err(),
        ConfigError::NoTenants
    );
    let bad_shape = TenantStream {
        arrivals: vec![Cycles(0)],
        txs: vec![],
    };
    assert!(matches!(
        sys.try_run_tenants(vec![bad_shape]).unwrap_err(),
        ConfigError::StreamShape { tenant: 0, .. }
    ));
    let unsorted = TenantStream {
        arrivals: vec![Cycles(10), Cycles(5)],
        txs: vec![Default::default(), Default::default()],
    };
    assert!(matches!(
        sys.try_run_tenants(vec![unsorted]).unwrap_err(),
        ConfigError::UnsortedArrivals { tenant: 0 }
    ));

    // A partitioned quota above the IRB's capacity is refused by every run
    // entry point; a quota of exactly the capacity runs.
    let mut config = JanusConfig::paper(SystemMode::Janus, 1);
    let capacity = config.total_irb_entries();
    config.irb_policy = IrbPolicy::Partitioned {
        quota: capacity + 1,
    };
    let too_big = ConfigError::IrbQuota {
        quota: capacity + 1,
        capacity,
    };
    let program = || {
        let mut b = ProgramBuilder::new();
        b.persist_store(LineAddr(1), Line::splat(1));
        b.build()
    };
    let mut sys = System::new(config.clone());
    assert_eq!(sys.try_run(vec![program()]).unwrap_err(), too_big);
    assert_eq!(
        sys.run_until_crashes(vec![program()], &[Cycles(1000)])
            .unwrap_err(),
        too_big
    );
    let stream = TenantStream {
        arrivals: vec![Cycles(0)],
        txs: vec![program()],
    };
    assert_eq!(sys.try_run_tenants(vec![stream]).unwrap_err(), too_big);
    assert!(too_big.to_string().contains("partitioned:65"), "{too_big}");
    config.irb_policy = IrbPolicy::Partitioned { quota: capacity };
    assert!(System::new(config).try_run(vec![program()]).is_ok());

    // Zero BMO units or write-queue entries build, and every run entry
    // point refuses them before the first event.
    let mut config = JanusConfig::paper(SystemMode::Janus, 1);
    config.bmo_units_per_core = 0;
    let zero_units = ConfigError::ZeroSize {
        field: "bmo_units_per_core",
    };
    let mut sys = System::new(config.clone());
    assert_eq!(sys.try_run(vec![program()]).unwrap_err(), zero_units);
    assert_eq!(
        sys.run_until_crashes(vec![program()], &[Cycles(1000)])
            .unwrap_err(),
        zero_units
    );
    let stream = TenantStream {
        arrivals: vec![Cycles(0)],
        txs: vec![program()],
    };
    assert_eq!(sys.try_run_tenants(vec![stream]).unwrap_err(), zero_units);
    assert!(zero_units.to_string().contains("bmo_units_per_core"));
    config.bmo_units_per_core = 1;
    config.wq_capacity = 0;
    assert_eq!(
        System::new(config).try_run(vec![program()]).unwrap_err(),
        ConfigError::ZeroSize {
            field: "wq_capacity"
        }
    );

    // So do zero cores, whose controller builds as for one.
    let zero_cores = ConfigError::ZeroSize { field: "cores" };
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 0));
    assert_eq!(sys.try_run(Vec::new()).unwrap_err(), zero_cores);
    assert_eq!(
        sys.run_until_crashes(Vec::new(), &[Cycles(1000)])
            .unwrap_err(),
        zero_cores
    );
    let stream = TenantStream {
        arrivals: vec![Cycles(0)],
        txs: vec![program()],
    };
    assert_eq!(sys.try_run_tenants(vec![stream]).unwrap_err(), zero_cores);
    assert_eq!(zero_cores.to_string(), "cores must be at least 1");
}
