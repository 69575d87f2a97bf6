//! Determinism contract for the causal profiler.
//!
//! A profile is a pure function of the simulated timeline, so two identical
//! runs must produce **byte-identical** text and JSON reports (CI also
//! checks this end-to-end through the `janus-prof` binary).

use janus::prof::Profile;
use janus::sim::time::Cycles;
use janus::workloads::traffic::Arrival;
use janus_bench::{run_quiet, OpenLoopSpec, RunSpec, Variant};
use janus_workloads::Workload;

fn profile_of(spec: &RunSpec) -> (String, String) {
    let r = run_quiet(spec.clone());
    let config = r.spec.config();
    let graph = config.stack().graph(&config.latencies);
    let p =
        Profile::build(&r.tracer.snapshot(), r.tracer.dropped(), &graph).expect("profile builds");
    (p.render_text(), p.to_json())
}

fn profiled_spec(workload: Workload, variant: Variant) -> RunSpec {
    let mut spec = RunSpec::new(workload, variant);
    spec.transactions = 20;
    spec.profile = true;
    spec
}

#[test]
fn profiles_are_byte_identical_across_reruns() {
    let spec = profiled_spec(Workload::Tatp, Variant::JanusManual);
    let (text_a, json_a) = profile_of(&spec);
    let (text_b, json_b) = profile_of(&spec);
    assert_eq!(text_a, text_b);
    assert_eq!(json_a, json_b);
    janus::prof::validate_profile_json(&json_a).expect("profile validates");
}

#[test]
fn tenant_tails_group_write_latency_by_tenant_not_core() {
    // Four tenants on two cores: the profiler's per-tenant tail summary
    // must key on the issuing tenant (which the trace stream carries as
    // the write's thread id), not on whichever physical core the tenant's
    // transactions happened to land on.
    let mut spec = profiled_spec(Workload::HashTable, Variant::JanusManual);
    spec.cores = 2;
    spec.transactions = 8;
    spec.open_loop = Some(OpenLoopSpec {
        tenants: 4,
        arrival: Arrival::Poisson {
            mean: Cycles(5_000),
        },
        mix: vec![Workload::HashTable, Workload::Queue],
    });
    let r = run_quiet(spec);
    let config = r.spec.config();
    let graph = config.stack().graph(&config.latencies);
    let p =
        Profile::build(&r.tracer.snapshot(), r.tracer.dropped(), &graph).expect("profile builds");
    let tails = p.tenant_tails();
    assert_eq!(
        tails.keys().copied().collect::<Vec<u64>>(),
        vec![0, 1, 2, 3],
        "groups are the 4 tenant ids, not the 2 core ids"
    );
    let mut total = 0;
    for (tenant, t) in &tails {
        assert!(t.writes > 0, "tenant {tenant} has profiled writes");
        assert!(
            t.p50 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.max,
            "tenant {tenant} quantiles ordered: {t:?}"
        );
        assert!(t.mean <= t.max && t.mean > 0, "tenant {tenant}: {t:?}");
        total += t.writes;
    }
    assert_eq!(total as usize, p.writes().len(), "every write is grouped");
}

#[test]
fn chrome_export_with_counters_is_deterministic() {
    let export = || {
        let mut spec = profiled_spec(Workload::Queue, Variant::JanusManual);
        spec.sample_every = Some(1000);
        let r = run_quiet(spec);
        assert!(!r.samples.is_empty(), "sampler produced counter samples");
        let mut out = Vec::new();
        janus::prof::export_chrome_with_counters(
            &r.tracer.snapshot(),
            &r.samples,
            r.tracer.dropped(),
            &mut out,
        )
        .expect("chrome export");
        out
    };
    let a = export();
    assert_eq!(a, export());
    let doc = janus::trace::json::parse(std::str::from_utf8(&a).unwrap()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
        .count();
    assert!(counters > 0, "counter tracks present in the merged export");
}
