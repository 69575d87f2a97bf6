//! End-to-end profiler tests against the real memory controller.
//!
//! The anchor is the oracle from `janus-lint`: on the default paper stack
//! the parallelized critical path is exactly 2764 cycles (D1→D2→I1→I2→I3),
//! and the serialized total is 3272. The profiler must *measure* those
//! numbers out of the trace stream, and its attribution must partition
//! every write's blocked interval exactly.

use janus_core::controller::MemoryController;
use janus_core::{JanusConfig, SystemMode};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_prof::{Profile, ProfileError, SegKind};
use janus_sim::time::Cycles;
use janus_trace::TraceConfig;

fn profiled_controller(config: JanusConfig) -> (MemoryController, janus_trace::Tracer) {
    let mut mc = MemoryController::new(config);
    let tracer = mc.enable_profiling(&TraceConfig::default());
    (mc, tracer)
}

fn build(mc: &MemoryController, tracer: &janus_trace::Tracer, config: &JanusConfig) -> Profile {
    let _ = mc;
    let graph = config.stack().graph(&config.latencies);
    Profile::build(&tracer.snapshot(), tracer.dropped(), &graph).expect("profile builds")
}

#[test]
fn parallelized_critical_path_matches_depgraph_oracle_2764() {
    let config = JanusConfig::paper(SystemMode::Parallelized, 1);
    let graph = config.stack().graph(&config.latencies);
    let oracle = graph.critical_path();
    assert_eq!(oracle, Cycles(2764), "the lint-crate oracle itself");

    let (mut mc, tracer) = profiled_controller(config.clone());
    mc.handle_write(Cycles(0), 0, LineAddr(7), Line::splat(3), false);
    let p = build(&mc, &tracer, &config);

    assert_eq!(p.writes().len(), 1);
    let w = &p.writes()[0];
    assert_eq!(
        w.bmo_critical_path(),
        oracle.0,
        "measured BMO critical path equals the DepGraph oracle"
    );
    // The chain's BMO service segments are exactly the oracle path:
    // an idle engine adds no queueing, so every engine cycle is service.
    let bmo_service: u64 = w
        .chain
        .iter()
        .filter(|s| s.resource.starts_with("bmo.") && s.kind == SegKind::Service)
        .map(|s| s.dur())
        .sum();
    assert_eq!(bmo_service, oracle.0);
    let path: Vec<&str> = w
        .chain
        .iter()
        .filter(|s| s.resource.starts_with("bmo."))
        .map(|s| s.label)
        .collect();
    assert_eq!(path, ["D1", "D2", "I1", "I2", "I3"], "the paper's path");
    assert_eq!(p.attributed_cycles(), p.total_cycles());
}

#[test]
fn serialized_write_attributes_the_serial_sum() {
    let config = JanusConfig::paper(SystemMode::Serialized, 1);
    let graph = config.stack().graph(&config.latencies);
    let (mut mc, tracer) = profiled_controller(config.clone());
    mc.handle_write(Cycles(0), 0, LineAddr(7), Line::splat(3), false);
    let p = build(&mc, &tracer, &config);

    let w = &p.writes()[0];
    assert_eq!(w.bmo_critical_path(), graph.serial_sum().0);
    assert_eq!(graph.serial_sum(), Cycles(3272), "paper's serialized total");
    // Monolithic execution: every sub-operation lands on the chain.
    let labels: Vec<&str> = w
        .chain
        .iter()
        .filter(|s| s.resource.starts_with("bmo."))
        .map(|s| s.label)
        .collect();
    assert_eq!(labels.len(), graph.len());
    assert_eq!(p.attributed_cycles(), p.total_cycles());
}

#[test]
fn attribution_partitions_every_write_exactly() {
    for mode in [
        SystemMode::Ideal,
        SystemMode::Serialized,
        SystemMode::Parallelized,
        SystemMode::Janus,
    ] {
        let config = JanusConfig::paper(mode, 1);
        let (mut mc, tracer) = profiled_controller(config.clone());
        let mut expected_total = 0;
        let mut t = Cycles(0);
        for i in 0..40u64 {
            // A mix of fresh lines, repeated lines (dedup duplicates), and
            // commit-critical writes (metadata flushed synchronously).
            let line = LineAddr(i % 13);
            let data = Line::splat((i % 5) as u8);
            let out = mc.handle_write(t, 0, line, data, i % 7 == 0);
            expected_total += out.persist_at.0 - t.0;
            t += Cycles(100 * (i % 3));
        }
        let p = build(&mc, &tracer, &config);
        assert_eq!(p.writes().len(), 40);
        assert_eq!(
            p.total_cycles(),
            expected_total,
            "{mode:?}: profiled latencies match WriteOutcome"
        );
        assert_eq!(
            p.attributed_cycles(),
            p.total_cycles(),
            "{mode:?}: attribution partitions the blocked cycles"
        );
        // Every individual chain is contiguous from arrival to persist.
        for w in p.writes() {
            let covered: u64 = w.chain.iter().map(|s| s.dur()).sum();
            assert_eq!(covered, w.latency(), "write {} chain covers", w.wuid);
        }
    }
}

#[test]
fn slack_is_zero_on_the_measured_critical_path() {
    let config = JanusConfig::paper(SystemMode::Parallelized, 1);
    let (mut mc, tracer) = profiled_controller(config.clone());
    mc.handle_write(Cycles(0), 0, LineAddr(7), Line::splat(3), false);
    let p = build(&mc, &tracer, &config);
    let w = p.critical_write().unwrap();
    let slack = p.node_slack(w).expect("job has scheduled nodes");
    let on_path: Vec<&str> = w
        .chain
        .iter()
        .filter(|s| s.resource.starts_with("bmo."))
        .map(|s| s.label)
        .collect();
    let mut saw_positive = false;
    for (name, s) in &slack {
        if on_path.contains(name) {
            assert_eq!(*s, 0, "{name} is on the critical path");
        }
        saw_positive |= *s > 0;
    }
    assert!(saw_positive, "off-path nodes (E1..E4) have slack");
}

#[test]
fn random_stack_permutations_match_their_depgraph_oracle() {
    // Parallelized timing with ample units: the measured BMO critical path
    // must equal the stack's own DepGraph critical path for ANY stack.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _trial in 0..12 {
        let mut stack = janus_bmo::BmoId::ALL.to_vec();
        for i in (1..stack.len()).rev() {
            let j = (rng() % (i as u64 + 1)) as usize;
            stack.swap(i, j);
        }
        let keep = 1 + (rng() % stack.len() as u64) as usize;
        stack.truncate(keep);

        let mut config = JanusConfig::paper(SystemMode::Parallelized, 1);
        config.bmo_stack = stack.clone();
        config.bmo_units_per_core = 16; // no unit contention for one write
        let graph = config.stack().graph(&config.latencies);
        let (mut mc, tracer) = profiled_controller(config.clone());
        mc.handle_write(Cycles(0), 0, LineAddr(9), Line::splat(1), false);
        let p = build(&mc, &tracer, &config);
        let w = &p.writes()[0];
        assert_eq!(
            w.bmo_critical_path(),
            graph.critical_path().0,
            "stack {stack:?}"
        );
        assert_eq!(p.attributed_cycles(), p.total_cycles(), "stack {stack:?}");
    }
}

#[test]
fn profile_refuses_wrapped_rings_and_plain_traces() {
    let config = JanusConfig::paper(SystemMode::Parallelized, 1);
    let graph = config.stack().graph(&config.latencies);

    // Plain (non-causal) trace: no prof_* events.
    let mut mc = MemoryController::new(config.clone());
    let tracer = mc.enable_trace(&TraceConfig::default());
    mc.handle_write(Cycles(0), 0, LineAddr(7), Line::splat(3), false);
    assert!(matches!(
        Profile::build(&tracer.snapshot(), tracer.dropped(), &graph),
        Err(ProfileError::NoCausalEvents)
    ));

    // Wrapped ring: refuse rather than truncate chains.
    let mut mc = MemoryController::new(config.clone());
    let tracer = mc.enable_profiling(&TraceConfig { capacity: 8 });
    mc.handle_write(Cycles(0), 0, LineAddr(7), Line::splat(3), false);
    assert!(matches!(
        Profile::build(&tracer.snapshot(), tracer.dropped(), &graph),
        Err(ProfileError::Dropped(_))
    ));
}

#[test]
fn reports_are_deterministic_and_json_validates() {
    let run = || {
        let config = JanusConfig::paper(SystemMode::Janus, 1);
        let (mut mc, tracer) = profiled_controller(config.clone());
        let mut t = Cycles(0);
        for i in 0..24u64 {
            mc.handle_write(
                t,
                0,
                LineAddr(i % 7),
                Line::splat((i % 3) as u8),
                i % 5 == 0,
            );
            t += Cycles(500);
        }
        let p = build(&mc, &tracer, &config);
        (p.render_text(), p.to_json())
    };
    let (text_a, json_a) = run();
    let (text_b, json_b) = run();
    assert_eq!(text_a, text_b, "text report is byte-deterministic");
    assert_eq!(json_a, json_b, "JSON is byte-deterministic");
    janus_prof::validate_profile_json(&json_a).expect("schema validates");
}

#[test]
fn validator_rejects_a_corrupted_causal_link() {
    let config = JanusConfig::paper(SystemMode::Parallelized, 1);
    let (mut mc, tracer) = profiled_controller(config.clone());
    mc.handle_write(Cycles(100), 0, LineAddr(7), Line::splat(3), false);
    let p = build(&mc, &tracer, &config);
    let good = p.to_json();
    janus_prof::validate_profile_json(&good).expect("pristine profile validates");

    // Corrupt one causal link: nudge the first chain segment's "to" edge.
    let needle = "\"to\":";
    let at = good.find(needle).expect("chain has edges") + needle.len();
    let end = good[at..].find([',', '}']).unwrap() + at;
    let old: u64 = good[at..end].parse().unwrap();
    let corrupted = format!("{}{}{}", &good[..at], old + 1, &good[end..]);
    let err = janus_prof::validate_profile_json(&corrupted).unwrap_err();
    assert!(
        err.contains("causal chain") || err.contains("chain"),
        "rejected with a chain-integrity error, got: {err}"
    );
}
