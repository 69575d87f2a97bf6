//! Differential property test: the compiled schedule-template replay path
//! must be observationally identical to the interpreted list scheduler it
//! stands in for — same completion cycles and the same causal trace stream,
//! event for event (order and `prof_node` links included), for every stack,
//! mode, unit count, and request sequence.

use janus_bmo::engine::{BmoEngine, BmoMode};
use janus_bmo::latency::BmoLatencies;
use janus_bmo::{BmoId, BmoStack};
use janus_check::{forall, gen};
use janus_sim::time::Cycles;
use janus_trace::{TraceConfig, TraceEvent, Tracer};

/// One request in a generated sequence.
#[derive(Clone, Debug)]
struct Req {
    /// Cycles past the previous request's submit.
    delta: u64,
    /// Input staging: 0 = full, 1 = addr now / data late, 2 = data now /
    /// addr late, 3 = both late.
    staging: u8,
    /// Dedup outcome flag.
    dup: bool,
    /// How long after submit the late inputs arrive.
    late: u64,
}

/// Drives `reqs` through a fresh engine, returning per-job completions, the
/// causal trace and the engine's replay fallbacks. Late inputs are supplied
/// before the next submit, so the engine sees the monotone entry times the
/// event loop guarantees.
fn drive(
    stack: &BmoStack,
    mode: BmoMode,
    units: usize,
    compiled: bool,
    reqs: &[Req],
) -> (Vec<Option<Cycles>>, Vec<TraceEvent>, u64) {
    let lat = BmoLatencies::paper();
    let mut eng = BmoEngine::new(stack.graph(&lat), mode, units);
    eng.set_compiled(compiled);
    let tracer = Tracer::new_causal(&TraceConfig { capacity: 1 << 14 });
    eng.set_tracer(tracer.clone());
    let mut now = 0u64;
    let mut done = Vec::with_capacity(reqs.len());
    for r in reqs {
        now += r.delta;
        let t = Cycles(now);
        let (addr, data) = match r.staging {
            0 => (Some(t), Some(t)),
            1 => (Some(t), None),
            2 => (None, Some(t)),
            _ => (None, None),
        };
        let id = eng.submit(t, addr, data, r.dup);
        let late = Cycles(now + r.late);
        if addr.is_none() {
            eng.provide_addr(id, late);
        }
        if data.is_none() {
            eng.provide_data(id, late);
        }
        done.push(eng.completion(id));
    }
    assert_eq!(tracer.dropped(), 0, "trace capacity sized for the sequence");
    (done, tracer.snapshot(), eng.replay_fallbacks())
}

#[test]
fn compiled_replay_is_observationally_identical_to_interpreted() {
    let req = gen::tuple4(
        &gen::range_u64(0..3_000),
        &gen::range_u8(0..4),
        &gen::any_bool(),
        &gen::range_u64(0..2_000),
    );
    let case = gen::tuple4(
        &gen::vec_of(&gen::range_usize(0..7), 0..10),
        &gen::range_u8(0..3),
        &gen::range_usize(1..5),
        &gen::vec_of(&req, 1..24),
    );
    forall(&case, |(picks, mode_pick, units, raw_reqs)| {
        let mut ids: Vec<BmoId> = Vec::new();
        for i in picks {
            let id = BmoId::ALL[*i];
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let stack = BmoStack::new(ids.iter().copied()).expect("distinct ids form a stack");
        if stack.graph(&BmoLatencies::paper()).is_empty() {
            return;
        }
        let mode = match mode_pick {
            0 => BmoMode::Serialized,
            1 => BmoMode::SerializedGlobal,
            _ => BmoMode::Parallelized,
        };
        let reqs: Vec<Req> = raw_reqs
            .iter()
            .map(|&(delta, staging, dup, late)| Req {
                delta,
                staging,
                dup,
                late,
            })
            .collect();

        let (done_c, trace_c, fallbacks_c) = drive(&stack, mode, *units, true, &reqs);
        let (done_i, trace_i, fallbacks_i) = drive(&stack, mode, *units, false, &reqs);

        assert_eq!(done_c, done_i, "completion cycles diverge ({mode:?})");
        assert_eq!(trace_c, trace_i, "trace streams diverge ({mode:?})");
        // Only a full submit can fall back; with replay disabled none does.
        let full = reqs.iter().filter(|r| r.staging == 0).count() as u64;
        assert!(
            fallbacks_c <= full,
            "{fallbacks_c} fallbacks, {full} full submits"
        );
        assert_eq!(fallbacks_i, 0);
    });
}
