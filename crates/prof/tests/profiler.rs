//! End-to-end profiler tests against the real memory controller.
//!
//! The anchor is the oracle from `janus-lint`: on the default paper stack
//! the parallelized critical path is exactly 2764 cycles (D1→D2→I1→I2→I3),
//! and the serialized total is 3272. The profiler must *measure* those
//! numbers out of the trace stream, and its attribution must partition
//! every write's blocked interval exactly.

use janus_check::{forall, gen};
use janus_core::controller::MemoryController;
use janus_core::{JanusConfig, SystemMode};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_prof::{Profile, ProfileError, SegKind};
use janus_sim::time::Cycles;
use janus_trace::json::{self, Value};
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

/// A minimal `janus-profile-v1` document: one accounting row per
/// `(service, queue, dep_wait)` triple, attributed total `attributed`, and
/// a critical write spanning `arrive..persist` with an empty chain.
fn profile_doc(rows: &[(u64, u64, u64)], attributed: u64, arrive: u64, persist: u64) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(s, q, d)| {
            format!("{{\"resource\":\"r\",\"service\":{s},\"queue\":{q},\"dep_wait\":{d}}}")
        })
        .collect();
    format!(
        "{{\"schema\":\"{}\",\"writes\":1,\"total_cycles\":{attributed},\
         \"attributed_cycles\":{attributed},\"accounting\":[{}],\
         \"critical_write\":{{\"arrive\":{arrive},\"persist\":{persist},\"latency\":0,\
         \"chain\":[]}}}}",
        janus_prof::PROFILE_SCHEMA,
        rows.join(",")
    )
}

#[test]
fn validator_rejects_accounting_rows_that_overflow() {
    let ok = profile_doc(&[(5, 0, 0)], 5, 9, 9);
    janus_prof::validate_profile_json(&ok).expect("well-formed document validates");
    let near = 10_000_000_000_000_000_000u64; // 10^19, past 2^63
    let doc = profile_doc(&[(near, 0, 0), (near, 0, 0)], 5, 9, 9);
    let err = janus_prof::validate_profile_json(&doc).unwrap_err();
    assert!(err.contains("overflow"), "{err}");
}

#[test]
fn validator_rejects_numbers_no_count_can_be() {
    let ok = profile_doc(&[(5, 0, 0)], 5, 9, 9);
    for bad in BAD_NUMBERS {
        let doc = ok.replace("\"latency\":0", &format!("\"latency\":{bad}"));
        assert_ne!(doc, ok);
        let err = janus_prof::validate_profile_json(&doc).unwrap_err();
        assert!(err.contains("\"latency\""), "{bad}: {err}");
    }
}

#[test]
fn validator_rejects_a_write_that_persists_before_it_arrives() {
    let doc = profile_doc(&[(5, 0, 0)], 5, 100, 50);
    let err = janus_prof::validate_profile_json(&doc).unwrap_err();
    assert!(err.contains("before it arrives"), "{err}");
}

/// A real `janus-profile-v1` document and the Chrome trace export of the
/// same profiled run.
fn real_documents() -> [String; 2] {
    let config = JanusConfig::paper(SystemMode::Janus, 1);
    let (mut mc, tracer) = profiled_controller(config.clone());
    for i in 0..4u64 {
        let line = LineAddr(i % 3);
        mc.handle_write(Cycles(500 * i), 0, line, Line::splat(i as u8), i % 2 == 0);
    }
    let profile = build(&mc, &tracer, &config).to_json();
    let mut chrome = Vec::new();
    janus_trace::chrome::export(&tracer.snapshot(), tracer.dropped(), &mut chrome)
        .expect("writes to memory");
    let chrome = String::from_utf8(chrome).expect("the exporter writes UTF-8");
    [profile, chrome]
}

/// Numbers no cycle count can be: negative, fractional, past `f64` and
/// past `u64`.
const BAD_NUMBERS: [&str; 4] = ["-1", "1.5", "1e400", "18446744073709551616"];

/// The byte ranges of `doc`'s digit runs (a `.` may continue one): its
/// numbers, and digits inside its strings.
fn digit_runs(doc: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = doc.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            i += 1;
        }
        runs.push(start..i);
    }
    runs
}

/// How many object members `v` holds, nested ones included.
fn members(v: &Value) -> usize {
    match v {
        Value::Object(m) => m.iter().map(|(_, v)| 1 + members(v)).sum(),
        Value::Array(items) => items.iter().map(members).sum(),
        _ => 0,
    }
}

/// Removes the `k`-th object member in document order, counting `k` down
/// over the members it passes.
fn remove_member(v: &mut Value, k: &mut usize) -> bool {
    match v {
        Value::Object(m) => {
            for i in 0..m.len() {
                if *k == 0 {
                    m.remove(i);
                    return true;
                }
                *k -= 1;
                if remove_member(&mut m[i].1, k) {
                    return true;
                }
            }
            false
        }
        Value::Array(items) => items.iter_mut().any(|item| remove_member(item, k)),
        _ => false,
    }
}

/// Appends `v` as compact JSON text.
fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => json::write_f64(out, *n),
        Value::String(s) => json::write_str(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (key, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, key);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// One mutation of `doc`, chosen by `kind` and placed by `pos`.
fn mutate(doc: &str, kind: u8, pos: usize, byte: u8) -> String {
    match kind {
        // Truncated at a byte, backed off to a character boundary.
        0 => {
            let mut at = pos % (doc.len() + 1);
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            doc[..at].to_string()
        }
        // One character overwritten by the character of any byte value.
        1 => {
            let mut chars: Vec<char> = doc.chars().collect();
            let n = chars.len();
            chars[pos % n] = char::from(byte);
            chars.into_iter().collect()
        }
        // One digit run replaced by a number no cycle count can be.
        2 => {
            let runs = digit_runs(doc);
            let run = &runs[pos % runs.len()];
            let bad = BAD_NUMBERS[usize::from(byte) % BAD_NUMBERS.len()];
            format!("{}{bad}{}", &doc[..run.start], &doc[run.end..])
        }
        // One object member deleted.
        3 => {
            let mut v = json::parse(doc).expect("a real document parses");
            let mut k = pos % members(&v);
            remove_member(&mut v, &mut k);
            let mut out = String::new();
            render(&v, &mut out);
            out
        }
        // Wrapped in 200 nested arrays.
        _ => format!("{}{doc}{}", "[".repeat(200), "]".repeat(200)),
    }
}

/// Mutated real documents are malformed input: the JSON parser and the
/// profile validator return `Ok` or `Err` on them, and never panic.
#[test]
fn mutated_documents_never_panic_the_parser_or_the_validator() {
    let docs = real_documents();
    janus_prof::validate_profile_json(&docs[0]).expect("the real profile validates");
    json::parse(&docs[1]).expect("the real trace parses");
    let case = gen::tuple4(
        &gen::range_usize(0..2),
        &gen::range_u8(0..5),
        &gen::any_u64(),
        &gen::any_u8(),
    );
    forall(&case, |&(doc, kind, pos, byte)| {
        let mutated = mutate(&docs[doc], kind, pos as usize, byte);
        let parsed = json::parse(&mutated);
        let validated = janus_prof::validate_profile_json(&mutated);
        if kind == 4 {
            assert!(parsed.is_err() && validated.is_err(), "past MAX_DEPTH");
        }
    });
}
