//! Validates a Chrome trace-event JSON file — or a `janus-profile-v1`
//! causal profile — and prints a summary.
//!
//! ```text
//! cargo run -p janus-trace --example validate_trace -- out.json
//! cargo run -p janus-trace --example validate_trace -- profile.json
//! ```
//!
//! The file kind is detected from its shape: a `"schema":"janus-profile-v1"`
//! tag routes to the profile validator (schema fields, the
//! attributed-equals-total identity, and causal-chain contiguity — a
//! hand-corrupted causal link is rejected); anything else must be a Chrome
//! trace with a `traceEvents` array. Exits 2 on any malformed input (an
//! unreadable file, invalid JSON, a failed profile check, or no
//! `traceEvents`) — CI runs this against the quickstart's trace and profile
//! outputs to keep both exporters honest.

use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_trace <trace.json|profile.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match janus_trace::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if doc.get("schema").and_then(|s| s.as_str()) == Some(janus_prof::PROFILE_SCHEMA) {
        return match janus_prof::validate_profile_json(&text) {
            Ok(()) => {
                println!(
                    "{path}: OK — {} causal profile, {} writes, {} attributed cycles",
                    janus_prof::PROFILE_SCHEMA,
                    doc.get("writes").and_then(|v| v.as_f64()).unwrap_or(0.0),
                    doc.get("attributed_cycles")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0),
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(events) = doc.get("traceEvents").and_then(|v| v.as_array()) else {
        eprintln!("error: {path}: missing \"traceEvents\" array");
        return ExitCode::from(2);
    };
    let mut complete = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;
    let mut other = 0usize;
    let mut cats: Vec<String> = Vec::new();
    for ev in events {
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("X") => complete += 1,
            Some("i") => instants += 1,
            Some("C") => counters += 1,
            _ => other += 1,
        }
        if let Some(cat) = ev.get("cat").and_then(|c| c.as_str()) {
            if !cats.iter().any(|c| c == cat) {
                cats.push(cat.to_string());
            }
        }
    }
    cats.sort();
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(|d| d.as_f64())
        .unwrap_or(0.0);
    println!(
        "{path}: OK — {} events ({complete} spans, {instants} instants, {counters} counters, \
         {other} other), {} dropped, categories: {}",
        events.len(),
        dropped,
        cats.join(",")
    );
    ExitCode::SUCCESS
}
