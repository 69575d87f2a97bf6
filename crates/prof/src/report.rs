//! Deterministic renderings of a [`Profile`]: fixed-width text report,
//! machine-readable JSON (`janus-profile-v1`), and the schema validator
//! that CI runs against emitted profiles.

use std::fmt::Write as _;

use janus_trace::json::{self, Value};

use crate::profile::Profile;

/// Schema tag stamped into every profile JSON document.
pub const PROFILE_SCHEMA: &str = "janus-profile-v1";

/// `part / whole` as a percentage with one decimal, by integer per-mille
/// rounding — byte-deterministic across hosts.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "0.0%".to_string();
    }
    let pm = (part as u128 * 1000 + whole as u128 / 2) / whole as u128;
    format!("{}.{}%", pm / 10, pm % 10)
}

impl Profile {
    /// Renders the fixed-width text report (`results/profile.txt`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let total = self.total_cycles();
        let attributed = self.attributed_cycles();
        writeln!(out, "janus-prof causal profile").unwrap();
        writeln!(out, "=========================").unwrap();
        writeln!(out, "writes profiled      : {}", self.writes().len()).unwrap();
        writeln!(out, "total blocked cycles : {total}").unwrap();
        writeln!(
            out,
            "attributed cycles    : {attributed} ({} — exact partition)",
            pct(attributed, total)
        )
        .unwrap();
        writeln!(
            out,
            "latency p50 / p99 / max : {} / {} / {} cycles",
            self.latency_quantile(0.50),
            self.latency_quantile(0.99),
            self.latency_quantile(1.0),
        )
        .unwrap();

        writeln!(out).unwrap();
        writeln!(out, "cycle accounting (cycles on write critical chains)").unwrap();
        writeln!(
            out,
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "resource", "service", "queue", "dep-wait", "total", "share"
        )
        .unwrap();
        for (res, a) in self.accounting() {
            writeln!(
                out,
                "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>7}",
                res,
                a.service,
                a.queue,
                a.dep_wait,
                a.total(),
                pct(a.total(), total)
            )
            .unwrap();
        }

        if let Some(w) = self.critical_write() {
            writeln!(out).unwrap();
            writeln!(
                out,
                "run critical path (write {}: core {}, line {}, {} cycles; bmo portion {})",
                w.wuid,
                w.core,
                w.line,
                w.latency(),
                w.bmo_critical_path()
            )
            .unwrap();
            for s in &w.chain {
                writeln!(
                    out,
                    "  [{:>10} .. {:>10}]  {:<16} {:<8} {:<8} {:>8}",
                    s.from.0,
                    s.to.0,
                    s.resource,
                    s.label,
                    s.kind.as_str(),
                    s.dur()
                )
                .unwrap();
            }
            if let Some(slack) = self.node_slack(w) {
                write!(out, "  per-node slack:").unwrap();
                for (name, slack) in slack {
                    write!(out, " {name}={slack}").unwrap();
                }
                writeln!(out).unwrap();
            }
        }

        let (threshold, n, ranking) = self.blame(0.99);
        let tail_total: u64 = ranking.iter().map(|(_, c)| *c).sum();
        writeln!(out).unwrap();
        writeln!(out, "p99 blame ({n} writes >= {threshold} cycles)").unwrap();
        for (res, cycles) in &ranking {
            writeln!(
                out,
                "  {:<16} {:>10} {:>7}",
                res,
                cycles,
                pct(*cycles, tail_total)
            )
            .unwrap();
        }

        let (busy, extent) = self.utilization();
        writeln!(out).unwrap();
        writeln!(out, "utilization (busy cycles over {extent}-cycle stream)").unwrap();
        for (res, cycles) in busy {
            writeln!(
                out,
                "  {:<16} {:>10} {:>7}",
                res,
                cycles,
                pct(*cycles, extent)
            )
            .unwrap();
        }

        writeln!(out).unwrap();
        writeln!(out, "flamegraph (folded stacks)").unwrap();
        for (stack, cycles) in self.folded() {
            writeln!(out, "  {stack} {cycles}").unwrap();
        }
        out
    }

    /// Serializes the profile as `janus-profile-v1` JSON (see
    /// [`validate_profile_json`] for the schema contract).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        json::write_str(&mut out, PROFILE_SCHEMA);
        let total = self.total_cycles();
        write!(
            out,
            ",\"writes\":{},\"total_cycles\":{total},\"attributed_cycles\":{}",
            self.writes().len(),
            self.attributed_cycles()
        )
        .unwrap();
        write!(
            out,
            ",\"latency\":{{\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.latency_quantile(0.50),
            self.latency_quantile(0.99),
            self.latency_quantile(1.0)
        )
        .unwrap();

        out.push_str(",\"accounting\":[");
        for (i, (res, a)) in self.accounting().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"resource\":");
            json::write_str(&mut out, res);
            write!(
                out,
                ",\"service\":{},\"queue\":{},\"dep_wait\":{}}}",
                a.service, a.queue, a.dep_wait
            )
            .unwrap();
        }
        out.push(']');

        if let Some(w) = self.critical_write() {
            write!(
                out,
                ",\"critical_write\":{{\"wuid\":{},\"core\":{},\"line\":{},\"arrive\":{},\
                 \"persist\":{},\"latency\":{},\"bmo_critical_path\":{},\"chain\":[",
                w.wuid,
                w.core,
                w.line,
                w.arrive.0,
                w.persist.0,
                w.latency(),
                w.bmo_critical_path()
            )
            .unwrap();
            for (i, s) in w.chain.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"resource\":");
                json::write_str(&mut out, s.resource);
                out.push_str(",\"label\":");
                json::write_str(&mut out, s.label);
                out.push_str(",\"kind\":");
                json::write_str(&mut out, s.kind.as_str());
                write!(out, ",\"from\":{},\"to\":{}}}", s.from.0, s.to.0).unwrap();
            }
            out.push(']');
            if let Some(slack) = self.node_slack(w) {
                out.push_str(",\"slack\":[");
                for (i, (name, v)) in slack.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"node\":");
                    json::write_str(&mut out, name);
                    write!(out, ",\"slack\":{v}}}").unwrap();
                }
                out.push(']');
            }
            out.push('}');
        }

        let (threshold, n, ranking) = self.blame(0.99);
        write!(
            out,
            ",\"p99_blame\":{{\"threshold\":{threshold},\"tail_writes\":{n},\"ranking\":["
        )
        .unwrap();
        for (i, (res, cycles)) in ranking.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"resource\":");
            json::write_str(&mut out, res);
            write!(out, ",\"cycles\":{cycles}}}").unwrap();
        }
        out.push_str("]}");

        let (busy, extent) = self.utilization();
        write!(out, ",\"utilization\":{{\"extent\":{extent},\"busy\":[").unwrap();
        for (i, (res, cycles)) in busy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"resource\":");
            json::write_str(&mut out, res);
            write!(out, ",\"cycles\":{cycles}}}").unwrap();
        }
        out.push_str("]}");

        out.push_str(",\"folded\":[");
        for (i, (stack, cycles)) in self.folded().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, &format!("{stack} {cycles}"));
        }
        out.push_str("]}");
        out
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field \"{key}\""))
}

/// Validates a `janus-profile-v1` JSON document: schema tag, the
/// attributed-equals-total identity, per-resource accounting consistency,
/// and — the causal-integrity check — that the critical write's chain is a
/// contiguous partition of its `[arrive, persist]` interval. A
/// hand-corrupted causal link (any `from`/`to` edit) breaks contiguity and
/// is rejected.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_profile_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == PROFILE_SCHEMA => {}
        Some(s) => return Err(format!("unknown schema \"{s}\"")),
        None => return Err("missing \"schema\"".to_string()),
    }
    let writes = get_u64(&doc, "writes")?;
    if writes == 0 {
        return Err("profile contains no writes".to_string());
    }
    let total = get_u64(&doc, "total_cycles")?;
    let attributed = get_u64(&doc, "attributed_cycles")?;
    if total != attributed {
        return Err(format!(
            "attributed cycles {attributed} != total cycles {total}"
        ));
    }
    let accounting = doc
        .get("accounting")
        .and_then(Value::as_array)
        .ok_or("missing \"accounting\" array")?;
    let mut sum = 0u64;
    for entry in accounting {
        entry
            .get("resource")
            .and_then(Value::as_str)
            .ok_or("accounting entry missing \"resource\"")?;
        for key in ["service", "queue", "dep_wait"] {
            sum = sum
                .checked_add(get_u64(entry, key)?)
                .ok_or("accounting rows overflow a 64-bit cycle count")?;
        }
    }
    if sum != attributed {
        return Err(format!(
            "accounting rows sum to {sum}, not attributed total {attributed}"
        ));
    }

    let cw = doc
        .get("critical_write")
        .ok_or("missing \"critical_write\"")?;
    let arrive = get_u64(cw, "arrive")?;
    let persist = get_u64(cw, "persist")?;
    let latency = get_u64(cw, "latency")?;
    let span = persist.checked_sub(arrive).ok_or_else(|| {
        format!("critical write persists at {persist}, before it arrives at {arrive}")
    })?;
    if span != latency {
        return Err(format!(
            "critical write latency {latency} != persist-arrive {span}"
        ));
    }
    let chain = cw
        .get("chain")
        .and_then(Value::as_array)
        .ok_or("critical_write missing \"chain\"")?;
    if chain.is_empty() && latency != 0 {
        return Err(format!("empty chain for a {latency}-cycle write"));
    }
    let mut cur = arrive;
    for (i, seg) in chain.iter().enumerate() {
        let from = get_u64(seg, "from")?;
        let to = get_u64(seg, "to")?;
        let kind = seg
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("chain segment missing \"kind\"")?;
        if !matches!(kind, "service" | "queue" | "dep-wait") {
            return Err(format!("chain segment {i} has unknown kind \"{kind}\""));
        }
        if from != cur {
            return Err(format!(
                "causal chain broken at segment {i}: starts at {from}, expected {cur}"
            ));
        }
        if to < from {
            return Err(format!("chain segment {i} runs backward ({from}..{to})"));
        }
        cur = to;
    }
    if !chain.is_empty() && cur != persist {
        return Err(format!(
            "causal chain ends at {cur}, not at persistence {persist}"
        ));
    }
    Ok(())
}
