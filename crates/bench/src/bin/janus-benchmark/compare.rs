//! `--compare PARENT.jsonl CHANGE.jsonl`: the verdict on a change.
//!
//! Each file holds one record per invocation (what `--out` appends). Run
//! the parent and the change alternately, switching which goes first, each
//! appending to its own file; record `i` of one file pairs with record `i`
//! of the other. Per workload and end-to-end metric, over the per-record
//! medians:
//!
//! - **improved**: at least ten pairs, the change wins at least nine tenths
//!   of them (ties count for neither), and the medians differ by more than
//!   the parent's own spread (its q3 − q1);
//! - **regressed**: the change's median is worse than the parent's by more
//!   than the bound, however wide the parent's spread;
//! - **unresolved**: the parent's spread is wider than the metric's bound
//!   and not every change run beats every parent run; or the median moved
//!   in the better direction by more than that spread without meeting the
//!   rule for a gain;
//! - **unchanged**: otherwise.
//!
//! `fail_frac` has an absolute bound of zero: any rise is a regression.
//! The exit status is 1 when a row regressed, 2 when a file is unusable.

use janus_trace::json::{self, Value};

use crate::stats::summarize;
use crate::suite::{Better, END_TO_END};

/// Pairs needed (and wins out of ten) before a gain may be claimed.
const MIN_PAIRS: usize = 10;
const MIN_WINS_PER_TEN: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn is_better(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Pairs in which the change beats the parent.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| is_better(better, **c, **p))
        .count()
}

/// The verdict on one workload × timed metric. `parent` and `change` are
/// per-record medians in record order; `bound` is a share of the parent's
/// median.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let p = summarize(parent);
    let c = summarize(change);
    let pairs = parent.len().min(change.len());
    let spread = p.q3 - p.q1;
    let worse_by = match better {
        Better::Higher => p.median - c.median,
        Better::Lower => c.median - p.median,
    } / p.median;
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| is_better(better, *c, *p)));
    let gain = is_better(better, c.median, p.median) && (c.median - p.median).abs() > spread;
    if gain && pairs >= MIN_PAIRS && wins(parent, change, better) * 10 >= MIN_WINS_PER_TEN * pairs {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if (spread > bound * p.median && !all_better) || gain {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `fail_frac` has an absolute bound of zero: compare the worst runs.
fn fail_verdict(parent: &[f64], change: &[f64]) -> Verdict {
    let worst = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    match worst(change).partial_cmp(&worst(parent)) {
        Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
        Some(std::cmp::Ordering::Less) => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

/// One invocation record: per workload, each metric's median.
struct Record {
    workloads: Vec<(String, Vec<(String, f64)>)>,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let Some(Value::Object(workloads)) = doc.get("workloads") else {
        return Err("no \"workloads\" object".to_string());
    };
    let mut out = Vec::new();
    for (name, w) in workloads {
        let Some(Value::Object(metrics)) = w.get("metrics") else {
            return Err(format!("workload {name:?} has no \"metrics\" object"));
        };
        let mut values = Vec::new();
        for (metric, v) in metrics {
            let median = v
                .get("median")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}/{metric} has no numeric median"))?;
            values.push((metric.clone(), median));
        }
        out.push((name.clone(), values));
    }
    Ok(Record { workloads: out })
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

/// Every record's median of `metric` on `workload`, in record order.
fn series(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| {
            r.workloads
                .iter()
                .find(|(w, _)| w == workload)
                .and_then(|(_, ms)| ms.iter().find(|(m, _)| m == metric))
                .map(|(_, v)| *v)
        })
        .collect()
}

/// Prints one row per workload × metric; returns the exit status.
pub fn run(parent_path: &str, change_path: &str) -> i32 {
    let (parent, change) = match (read_records(parent_path), read_records(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<12} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "pairs", "parent", "change", "delta", "wins"
    );
    let mut regressed = false;
    let workloads: Vec<&str> = parent[0]
        .workloads
        .iter()
        .map(|(w, _)| w.as_str())
        .collect();
    for w in workloads {
        for (name, better, bound) in END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.better,
                    m.bound.expect("end-to-end metrics have bounds"),
                )
            })
            .chain([("fail_frac", Better::Lower, 0.0)])
        {
            let (p, c) = (series(&parent, w, name), series(&change, w, name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = if name == "fail_frac" {
                fail_verdict(&p, &c)
            } else {
                verdict(&p, &c, better, bound)
            };
            regressed |= v == Verdict::Regressed;
            let (pm, cm) = (summarize(&p).median, summarize(&c).median);
            let delta = if pm == 0.0 {
                0.0
            } else {
                100.0 * (cm - pm) / pm
            };
            let pairs = p.len().min(c.len());
            println!(
                "{w:<16} {name:<12} {pairs:>5} {pm:>14.6} {cm:>14.6} {delta:>+7.2}% {:>3}/{pairs:<2}  {}",
                wins(&p, &c, better),
                v.as_str()
            );
        }
    }
    i32::from(regressed)
}
