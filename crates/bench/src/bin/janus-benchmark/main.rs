//! janus-benchmark — the repository's benchmark: host-time end-to-end
//! metrics of the simulator on five workloads, plus a per-layer ledger
//! measured from outside each layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/janus-benchmark/Cargo.toml -- \
//!     [--workloads all|a,b,..] [--seed N] [--reps N | --seconds S] [--trace 0|1] [--out PATH]
//! cargo run --release --manifest-path crates/bench/src/bin/janus-benchmark/Cargo.toml -- \
//!     --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! One invocation is a closed loop on the host: one simulation at a time
//! (the `fig_matrix` sweep fans out over `available_parallelism()` worker
//! threads). It runs one untimed warm-up round, which runs every spec
//! serially and takes each one's heap peak, then timed rounds that run
//! every selected workload once, round-robin, so host drift hits every
//! workload alike; `--reps N` fixes the round count (default 20),
//! `--seconds S` instead runs rounds until S seconds have passed. A fixed
//! host-speed probe runs around every repetition, and end-to-end times are
//! counted in reference seconds (`probe.rs`), so that the host's drift
//! cancels. Timings are reported as median and quartiles with the sample
//! count. With
//! `--trace 1` (the default) one traced run per workload then feeds the
//! per-layer ledger. `--seed` reaches workload generation only.
//!
//! Every repetition is checked: a panic, a rejected configuration, an
//! oracle mismatch or a simulated-output digest that differs from the
//! committed seed-42 digest (at other seeds: from the first repetition)
//! fails it. Any failure makes the exit status 1; bad arguments, or an
//! environment variable that changes how `janus_bench` runs a spec, exit 2.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`); a record of the
//! whole invocation is appended to `--out` (default
//! `janus-benchmark.jsonl`) for `--compare`.

mod compare;
mod heap;
mod ledger;
mod phases;
mod probe;
mod stats;
mod suite;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use janus_bench::{run_all_jobs, RunSpec};
use janus_trace::json;

use phases::{combine, guarded, prepare, run_phases, Failure, Phases};
use stats::{median, summarize, Summary};
use suite::{WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};

/// Rounds a `--seconds` run makes at least, however long each takes.
const MIN_TIMED_ROUNDS: usize = 3;

const USAGE: &str = "usage: janus-benchmark [--workloads all|NAME,..] [--workload NAME] \
[--seed N] [--reps N | --seconds S] [--trace 0|1] [--out PATH]\n       \
janus-benchmark --compare PARENT.jsonl CHANGE.jsonl";

/// Environment variables through which `janus_bench` changes what a run
/// does: `run_all_jobs` writes a results file per spec under the first,
/// and `RunSpec::new` copies the other two into every spec. A record taken
/// under any of them is not comparable with one taken without, so the
/// benchmark refuses to measure while one is set.
const ALTERING_ENV: [&str; 3] = [
    "JANUS_RESULTS_JSON_DIR",
    "JANUS_LEGACY_EVENTS",
    "JANUS_INTERPRETED_SCHED",
];

/// The first of [`ALTERING_ENV`] that is set, if any.
fn altering_env() -> Option<&'static str> {
    ALTERING_ENV
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
}

/// When the timed rounds stop.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stop {
    Rounds(usize),
    Seconds(f64),
}

#[derive(Debug)]
struct Options {
    workloads: Vec<&'static WorkloadDef>,
    seed: u64,
    stop: Stop,
    trace: bool,
    out: String,
}

#[derive(Debug)]
enum Command {
    Run(Options),
    Compare { parent: String, change: String },
    Help,
}

fn parse_workloads(list: &str) -> Result<Vec<&'static WorkloadDef>, String> {
    if list == "all" {
        return Ok(WORKLOADS.iter().collect());
    }
    let mut picked: Vec<&'static WorkloadDef> = Vec::new();
    for name in list.split(',') {
        let w = suite::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })?;
        if picked.iter().any(|p| p.name == w.name) {
            return Err(format!("workload {name:?} listed twice"));
        }
        picked.push(w);
    }
    Ok(picked)
}

/// Strict parser: every flag known, every value valid, no flag twice.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut compare = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let arity = match flag {
            "--help" | "-h" => return Ok(Command::Help),
            "--compare" => 2,
            "--workload" | "--workloads" | "--seed" | "--reps" | "--seconds" | "--trace"
            | "--out" => 1,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let operands = args
            .get(i + 1..i + 1 + arity)
            .filter(|ops| ops.iter().all(|v| !v.starts_with("--")))
            .ok_or_else(|| format!("{flag} needs {arity} value(s)"))?;
        if values.iter().any(|(f, _)| *f == flag) {
            return Err(format!("{flag} given twice"));
        }
        if flag == "--compare" {
            compare = Some((operands[0].clone(), operands[1].clone()));
        }
        values.push((flag, operands[0].as_str()));
        i += 1 + arity;
    }
    if let Some((parent, change)) = compare {
        if values.len() > 1 {
            return Err("--compare takes no other flags".to_string());
        }
        return Ok(Command::Compare { parent, change });
    }
    let get = |name: &str| values.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
    let workloads = match (get("--workload"), get("--workloads")) {
        (Some(_), Some(_)) => return Err("give --workload or --workloads, not both".into()),
        (Some(one), None) if one.contains(',') || one == "all" => {
            return Err(format!("--workload takes one name, got {one:?}"))
        }
        (Some(list), None) | (None, Some(list)) => parse_workloads(list)?,
        (None, None) => WORKLOADS.iter().collect(),
    };
    let seed = match get("--seed") {
        None => 42,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed needs an unsigned integer, got {v:?}"))?,
    };
    let stop = match (get("--reps"), get("--seconds")) {
        (Some(_), Some(_)) => return Err("give --reps or --seconds, not both".into()),
        (Some(v), None) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Stop::Rounds(n),
            _ => return Err(format!("--reps needs an integer >= 1, got {v:?}")),
        },
        (None, Some(v)) => match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 => Stop::Seconds(s),
            _ => return Err(format!("--seconds needs a positive number, got {v:?}")),
        },
        (None, None) => Stop::Rounds(20),
    };
    let trace = match get("--trace") {
        None | Some("1") => true,
        Some("0") => false,
        Some(v) => return Err(format!("--trace needs 0 or 1, got {v:?}")),
    };
    Ok(Command::Run(Options {
        workloads,
        seed,
        stop,
        trace,
        out: get("--out").unwrap_or("janus-benchmark.jsonl").to_string(),
    }))
}

/// What one repetition took, in host seconds.
#[derive(Clone, Copy, Debug)]
struct Rep {
    transactions: u64,
    /// The `tx_per_s` denominator: event loop to built report (the sweep's
    /// wall time on `fig_matrix`).
    run_s: f64,
    setup_s: f64,
    /// Wall time of the repetition (the sweep alone on `fig_matrix`).
    wall_s: f64,
    /// Single-spec repetitions only.
    phases: Option<Phases>,
}

fn rep_single(spec: &RunSpec) -> Result<(Rep, u64), Failure> {
    let t = Instant::now();
    let (phases, digest) = run_phases(spec)?;
    let rep = Rep {
        transactions: phases.transactions,
        run_s: phases.run_s(),
        setup_s: phases.setup.total(),
        wall_s: t.elapsed().as_secs_f64(),
        phases: Some(phases),
    };
    Ok((rep, combine([digest])))
}

/// One sweep repetition: every spec's set-up through the phase driver
/// (serially, for `setup_s`), then the sweep itself through
/// `run_all_jobs`, which sets each spec up again, runs and verifies it.
fn rep_sweep(specs: &[RunSpec], jobs: usize) -> Result<(Rep, u64), Failure> {
    let setup_s = specs.iter().map(|s| prepare(s).setup.total()).sum();
    let t = Instant::now();
    let results = run_all_jobs(specs.to_vec(), jobs);
    let wall_s = t.elapsed().as_secs_f64();
    let digest = combine(
        results
            .iter()
            .map(|r| phases::digest(&r.report.to_metrics())),
    );
    let rep = Rep {
        transactions: results.iter().map(|r| r.report.transactions).sum(),
        run_s: wall_s,
        setup_s,
        wall_s,
        phases: None,
    };
    Ok((rep, digest))
}

/// One timed repetition and the host speed around it.
#[derive(Clone, Copy, Debug)]
struct Sample {
    rep: Rep,
    /// Mean host seconds of the probes just before and just after it.
    probe_s: f64,
}

impl Sample {
    fn tx_per_s(&self) -> f64 {
        self.rep.transactions as f64 / probe::to_reference(self.rep.run_s, self.probe_s)
    }

    fn setup_s(&self) -> f64 {
        probe::to_reference(self.rep.setup_s, self.probe_s)
    }
}

/// Everything one invocation measured on one workload.
struct Outcome {
    def: &'static WorkloadDef,
    specs: Vec<RunSpec>,
    attempted: u64,
    failures: Vec<String>,
    /// The digest every repetition must produce.
    reference: Option<u64>,
    /// What the warm-up measured: its phase times, summed over the specs,
    /// and the heap peak.
    serial: Option<(Phases, f64)>,
    samples: Vec<Sample>,
    layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn new(def: &'static WorkloadDef, specs: Vec<RunSpec>, committed: Option<u64>) -> Self {
        Outcome {
            def,
            specs,
            attempted: 0,
            failures: Vec::new(),
            reference: committed,
            serial: None,
            samples: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Checks a digest against the reference, adopting the first one seen
    /// when nothing was committed for this seed.
    fn check_digest(&mut self, got: u64) -> Result<(), Failure> {
        match self.reference {
            Some(expected) if expected != got => Err(Failure::Digest { expected, got }),
            Some(_) => Ok(()),
            None => {
                self.reference = Some(got);
                Ok(())
            }
        }
    }

    fn record<T>(&mut self, what: &str, result: Result<T, Failure>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(f) => {
                eprintln!("{}: {what} failed: {f}", self.def.name);
                self.failures.push(format!("{what}: {f}"));
                None
            }
        }
    }

    /// A workload of several specs runs them as one sweep.
    fn is_sweep(&self) -> bool {
        self.specs.len() > 1
    }

    /// The untimed first repetition: every spec once, serially, through
    /// the phase driver, each from a fresh heap high-water mark.
    /// `peak_heap_mb` is the sum of the specs' peaks. Heap bytes repeat
    /// exactly, so one measurement is all there is; taking them spec by
    /// spec keeps a sweep's peak from depending on which specs its workers
    /// happen to run side by side.
    fn warm_up(&mut self) {
        let result = guarded(|| {
            let mut sum = Phases::default();
            let mut heap_mb = 0.0;
            let mut digests = Vec::new();
            for spec in &self.specs {
                heap::reset_peak();
                let (p, d) = run_phases(spec)?;
                heap_mb += heap::peak_mib();
                sum.add(&p);
                digests.push(d);
            }
            Ok(((sum, heap_mb), combine(digests)))
        })
        .and_then(|(serial, digest)| self.check_digest(digest).map(|()| serial));
        self.serial = self.record("warm-up", result);
    }

    /// One timed repetition, between two host-speed probes.
    fn rep(&mut self, jobs: usize) {
        let probe_before = probe::run();
        let result = guarded(|| {
            if self.is_sweep() {
                rep_sweep(&self.specs, jobs)
            } else {
                rep_single(&self.specs[0])
            }
        })
        .and_then(|(rep, digest)| self.check_digest(digest).map(|()| rep));
        let probe_s = (probe_before + probe::run()) / 2.0;
        if let Some(rep) = self.record("repetition", result) {
            self.samples.push(Sample { rep, probe_s });
        }
    }

    /// The per-layer ledger. A sweep's set-up and loop times come from the
    /// warm-up's serial pass; the sweep itself has no per-phase times.
    fn ledger(&mut self, jobs: usize) {
        let Some((serial, _)) = self.serial else {
            return;
        };
        if self.samples.is_empty() {
            return;
        }
        let walls: Vec<f64> = self.samples.iter().map(|s| s.rep.wall_s).collect();
        let (base, workers) = if self.is_sweep() {
            (serial, jobs)
        } else {
            let phases: Vec<Phases> = self.samples.iter().filter_map(|s| s.rep.phases).collect();
            (Phases::median_of(&phases), 1)
        };
        let specs = &self.specs;
        let result = guarded(|| ledger::measure(specs, base, median(&walls), workers));
        if let Some(layers) = self.record("traced ledger run", result) {
            self.layers = layers;
        }
    }

    fn fail_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// End-to-end summaries, in [`END_TO_END`] order (empty when the
    /// warm-up or every timed repetition failed).
    fn end_to_end(&self) -> Vec<Summary> {
        let Some((_, heap_mb)) = self.serial else {
            return Vec::new();
        };
        if self.samples.is_empty() {
            return Vec::new();
        }
        vec![
            self.summary(Sample::tx_per_s),
            self.summary(Sample::setup_s),
            summarize(&[heap_mb]),
        ]
    }

    /// Host milliseconds of the speed probe around each timed repetition.
    fn probe_ms(&self) -> Option<Summary> {
        (!self.samples.is_empty()).then(|| self.summary(|s| 1e3 * s.probe_s))
    }

    fn summary(&self, f: impl Fn(&Sample) -> f64) -> Summary {
        summarize(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

/// Worker threads of the `fig_matrix` sweep.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn measure(opts: &Options) -> Vec<Outcome> {
    let jobs = host_parallelism();
    let mut outcomes: Vec<Outcome> = opts
        .workloads
        .iter()
        .map(|&def| {
            let committed = (opts.seed == 42).then_some(def.seed42_digest);
            Outcome::new(def, def.specs(opts.seed), committed)
        })
        .collect();
    for o in &mut outcomes {
        o.warm_up();
    }
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let done = match opts.stop {
            Stop::Rounds(n) => rounds >= n,
            Stop::Seconds(s) => rounds >= MIN_TIMED_ROUNDS && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        for o in &mut outcomes {
            o.rep(jobs);
        }
        rounds += 1;
    }
    if opts.trace {
        for o in &mut outcomes {
            o.ledger(jobs);
        }
    }
    outcomes
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("ratio", |m| m.unit)
}

fn print_report(outcomes: &[Outcome], opts: &Options) {
    println!(
        "janus-benchmark: seed {}, {} workload(s), host parallelism {}",
        opts.seed,
        outcomes.len(),
        host_parallelism()
    );
    for o in outcomes {
        println!();
        println!("== {} — {}", o.def.name, o.def.why);
        let digest = o
            .reference
            .map_or("none".to_string(), |d| format!("{d:016x}"));
        println!(
            "   {} timed repetitions; {} of {} attempted runs failed; digest {digest}",
            o.samples.len(),
            o.failures.len(),
            o.attempted
        );
        println!(
            "   {:<34} {:>14} {:>14} {:>14} {:>4}  {:<6} better  bound",
            "metric", "median", "q1", "q3", "n", "unit"
        );
        for (m, s) in END_TO_END.iter().zip(o.end_to_end()) {
            println!(
                "   {:<34} {:>14.6} {:>14.6} {:>14.6} {:>4}  {:<6} {:<7} {:.0}%",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                m.unit,
                m.better.as_str(),
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
        println!(
            "   {:<34} {:>14.6} {:>14} {:>14} {:>4}  {:<6} lower   0 (absolute)",
            "fail_frac",
            o.fail_frac(),
            "",
            "",
            o.attempted,
            "ratio"
        );
        if let Some(s) = o.probe_ms() {
            println!(
                "   {:<34} {:>14.6} {:>14.6} {:>14.6} {:>4}  ms     (times above are in reference seconds: probe = {} ms)",
                "host speed probe",
                s.median,
                s.q1,
                s.q3,
                s.n,
                1e3 * probe::REFERENCE_S
            );
        }
        if !o.layers.is_empty() {
            println!(
                "   -- per layer: timed-size phases, plus a traced run at 1/10 size and its layer replays"
            );
            for (name, v) in &o.layers {
                let m = PER_LAYER.iter().find(|m| m.name == *name);
                println!(
                    "   {name:<34} {v:>+14.6} {:>34}  {:<6} {}",
                    "",
                    m.map_or("", |m| m.unit),
                    m.map_or("", |m| m.better.as_str())
                );
            }
        }
    }
}

/// Appends `,` before every item of a JSON object or array but the first.
fn sep(s: &mut String) {
    if !s.ends_with(['{', '[']) {
        s.push(',');
    }
}

/// The final stdout line: correctness, attempt counts and the metrics
/// (per-layer with `--trace 1`, end-to-end otherwise). Names carry a
/// `<workload>/` prefix when more than one workload ran.
fn result_line(outcomes: &[Outcome], trace: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let correct = failed == 0 && outcomes.iter().all(|o| !o.samples.is_empty());
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for o in outcomes {
        let prefix = if outcomes.len() > 1 {
            format!("{}/", o.def.name)
        } else {
            String::new()
        };
        let values: Vec<(&str, f64)> = if trace {
            o.layers.clone()
        } else {
            let medians = o.end_to_end().into_iter().map(|s| s.median);
            END_TO_END.iter().map(|m| m.name).zip(medians).collect()
        };
        for (name, v) in values {
            sep(&mut s);
            json::write_str(&mut s, &format!("{prefix}{name}"));
            s.push_str(":{\"value\":");
            json::write_f64(&mut s, v);
            s.push_str(",\"unit\":");
            json::write_str(&mut s, unit_of(name));
            s.push('}');
        }
    }
    s.push_str("}}");
    s
}

/// `{"unit":…,"median":…,"q1":…,"q3":…,"n":…}`
fn write_summary(s: &mut String, unit: &str, sm: &Summary) {
    s.push_str("{\"unit\":");
    json::write_str(s, unit);
    for (k, v) in [("median", sm.median), ("q1", sm.q1), ("q3", sm.q3)] {
        let _ = write!(s, ",\"{k}\":");
        json::write_f64(s, v);
    }
    let _ = write!(s, ",\"n\":{}}}", sm.n);
}

/// One JSON line describing the whole invocation, for `--compare`.
fn record_line(outcomes: &[Outcome], opts: &Options) -> String {
    let mut s = format!(
        "{{\"benchmark\":\"janus-benchmark\",\"seed\":{},\"host_parallelism\":{},\"workloads\":{{",
        opts.seed,
        host_parallelism()
    );
    for o in outcomes {
        sep(&mut s);
        json::write_str(&mut s, o.def.name);
        let digest = o.reference.map_or(String::new(), |d| format!("{d:016x}"));
        let _ = write!(
            s,
            ":{{\"attempted\":{},\"failed\":{},\"digest\":\"{digest}\",\"metrics\":{{",
            o.attempted,
            o.failures.len()
        );
        let ff = o.fail_frac();
        let fail = Summary {
            median: ff,
            q1: ff,
            q3: ff,
            n: usize::try_from(o.attempted).unwrap_or(usize::MAX),
        };
        let names = END_TO_END.iter().map(|m| m.name).chain(["fail_frac"]);
        for (name, sm) in names.zip(o.end_to_end().into_iter().chain([fail])) {
            sep(&mut s);
            json::write_str(&mut s, name);
            s.push(':');
            write_summary(&mut s, unit_of(name), &sm);
        }
        s.push('}');
        if let Some(sm) = o.probe_ms() {
            s.push_str(",\"probe_ms\":");
            write_summary(&mut s, "ms", &sm);
        }
        s.push_str(",\"layers\":{");
        for (name, v) in &o.layers {
            sep(&mut s);
            json::write_str(&mut s, name);
            s.push(':');
            json::write_f64(&mut s, *v);
        }
        s.push_str("}}");
    }
    s.push_str("}}");
    s
}

/// Exit status of a measuring invocation: 1 when any run failed.
fn exit_status(outcomes: &[Outcome]) -> i32 {
    let failed = outcomes
        .iter()
        .any(|o| o.fail_frac() > 0.0 || o.samples.is_empty());
    i32::from(failed)
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Ok(Command::Compare { parent, change }) => {
            std::process::exit(compare::run(&parent, &change));
        }
        Ok(Command::Run(opts)) => {
            if let Some(var) = altering_env() {
                eprintln!("error: {var} is set; unset it to measure the default configuration");
                std::process::exit(2);
            }
            opts
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcomes = measure(&opts);
    print_report(&outcomes, &opts);
    if let Err(e) = append_line(&opts.out, &record_line(&outcomes, &opts)) {
        eprintln!("error: could not append to {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("{}", result_line(&outcomes, opts.trace));
    std::process::exit(exit_status(&outcomes));
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_trace::json::Value;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// The phase driver must reproduce the harness's simulated output on
    /// every spec of every workload (at a small size).
    #[test]
    fn phase_driver_matches_run_quiet_on_every_workload() {
        for def in &WORKLOADS {
            for spec in def.specs_with_tx(42, 6) {
                let (_, mine) = run_phases(&spec).expect("phase driver run");
                let harness = phases::digest(&janus_bench::run_quiet(spec).report.to_metrics());
                assert_eq!(mine, harness, "{}: digests differ", def.name);
            }
        }
    }

    #[test]
    fn wrong_committed_digest_fails_every_run_and_exits_nonzero() {
        let def = suite::find("tatp_janus").expect("workload exists");
        let specs = def.specs_with_tx(42, 20);
        let (_, real) = run_phases(&specs[0]).expect("run");
        let mut bad = Outcome::new(def, specs.clone(), Some(!combine([real])));
        bad.warm_up();
        bad.rep(1);
        assert_eq!(bad.attempted, 2);
        assert_eq!(bad.fail_frac(), 1.0);
        assert_ne!(exit_status(std::slice::from_ref(&bad)), 0);
        assert!(result_line(std::slice::from_ref(&bad), false).starts_with("{\"correct\":false"));

        let mut good = Outcome::new(def, specs, Some(combine([real])));
        good.warm_up();
        good.rep(1);
        assert_eq!(good.fail_frac(), 0.0);
        assert_eq!(exit_status(std::slice::from_ref(&good)), 0);
        assert!(result_line(std::slice::from_ref(&good), false).starts_with("{\"correct\":true"));
    }

    #[test]
    fn ledger_replays_every_write_and_names_every_metric() {
        let def = suite::find("tatp_janus").expect("workload exists");
        let specs = def.specs_with_tx(7, 200);
        let (phases, _) = run_phases(&specs[0]).expect("run");
        let layers = ledger::measure(&specs, phases, phases.total_s(), 1).expect("ledger");
        let names: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let value = |n: &str| layers.iter().find(|(m, _)| *m == n).expect("metric").1;
        assert_eq!(value("ledger.replay_coverage"), 1.0);
        assert!(value("controller.ns_per_write") > 0.0);
        assert!(value("trace.events.controller") > 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        let s = summarize(&[2.5, 7.25, 1.0, 9.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 4.0, 8.125));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn parser_accepts_the_documented_flags() {
        let Ok(Command::Run(o)) = parse_args(&args(
            "--workload tatp_janus --seed 3 --seconds 10 --trace 0",
        )) else {
            panic!("single-workload command line rejected");
        };
        assert_eq!(o.workloads.len(), 1);
        assert_eq!((o.seed, o.stop, o.trace), (3, Stop::Seconds(10.0), false));
        let Ok(Command::Run(o)) = parse_args(&[]) else {
            panic!("defaults rejected");
        };
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert_eq!((o.seed, o.stop, o.trace), (42, Stop::Rounds(20), true));
        assert!(matches!(
            parse_args(&args("--compare a.jsonl b.jsonl")),
            Ok(Command::Compare { .. })
        ));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "--bogus",
            "--seed",
            "--seed -1",
            "--seed x",
            "--reps 0",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--reps 3 --seconds 4",
            "--seed 1 --seed 2",
            "--workload tatp_janus,fig_matrix",
            "--workloads nope",
            "--workloads tatp_janus,tatp_janus",
            "--workload tatp_janus --workloads fig_matrix",
            "--compare a.jsonl",
            "--compare a.jsonl b.jsonl --seed 1",
            "stray",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn digest_covers_exactly_todays_keys() {
        for key in [
            "sim.cycles",
            "sim.core12_cycles",
            "mc.writes",
            "mc.wq_coalesced",
            "tenant3.lat_p99_cycles",
            "lat.read_mean_cycles",
        ] {
            assert!(phases::in_digest(key), "{key} left out");
        }
        for key in [
            "irb.inserted",
            "mc.some_future_counter",
            "sim.future_field",
            "tenantx.completed",
            "tenant1.future_field",
            "sim.core_cycles",
        ] {
            assert!(!phases::in_digest(key), "{key} let in");
        }
    }

    #[test]
    fn compare_verdicts_follow_the_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let v = |c: &[f64]| compare::verdict(&parent, c, suite::Better::Higher, 0.10);
        assert_eq!(v(&faster), compare::Verdict::Improved);
        assert_eq!(v(&slower), compare::Verdict::Regressed);
        assert_eq!(v(&same), compare::Verdict::Unchanged);
        // Too few pairs to claim the same gain.
        assert_eq!(v(&faster[..5]), compare::Verdict::Unresolved);
        // A parent spread wider than the bound cannot call a small move
        // unchanged, nor hide a median worse than the bound.
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 80.0, 120.0, 100.0,
        ];
        let v = |c: &[f64]| compare::verdict(&noisy, c, suite::Better::Higher, 0.10);
        assert_eq!(v(&slower), compare::Verdict::Regressed);
        let a_bit_slower: Vec<f64> = noisy.iter().map(|x| x * 0.97).collect();
        assert_eq!(v(&a_bit_slower), compare::Verdict::Unresolved);
    }

    /// `BENCHMARK.json` at the repository root, found from the manifest
    /// directory of whichever package this binary was built in.
    fn benchmark_json() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).expect("read BENCHMARK.json");
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        }
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = benchmark_json();
        let Value::Object(top) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |k: &str| {
            doc.get(k)
                .and_then(Value::as_array)
                .expect("array")
                .to_vec()
        };
        let text = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .expect("string")
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(w, "name"), def.name);
            assert_eq!(text(w, "why"), def.why);
            assert!(def.why.len() <= 200 && is_name(def.name));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), m.bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert!(is_name(m.name), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
