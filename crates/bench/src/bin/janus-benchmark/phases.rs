//! The benchmark's own run driver: one simulation's phases through the
//! public API, each timed on its own, with every failure returned as a
//! value instead of ending the process.
//!
//! It mirrors `janus_bench::run_quiet` step for step (the parity test in
//! `main.rs` holds it to the same simulated output) for the variants the
//! suite uses: serialized, parallelized, janus-manual and janus-auto.

use std::fmt;
use std::time::Instant;

use janus_bench::{RunSpec, Variant};
use janus_core::system::{ConfigError, ExecutionReport};
use janus_core::tenant::TenantStream;
use janus_core::{Program, System};
use janus_instrument::instrument;
use janus_nvm::addr::LineAddr;
use janus_nvm::store::LineStore;
use janus_trace::metrics::MetricsRegistry;
use janus_workloads::traffic::generate_tenants;
use janus_workloads::{generate, Instrumentation, WorkloadConfig};

use crate::stats::{median, Fnv};

/// Why a repetition counts as failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    Panic(String),
    Config(ConfigError),
    Oracle { unit: usize, line: LineAddr },
    Digest { expected: u64, got: u64 },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Panic(msg) => write!(f, "panic: {msg}"),
            Failure::Config(e) => write!(f, "configuration rejected: {e}"),
            Failure::Oracle { unit, line } => {
                write!(f, "oracle mismatch: unit {unit}, line {line}")
            }
            Failure::Digest { expected, got } => write!(
                f,
                "simulated-output digest {got:016x}, expected {expected:016x}"
            ),
        }
    }
}

/// Runs `f`, turning a panic into [`Failure::Panic`].
pub fn guarded<T>(f: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(Failure::Panic(msg))
    })
}

/// Host seconds of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub pass_s: f64,
    pub new_s: f64,
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.pass_s + self.new_s + self.warm_s
    }
}

/// What the event loop consumes: one program per core, or one open-loop
/// stream per tenant.
#[derive(Clone, Debug)]
pub enum Input {
    Closed(Vec<Program>),
    Open(Vec<TenantStream>),
}

/// A system built, warmed and ready to run.
pub struct Prepared {
    pub sys: System,
    pub input: Input,
    oracles: Vec<LineStore>,
    pub setup: SetupTimes,
}

/// Generation, compiler pass, `System::new` and cache warming.
pub fn prepare(spec: &RunSpec) -> Prepared {
    let t = Instant::now();
    let instrumentation = match spec.variant {
        Variant::JanusManual => Instrumentation::Manual,
        Variant::Serialized | Variant::Parallelized | Variant::JanusAuto => Instrumentation::None,
        other => panic!("the benchmark drives no {} runs", other.label()),
    };
    let mut oracles = Vec::new();
    let mut resident = Vec::new();
    let input = if spec.open_loop.is_some() {
        let mut streams = Vec::new();
        for t in generate_tenants(&spec.tenant_specs(), spec.seed) {
            streams.push(t.stream);
            oracles.push(t.expected);
            resident.push(t.resident);
        }
        Input::Open(streams)
    } else {
        let cfg = WorkloadConfig {
            transactions: spec.transactions,
            seed: spec.seed,
            dedup_ratio: spec.dedup_ratio,
            instrumentation,
            tx_size_bytes: spec.tx_size_bytes,
            key_skew: spec.key_skew,
            aux_tx_fraction: spec.aux_tx_fraction,
        };
        let mut programs = Vec::new();
        for core in 0..spec.cores {
            let out = generate(spec.workload, core, &cfg);
            programs.push(out.program);
            oracles.push(out.expected);
            resident.push(out.resident);
        }
        Input::Closed(programs)
    };
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let input = match input {
        Input::Closed(programs) if spec.variant == Variant::JanusAuto => {
            Input::Closed(programs.iter().map(|p| instrument(p).0).collect())
        }
        other => other,
    };
    let pass_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut sys = System::new(spec.config());
    let new_s = t.elapsed().as_secs_f64();

    // Same order as the harness: each unit's written set, then its
    // resident structures, unit by unit.
    let t = Instant::now();
    for (oracle, ranges) in oracles.iter().zip(&resident) {
        sys.warm_caches(oracle.iter().map(|(a, _)| a));
        for &(first, n) in ranges {
            sys.warm_caches(first.span(n));
        }
    }
    let warm_s = t.elapsed().as_secs_f64();

    Prepared {
        sys,
        input,
        oracles,
        setup: SetupTimes {
            gen_s,
            pass_s,
            new_s,
            warm_s,
        },
    }
}

/// A finished, verified run.
pub struct Executed {
    pub report: ExecutionReport,
    pub loop_s: f64,
    pub verify_s: f64,
    /// `to_metrics().to_json()`: the report a results file would carry.
    pub report_s: f64,
    pub digest: u64,
}

/// Event loop, oracle check and report.
pub fn execute(p: Prepared) -> Result<Executed, Failure> {
    let Prepared {
        mut sys,
        input,
        oracles,
        ..
    } = p;
    let t = Instant::now();
    let report = match input {
        Input::Closed(programs) => sys.try_run(programs),
        Input::Open(streams) => sys.try_run_tenants(streams),
    }
    .map_err(Failure::Config)?;
    let loop_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (unit, oracle) in oracles.iter().enumerate() {
        for (line, value) in oracle.iter() {
            if sys.read_value(line) != *value {
                return Err(Failure::Oracle { unit, line });
            }
        }
    }
    let verify_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let metrics = report.to_metrics();
    std::hint::black_box(metrics.to_json());
    let report_s = t.elapsed().as_secs_f64();

    Ok(Executed {
        digest: digest(&metrics),
        report,
        loop_s,
        verify_s,
        report_s,
    })
}

/// Host seconds of every phase of a run (or their sum over several runs),
/// with the work counts the per-layer ledger divides by.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub setup: SetupTimes,
    pub loop_s: f64,
    pub verify_s: f64,
    pub report_s: f64,
    pub transactions: u64,
    pub events: u64,
    pub writes: u64,
}

impl Phases {
    /// Host seconds from the start of the event loop to a built report:
    /// the denominator of `tx_per_s`.
    pub fn run_s(&self) -> f64 {
        self.loop_s + self.verify_s + self.report_s
    }

    pub fn total_s(&self) -> f64 {
        self.setup.total() + self.run_s()
    }

    /// Element-wise median over repetitions (counts are identical across
    /// repetitions of one workload and seed).
    pub fn median_of(all: &[Phases]) -> Phases {
        let m = |f: fn(&Phases) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        Phases {
            setup: SetupTimes {
                gen_s: m(|p| p.setup.gen_s),
                pass_s: m(|p| p.setup.pass_s),
                new_s: m(|p| p.setup.new_s),
                warm_s: m(|p| p.setup.warm_s),
            },
            loop_s: m(|p| p.loop_s),
            verify_s: m(|p| p.verify_s),
            report_s: m(|p| p.report_s),
            transactions: all[0].transactions,
            events: all[0].events,
            writes: all[0].writes,
        }
    }

    pub fn add(&mut self, o: &Phases) {
        self.setup.gen_s += o.setup.gen_s;
        self.setup.pass_s += o.setup.pass_s;
        self.setup.new_s += o.setup.new_s;
        self.setup.warm_s += o.setup.warm_s;
        self.loop_s += o.loop_s;
        self.verify_s += o.verify_s;
        self.report_s += o.report_s;
        self.transactions += o.transactions;
        self.events += o.events;
        self.writes += o.writes;
    }
}

/// Runs one spec through the phase driver, untraced.
pub fn run_phases(spec: &RunSpec) -> Result<(Phases, u64), Failure> {
    let p = prepare(spec);
    let setup = p.setup;
    let e = execute(p)?;
    let phases = Phases {
        setup,
        loop_s: e.loop_s,
        verify_s: e.verify_s,
        report_s: e.report_s,
        transactions: e.report.transactions,
        events: e.report.events,
        writes: e.report.writes,
    };
    Ok((phases, e.digest))
}

/// `ExecutionReport::to_metrics` keys that enter the digest: the `sim.`,
/// `lat.`, `cache.`, `mc.` and `tenant*` keys the simulator exports today,
/// listed by name so that keys added later leave the digest unchanged.
const DIGEST_KEYS: [&str; 11] = [
    "sim.cycles",
    "sim.transactions",
    "sim.tx_per_mcycle",
    "sim.writes",
    "sim.dup_writes",
    "cache.l1_hits",
    "cache.l1_misses",
    "cache.l2_hits",
    "cache.l2_misses",
    "lat.write_mean_cycles",
    "lat.read_mean_cycles",
];
const DIGEST_MC_COUNTERS: [&str; 18] = [
    "writes",
    "writes_dup",
    "nvm_reads",
    "pre_miss",
    "pre_full",
    "pre_partial",
    "pre_req_dropped",
    "pre_op_dropped",
    "pre_ops_admitted",
    "irb_meta_invalidations",
    "inval_meta",
    "inval_data",
    "bmo_wasted_cycles",
    "meta_evictions",
    "nvm_device_reads",
    "nvm_device_writes",
    "wq_stall_cycles",
    "wq_coalesced",
];
const DIGEST_TENANT_FIELDS: [&str; 7] = [
    "dispatched",
    "completed",
    "lat_mean_cycles",
    "lat_p50_cycles",
    "lat_p99_cycles",
    "lat_p999_cycles",
    "lat_max_cycles",
];

fn is_index(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

pub fn in_digest(name: &str) -> bool {
    DIGEST_KEYS.contains(&name)
        || name
            .strip_prefix("mc.")
            .is_some_and(|c| DIGEST_MC_COUNTERS.contains(&c))
        || name
            .strip_prefix("sim.core")
            .and_then(|r| r.strip_suffix("_cycles"))
            .is_some_and(is_index)
        || name
            .strip_prefix("tenant")
            .and_then(|r| r.split_once('.'))
            .is_some_and(|(i, field)| is_index(i) && DIGEST_TENANT_FIELDS.contains(&field))
}

/// FNV-1a over the digest keys of a report's metrics, in export order.
pub fn digest(metrics: &MetricsRegistry) -> u64 {
    let mut h = Fnv::new();
    for (name, value) in metrics.iter().filter(|(n, _)| in_digest(n)) {
        h.eat(name.as_bytes());
        h.eat(b"=");
        h.eat(value.to_string().as_bytes());
        h.eat(b";");
    }
    h.finish()
}

/// Folds per-spec digests, in spec order, into one workload digest.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.eat(&d.to_le_bytes());
    }
    h.finish()
}
