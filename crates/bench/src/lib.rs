//! # janus-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §5
//! for the index). This library holds the shared runner: it builds the
//! configured system, generates one workload instance per core, applies the
//! requested instrumentation (manual, automated compiler pass, or none),
//! runs the simulation, verifies functional correctness against the
//! workload's oracle, and returns the execution report.

pub mod cli;
pub mod pool;
pub mod timing;

use std::io::Write as _;

use janus_core::config::{JanusConfig, SystemMode};
use janus_core::ir::Program;
use janus_core::irb::IrbPolicy;
use janus_core::system::{ExecutionReport, System};
use janus_instrument::instrument;
use janus_trace::metrics::MetricsRegistry;
use janus_trace::{TraceConfig, Tracer};
use janus_workloads::traffic::{try_generate_tenants, Arrival, TenantSpec};
use janus_workloads::{try_generate, GenError, Instrumentation, Workload, WorkloadConfig};

pub use cli::{arg_usize, require_known_args};

/// The five evaluated system variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline: serialized BMOs.
    Serialized,
    /// Parallelized sub-operations, no pre-execution.
    Parallelized,
    /// Janus with hand-placed pre-execution calls.
    JanusManual,
    /// Janus with the automated compiler pass.
    JanusAuto,
    /// Janus with `janus-lint`'s dominance-based placement pass
    /// ([`janus_lint::auto_place`]).
    JanusAutoPlace,
    /// Janus with hand-placed calls, a seeded §6 misuse, and the autofix
    /// engine ([`janus_lint::fix_program`] on the paper stack) repairing
    /// it — the end-to-end "misused, then `--fix`ed" variant; its cycles
    /// should recover the manual variant's speedup.
    JanusFixed,
    /// Non-blocking-writeback ideal (§5.2.2).
    Ideal,
}

impl Variant {
    /// The simulator mode for this variant.
    pub fn mode(self) -> SystemMode {
        match self {
            Variant::Serialized => SystemMode::Serialized,
            Variant::Parallelized => SystemMode::Parallelized,
            Variant::JanusManual
            | Variant::JanusAuto
            | Variant::JanusAutoPlace
            | Variant::JanusFixed => SystemMode::Janus,
            Variant::Ideal => SystemMode::Ideal,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Serialized => "Serialized",
            Variant::Parallelized => "Parallelization",
            Variant::JanusManual => "Janus (Manual)",
            Variant::JanusAuto => "Janus (Auto)",
            Variant::JanusAutoPlace => "Janus (AutoPlace)",
            Variant::JanusFixed => "Janus (Fixed)",
            Variant::Ideal => "Non-blocking",
        }
    }

    /// Every name a bench binary accepts for a variant (`--variant`,
    /// `--variants`).
    const NAMES: [(&'static str, Variant); 13] = [
        ("serialized", Variant::Serialized),
        ("parallelized", Variant::Parallelized),
        ("janus", Variant::JanusManual),
        ("manual", Variant::JanusManual),
        ("janus-manual", Variant::JanusManual),
        ("auto", Variant::JanusAuto),
        ("compiler", Variant::JanusAuto),
        ("janus-auto", Variant::JanusAuto),
        ("place", Variant::JanusAutoPlace),
        ("autoplace", Variant::JanusAutoPlace),
        ("janus-autoplace", Variant::JanusAutoPlace),
        ("fixed", Variant::JanusFixed),
        ("ideal", Variant::Ideal),
    ];
}

impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match Variant::NAMES.iter().find(|(name, _)| *name == s) {
            Some(&(_, v)) => Ok(v),
            None => {
                let known: Vec<&str> = Variant::NAMES.iter().map(|(name, _)| *name).collect();
                Err(format!(
                    "unknown variant {s:?} (known: {})",
                    known.join(", ")
                ))
            }
        }
    }
}

/// A complete experiment specification.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// The system variant.
    pub variant: Variant,
    /// Core count (one workload instance per core).
    pub cores: usize,
    /// Transactions per core.
    pub transactions: usize,
    /// Target dedup ratio.
    pub dedup_ratio: f64,
    /// Payload bytes per transaction step (Figure 13).
    pub tx_size_bytes: usize,
    /// Use CRC-32 instead of MD5 for dedup fingerprints (Figure 12).
    pub crc32: bool,
    /// Pre-execution resource scaling: `None` = paper default, `Some(k)` =
    /// k×, `Some(usize::MAX)` = unlimited (Figure 14).
    pub resource_scale: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Optional Zipfian key skew for the key-selecting workloads.
    pub key_skew: Option<f64>,
    /// Fraction of auxiliary transactions (TATP reads / TPC-C payments).
    pub aux_tx_fraction: f64,
    /// Event tracing for this run (`None` = disabled, the zero-overhead
    /// default). When set, [`RunResult::tracer`] holds the captured events.
    pub trace: Option<TraceConfig>,
    /// Causal profiling (`--profile`): trace in causal mode so the stream
    /// carries `prof_*` link events and `janus_prof::Profile::build` can
    /// reconstruct per-write causal chains. Uses [`RunSpec::trace`]'s ring
    /// capacity when set, else a ring sized for whole-run capture.
    pub profile: bool,
    /// Sample the simulator's counters every N cycles into
    /// [`RunResult::samples`] (profile runs export these as Chrome
    /// counter tracks).
    pub sample_every: Option<u64>,
    /// BMO stack override (`None` = the paper's default trio). Published
    /// figures assume the default; non-default stacks label their metrics
    /// with `spec.bmo_stack`.
    pub bmo_stack: Option<Vec<janus_bmo::BmoId>>,
    /// How IRB capacity is apportioned across threads/tenants
    /// ([`IrbPolicy::Shared`] = the paper's configuration; metrics are only
    /// labeled for non-default policies or open-loop runs, so the published
    /// closed-loop JSONL stays byte-identical).
    pub irb_policy: IrbPolicy,
    /// Multi-tenant open-loop mode: when set, the run ignores the
    /// one-program-per-core model and instead drives [`RunSpec::cores`]
    /// worker cores from `tenants` open-loop streams
    /// ([`System::try_run_tenants`]); [`RunSpec::workload`] is unused and
    /// the mix comes from [`OpenLoopSpec::mix`].
    pub open_loop: Option<OpenLoopSpec>,
}

/// The open-loop half of a [`RunSpec`] (see [`RunSpec::open_loop`]).
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Arrival process shared by every tenant.
    pub arrival: Arrival,
    /// Transaction mixes, assigned round-robin: tenant `i` runs
    /// `mix[i % mix.len()]`.
    pub mix: Vec<Workload>,
}

impl RunSpec {
    /// The paper's default setup for a workload/variant pair.
    pub fn new(workload: Workload, variant: Variant) -> Self {
        RunSpec {
            workload,
            variant,
            cores: 1,
            transactions: 200,
            dedup_ratio: 0.5,
            tx_size_bytes: 64,
            crc32: false,
            resource_scale: None,
            seed: 42,
            key_skew: None,
            aux_tx_fraction: 0.0,
            trace: None,
            profile: false,
            sample_every: None,
            bmo_stack: None,
            irb_policy: IrbPolicy::Shared,
            open_loop: None,
        }
    }

    /// The simulator configuration this spec resolves to (the profiler
    /// derives its `DepGraph` oracle from the same source).
    pub fn config(&self) -> JanusConfig {
        let mut c = JanusConfig::paper(self.variant.mode(), self.cores);
        if self.crc32 {
            c = c.with_crc32();
        }
        match self.resource_scale {
            None => {}
            Some(usize::MAX) => c = c.unlimited(),
            Some(k) => {
                c = c
                    .scale_resources(k)
                    .expect("resource scale overflows the configuration")
            }
        }
        if let Some(stack) = &self.bmo_stack {
            c.bmo_stack = stack.clone();
        }
        c.irb_policy = self.irb_policy;
        c
    }

    /// The per-tenant traffic specs an open-loop run resolves to.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no [`RunSpec::open_loop`] half.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let ol = self.open_loop.as_ref().expect("an open-loop RunSpec");
        let instrumentation = match self.variant {
            Variant::JanusManual | Variant::JanusFixed => Instrumentation::Manual,
            _ => Instrumentation::None,
        };
        (0..ol.tenants)
            .map(|t| TenantSpec {
                workload: ol.mix[t % ol.mix.len()],
                transactions: self.transactions,
                arrival: ol.arrival,
                key_skew: self.key_skew,
                tx_size_bytes: self.tx_size_bytes,
                instrumentation,
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn program_for_core(
        &self,
        core: usize,
    ) -> Result<
        (
            Program,
            janus_nvm::store::LineStore,
            Vec<(janus_nvm::addr::LineAddr, u64)>,
        ),
        GenError,
    > {
        let instrumentation = match self.variant {
            Variant::JanusManual | Variant::JanusFixed => Instrumentation::Manual,
            _ => Instrumentation::None,
        };
        let cfg = WorkloadConfig {
            transactions: self.transactions,
            seed: self.seed,
            dedup_ratio: self.dedup_ratio,
            instrumentation,
            tx_size_bytes: self.tx_size_bytes,
            key_skew: self.key_skew,
            aux_tx_fraction: self.aux_tx_fraction,
        };
        let out = try_generate(self.workload, core, &cfg)?;
        let program = match self.variant {
            Variant::JanusAuto => instrument(&out.program).0,
            Variant::JanusAutoPlace => janus_lint::auto_place(&out.program).0,
            Variant::JanusFixed => {
                // Start from the hand instrumentation, seed the canonical
                // §6 misuse, and let the autofix engine repair it.
                let mut seeded = out.program;
                janus_lint::seed_stale_hint(&mut seeded);
                janus_lint::fix_program(&seeded, &janus_bmo::BmoStack::paper()).program
            }
            _ => out.program,
        };
        Ok((program, out.expected, out.resident))
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The simulator's report.
    pub report: ExecutionReport,
    /// The spec that produced it.
    pub spec: RunSpec,
    /// The run's event tracer — disabled unless [`RunSpec::trace`] or
    /// [`RunSpec::profile`] was set.
    pub tracer: Tracer,
    /// Counter samples — empty unless [`RunSpec::sample_every`] was set.
    pub samples: Vec<janus_trace::Sample>,
}

impl RunResult {
    /// Execution cycles (the metric every speedup is computed from).
    pub fn cycles(&self) -> f64 {
        self.report.cycles.0 as f64
    }

    /// Machine-readable metrics for this run: `spec.*` labels identifying
    /// the configuration followed by the report's full registry.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set_str("spec.workload", self.spec.workload.slug());
        m.set_str("spec.variant", self.spec.variant.label());
        m.set_u64("spec.cores", self.spec.cores as u64);
        m.set_u64("spec.transactions", self.spec.transactions as u64);
        m.set_u64("spec.tx_size_bytes", self.spec.tx_size_bytes as u64);
        m.set_u64("spec.seed", self.spec.seed);
        m.set_f64("spec.dedup_ratio", self.spec.dedup_ratio);
        // Only non-default stacks are labeled, so default-stack JSONL
        // output stays byte-identical to the published results.
        if let Some(stack) = &self.spec.bmo_stack {
            let ids: Vec<&str> = stack.iter().map(|id| id.as_str()).collect();
            m.set_str("spec.bmo_stack", ids.join(","));
        }
        // Same pattern for the multi-tenant front end: open-loop runs are
        // fully labeled, and the only closed-loop addition is a non-default
        // IRB policy — the published closed-loop JSONL never had either.
        if let Some(ol) = &self.spec.open_loop {
            m.set_u64("spec.tenants", ol.tenants as u64);
            m.set_str("spec.arrival", ol.arrival.to_string());
            m.set_str("spec.irb_policy", self.spec.irb_policy.to_string());
        } else if self.spec.irb_policy != IrbPolicy::Shared {
            m.set_str("spec.irb_policy", self.spec.irb_policy.to_string());
        }
        for (name, value) in self.report.to_metrics().iter() {
            m.set(name, value.clone());
        }
        m
    }
}

/// When `JANUS_RESULTS_JSON_DIR` names a directory, appends the run's
/// metrics as one JSON line to `<dir>/<binary-name>.jsonl`. This covers the
/// binaries whose runs go through [`run`] or [`run_all`]; those that drive
/// the simulator otherwise, or run none (fig1, fig3, fig6, table1, table4,
/// overhead, ablation, extended, misuse, janus-lint), emit no JSONL.
fn sink_results_jsonl(result: &RunResult) {
    let Ok(dir) = std::env::var("JANUS_RESULTS_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "run".to_string());
    let path = std::path::Path::new(&dir).join(format!("{stem}.jsonl"));
    let line = result.metrics().to_json();
    let append = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(f, "{line}")
    };
    if let Err(e) = append() {
        eprintln!(
            "warning: could not append metrics to {}: {e}",
            path.display()
        );
    }
}

/// Runs one experiment and verifies the functional oracle.
///
/// # Panics
///
/// Panics if the simulated NVM contents differ from the workload's expected
/// final state — the harness refuses to report numbers from a broken run.
pub fn run(spec: RunSpec) -> RunResult {
    let result = run_quiet(spec);
    sink_results_jsonl(&result);
    result
}

/// [`run`] without the JSONL side effect: the sweep engine executes specs
/// on worker threads with this and sinks metrics from the coordinating
/// thread in spec order, keeping exported files byte-identical at any
/// worker count.
pub fn run_quiet(spec: RunSpec) -> RunResult {
    let mut sys = System::new(spec.config());
    let tracer = if spec.profile {
        let cfg = spec
            .trace
            .clone()
            .unwrap_or(TraceConfig { capacity: 1 << 21 });
        sys.enable_profiling(&cfg)
    } else {
        match &spec.trace {
            Some(cfg) => sys.enable_trace(cfg),
            None => Tracer::disabled(),
        }
    };
    if let Some(every) = spec.sample_every {
        sys.enable_sampling(janus_sim::time::Cycles(every));
    }
    // A run request the configuration or the workload generator rejects is
    // a usage error, not a bug in the harness: report it and exit with the
    // CLI usage status.
    let surface = |e: janus_core::system::ConfigError| -> ! {
        eprintln!("error: invalid run configuration: {e}");
        std::process::exit(2);
    };
    let (report, oracles) = if spec.open_loop.is_some() {
        let traffic = try_generate_tenants(&spec.tenant_specs(), spec.seed)
            .unwrap_or_else(|e| cli::cannot_generate("tenant traffic", e));
        let mut streams = Vec::with_capacity(traffic.len());
        let mut oracles = Vec::with_capacity(traffic.len());
        for t in traffic {
            sys.warm_caches(t.expected.iter().map(|(a, _)| a));
            for (first, n) in t.resident {
                sys.warm_caches(first.span(n));
            }
            streams.push(t.stream);
            oracles.push(t.expected);
        }
        let report = sys.try_run_tenants(streams).unwrap_or_else(|e| surface(e));
        (report, oracles)
    } else {
        let mut programs = Vec::with_capacity(spec.cores);
        let mut oracles = Vec::with_capacity(spec.cores);
        for core in 0..spec.cores {
            let (p, expected, resident) = spec
                .program_for_core(core)
                .unwrap_or_else(|e| cli::cannot_generate(spec.workload, e));
            programs.push(p);
            // Steady-state measurement: the workload's written set and its
            // declared resident structures start warm in the shared L2.
            sys.warm_caches(expected.iter().map(|(a, _)| a));
            for (first, n) in resident {
                sys.warm_caches(first.span(n));
            }
            oracles.push(expected);
        }
        let report = sys.try_run(programs).unwrap_or_else(|e| surface(e));
        (report, oracles)
    };
    for (unit, oracle) in oracles.iter().enumerate() {
        for (line, value) in oracle.iter() {
            assert_eq!(
                &sys.read_value(line),
                value,
                "{} [{}] {} {unit}: line {line} diverged",
                spec.workload,
                spec.variant.label(),
                if spec.open_loop.is_some() {
                    "tenant"
                } else {
                    "core"
                },
            );
        }
    }
    let samples = sys.samples().to_vec();
    RunResult {
        report,
        spec,
        tracer,
        samples,
    }
}

/// Runs a batch of independent specs fanned across [`cli::jobs`] worker
/// threads (serial when none is requested), returning results in spec
/// order. The figure binaries that sweep specs funnel through here, so
/// `cargo run --release --bin fig9 -- --jobs 8` (or `JANUS_JOBS=8` for a
/// whole `scripts/regen_results.sh` invocation) parallelizes it; output is
/// byte-identical at any worker count.
pub fn run_all(specs: Vec<RunSpec>) -> Vec<RunResult> {
    run_all_jobs(specs, cli::jobs().unwrap_or(1))
}

/// [`run_all`] with an explicit worker count.
///
/// Output is byte-identical at any worker count: each simulation is a
/// sealed deterministic timeline (parallelism never reaches inside one),
/// results come back in spec order, and JSONL metrics are sunk from the
/// coordinating thread in that same order. Traced specs hold a non-`Send`
/// ring buffer, so a batch containing one falls back to in-order sequential
/// execution — identical output, just not fanned out.
pub fn run_all_jobs(specs: Vec<RunSpec>, jobs: usize) -> Vec<RunResult> {
    if jobs <= 1 || specs.len() <= 1 || specs.iter().any(|s| s.trace.is_some() || s.profile) {
        return specs.into_iter().map(run).collect();
    }
    // Workers return only `Send` parts; the tracer slot is refilled with a
    // disabled handle on the way out (untraced runs never record anyway).
    let reports = pool::parallel_map(specs, jobs, |spec| {
        let r = run_quiet(spec);
        (r.report, r.spec, r.samples)
    });
    reports
        .into_iter()
        .map(|(report, spec, samples)| {
            let result = RunResult {
                report,
                spec,
                tracer: Tracer::disabled(),
                samples,
            };
            sink_results_jsonl(&result);
            result
        })
        .collect()
}

/// Speedup of `fast` over `slow` (cycles ratio).
pub fn speedup(slow: &RunResult, fast: &RunResult) -> f64 {
    slow.cycles() / fast.cycles()
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a standard experiment header.
pub fn banner(title: &str, detail: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{detail}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_variants_agree_functionally() {
        // The oracle assertions inside `run` are the real test.
        for variant in [
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
            Variant::JanusAuto,
            Variant::Ideal,
        ] {
            let mut spec = RunSpec::new(Workload::ArraySwap, variant);
            spec.transactions = 10;
            let r = run(spec);
            assert_eq!(r.report.transactions, 10);
        }
    }

    #[test]
    fn speedup_ordering_on_tatp() {
        let mut s = RunSpec::new(Workload::Tatp, Variant::Serialized);
        s.transactions = 30;
        let mut p = s.clone();
        p.variant = Variant::Parallelized;
        let mut j = s.clone();
        j.variant = Variant::JanusManual;
        let (rs, rp, rj) = (run(s), run(p), run(j));
        assert!(speedup(&rs, &rp) > 1.0);
        assert!(speedup(&rs, &rj) > speedup(&rs, &rp));
    }

    #[test]
    fn traced_run_captures_events_and_metrics_carry_spec_labels() {
        let mut spec = RunSpec::new(Workload::Queue, Variant::JanusManual);
        spec.transactions = 5;
        spec.trace = Some(TraceConfig::default());
        let r = run(spec);
        assert!(r.tracer.enabled());
        assert!(r.tracer.recorded() > 0, "a traced run must record events");
        let m = r.metrics();
        assert_eq!(
            m.get("spec.workload"),
            Some(&janus_trace::MetricValue::Str("queue".into()))
        );
        assert!(m.get("sim.cycles").is_some());
        // Untraced runs stay untraced.
        let plain = run(RunSpec::new(Workload::Queue, Variant::JanusManual));
        assert!(!plain.tracer.enabled());
    }

    #[test]
    fn stack_override_runs_and_labels_metrics() {
        let mut spec = RunSpec::new(Workload::ArraySwap, Variant::JanusManual);
        spec.transactions = 8;
        spec.bmo_stack = Some(
            janus_bmo::BmoStack::parse("enc,ecc")
                .unwrap()
                .members()
                .to_vec(),
        );
        let r = run(spec);
        assert_eq!(
            r.metrics().get("spec.bmo_stack"),
            Some(&janus_trace::MetricValue::Str("enc,ecc".into()))
        );
        // Default runs stay unlabeled (published JSONL compatibility).
        let mut plain = RunSpec::new(Workload::ArraySwap, Variant::JanusManual);
        plain.transactions = 8;
        assert_eq!(run(plain).metrics().get("spec.bmo_stack"), None);
    }

    #[test]
    fn variant_names_select_the_same_variants_as_before() {
        // The union of janus-cli's, janus-sweep's and janus-prof's old
        // tables, each name with the variant it selected there, less the
        // three names of the deleted profile-guided pass.
        let expected = [
            ("serialized", Variant::Serialized),
            ("parallelized", Variant::Parallelized),
            ("janus", Variant::JanusManual),
            ("manual", Variant::JanusManual),
            ("janus-manual", Variant::JanusManual),
            ("auto", Variant::JanusAuto),
            ("compiler", Variant::JanusAuto),
            ("janus-auto", Variant::JanusAuto),
            ("place", Variant::JanusAutoPlace),
            ("autoplace", Variant::JanusAutoPlace),
            ("janus-autoplace", Variant::JanusAutoPlace),
            ("fixed", Variant::JanusFixed),
            ("ideal", Variant::Ideal),
        ];
        for (name, variant) in expected {
            assert_eq!(name.parse::<Variant>(), Ok(variant), "{name}");
        }
        assert_eq!(Variant::NAMES.len(), 13, "no new names");
        for bogus in ["", "Janus", "janus-fixed", "non-blocking", " janus", "pgo"] {
            let err = bogus.parse::<Variant>().unwrap_err();
            assert!(err.starts_with("unknown variant"), "{bogus:?}: {err}");
        }
    }

    #[test]
    fn geomean_and_row_helpers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
