//! The full-system cycle-level simulator: cores, caches, and the memory
//! controller, driven by a deterministic event queue.
//!
//! Each core executes one [`Program`] (Table 4's workloads generate them).
//! Stores land in the core's private L1; `clwb` launches a writeback that
//! reaches the memory controller after the 15 ns cache-writeback latency;
//! `sfence` blocks the core until every outstanding writeback is persistent
//! (accepted into the ADR write queue — which, depending on the system mode,
//! may first require the write's BMOs to finish: the crux of the paper).
//! Janus pre-execution requests travel the same path and are consumed by the
//! controller asynchronously.
//!
//! Two run models share the machinery: the closed-loop model
//! ([`System::run`]) executes one fixed [`Program`] per core, and the
//! open-loop multi-tenant model ([`System::try_run_tenants`]) has cores act
//! as workers pulling tenant transactions from [`TenantStream`]s as they
//! arrive, with per-tenant latency distributions in the report.

use janus_bmo::integrity::NodeHash;
use janus_nvm::addr::LineAddr;
use janus_nvm::cache::{Access, CacheConfig, SetAssocCache};
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;
use janus_sim::event::EventQueue;
use janus_sim::time::Cycles;
use janus_trace::metrics::{MetricValue, MetricsRegistry};
use janus_trace::sampler::{MetricsSampler, Sample};
use janus_trace::{TraceConfig, Tracer};

use crate::config::{JanusConfig, WRITEBACK};
use crate::controller::MemoryController;
use crate::ir::{Op, Program};
use crate::irb::{IrbKey, IrbPolicy};
use crate::queues::PreRequest;
use crate::tenant::{FrontEnd, TenantStream};

// Fixed per-operation core-side costs.
/// L1 hit latency.
const L1_HIT: Cycles = Cycles(4);
/// Additional latency of an L2 hit.
const L2_HIT: Cycles = Cycles(30);
/// Store into L1.
const STORE: Cycles = Cycles(4);
/// Issue cost of `clwb` (the writeback itself travels asynchronously).
const CLWB_ISSUE: Cycles = Cycles(4);
/// Issue cost of `sfence` (plus any blocking).
const FENCE_ISSUE: Cycles = Cycles(2);
/// Issue cost of one Janus interface call.
const PRE_ISSUE: Cycles = Cycles(6);

/// A run request that contradicts the system's configuration — returned by
/// the fallible entry points ([`System::try_run`],
/// [`System::run_until_crashes`], [`System::try_run_tenants`]) so
/// harnesses can surface a usage error (exit status 2) instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Closed-loop runs need exactly one program per configured core.
    ProgramCount {
        /// Programs supplied.
        programs: usize,
        /// Cores configured.
        cores: usize,
    },
    /// An open-loop run needs at least one tenant stream.
    NoTenants,
    /// A tenant stream's arrival and transaction vectors differ in length.
    StreamShape {
        /// The offending tenant.
        tenant: usize,
        /// Arrival count.
        arrivals: usize,
        /// Transaction count.
        txs: usize,
    },
    /// A tenant stream's arrivals are not sorted ascending.
    UnsortedArrivals {
        /// The offending tenant.
        tenant: usize,
    },
    /// A partitioned IRB's per-thread quota exceeds the IRB's capacity.
    IrbQuota {
        /// The configured per-thread quota.
        quota: usize,
        /// Total IRB entries ([`JanusConfig::total_irb_entries`]).
        capacity: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ProgramCount { programs, cores } => write!(
                f,
                "got {programs} program(s) for {cores} configured core(s); \
                 closed-loop runs need exactly one program per core"
            ),
            ConfigError::NoTenants => write!(f, "open-loop run with no tenant streams"),
            ConfigError::StreamShape {
                tenant,
                arrivals,
                txs,
            } => write!(
                f,
                "tenant {tenant}: {arrivals} arrival(s) for {txs} transaction(s)"
            ),
            ConfigError::UnsortedArrivals { tenant } => {
                write!(f, "tenant {tenant}: arrivals are not sorted ascending")
            }
            ConfigError::IrbQuota { quota, capacity } => write!(
                f,
                "IRB policy partitioned:{quota} exceeds the IRB's {capacity} entries"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulator events.
#[derive(Clone, Debug)]
enum Ev {
    /// Core `i` executes its next operation.
    Core(usize),
    /// An idle worker core re-checks the open-loop front end (scheduled on
    /// tenant completions and future arrivals). Ignored unless the core is
    /// actually parked — a stale wake must never double-step a core that
    /// has since picked up work.
    CoreWake(usize),
    /// A writeback reaches the memory controller.
    WriteArrive {
        core: usize,
        /// Logical thread identity: the tenant in open-loop runs, the core
        /// itself in closed-loop runs. This is the IRB ThreadID and the id
        /// carried on trace/profile events, so blame is per-tenant.
        thread: usize,
        line: LineAddr,
        data: Line,
        commit: bool,
        critical: bool,
    },
    /// A pre-execution request reaches the controller.
    PreArrive(PreRequest),
    /// A `PRE_START_BUF` reaches the controller.
    PreStart(IrbKey),
    /// A previously arrived write became persistent.
    Persisted { core: usize },
}

#[derive(Debug)]
struct CoreState {
    program: Program,
    pc: usize,
    /// `clwb`'d writes not yet persistent.
    outstanding: usize,
    fence_blocked: bool,
    tx_id: u64,
    committed: u64,
    finished_at: Option<Cycles>,
    /// Open-loop only: the in-flight tenant transaction (tenant id and its
    /// arrival time). `None` in closed-loop runs and between pulls.
    tenant: Option<(usize, Cycles)>,
    /// Open-loop only: parked waiting for the front end (the target state a
    /// stale [`Ev::CoreWake`] is checked against).
    idle: bool,
}

impl CoreState {
    fn fresh(program: Program) -> Self {
        CoreState {
            program,
            pc: 0,
            outstanding: 0,
            fence_blocked: false,
            tx_id: 0,
            committed: 0,
            finished_at: None,
            tenant: None,
            idle: false,
        }
    }

    fn done(&self) -> bool {
        self.pc >= self.program.ops.len()
    }
}

/// Per-tenant open-loop statistics (see [`ExecutionReport::tenants`]).
/// Latencies are arrival→persistence, so queueing delay behind the
/// tenant's own earlier transactions and behind busy cores is included —
/// the open-loop tail the multi-tenant sweeps measure.
#[derive(Clone, Copy, Debug)]
pub struct TenantReport {
    /// Transactions dispatched to cores.
    pub dispatched: u64,
    /// Transactions completed (executed to persistence).
    pub completed: u64,
    /// Mean latency.
    pub mean: Cycles,
    /// Median latency.
    pub p50: Cycles,
    /// 99th-percentile latency.
    pub p99: Cycles,
    /// 99.9th-percentile latency.
    pub p999: Cycles,
    /// Worst observed latency.
    pub max: Cycles,
}

/// Execution statistics of one run.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Wall-clock cycles until every core finished (incl. draining writes).
    pub cycles: Cycles,
    /// Per-core finish times.
    pub core_cycles: Vec<Cycles>,
    /// Committed transactions across all cores.
    pub transactions: u64,
    /// Persistent writes processed by the controller.
    pub writes: u64,
    /// Writes cancelled by deduplication.
    pub dup_writes: u64,
    /// Janus writes whose BMOs completely pre-executed (§5.2.2).
    pub fully_preexecuted_fraction: f64,
    /// IRB statistics (inserted, consumed, drops, expired, stale), read
    /// from the controller's counts: `pre_ops_admitted`, `pre_full +
    /// pre_partial`, `irb_dropped`, `irb_expired` and
    /// `irb_meta_invalidations`.
    pub irb: (u64, u64, u64, u64, u64),
    /// Named counters: the nonzero controller counters in name order
    /// ([`crate::controller::ControllerStats::counters`]), then
    /// `nvm_device_reads`, `nvm_device_writes`, `wq_stall_cycles` and
    /// `wq_coalesced`.
    pub counters: Vec<(&'static str, u64)>,
    /// L1 (hits, misses) summed over cores.
    pub l1: (u64, u64),
    /// L2 (hits, misses).
    pub l2: (u64, u64),
    /// Mean critical write latency (arrival → persistent).
    pub mean_write_latency: Cycles,
    /// Mean demand-read (L2 miss) latency.
    pub mean_read_latency: Cycles,
    /// Discrete events processed by the simulation loop — janus-benchmark
    /// publishes it as `core.events`. Deliberately excluded from the field
    /// list behind [`ExecutionReport::dump`] and
    /// [`ExecutionReport::to_metrics`]: it describes the simulator, not the
    /// simulated machine, and the exported result files must stay
    /// byte-identical.
    pub events: u64,
    /// Per-tenant statistics of an open-loop run
    /// ([`System::try_run_tenants`]); empty for closed-loop runs, which
    /// keeps every closed-loop export byte-identical to before the
    /// multi-tenant front end existed.
    pub tenants: Vec<TenantReport>,
}

impl ExecutionReport {
    /// Transactions per million cycles — the throughput metric the speedup
    /// figures are built from.
    pub fn tx_per_mcycle(&self) -> f64 {
        if self.cycles.0 == 0 {
            0.0
        } else {
            self.transactions as f64 / (self.cycles.0 as f64 / 1e6)
        }
    }

    /// Looks up a named counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Jain's fairness index over per-tenant service rates (the reciprocal
    /// of each tenant's mean latency; tenants that completed nothing count
    /// as rate 0). 1.0 = perfectly fair, 1/n = one tenant got everything.
    /// Returns 1.0 for closed-loop runs (no tenants).
    pub fn jain_fairness(&self) -> f64 {
        if self.tenants.is_empty() {
            return 1.0;
        }
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| {
                if t.completed > 0 {
                    1.0 / (t.mean.0.max(1) as f64)
                } else {
                    0.0
                }
            })
            .collect();
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (xs.len() as f64 * sq)
        }
    }
}

/// The simulator. Construct with a [`JanusConfig`], then [`System::run`]
/// one program per core.
pub struct System {
    config: JanusConfig,
    mc: MemoryController,
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    /// Per-core volatile view of its own stores (captured at `clwb`).
    overlay: Vec<LineStore>,
    cores: Vec<CoreState>,
    /// The open-loop front end; `None` for closed-loop (one fixed program
    /// per core) runs.
    front: Option<FrontEnd>,
    events: EventQueue<Ev>,
    events_processed: u64,
    sampler: Option<MetricsSampler>,
    /// Reused batch scratch: one allocation per run, not per cycle.
    batch_buf: Vec<(Cycles, Ev)>,
}

impl System {
    /// Builds a system for the configuration.
    pub fn new(config: JanusConfig) -> Self {
        let mc = MemoryController::new(config.clone());
        // Pre-size the event queue for the peak concurrent events a run can
        // sustain: per core, one core-step event plus a full write queue and
        // a full pre-execution operation queue. The per-core knobs are used
        // directly (the `total_*` accessors saturate under
        // `unlimited_resources`), clamped to keep pathological configs from
        // reserving unbounded memory up front.
        let pending = config
            .cores
            .saturating_mul(1 + config.wq_capacity + config.op_queue_per_core)
            .min(1 << 20);
        System {
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(CacheConfig::l1d()))
                .collect(),
            l2: SetAssocCache::new(CacheConfig::l2()),
            overlay: (0..config.cores).map(|_| LineStore::new()).collect(),
            cores: Vec::new(),
            front: None,
            events: EventQueue::with_capacity(pending),
            events_processed: 0,
            sampler: None,
            batch_buf: Vec::new(),
            mc,
            config,
        }
    }

    /// Enables event tracing for this run; returns the [`Tracer`] handle
    /// for export after [`System::run`]. The controller shares the handle
    /// with the BMO engine, NVM device, and write queue.
    pub fn enable_trace(&mut self, config: &TraceConfig) -> Tracer {
        self.mc.enable_trace(config)
    }

    /// Enables *causal* profiling for this run: tracing plus the `prof_*`
    /// link events `janus-prof` needs to rebuild per-write span DAGs. The
    /// profile is a pure function of the trace stream.
    pub fn enable_profiling(&mut self, config: &TraceConfig) -> Tracer {
        self.mc.enable_profiling(config)
    }

    /// The run's tracer (disabled unless [`System::enable_trace`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        self.mc.tracer()
    }

    /// Enables periodic counter sampling: every `every` cycles of simulated
    /// time, the controller's counters are snapshotted into a time-series
    /// (retrieve with [`System::samples`]).
    pub fn enable_sampling(&mut self, every: Cycles) {
        self.sampler = Some(MetricsSampler::new(every));
    }

    /// The sampled counter time-series (empty unless
    /// [`System::enable_sampling`] was called before the run).
    pub fn samples(&self) -> &[Sample] {
        self.sampler.as_ref().map_or(&[], |s| s.samples())
    }

    /// Access to the memory controller (reads, statistics, recovery state).
    pub fn controller(&self) -> &MemoryController {
        &self.mc
    }

    /// Current functional value of a line.
    pub fn read_value(&self, line: LineAddr) -> Line {
        self.mc.read_value(line)
    }

    /// Pre-warms the shared L2 with the given lines (steady-state
    /// measurement: the benchmarks in the paper report warmed-up behaviour,
    /// with working sets resident in the cache hierarchy). Does not touch
    /// timing or statistics of the run itself.
    pub fn warm_caches(&mut self, lines: impl IntoIterator<Item = LineAddr>) {
        for line in lines {
            self.l2.access(line, false);
        }
    }

    /// Runs one program per core to completion and reports statistics.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs does not match the configured core
    /// count ([`System::try_run`] is the non-panicking form).
    pub fn run(&mut self, programs: Vec<Program>) -> ExecutionReport {
        self.try_run(programs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::run`]: a program-count mismatch or an
    /// IRB quota above capacity is a [`ConfigError`] instead of a panic, so
    /// harnesses can report a usage error and exit cleanly.
    pub fn try_run(&mut self, programs: Vec<Program>) -> Result<ExecutionReport, ConfigError> {
        self.check_config()?;
        if programs.len() != self.config.cores {
            return Err(ConfigError::ProgramCount {
                programs: programs.len(),
                cores: self.config.cores,
            });
        }
        self.start(programs);
        self.drain();
        Ok(self.report())
    }

    /// Runs the multi-tenant open-loop front end to completion: cores pull
    /// transactions from the tenant streams (earliest arrival, lowest
    /// tenant id) instead of executing fixed per-core programs. The report
    /// carries per-tenant latency distributions in
    /// [`ExecutionReport::tenants`].
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when there are no streams, a stream's arrival and
    /// transaction vectors disagree in length, arrivals are unsorted, or the
    /// IRB quota exceeds capacity.
    pub fn try_run_tenants(
        &mut self,
        streams: Vec<TenantStream>,
    ) -> Result<ExecutionReport, ConfigError> {
        self.check_config()?;
        if streams.is_empty() {
            return Err(ConfigError::NoTenants);
        }
        for (tenant, s) in streams.iter().enumerate() {
            if s.arrivals.len() != s.txs.len() {
                return Err(ConfigError::StreamShape {
                    tenant,
                    arrivals: s.arrivals.len(),
                    txs: s.txs.len(),
                });
            }
            if s.arrivals.windows(2).any(|w| w[0] > w[1]) {
                return Err(ConfigError::UnsortedArrivals { tenant });
            }
        }
        self.front = Some(FrontEnd::new(streams));
        self.cores = (0..self.config.cores)
            .map(|_| CoreState::fresh(Program::default()))
            .collect();
        // Every core starts with an empty program: its first Core event
        // lands in the done-branch, which pulls from the front end.
        for i in 0..self.cores.len() {
            self.events.schedule(Cycles::ZERO, Ev::Core(i));
        }
        self.drain();
        Ok(self.report())
    }

    /// Runs every event at or before `crash_at` (including those scheduled
    /// for `crash_at` itself while it is processed), then abandons all
    /// volatile state and returns the durable image + secure root (power
    /// loss): the one-point case of [`System::run_until_crashes`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::ProgramCount`] when the number of programs does not
    /// match the configured core count, [`ConfigError::IrbQuota`] when the
    /// IRB quota exceeds capacity.
    pub fn run_until_crash(
        &mut self,
        programs: Vec<Program>,
        crash_at: Cycles,
    ) -> Result<(LineStore, NodeHash), ConfigError> {
        let mut crashes = self.run_until_crashes(programs, &[crash_at])?;
        Ok(crashes.remove(0))
    }

    /// Crashes one run at each of `crash_points`: records the controller's
    /// durability log, drains the run loop to each point in ascending order
    /// and reads the secure root there, then folds the log at each point.
    /// Returns one `(durable image, secure root)` per point, in the
    /// caller's order; points may repeat and need not be sorted. Each
    /// result is what a fresh system's [`System::run_until_crash`] returns
    /// at that point.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ProgramCount`] when the number of programs does not
    /// match the configured core count, [`ConfigError::IrbQuota`] when the
    /// IRB quota exceeds capacity.
    pub fn run_until_crashes(
        &mut self,
        programs: Vec<Program>,
        crash_points: &[Cycles],
    ) -> Result<Vec<(LineStore, NodeHash)>, ConfigError> {
        self.check_config()?;
        if programs.len() != self.config.cores {
            return Err(ConfigError::ProgramCount {
                programs: programs.len(),
                cores: self.config.cores,
            });
        }
        self.mc.record_durability();
        self.start(programs);
        let mut ascending: Vec<usize> = (0..crash_points.len()).collect();
        ascending.sort_by_key(|&i| crash_points[i]);
        let mut roots = vec![NodeHash::default(); crash_points.len()];
        for i in ascending {
            self.run_loop(crash_points[i]);
            roots[i] = self.mc.secure_root();
        }
        Ok(crash_points
            .iter()
            .zip(roots)
            .map(|(&at, root)| (self.mc.crash_image(at), root))
            .collect())
    }

    /// The configuration checks every run entry point makes first.
    fn check_config(&self) -> Result<(), ConfigError> {
        let capacity = self.config.total_irb_entries();
        match self.config.irb_policy {
            IrbPolicy::Partitioned { quota } if quota > capacity => {
                Err(ConfigError::IrbQuota { quota, capacity })
            }
            _ => Ok(()),
        }
    }

    fn start(&mut self, programs: Vec<Program>) {
        self.cores = programs.into_iter().map(CoreState::fresh).collect();
        for i in 0..self.cores.len() {
            self.events.schedule(Cycles::ZERO, Ev::Core(i));
        }
    }

    /// Runs the event loop dry and finalises sampling (shared by the
    /// closed- and open-loop entry points).
    fn drain(&mut self) {
        self.run_loop(Cycles::MAX);
        if let Some(sampler) = &mut self.sampler {
            sampler.finish(self.events.now(), || self.mc.stats().counters().collect());
        }
    }

    /// The event loop, shared by full runs (`until` = [`Cycles::MAX`]) and
    /// crash runs: one queue operation per occupied cycle at or before
    /// `until`, jumping the clock straight to the next deadline. Events a
    /// handler schedules for the *current* cycle are picked up by the next
    /// `pop_batch` call at the same timestamp, so delivery is exactly
    /// `(time, schedule order)` FIFO. Only the last event of a cohort may
    /// run a core's next step in place (see [`System::run_core`]).
    fn run_loop(&mut self, until: Cycles) {
        let mut buf = std::mem::take(&mut self.batch_buf);
        while self.events.pop_batch(until, &mut buf).is_some() {
            let last = buf.len() - 1;
            for (k, (t, ev)) in buf.drain(..).enumerate() {
                self.count_event(t);
                self.dispatch(t, ev, (k == last).then_some(until));
            }
        }
        self.batch_buf = buf;
    }

    /// Counts a delivered event and offers its cycle to the sampler.
    fn count_event(&mut self, t: Cycles) {
        self.events_processed += 1;
        if let Some(sampler) = &mut self.sampler {
            sampler.maybe_sample(t, || self.mc.stats().counters().collect());
        }
    }

    /// Steps core `i` at `t` and books its next step. When the step ended
    /// its cohort (`inline_until` is then the loop's bound), the next step
    /// is due within that bound, and no pending event is due at or before
    /// it, the queue would deliver that step next and alone: it runs here
    /// instead, counted and sampled as if popped, with the clock moved by
    /// [`EventQueue::advance_to`]. The schedule is the one the queue gives.
    fn run_core(&mut self, mut t: Cycles, i: usize, inline_until: Option<Cycles>) {
        while let Some(next) = self.step_core(t, i) {
            let inline = inline_until.is_some_and(|until| next <= until)
                && self.events.peek_time().is_none_or(|due| due > next);
            if !inline {
                self.events.schedule(next, Ev::Core(i));
                return;
            }
            self.events.advance_to(next);
            self.count_event(next);
            t = next;
        }
    }

    fn dispatch(&mut self, t: Cycles, ev: Ev, inline_until: Option<Cycles>) {
        match ev {
            Ev::Core(i) => self.run_core(t, i, inline_until),
            Ev::CoreWake(i) => {
                // Stale wakes (the core picked up work since the wake was
                // scheduled) are ignored — only parked cores re-check.
                if self.cores[i].idle {
                    self.core_idle(t, i);
                }
            }
            Ev::WriteArrive {
                core,
                thread,
                line,
                data,
                commit,
                critical,
            } => {
                // The controller (IRB lookups, trace/profile identity) sees
                // the logical thread; persistence notifications go back to
                // the physical core that issued the `clwb`.
                let out = self.mc.handle_write(t, thread, line, data, commit);
                if critical {
                    self.events
                        .schedule(out.persist_at.max(t), Ev::Persisted { core });
                }
            }
            Ev::PreArrive(req) => self.mc.handle_pre_request(t, req),
            Ev::PreStart(key) => self.mc.handle_pre_start(t, key),
            Ev::Persisted { core } => {
                let c = &mut self.cores[core];
                c.outstanding -= 1;
                let resumed = c.fence_blocked && c.outstanding == 0;
                if resumed {
                    c.fence_blocked = false;
                    self.events.schedule(t + FENCE_ISSUE, Ev::Core(core));
                }
                if self.cores[core].done() && self.cores[core].outstanding == 0 {
                    if self.front.is_some() {
                        // If the fence just resumed the core, the scheduled
                        // Core event's done-branch will retire the
                        // transaction — don't do it twice.
                        if !resumed {
                            self.core_idle(t, core);
                        }
                    } else if self.cores[core].finished_at.is_none() {
                        self.cores[core].finished_at = Some(t);
                    }
                }
            }
        }
    }

    /// Whether the `clwb` at `pc` is commit-critical: the next fence is
    /// immediately followed by a transaction commit (the §4.3.2 selective
    /// metadata-atomicity criterion).
    fn clwb_is_commit(&self, core: usize, pc: usize) -> bool {
        let ops = &self.cores[core].program.ops;
        let mut i = pc + 1;
        let mut seen_fence = false;
        while i < ops.len() && i < pc + 24 {
            match &ops[i] {
                Op::Fence => seen_fence = true,
                Op::TxCommit if seen_fence => return true,
                op if op.is_marker() => {}
                Op::Clwb(_) => {}
                _ if seen_fence => return false,
                _ => {}
            }
            i += 1;
        }
        false
    }

    /// Logical thread identity of whatever core `i` is executing: the
    /// tenant in open-loop runs, the core itself in closed-loop runs. This
    /// is the ThreadID the IRB keys on and the id the trace/profile stream
    /// attributes work to — so in multi-tenant runs, blame is per-tenant
    /// regardless of which core a transaction landed on.
    fn thread_of(&self, i: usize) -> usize {
        self.cores[i].tenant.map_or(i, |(tenant, _)| tenant)
    }

    /// Executes core `i`'s next op at `t`. Returns when the core's
    /// following step is due, or `None` when it waits on a fence or has
    /// finished.
    fn step_core(&mut self, t: Cycles, i: usize) -> Option<Cycles> {
        if self.cores[i].done() {
            if self.cores[i].outstanding == 0 {
                self.core_idle(t, i);
            }
            return None;
        }
        let thread = self.thread_of(i);
        let pc = self.cores[i].pc;
        // The core never looks back, so it takes the op rather than cloning
        // it: a pre-execution op's values move into its request, and a
        // `DataGen` marker's are dropped here.
        let op = std::mem::replace(&mut self.cores[i].program.ops[pc], Op::FuncEnd);
        self.cores[i].pc += 1;
        let mut next_at = t; // markers are free

        match op {
            Op::Compute(c) => next_at = t + Cycles(c as u64),
            Op::Load(line) => {
                let lat = self.access_read(t, i, line);
                next_at = t + lat;
            }
            Op::Store { line, value } => {
                self.overlay[i].write(line, value);
                self.touch_cache(i, thread, line, true);
                next_at = t + STORE;
            }
            Op::Clwb(line) => {
                self.l1[i].flush(line);
                self.l2.flush(line);
                let data = self.overlay[i].read(line);
                let commit = self.clwb_is_commit(i, pc);
                self.cores[i].outstanding += 1;
                self.events.schedule(
                    t + CLWB_ISSUE + WRITEBACK,
                    Ev::WriteArrive {
                        core: i,
                        thread,
                        line,
                        data,
                        commit,
                        critical: true,
                    },
                );
                next_at = t + CLWB_ISSUE;
            }
            Op::Fence => {
                if self.cores[i].outstanding == 0 {
                    next_at = t + FENCE_ISSUE;
                } else {
                    self.cores[i].fence_blocked = true;
                    return None; // resumed by the last Persisted event
                }
            }
            Op::TxBegin => {
                self.cores[i].tx_id += 1;
                next_at = t + Cycles(1);
            }
            Op::TxCommit => {
                self.cores[i].committed += 1;
                next_at = t + Cycles(1);
            }
            Op::PreInit(_) => next_at = t + Cycles(1),
            // Pre-execution requests traverse the same path as writebacks.
            Op::Pre {
                obj,
                func,
                buffered,
            } => {
                let req = PreRequest {
                    key: IrbKey { core: thread, obj },
                    tx_id: self.cores[i].tx_id,
                    func,
                    buffered,
                };
                self.events
                    .schedule(t + PRE_ISSUE + WRITEBACK, Ev::PreArrive(req));
                next_at = t + PRE_ISSUE;
            }
            Op::PreStartBuf(obj) => {
                let key = IrbKey { core: thread, obj };
                self.events
                    .schedule(t + PRE_ISSUE + WRITEBACK, Ev::PreStart(key));
                next_at = t + PRE_ISSUE;
            }
            // Markers cost nothing.
            Op::AddrGen { .. }
            | Op::DataGen { .. }
            | Op::FuncBegin(_)
            | Op::FuncEnd
            | Op::LoopBegin
            | Op::LoopEnd
            | Op::CondBegin
            | Op::CondEnd => {}
        }
        Some(next_at.max(t))
    }

    /// Charges a demand-read access through L1/L2/NVM; returns its latency.
    fn access_read(&mut self, t: Cycles, core: usize, line: LineAddr) -> Cycles {
        if self.l1[core].access(line, false).is_hit() {
            return L1_HIT;
        }
        if self.l2.access(line, false).is_hit() {
            return L1_HIT + L2_HIT;
        }
        let ready = self.mc.handle_read(t + L1_HIT + L2_HIT, line);
        ready - t
    }

    /// Installs a line into L1/L2 for a store; dirty victims write back to
    /// the controller off the critical path, attributed to the logical
    /// thread currently executing on the core.
    fn touch_cache(&mut self, core: usize, thread: usize, line: LineAddr, write: bool) {
        if let Access::Miss { victim: Some(v) } = self.l1[core].access(line, write) {
            if v.dirty {
                let data = self.overlay[core].read(v.addr);
                let now = self.events.now();
                self.events.schedule(
                    now + WRITEBACK,
                    Ev::WriteArrive {
                        core,
                        thread,
                        line: v.addr,
                        data,
                        commit: false,
                        critical: false,
                    },
                );
            }
        }
        self.l2.access(line, write);
    }

    /// Core `i` has nothing left to execute and nothing outstanding.
    /// Closed-loop: record the finish time. Open-loop: retire the in-flight
    /// tenant transaction, then pull the next ready one (or park until the
    /// next arrival / a peer's completion / the end of the run).
    fn core_idle(&mut self, t: Cycles, i: usize) {
        let Some(front) = self.front.as_mut() else {
            let c = &mut self.cores[i];
            if c.finished_at.is_none() {
                c.finished_at = Some(t);
            }
            return;
        };
        let mut completed = false;
        if let Some((tenant, arrival)) = self.cores[i].tenant.take() {
            front.complete(tenant, arrival, t);
            completed = true;
        }
        let front = self.front.as_mut().expect("open-loop front end");
        if let Some((tenant, arrival, program)) = front.pull(t) {
            let more_ready = front.ready(t);
            let c = &mut self.cores[i];
            c.program = program;
            c.pc = 0;
            c.tenant = Some((tenant, arrival));
            c.idle = false;
            c.finished_at = None;
            self.events.schedule(t, Ev::Core(i));
            // A completion frees the tenant's next transaction, and a pull
            // may leave further arrived work behind — both are news to
            // parked peers.
            if completed || more_ready {
                self.wake_idle_peers(t, i);
            }
        } else {
            let next = front.next_arrival();
            let finished = front.all_dispatched();
            let c = &mut self.cores[i];
            c.idle = true;
            if let Some(at) = next {
                // Nothing ready yet: park until the next possible arrival.
                c.finished_at = None;
                self.events.schedule(at.max(t), Ev::CoreWake(i));
            } else if finished {
                if c.finished_at.is_none() {
                    c.finished_at = Some(t);
                }
            } else {
                // Pending work is all on busy tenants; their completions
                // wake us.
                c.finished_at = None;
            }
            if completed {
                self.wake_idle_peers(t, i);
            }
        }
    }

    /// Wakes every parked core (except `except`) at time `t` — cheap, and
    /// stale wakes are ignored by the `Ev::CoreWake` handler.
    fn wake_idle_peers(&mut self, t: Cycles, except: usize) {
        for j in 0..self.cores.len() {
            if j != except && self.cores[j].idle {
                self.events.schedule(t, Ev::CoreWake(j));
            }
        }
    }

    fn report(&self) -> ExecutionReport {
        let core_cycles: Vec<Cycles> = self
            .cores
            .iter()
            .map(|c| c.finished_at.unwrap_or(self.events.now()))
            .collect();
        let stats = self.mc.stats();
        let l1 = self
            .l1
            .iter()
            .map(|c| c.stats())
            .fold((0, 0), |(h, m), (h2, m2)| (h + h2, m + m2));
        let mut counters: Vec<(&'static str, u64)> = stats.counters().collect();
        let (dev_reads, dev_writes) = self.mc.device_stats();
        counters.push(("nvm_device_reads", dev_reads));
        counters.push(("nvm_device_writes", dev_writes));
        counters.push(("wq_stall_cycles", self.mc.wq_stalls().0));
        counters.push(("wq_coalesced", self.mc.wq_coalesced()));
        let tenants = self.front.as_ref().map_or_else(Vec::new, |fe| {
            fe.tenant_stats()
                .map(|(dispatched, completed, h)| TenantReport {
                    dispatched,
                    completed,
                    mean: h.mean().unwrap_or(Cycles::ZERO),
                    p50: h.p50().unwrap_or(Cycles::ZERO),
                    p99: h.p99().unwrap_or(Cycles::ZERO),
                    p999: h.p999().unwrap_or(Cycles::ZERO),
                    max: h.max(),
                })
                .collect()
        });
        ExecutionReport {
            cycles: core_cycles.iter().copied().max().unwrap_or(Cycles::ZERO),
            core_cycles,
            transactions: self.cores.iter().map(|c| c.committed).sum(),
            writes: stats.writes,
            dup_writes: stats.writes_dup,
            fully_preexecuted_fraction: self.mc.fully_preexecuted_fraction(),
            irb: (
                stats.pre_ops_admitted,
                stats.pre_full + stats.pre_partial,
                stats.irb_dropped,
                stats.irb_expired,
                stats.irb_meta_invalidations,
            ),
            counters,
            l1,
            l2: self.l2.stats(),
            mean_write_latency: stats.mean_write_latency(),
            mean_read_latency: stats.mean_read_latency(),
            events: self.events_processed,
            tenants,
        }
    }
}

/// One report field's value, tagged with how each exporter renders it.
///
/// `dump`, `to_metrics`, and `dump_json` all iterate the same
/// [`ExecutionReport::fields`] list, so a field added there appears in the
/// text dump, the metrics registry, and the JSON export consistently —
/// they cannot drift apart.
enum ReportField {
    /// An exact count or cycle value.
    U64(u64),
    /// A derived fraction (text-dumped with four decimals).
    Frac(f64),
    /// A derived value present only in machine-readable exports (the text
    /// dump skips it).
    MetricsOnlyF64(f64),
    /// A count present only in machine-readable exports.
    MetricsOnlyU64(u64),
}

impl ExecutionReport {
    /// The single ordered field list every exporter derives from.
    fn fields(&self) -> Vec<(String, ReportField)> {
        use ReportField::*;
        let mut f: Vec<(String, ReportField)> = vec![
            ("sim.cycles".into(), U64(self.cycles.0)),
            ("sim.transactions".into(), U64(self.transactions)),
            (
                "sim.tx_per_mcycle".into(),
                MetricsOnlyF64(self.tx_per_mcycle()),
            ),
            ("sim.writes".into(), U64(self.writes)),
            ("sim.dup_writes".into(), U64(self.dup_writes)),
            (
                "janus.fully_preexecuted_fraction".into(),
                Frac(self.fully_preexecuted_fraction),
            ),
        ];
        let (ins, cons, drop, exp, stale) = self.irb;
        f.push(("irb.inserted".into(), U64(ins)));
        f.push(("irb.consumed".into(), U64(cons)));
        f.push(("irb.dropped".into(), U64(drop)));
        f.push(("irb.expired".into(), U64(exp)));
        f.push(("irb.stale".into(), U64(stale)));
        f.push(("cache.l1_hits".into(), U64(self.l1.0)));
        f.push(("cache.l1_misses".into(), U64(self.l1.1)));
        f.push(("cache.l2_hits".into(), U64(self.l2.0)));
        f.push(("cache.l2_misses".into(), U64(self.l2.1)));
        f.push((
            "lat.write_mean_cycles".into(),
            U64(self.mean_write_latency.0),
        ));
        f.push(("lat.read_mean_cycles".into(), U64(self.mean_read_latency.0)));
        // Multi-tenant fields exist only for open-loop runs: closed-loop
        // reports (and therefore every pre-existing golden file) are
        // byte-identical to before the front end existed.
        if !self.tenants.is_empty() {
            f.push(("mt.tenants".into(), U64(self.tenants.len() as u64)));
            f.push(("mt.jain_fairness".into(), Frac(self.jain_fairness())));
            for (i, tr) in self.tenants.iter().enumerate() {
                f.push((format!("tenant{i}.dispatched"), U64(tr.dispatched)));
                f.push((format!("tenant{i}.completed"), U64(tr.completed)));
                f.push((format!("tenant{i}.lat_mean_cycles"), U64(tr.mean.0)));
                f.push((format!("tenant{i}.lat_p50_cycles"), U64(tr.p50.0)));
                f.push((format!("tenant{i}.lat_p99_cycles"), U64(tr.p99.0)));
                f.push((format!("tenant{i}.lat_p999_cycles"), U64(tr.p999.0)));
                f.push((format!("tenant{i}.lat_max_cycles"), U64(tr.max.0)));
            }
        }
        for (i, c) in self.core_cycles.iter().enumerate() {
            f.push((format!("sim.core{i}_cycles"), MetricsOnlyU64(c.0)));
        }
        for (name, v) in &self.counters {
            f.push((format!("mc.{name}"), U64(*v)));
        }
        f
    }

    /// Writes a gem5-style statistics dump (one `name value` pair per
    /// line) for scripting against experiment output.
    pub fn dump(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (name, value) in self.fields() {
            match value {
                ReportField::U64(v) => writeln!(out, "{name} {v}")?,
                ReportField::Frac(v) => writeln!(out, "{name} {v:.4}")?,
                ReportField::MetricsOnlyF64(_) | ReportField::MetricsOnlyU64(_) => {}
            }
        }
        Ok(())
    }

    /// The report as a machine-readable [`MetricsRegistry`] (same names as
    /// [`ExecutionReport::dump`], plus derived machine-only fields), for
    /// JSON export.
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (name, value) in self.fields() {
            match value {
                ReportField::U64(v) | ReportField::MetricsOnlyU64(v) => m.set_u64(name, v),
                ReportField::Frac(v) | ReportField::MetricsOnlyF64(v) => {
                    m.set(name, MetricValue::Float(v))
                }
            }
        }
        m
    }

    /// Writes the report as a single JSON object (see
    /// [`ExecutionReport::to_metrics`] for the key set).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn dump_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        out.write_all(self.to_metrics().to_json().as_bytes())
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.config.mode)
            .field("cores", &self.config.cores)
            .field("now", &self.events.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemMode;
    use crate::ir::ProgramBuilder;

    fn persist_program(n: u64, with_pre: bool) -> Program {
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            b.tx_begin();
            let line = LineAddr(i % 32);
            let value = Line::from_words(&[i, i * 3]);
            if with_pre {
                let obj = b.pre_init();
                b.pre_both(obj, line, vec![value]);
            }
            b.compute(4000); // window for pre-execution
            b.store(line, value);
            b.clwb(line);
            b.fence();
            b.tx_commit();
        }
        b.build()
    }

    fn run_mode(mode: SystemMode, with_pre: bool) -> (ExecutionReport, Vec<Line>) {
        let mut sys = System::new(JanusConfig::paper(mode, 1));
        let report = sys.run(vec![persist_program(40, with_pre)]);
        let values = (0..32).map(|i| sys.read_value(LineAddr(i))).collect();
        (report, values)
    }

    #[test]
    fn report_exporters_share_one_field_list() {
        let (report, _) = run_mode(SystemMode::Janus, true);
        // Every text-dump line's key must appear in the metrics registry,
        // in the same relative order (the dump is a subsequence of the
        // metrics key list — they derive from one field list).
        let mut text = Vec::new();
        report.dump(&mut text).unwrap();
        let dump_keys: Vec<String> = String::from_utf8(text)
            .unwrap()
            .lines()
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect();
        let metrics = report.to_metrics();
        let metric_keys: Vec<String> = metrics.iter().map(|(n, _)| n.to_string()).collect();
        let mut it = metric_keys.iter();
        for k in &dump_keys {
            assert!(
                it.any(|m| m == k),
                "dump key {k} missing (or out of order) in metrics"
            );
        }
        // Machine-only fields exist in metrics but not in the text dump.
        assert!(metrics.get("sim.tx_per_mcycle").is_some());
        assert!(metrics.get("sim.core0_cycles").is_some());
        assert!(!dump_keys.iter().any(|k| k == "sim.tx_per_mcycle"));
        // And the JSON export carries exactly the metrics key set.
        let mut json_out = Vec::new();
        report.dump_json(&mut json_out).unwrap();
        let json_text = String::from_utf8(json_out).unwrap();
        for k in &metric_keys {
            assert!(
                json_text.contains(&format!("\"{k}\"")),
                "{k} missing in JSON"
            );
        }
    }

    #[test]
    fn all_modes_agree_functionally() {
        let (_, serialized) = run_mode(SystemMode::Serialized, false);
        let (_, parallel) = run_mode(SystemMode::Parallelized, false);
        let (_, janus) = run_mode(SystemMode::Janus, true);
        let (_, ideal) = run_mode(SystemMode::Ideal, false);
        assert_eq!(serialized, parallel);
        assert_eq!(serialized, janus);
        assert_eq!(serialized, ideal);
    }

    #[test]
    fn speedup_ordering_holds() {
        let (s, _) = run_mode(SystemMode::Serialized, false);
        let (p, _) = run_mode(SystemMode::Parallelized, false);
        let (j, _) = run_mode(SystemMode::Janus, true);
        let (i, _) = run_mode(SystemMode::Ideal, false);
        assert!(
            s.cycles > p.cycles,
            "serialized {} vs parallel {}",
            s.cycles,
            p.cycles
        );
        assert!(
            p.cycles > j.cycles,
            "parallel {} vs janus {}",
            p.cycles,
            j.cycles
        );
        assert!(
            j.cycles >= i.cycles,
            "janus {} vs ideal {}",
            j.cycles,
            i.cycles
        );
    }

    #[test]
    fn janus_pre_execution_mostly_complete_with_large_window() {
        let (j, _) = run_mode(SystemMode::Janus, true);
        assert!(
            j.fully_preexecuted_fraction > 0.8,
            "fraction = {}",
            j.fully_preexecuted_fraction
        );
    }

    #[test]
    fn transactions_and_writes_counted() {
        let (r, _) = run_mode(SystemMode::Serialized, false);
        assert_eq!(r.transactions, 40);
        assert_eq!(r.writes, 40);
    }

    #[test]
    fn fence_blocks_until_persistent() {
        // A single write: total time must include writeback + BMO (serial).
        let mut b = ProgramBuilder::new();
        b.persist_store(LineAddr(0), Line::splat(1));
        let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
        let r = sys.run(vec![b.build()]);
        let bmo = JanusConfig::paper(SystemMode::Serialized, 1)
            .latencies
            .serialized_total();
        assert!(r.cycles >= Cycles::from_ns(15) + bmo);
    }

    #[test]
    fn ideal_single_write_is_fast() {
        let mut b = ProgramBuilder::new();
        b.persist_store(LineAddr(0), Line::splat(1));
        let mut sys = System::new(JanusConfig::paper(SystemMode::Ideal, 1));
        let r = sys.run(vec![b.build()]);
        assert!(r.cycles < Cycles::from_ns(50), "cycles = {}", r.cycles);
    }

    #[test]
    fn multicore_runs_and_contends() {
        let mk = |cores: usize, mode| {
            let mut sys = System::new(JanusConfig::paper(mode, cores));
            let programs = (0..cores)
                .map(|c| {
                    let mut b = ProgramBuilder::new();
                    for i in 0..20u64 {
                        b.tx_begin();
                        // Disjoint per-core regions.
                        let line = LineAddr(c as u64 * 1000 + i % 8);
                        b.store(line, Line::from_words(&[i + c as u64 * 97]));
                        b.clwb(line);
                        b.fence();
                        b.tx_commit();
                    }
                    b.build()
                })
                .collect();
            sys.run(programs)
        };
        let one = mk(1, SystemMode::Serialized);
        let four = mk(4, SystemMode::Serialized);
        assert_eq!(four.transactions, 80);
        // More cores → more contention → longer per-core time than 1-core.
        assert!(four.cycles >= one.cycles);
    }

    #[test]
    fn crash_then_recover_preserves_persisted_data() {
        let programs = vec![persist_program(10, false)];
        let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
        // Crash long after everything drained.
        let (snapshot, root) = sys
            .run_until_crash(programs, Cycles(100_000_000))
            .expect("one program per core");
        let rec = MemoryController::recover(
            &snapshot,
            JanusConfig::paper(SystemMode::Serialized, 1),
            root,
        )
        .expect("recovery");
        // All ten transactions' final values visible.
        for i in 0..10u64 {
            assert_eq!(
                rec.read_value(LineAddr(i % 32)),
                sys.read_value(LineAddr(i % 32))
            );
        }
    }

    #[test]
    fn only_crash_runs_record_the_durability_log() {
        let config = JanusConfig::paper(SystemMode::Serialized, 1);
        let mut full = System::new(config.clone());
        full.try_run(vec![persist_program(10, false)]).unwrap();
        assert!(full.controller().durability_log().is_none());

        let mut open = System::new(config.clone());
        let stream = TenantStream {
            arrivals: vec![Cycles::ZERO, Cycles(1_000)],
            txs: vec![persist_program(2, false), persist_program(3, false)],
        };
        let report = open.try_run_tenants(vec![stream]).unwrap();
        assert_eq!(report.writes, 5);
        assert!(open.controller().durability_log().is_none());

        let mut crashed = System::new(config);
        crashed
            .run_until_crash(vec![persist_program(10, false)], Cycles::MAX)
            .unwrap();
        let writes = crashed.controller().stats().writes;
        assert_eq!(writes, 10);
        let log = crashed
            .controller()
            .durability_log()
            .expect("crash runs log");
        assert!(log.len() as u64 >= writes, "{} entries", log.len());
    }

    #[test]
    fn buffered_requests_coalesce_and_work() {
        let mut b = ProgramBuilder::new();
        b.tx_begin();
        let obj = b.pre_init();
        b.pre_both_buf(obj, LineAddr(0), vec![Line::splat(1)]);
        b.pre_both_buf(obj, LineAddr(1), vec![Line::splat(2)]);
        b.pre_start_buf(obj);
        b.compute(5000);
        b.store(LineAddr(0), Line::splat(1));
        b.store(LineAddr(1), Line::splat(2));
        b.clwb(LineAddr(0));
        b.clwb(LineAddr(1));
        b.fence();
        b.tx_commit();
        let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
        let r = sys.run(vec![b.build()]);
        assert_eq!(r.writes, 2);
        assert!(
            r.fully_preexecuted_fraction > 0.99,
            "{}",
            r.fully_preexecuted_fraction
        );
        assert_eq!(sys.read_value(LineAddr(0)), Line::splat(1));
        assert_eq!(sys.read_value(LineAddr(1)), Line::splat(2));
    }

    #[test]
    fn loads_hit_caches_after_warmup() {
        let mut b = ProgramBuilder::new();
        for _ in 0..10 {
            b.load(LineAddr(3));
        }
        let mut sys = System::new(JanusConfig::paper(SystemMode::Serialized, 1));
        let r = sys.run(vec![b.build()]);
        let (hits, misses) = r.l1;
        assert_eq!(misses, 1);
        assert_eq!(hits, 9);
    }
}
