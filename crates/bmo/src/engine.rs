//! The BMO timing engine: list-scheduling of sub-operations onto the shared
//! BMO units.
//!
//! Each NVM write (or pre-execution request) becomes a *job*: one instance
//! of the sub-operation dependency graph. A sub-operation becomes ready when
//! its external inputs (address/data) are available and all its predecessors
//! have finished; ready sub-operations are dispatched to the earliest-free
//! unit of the engine's [`UnitPool`] (Table 3: "BMO Units: 4 units per core
//! (execute 4 BMOs in parallel), shared").
//!
//! Two modes reproduce the paper's design points:
//!
//! * [`BmoMode::Serialized`] — the baseline: sub-operations of a write run
//!   strictly one after another (monolithic BMOs).
//! * [`BmoMode::Parallelized`] — Janus: only the dependency edges constrain
//!   ordering.
//!
//! Pre-execution is expressed through *staged inputs*: a job may be created
//! with only its address (or only its data) available; the matching
//! sub-operations are scheduled immediately and the rest wait for
//! [`BmoEngine::provide_addr`]/[`BmoEngine::provide_data`]. Stale results are
//! modeled by [`BmoEngine::invalidate_data`] (the IRB detected a data
//! mismatch: data-dependent sub-operations re-run; address-dependent results
//! are reused) and [`BmoEngine::invalidate_all`] (metadata changed under the
//! job: everything re-runs).

use janus_sim::hash::FxHashMap;
use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;
use janus_trace::{Category, Tracer};

use crate::subop::{DepGraph, NodeId};

/// Initiation interval of a pipelined BMO unit: a unit accepts a new
/// cache-line-sized sub-operation every 10 ns even while earlier results
/// are still in flight.
pub const UNIT_II: Cycles = Cycles(40);

/// Scheduling discipline for a write's sub-operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BmoMode {
    /// Baseline: BMOs treated as monolithic, dependent operations; writes
    /// still overlap with each other on the units.
    Serialized,
    /// Stricter baseline reading: one write's BMOs at a time across the
    /// whole controller (ablation; see DESIGN.md §5a).
    SerializedGlobal,
    /// Janus: independent sub-operations overlap.
    #[default]
    Parallelized,
}

/// Handle to a job inside the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The raw numeric id — the correlation key trace events use.
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Clone, Debug)]
struct Job {
    submit: Cycles,
    addr_at: Option<Cycles>,
    data_at: Option<Cycles>,
    dup: bool,
    /// Completion time per node once scheduled.
    node_end: Vec<Option<Cycles>>,
    /// Cycles of unit time wasted by invalidated (re-run) sub-operations.
    wasted: Cycles,
}

/// When node `n` of `job` could start if nothing else constrained it
/// (`avail`: submission plus the external inputs it needs) and when its
/// predecessors release it (`ready`); `None` while an input or a live
/// predecessor is missing. `ready − avail` is the node's dependency wait.
fn release(graph: &DepGraph, job: &Job, n: NodeId) -> Option<(Cycles, Cycles)> {
    let op = graph.node(n);
    let mut avail = job.submit;
    if op.needs_addr {
        avail = avail.max(job.addr_at?);
    }
    if op.needs_data {
        avail = avail.max(job.data_at?);
    }
    let mut ready = avail;
    for &p in graph.preds(n) {
        // Cancelled predecessors are transparent.
        if !(job.dup && graph.node(p).skip_if_dup) {
            ready = ready.max(job.node_end[p.0]?);
        }
    }
    Some((avail, ready))
}

/// The engine. One per memory controller.
///
/// # Example
///
/// ```
/// use janus_bmo::{BmoEngine, BmoMode, BmoLatencies, BmoStack};
/// use janus_sim::time::Cycles;
///
/// let graph = BmoStack::paper().graph(&BmoLatencies::paper());
/// let mut eng = BmoEngine::new(graph, BmoMode::Parallelized, 4);
/// // An ordinary write: both inputs available at arrival.
/// let job = eng.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
/// let done = eng.completion(job).expect("fully scheduled");
/// assert_eq!(done, eng.graph().critical_path());
/// ```
#[derive(Clone, Debug)]
pub struct BmoEngine {
    graph: DepGraph,
    mode: BmoMode,
    pool: UnitPool,
    jobs: FxHashMap<u64, Job>,
    next_id: u64,
    topo: Vec<NodeId>,
    /// Graph-static: per-node latency, indexed by `NodeId`.
    node_latencies: Vec<Cycles>,
    /// Graph-static: `(node, latency)` of every data-dependent node
    /// (external class `Data` or `Both`).
    data_nodes: Vec<(NodeId, Cycles)>,
    /// Recycled `node_end` buffers from retired jobs; `submit` reuses them
    /// so the steady-state job lifecycle does not allocate.
    spare_node_end: Vec<Vec<Option<Cycles>>>,
    /// Completion time of the last job in `SerializedGlobal` mode.
    serial_tail: Cycles,
    tracer: Tracer,
}

impl BmoEngine {
    /// Creates an engine over `graph` with `units` BMO units
    /// ([`UnitPool::UNLIMITED`] for the Figure 14 "Unlimited" point).
    pub fn new(graph: DepGraph, mode: BmoMode, units: usize) -> Self {
        let topo = graph.topo_order();
        let node_latencies: Vec<Cycles> = graph.node_ids().map(|n| graph.node(n).latency).collect();
        let data_nodes: Vec<(NodeId, Cycles)> = graph
            .node_ids()
            .filter(|&n| {
                matches!(
                    graph.external_class(n),
                    crate::subop::ExternalClass::Data | crate::subop::ExternalClass::Both
                )
            })
            .map(|n| (n, graph.node(n).latency))
            .collect();
        BmoEngine {
            graph,
            mode,
            pool: UnitPool::new(units),
            jobs: FxHashMap::with_capacity_and_hasher(256, Default::default()),
            next_id: 0,
            topo,
            node_latencies,
            data_nodes,
            spare_node_end: Vec::new(),
            serial_tail: Cycles::ZERO,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: every scheduled sub-operation becomes a span in
    /// its BMO's category, and job lifecycle transitions (decomposed,
    /// deps-ready, invalidated) become `bmo.engine` instants, keyed by
    /// [`JobId::raw`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The dependency graph in use.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The scheduling mode.
    pub fn mode(&self) -> BmoMode {
        self.mode
    }

    /// Creates a job. `addr_at`/`data_at` give the times the external inputs
    /// become available (`None` = not yet known; supply later via
    /// [`Self::provide_addr`]/[`Self::provide_data`]). `dup` marks writes
    /// whose data the dedup BMO will find duplicated (their E3/E4 are
    /// cancelled).
    pub fn submit(
        &mut self,
        submit: Cycles,
        addr_at: Option<Cycles>,
        data_at: Option<Cycles>,
        dup: bool,
    ) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        // Every engine entry point runs at the event loop's monotone
        // current time, so unit-pool windows before this submit are never
        // consulted again. Dropping them is a pop from the ledger's front,
        // which keeps its run as short as the bookings ahead of the clock.
        self.pool.retire_before(submit);
        let submit = if self.mode == BmoMode::SerializedGlobal {
            // One write's BMOs at a time across the controller.
            submit.max(self.serial_tail)
        } else {
            submit
        };
        let node_end = match self.spare_node_end.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(self.graph.len(), None);
                buf
            }
            None => vec![None; self.graph.len()],
        };
        self.jobs.insert(
            id,
            Job {
                submit,
                addr_at: addr_at.map(|t| t.max(submit)),
                data_at: data_at.map(|t| t.max(submit)),
                dup,
                node_end,
                wasted: Cycles::ZERO,
            },
        );
        // Decomposition: the write/pre-request became a sub-op graph
        // instance. `arg` packs the input-availability snapshot.
        self.tracer.instant(
            Category::Engine,
            "job_decomposed",
            submit,
            id,
            u64::from(addr_at.is_some()) | u64::from(data_at.is_some()) << 1 | u64::from(dup) << 2,
        );
        self.schedule(JobId(id));
        if self.mode == BmoMode::SerializedGlobal {
            if let Some(done) = self.completion(JobId(id)) {
                self.serial_tail = self.serial_tail.max(done);
            }
        }
        JobId(id)
    }

    fn job(&self, id: JobId) -> &Job {
        self.jobs.get(&id.0).expect("unknown or retired job")
    }

    fn job_mut(&mut self, id: JobId) -> &mut Job {
        self.jobs.get_mut(&id.0).expect("unknown or retired job")
    }

    /// Supplies the address input at time `t` and schedules newly-ready
    /// sub-operations.
    pub fn provide_addr(&mut self, id: JobId, t: Cycles) {
        let job = self.job_mut(id);
        if job.addr_at.is_none() {
            job.addr_at = Some(t.max(job.submit));
            self.tracer
                .instant(Category::Engine, "deps_ready_addr", t, id.0, 0);
            self.schedule(id);
        }
    }

    /// Supplies the data input at time `t` and schedules newly-ready
    /// sub-operations.
    pub fn provide_data(&mut self, id: JobId, t: Cycles) {
        let job = self.job_mut(id);
        if job.data_at.is_none() {
            job.data_at = Some(t.max(job.submit));
            self.tracer
                .instant(Category::Engine, "deps_ready_data", t, id.0, 0);
            self.schedule(id);
        }
    }

    /// The IRB detected that the actual write's data differs from the
    /// pre-executed data (§4.3.1 case 1): data-dependent sub-operations are
    /// re-executed with the new data available at `now`; address-dependent
    /// results are reused. `dup` is the duplicate outcome under the *new*
    /// data.
    pub fn invalidate_data(&mut self, id: JobId, now: Cycles, dup: bool) {
        let job = self.jobs.get_mut(&id.0).expect("unknown or retired job");
        for &(n, lat) in &self.data_nodes {
            if job.node_end[n.0].take().is_some() {
                job.wasted += lat;
            }
        }
        job.data_at = Some(now);
        job.dup = dup;
        self.tracer
            .instant(Category::Engine, "job_invalidate_data", now, id.0, 0);
        self.schedule(id);
    }

    /// BMO metadata the job depended on changed (§4.3.1 case 2): all results
    /// are stale; everything re-runs from `now`.
    pub fn invalidate_all(&mut self, id: JobId, now: Cycles, dup: bool) {
        let job = self.jobs.get_mut(&id.0).expect("unknown or retired job");
        for (i, &lat) in self.node_latencies.iter().enumerate() {
            if job.node_end[i].take().is_some() {
                job.wasted += lat;
            }
        }
        job.addr_at = Some(now);
        job.data_at = Some(now);
        job.dup = dup;
        self.tracer
            .instant(Category::Engine, "job_invalidate_all", now, id.0, 0);
        self.schedule(id);
    }

    /// Greedy list scheduling: dispatch every node whose inputs and
    /// predecessors are satisfied. Predecessors precede their successors in
    /// `topo`, and input availability cannot change mid-walk, so a single
    /// topological pass schedules everything currently schedulable.
    fn schedule(&mut self, id: JobId) {
        let job = self.jobs.get_mut(&id.0).expect("unknown or retired job");
        let serialized = self.mode != BmoMode::Parallelized;
        // Serialized modes (monolithic execution): the latest end over the
        // live nodes earlier in `topo`, every one of which a node waits for.
        let mut prefix = Cycles::ZERO;
        for &n in &self.topo {
            let op = self.graph.node(n);
            // Cancelled nodes are transparent, to the prefix too — even one
            // an earlier pass ran before the duplicate outcome was known.
            if job.dup && op.skip_if_dup {
                continue;
            }
            if let Some(end) = job.node_end[n.0] {
                prefix = prefix.max(end);
                continue;
            }
            let Some((avail, ready)) = release(&self.graph, job, n) else {
                if serialized {
                    break; // every later node waits for this one
                }
                continue;
            };
            let ready = if serialized { ready.max(prefix) } else { ready };
            let (start, end) = self.pool.acquire_pipelined(ready, op.latency, UNIT_II);
            if self.tracer.causal() {
                // Causal record for janus-prof: when the node's inputs were
                // available vs. when its dependencies released it. The span
                // right after carries (start, end); together they partition
                // the node's time into dep-wait / queueing / service.
                self.tracer.instant_link(
                    Category::Engine,
                    "prof_node",
                    avail,
                    id.0,
                    n.0 as u64,
                    ready.0,
                );
            }
            self.tracer
                .span(op.bmo.category(), op.name, start, end, id.0, op.latency.0);
            job.node_end[n.0] = Some(end);
            prefix = prefix.max(end);
        }
    }

    /// Completion time of the job, if every (non-cancelled) sub-operation
    /// has been scheduled; `None` while inputs are missing.
    pub fn completion(&self, id: JobId) -> Option<Cycles> {
        let job = self.job(id);
        let mut latest = job.submit;
        for n in self.graph.node_ids() {
            let op = self.graph.node(n);
            if job.dup && op.skip_if_dup {
                continue;
            }
            match job.node_end[n.0] {
                Some(t) => latest = latest.max(t),
                None => return None,
            }
        }
        Some(latest)
    }

    /// Completion time of only the sub-operations schedulable so far
    /// (partial pre-execution progress).
    pub fn partial_completion(&self, id: JobId) -> Cycles {
        let job = self.job(id);
        self.graph
            .node_ids()
            .filter_map(|n| job.node_end[n.0])
            .max()
            .unwrap_or(job.submit)
    }

    /// Unit time wasted by invalidations for this job.
    pub fn wasted(&self, id: JobId) -> Cycles {
        self.job(id).wasted
    }

    /// Releases the job's bookkeeping (results consumed by the write),
    /// recycling its buffers for future submissions.
    pub fn retire(&mut self, id: JobId) {
        if let Some(job) = self.jobs.remove(&id.0) {
            if self.spare_node_end.len() < 64 {
                self.spare_node_end.push(job.node_end);
            }
        }
    }

    /// Number of live (un-retired) jobs.
    pub fn live_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// How far into the future the units are booked at `now` — the
    /// admission arbiter drops pre-execution requests when the backlog is
    /// deep (demand writes must not starve behind speculative work).
    pub fn backlog(&self, now: Cycles) -> Cycles {
        self.pool.free_at(now).saturating_sub(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::BmoLatencies;
    use crate::stack::BmoStack;

    fn engine(mode: BmoMode, units: usize) -> BmoEngine {
        BmoEngine::new(BmoStack::paper().graph(&BmoLatencies::paper()), mode, units)
    }

    #[test]
    fn serialized_write_takes_serial_sum() {
        let mut e = engine(BmoMode::Serialized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        assert_eq!(
            e.completion(j),
            Some(BmoLatencies::paper().serialized_total())
        );
    }

    #[test]
    fn parallelized_write_takes_critical_path() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let cp = e.graph().critical_path();
        assert_eq!(e.completion(j), Some(cp));
        assert!(cp < BmoLatencies::paper().serialized_total());
    }

    #[test]
    fn pre_execution_hides_latency() {
        let mut e = engine(BmoMode::Parallelized, 4);
        // Inputs known 3000 cycles before the write arrives.
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let done = e.completion(j).unwrap();
        let arrival = Cycles(3000);
        assert!(
            done <= arrival,
            "BMOs ({done:?}) should finish before the write arrives ({arrival:?})"
        );
    }

    #[test]
    fn staged_inputs_block_dependent_nodes() {
        let mut e = engine(BmoMode::Parallelized, 4);
        // Only data known: D1–D2 can run, but nothing needing the address.
        let j = e.submit(Cycles(0), None, Some(Cycles(0)), false);
        assert_eq!(e.completion(j), None);
        let lat = BmoLatencies::paper();
        // D1 + D2 scheduled.
        assert_eq!(e.partial_completion(j), lat.dedup_hash + lat.dedup_lookup);
        // Provide the address; everything completes.
        e.provide_addr(j, Cycles(100));
        assert!(e.completion(j).is_some());
    }

    #[test]
    fn addr_only_runs_e1_e2() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), None, false);
        let lat = BmoLatencies::paper();
        assert_eq!(e.completion(j), None);
        assert_eq!(e.partial_completion(j), lat.counter_gen + lat.aes);
    }

    #[test]
    fn duplicate_write_skips_encryption_tail() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let tracer = Tracer::new(&janus_trace::TraceConfig::default());
        e.set_tracer(tracer.clone());
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), true);
        let done = e.completion(j).unwrap();
        // Critical path unchanged (I-chain dominates), but E3/E4 never ran:
        // every other sub-operation is traced as a span, those two are not.
        assert!(done <= e.graph().critical_path());
        let mut ran: Vec<&str> = tracer
            .snapshot()
            .iter()
            .filter(|ev| ev.kind == janus_trace::EventKind::Begin)
            .map(|ev| ev.name)
            .collect();
        ran.sort_unstable();
        let mut all: Vec<&str> = e
            .graph()
            .node_ids()
            .map(|n| e.graph().node(n).name)
            .collect();
        all.retain(|name| !["E3", "E4"].contains(name));
        all.sort_unstable();
        assert_eq!(ran, all);
    }

    #[test]
    fn unit_contention_stretches_completion() {
        let mut one = engine(BmoMode::Parallelized, 1);
        let j = one.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        // A single pipelined unit staggers issue by the initiation interval
        // but does not serialize the full latencies.
        let done = one.completion(j).unwrap();
        let cp = one.graph().critical_path();
        assert!(done >= cp, "done={done:?} cp={cp:?}");
        assert!(
            done < BmoLatencies::paper().serialized_total(),
            "pipelining must beat full serialization"
        );
    }

    #[test]
    fn concurrent_jobs_contend_for_units() {
        // Pipelined units absorb a couple of concurrent writes, but a burst
        // beyond the units' issue bandwidth stretches the tail.
        let mut e = engine(BmoMode::Parallelized, 4);
        let first = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let t1 = e.completion(first).unwrap();
        let mut last = t1;
        for _ in 0..63 {
            let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
            last = e.completion(j).unwrap();
        }
        assert!(last > t1, "64-job burst must exceed unit issue bandwidth");
    }

    #[test]
    fn unlimited_units_remove_contention() {
        let mut e = engine(BmoMode::Parallelized, UnitPool::UNLIMITED);
        let cp = e.graph().critical_path();
        for _ in 0..8 {
            let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
            assert_eq!(e.completion(j), Some(cp));
        }
    }

    #[test]
    fn invalidate_data_reruns_data_dependent_nodes() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let before = e.completion(j).unwrap();
        // Actual write arrives at t=5000 with different data.
        e.invalidate_data(j, Cycles(5000), false);
        let after = e.completion(j).unwrap();
        assert!(after > Cycles(5000), "data-dependent ops re-ran");
        assert!(after > before);
        assert!(e.wasted(j) > Cycles::ZERO);
        // The re-run never exceeds a from-scratch run: E1/E2 were reused
        // (the critical path itself runs through the data-dependent chain,
        // so the bound is equality in the standard graph).
        let rerun_latency = after - Cycles(5000);
        assert!(rerun_latency <= e.graph().critical_path());
    }

    #[test]
    fn invalidate_all_reruns_everything() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        e.invalidate_all(j, Cycles(10_000), false);
        let after = e.completion(j).unwrap();
        assert!(after >= Cycles(10_000) + e.graph().critical_path());
        assert_eq!(e.wasted(j), e.graph().serial_sum());
    }

    #[test]
    fn retire_frees_bookkeeping() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        assert_eq!(e.live_jobs(), 1);
        e.retire(j);
        assert_eq!(e.live_jobs(), 0);
    }

    #[test]
    fn serialized_global_processes_one_write_at_a_time() {
        let mut e = engine(BmoMode::SerializedGlobal, 4);
        let serial = BmoLatencies::paper().serialized_total();
        let j1 = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let j2 = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let j3 = e.submit(Cycles(100), Some(Cycles(100)), Some(Cycles(100)), false);
        assert_eq!(e.completion(j1), Some(serial));
        assert_eq!(e.completion(j2), Some(serial * 2));
        assert_eq!(
            e.completion(j3),
            Some(serial * 3),
            "third queues behind both"
        );
    }

    #[test]
    fn serialized_global_idles_between_sparse_writes() {
        let mut e = engine(BmoMode::SerializedGlobal, 4);
        let serial = BmoLatencies::paper().serialized_total();
        let j1 = e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false);
        let late = serial + Cycles(10_000);
        let j2 = e.submit(late, Some(late), Some(late), false);
        assert_eq!(e.completion(j1), Some(serial));
        assert_eq!(
            e.completion(j2),
            Some(late + serial),
            "no queuing when idle"
        );
    }

    #[test]
    fn later_submit_time_shifts_schedule() {
        let mut e = engine(BmoMode::Parallelized, 4);
        let j = e.submit(Cycles(1000), Some(Cycles(0)), Some(Cycles(0)), false);
        // Inputs "available" before submit are clamped to submit.
        assert_eq!(
            e.completion(j),
            Some(Cycles(1000) + e.graph().critical_path())
        );
    }
}
