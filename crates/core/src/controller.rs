//! The memory controller: where BMOs, Janus, the write queue, and the NVM
//! device meet (Figure 7a).
//!
//! The controller owns:
//!
//! * the **functional** BMO pipeline ([`janus_bmo::pipeline::BmoPipeline`]) —
//!   what each write actually does to NVM contents;
//! * the **timing** BMO engine ([`janus_bmo::engine::BmoEngine`]) — when the
//!   corresponding sub-operations complete on the shared BMO units;
//! * the Janus front end: request queue ([`crate::queues`]) and
//!   Intermediate Result Buffer ([`crate::irb`]);
//! * the persistence back end: ADR write queue, banked NVM device, and the
//!   secure Merkle-root register — plus, in crash runs only, the
//!   [`DurabilityLog`] that a crash image folds from;
//! * the counter cache and Merkle Tree cache used on the read path.
//!
//! Every write is processed functionally at arrival (so results never depend
//! on the timing mode) and timed according to the configured
//! [`SystemMode`]: serialized/parallelized writes run their sub-operations
//! at arrival; Janus writes first consult the IRB and reuse, complete, or
//! invalidate pre-executed results; ideal writes skip BMO latency entirely.

use janus_bmo::engine::{BmoEngine, JobId};
use janus_bmo::integrity::NodeHash;
use janus_bmo::pipeline::{BmoPipeline, IntegrityError, DEFAULT_KEY};
use janus_bmo::{BmoId, BmoStack};
use janus_nvm::addr::LineAddr;
use janus_nvm::cache::{CacheConfig, SetAssocCache};
use janus_nvm::device::{AccessKind, NvmDevice};
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;
use janus_nvm::wq::{AdrWriteQueue, DurabilityLog};
use janus_sim::time::Cycles;
use janus_trace::{Category, TraceConfig, Tracer};

use crate::config::{JanusConfig, SystemMode, IRB_MAX_AGE, PRE_ADMISSION_BACKLOG};
use crate::irb::{Irb, IrbEntry, IrbKey};
use crate::queues::{PreRequest, RequestQueue};

/// Result of processing a write at the controller.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// When the write became persistent (accepted into the ADR write
    /// queue) — what an `sfence` waits for.
    pub persist_at: Cycles,
    /// Whether deduplication cancelled the data write.
    pub dup: bool,
}

/// The controller. See module docs.
pub struct MemoryController {
    config: JanusConfig,
    stack: BmoStack,
    engine: BmoEngine,
    pipeline: BmoPipeline,
    irb: Irb,
    req_queue: RequestQueue,
    wq: AdrWriteQueue,
    device: NvmDevice,
    /// Every line each write made durable, stamped at arrival. `Some` only
    /// once a crash entry point of [`crate::system::System`] switched it
    /// on: full runs never read durable state, so they record nothing.
    durability: Option<DurabilityLog>,
    counter_cache: SetAssocCache,
    merkle_cache: SetAssocCache,
    /// Completion times of in-flight pre-execution operations (bounded by
    /// the Pre-execution Operation Queue capacity).
    inflight_ops: Vec<Cycles>,
    /// Values predicted *fresh* by in-flight pre-executions: a later
    /// pre-execution of the same value predicts a duplicate (the hardware
    /// chains in-flight dedup outcomes rather than re-reading stale
    /// metadata).
    pending_fresh: janus_sim::hash::FxHashSet<Line>,
    /// Reused job-id collection buffer for address-bind fan-out.
    job_scratch: Vec<JobId>,
    stats: ControllerStats,
    tracer: Tracer,
    /// Monotonic write uid for causal profiling (`prof_*` events). Only
    /// advanced when the tracer is in causal mode, so plain and disabled
    /// tracing never observe it.
    prof_wuid: u64,
}

/// What the controller counts: one field per event kind, plus the cycle
/// sums behind the mean write and read latencies.
#[derive(Clone, Debug, Default)]
pub struct ControllerStats {
    /// BMO unit cycles spent on pre-executed sub-operations that an
    /// invalidation discarded.
    pub bmo_wasted_cycles: u64,
    /// Janus writes whose pre-executed data was stale (§4.3.1 case 1).
    pub inval_data: u64,
    /// Janus writes whose pre-execution saw metadata change under it
    /// (§4.3.1 case 2) or mispredicted the dedup outcome.
    pub inval_meta: u64,
    /// IRB entries marked stale because a write freed the dedup slot they
    /// predicted.
    pub irb_meta_invalidations: u64,
    /// Dirty metadata-cache victims written back.
    pub meta_evictions: u64,
    /// Demand reads (L2 misses).
    pub nvm_reads: u64,
    /// Janus writes whose BMOs were completely pre-executed (§5.2.2).
    pub pre_full: u64,
    /// Janus writes that found no IRB entry.
    pub pre_miss: u64,
    /// Line operations dropped at admission: the operation queue was full
    /// or the BMO units were congested.
    pub pre_op_dropped: u64,
    /// Line operations admitted to the IRB.
    pub pre_ops_admitted: u64,
    /// Janus writes whose BMOs were partly pre-executed.
    pub pre_partial: u64,
    /// Pre-execution requests dropped by the request queue.
    pub pre_req_dropped: u64,
    /// Writes processed.
    pub writes: u64,
    /// Writes cancelled by deduplication.
    pub writes_dup: u64,
    /// IRB inserts refused: the bank was full, or the thread's partitioned
    /// quota was used up. Reported as `irb.dropped`, not as a counter.
    pub irb_dropped: u64,
    /// IRB entries discarded by the age register (§4.6). Reported as
    /// `irb.expired`, not as a counter.
    pub irb_expired: u64,
    /// Arrival → persistence cycles summed over all writes.
    pub write_latency_sum: u64,
    /// Arrival → data-ready cycles summed over all demand reads.
    pub read_latency_sum: u64,
}

impl ControllerStats {
    /// The nonzero counters as `(name, value)` pairs in name order: the
    /// `mc.*` fields of an exported report and the columns of a metrics
    /// sample. The IRB drop and expiry counts (exported as `irb.*`) and the
    /// latency sums are not counters.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("bmo_wasted_cycles", self.bmo_wasted_cycles),
            ("inval_data", self.inval_data),
            ("inval_meta", self.inval_meta),
            ("irb_meta_invalidations", self.irb_meta_invalidations),
            ("meta_evictions", self.meta_evictions),
            ("nvm_reads", self.nvm_reads),
            ("pre_full", self.pre_full),
            ("pre_miss", self.pre_miss),
            ("pre_op_dropped", self.pre_op_dropped),
            ("pre_ops_admitted", self.pre_ops_admitted),
            ("pre_partial", self.pre_partial),
            ("pre_req_dropped", self.pre_req_dropped),
            ("writes", self.writes),
            ("writes_dup", self.writes_dup),
        ]
        .into_iter()
        .filter(|&(_, v)| v > 0)
    }

    /// Mean critical write latency (arrival → persistence); zero before
    /// the first write.
    pub fn mean_write_latency(&self) -> Cycles {
        Cycles(self.write_latency_sum.checked_div(self.writes).unwrap_or(0))
    }

    /// Mean demand-read latency; zero before the first read.
    pub fn mean_read_latency(&self) -> Cycles {
        Cycles(
            self.read_latency_sum
                .checked_div(self.nvm_reads)
                .unwrap_or(0),
        )
    }
}

impl MemoryController {
    /// Builds the controller for a configuration.
    pub fn new(config: JanusConfig) -> Self {
        let stack = config.stack();
        let graph = stack.graph(&config.latencies);
        let engine = BmoEngine::new(
            graph,
            config.mode.bmo_mode_with(config.serialized_global),
            config.total_bmo_units(),
        );
        let pipeline = BmoPipeline::for_stack(&stack, config.latencies.dedup_algo);
        let mut wq = AdrWriteQueue::new(config.wq_capacity);
        wq.set_coalescing(config.wq_coalescing);
        MemoryController {
            engine,
            irb: Irb::new(config.irb_policy, config.total_irb_entries()),
            req_queue: RequestQueue::new(config.total_req_queue()),
            wq,
            device: NvmDevice::new(config.nvm),
            durability: None,
            counter_cache: SetAssocCache::new(CacheConfig::counter_cache()),
            merkle_cache: SetAssocCache::new(CacheConfig::merkle_cache()),
            inflight_ops: Vec::new(),
            pending_fresh: Default::default(),
            job_scratch: Vec::new(),
            stats: ControllerStats::default(),
            tracer: Tracer::disabled(),
            prof_wuid: 0,
            pipeline,
            stack,
            config,
        }
    }

    /// The BMO stack this controller runs (timing and functional paths both
    /// derive from it).
    pub fn stack(&self) -> &BmoStack {
        &self.stack
    }

    /// Attaches a tracer, sharing its buffer with the BMO engine, the NVM
    /// device, and the ADR write queue (the handle is a cheap clone).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.device.set_tracer(tracer.clone());
        self.wq.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Creates and attaches a tracer in one step; returns the handle for
    /// export.
    pub fn enable_trace(&mut self, config: &TraceConfig) -> Tracer {
        let tracer = Tracer::new(config);
        self.set_tracer(tracer.clone());
        tracer
    }

    /// Creates and attaches a *causal* tracer (profiling mode): in addition
    /// to the plain trace vocabulary, the controller, engine, and write
    /// queue emit `prof_*` link events from which `janus-prof` rebuilds
    /// each write's span DAG. Plain traces are unaffected.
    pub fn enable_profiling(&mut self, config: &TraceConfig) -> Tracer {
        let tracer = Tracer::new_causal(config);
        self.set_tracer(tracer.clone());
        tracer
    }

    /// The attached tracer (disabled unless [`Self::set_tracer`] /
    /// [`Self::enable_trace`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The functional pipeline (for reads and test assertions).
    pub fn pipeline(&self) -> &BmoPipeline {
        &self.pipeline
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The secure non-volatile root register.
    ///
    /// Reads the pipeline's (lazily flushed) Merkle root: the register is a
    /// pure function of the persisted metadata, so materializing it only
    /// when observed keeps the per-write hot path off the root-hash chain
    /// without changing any observable value.
    pub fn secure_root(&self) -> NodeHash {
        self.pipeline.root()
    }

    /// Write-queue stall cycles accumulated (multi-core contention metric).
    pub fn wq_stalls(&self) -> Cycles {
        self.wq.stall_cycles()
    }

    /// NVM device (reads, writes) issued so far.
    pub fn device_stats(&self) -> (u64, u64) {
        self.device.stats()
    }

    /// Same-line writes absorbed by write-queue coalescing.
    pub fn wq_coalesced(&self) -> u64 {
        self.wq.coalesced()
    }

    fn reap_inflight(&mut self, now: Cycles) {
        self.inflight_ops.retain(|&t| t > now);
    }

    // ------------------------------------------------------------------
    // Pre-execution request path
    // ------------------------------------------------------------------

    /// Handles a pre-execution request arriving at `now`: an immediate one
    /// is admitted line by line, a `*_BUF` one waits in the request queue
    /// for its `PRE_START_BUF`.
    pub fn handle_pre_request(&mut self, now: Cycles, req: PreRequest) {
        if !self.config.mode.uses_pre_execution() {
            return; // other designs ignore the hints
        }
        if req.buffered {
            if self.req_queue.push_buffered(req).is_some() {
                self.stats.pre_req_dropped += 1;
            }
            return;
        }
        self.stats.irb_expired += self.irb.expire(now, IRB_MAX_AGE) as u64;
        if !self.req_queue.admit_immediate() {
            self.stats.pre_req_dropped += 1;
            self.tracer
                .instant(Category::Queue, "pre_req_drop", now, req.key.core as u64, 0);
            return;
        }
        self.tracer.instant(
            Category::Queue,
            "pre_req_enqueue",
            now,
            req.key.core as u64,
            req.func.nlines() as u64,
        );
        self.admit_lines(now, &req);
    }

    /// Releases buffered requests for `key` (a `PRE_START_BUF`).
    pub fn handle_pre_start(&mut self, now: Cycles, key: IrbKey) {
        if !self.config.mode.uses_pre_execution() {
            return;
        }
        for req in self.req_queue.start_buffered(key) {
            self.tracer.instant(
                Category::Queue,
                "pre_req_dequeue",
                now,
                req.key.core as u64,
                req.func.nlines() as u64,
            );
            self.admit_lines(now, &req);
        }
    }

    /// Admits each cache-line-sized operation of `req` (one cycle each to
    /// decode — small against BMO latencies, charged as part of the issue
    /// path).
    fn admit_lines(&mut self, now: Cycles, req: &PreRequest) {
        for (line, value) in req.func.lines() {
            self.admit_line(now, req, line, value);
        }
    }

    /// Admits one line of `req`: its address, its value, or both.
    fn admit_line(
        &mut self,
        now: Cycles,
        req: &PreRequest,
        line: Option<LineAddr>,
        value: Option<Line>,
    ) {
        let key = req.key;
        self.reap_inflight(now);
        if self.inflight_ops.len() >= self.config.total_op_queue() {
            self.stats.pre_op_dropped += 1;
            self.tracer
                .instant(Category::Queue, "pre_op_drop", now, key.core as u64, 0);
            return;
        }
        // Congestion-aware admission: when the BMO units are booked far
        // into the future, speculative pre-execution is dropped so demand
        // writes are not starved (dropping is always safe).
        if self.engine.backlog(now) > PRE_ADMISSION_BACKLOG {
            self.stats.pre_op_dropped += 1;
            self.tracer
                .instant(Category::Queue, "pre_op_drop", now, key.core as u64, 1);
            return;
        }

        // The duplicate prediction consults the live dedup metadata *and*
        // values already predicted fresh by in-flight pre-executions (which
        // the matching writes will have inserted by the time this write
        // arrives). A value predicted fresh joins those values here; the
        // consuming write, or an IRB drop below, takes it out.
        let dup_slot = value.as_ref().and_then(|v| self.pipeline.predict_dup(v));
        let predicted_dup = value.map(|v| dup_slot.is_some() || !self.pending_fresh.insert(v));

        // A later PRE_ADDR/PRE_DATA may complete an earlier partial request
        // on the same pre_obj (Figure 8a's PRE_DATA-then-PRE_ADDR pattern,
        // and the reverse).
        match (line, value) {
            (Some(line), None) => {
                // Bind queued data-only entries first.
                let bound = self.irb.bind_addr(key, line, 1);
                if bound > 0 {
                    let mut jobs = std::mem::take(&mut self.job_scratch);
                    jobs.extend(
                        self.irb
                            .entries_for(key)
                            .filter(|e| e.line == Some(line))
                            .map(|e| e.job),
                    );
                    for job in jobs.drain(..) {
                        self.engine.provide_addr(job, now);
                    }
                    self.job_scratch = jobs;
                    return;
                }
            }
            (None, Some(v)) => {
                // Complete the lowest-line address-only entry of this obj,
                // which then holds the value and its prediction like a
                // PRE_BOTH entry.
                if let Some(job) = self.irb.bind_data(key, v, dup_slot, predicted_dup) {
                    self.engine.provide_data(job, now);
                    return;
                }
            }
            _ => {}
        }

        // Fresh entry + engine job.
        let job = self.engine.submit(
            now,
            line.map(|_| now),
            value.map(|_| now),
            predicted_dup.unwrap_or(false),
        );
        let entry = IrbEntry {
            key,
            tx_id: req.tx_id,
            line,
            data: value,
            job,
            created: now,
            predicted_dup_slot: dup_slot,
            predicted_dup,
            stale: false,
        };
        if !self.irb.insert(entry) {
            if let (Some(v), Some(false)) = (value, predicted_dup) {
                self.pending_fresh.remove(&v);
            }
            self.stats.irb_dropped += 1;
            self.engine.retire(job);
            self.tracer
                .instant(Category::Irb, "irb_insert_drop", now, job.raw(), 0);
            return;
        }
        self.tracer.instant(
            Category::Irb,
            "irb_insert",
            now,
            job.raw(),
            line.map_or(u64::MAX, |l| l.0),
        );
        self.inflight_ops.push(self.engine.partial_completion(job));
        self.stats.pre_ops_admitted += 1;
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Processes a write of `data` to logical `line` from `core`, arriving
    /// at the controller at `now`. `commit_critical` marks writes that
    /// immediately mutate crash-consistency status (metadata atomicity is
    /// always enforced for them even under the selective policy).
    pub fn handle_write(
        &mut self,
        now: Cycles,
        core: usize,
        line: LineAddr,
        data: Line,
        commit_critical: bool,
    ) -> WriteOutcome {
        self.stats.writes += 1;

        // Causal profiling: give the write a uid so janus-prof can chain
        // arrival → job → bmo_done → wq accepts → persistence.
        let causal = self.tracer.causal();
        let wuid = if causal {
            self.prof_wuid += 1;
            self.tracer.instant_link(
                Category::Controller,
                "prof_write",
                now,
                self.prof_wuid,
                line.0,
                core as u64,
            );
            self.prof_wuid
        } else {
            0
        };

        // Functional application (timing-mode independent).
        let fx = self.pipeline.write(line, data);
        if fx.dup {
            self.stats.writes_dup += 1;
        }
        // Metadata changed: invalidate dependent pre-execution results.
        if let Some(freed) = fx.freed_slot {
            self.stats.irb_meta_invalidations += self.irb.invalidate_slot_refs(freed) as u64;
        }

        // Timing: the engine job (none in ideal mode, whose BMOs run off
        // the critical path), its raw completion, and when the write's BMOs
        // are done. A Janus write waits at least for the IRB lookup.
        const IRB_LOOKUP: Cycles = Cycles(8); // 2 ns CAM lookup
        let (job, done, bmo_done) = match self.config.mode {
            SystemMode::Ideal => {
                // BMO work still happens (bandwidth) but off the critical
                // path.
                let job = self.engine.submit(now, Some(now), Some(now), fx.dup);
                self.engine.retire(job);
                (None, now, now)
            }
            SystemMode::Serialized | SystemMode::Parallelized => {
                let job = self.engine.submit(now, Some(now), Some(now), fx.dup);
                let done = self
                    .engine
                    .completion(job)
                    .expect("all inputs were supplied");
                self.engine.retire(job);
                (Some(job), done, done)
            }
            SystemMode::Janus => {
                let (job, done) = self.janus_write_timing(now, core, line, data, &fx);
                (Some(job), done, done.max(now + IRB_LOOKUP))
            }
        };
        if causal {
            if let Some(job) = job {
                self.tracer
                    .instant_link(Category::Controller, "prof_job", now, wuid, job.raw(), 0);
            }
            // `arg` carries the raw engine completion.
            self.tracer.instant_link(
                Category::Controller,
                "prof_bmo_done",
                bmo_done,
                wuid,
                done.0,
                0,
            );
        }

        // Persistence. Data (slot) lines always drain through the ADR write
        // queue to the device. Metadata lines (counters/remaps, Merkle
        // nodes, MACs) are absorbed by the write-back counter/Merkle caches
        // and reach the device only as dirty evictions — except for
        // commit-critical writes (and every write when selective metadata
        // atomicity is disabled), whose unreconstructable metadata is
        // flushed with the data (§4.3.2). Functional persistence is atomic
        // per write, stamped at arrival; crash runs log it.
        if let Some(log) = &mut self.durability {
            for (addr, value) in &fx.line_writes {
                log.record(now, *addr, *value);
            }
        }
        let flush_meta = commit_critical || !self.config.selective_atomicity;
        let mut first_accept = None;
        let mut last_accept = bmo_done;
        for (addr, _) in &fx.line_writes {
            let is_meta = addr.0 >= janus_bmo::metadata::META_BASE;
            if is_meta {
                let acc = self.counter_cache.access(*addr, true);
                self.merkle_cache.access(*addr, true);
                // Dirty victim of the metadata cache drains in background.
                if let janus_nvm::cache::Access::Miss { victim: Some(v) } = acc {
                    if v.dirty {
                        self.wq.accept(bmo_done, v.addr, &mut self.device);
                        self.stats.meta_evictions += 1;
                    }
                }
                if !flush_meta {
                    continue;
                }
            }
            let req = last_accept.max(bmo_done);
            let t = self.wq.accept(req, *addr, &mut self.device);
            if causal {
                // One link event per critical-chain acceptance: cycle is the
                // accept time, `link` when it was requested — the gap is the
                // write-queue backpressure on this write's persist chain.
                self.tracer.instant_link(
                    Category::WriteQueue,
                    "prof_wq_accept",
                    t,
                    wuid,
                    addr.0,
                    req.0,
                );
            }
            first_accept.get_or_insert(t);
            last_accept = t;
        }

        let persist_at = if self.config.selective_atomicity && !commit_critical {
            first_accept.unwrap_or(bmo_done).max(bmo_done)
        } else {
            last_accept
        };
        if causal {
            self.tracer.instant_link(
                Category::Controller,
                "prof_persist",
                persist_at,
                wuid,
                fx.dup as u64,
                now.0,
            );
        }
        self.stats.write_latency_sum += persist_at.elapsed_since(now).0;
        // The write's arrival → persistence interval, the latency the paper
        // optimizes. `arg` carries the issuing core.
        self.tracer.span(
            Category::Controller,
            "write",
            now,
            persist_at,
            line.0,
            core as u64,
        );
        if fx.dup {
            self.tracer
                .instant(Category::Controller, "write_dup", now, line.0, core as u64);
        }
        let dup = fx.dup;
        self.pipeline.recycle(fx);
        WriteOutcome { persist_at, dup }
    }

    /// Janus-mode timing for a write: consult the IRB and reuse, finish, or
    /// invalidate pre-executed results. Returns the engine job that timed
    /// the write and its completion.
    fn janus_write_timing(
        &mut self,
        now: Cycles,
        core: usize,
        line: LineAddr,
        data: Line,
        fx: &janus_bmo::pipeline::WriteEffects,
    ) -> (JobId, Cycles) {
        let Some(entry) = self.irb.consume(core, line) else {
            self.stats.pre_miss += 1;
            self.tracer
                .instant(Category::Irb, "irb_miss", now, line.0, core as u64);
            let job = self.engine.submit(now, Some(now), Some(now), fx.dup);
            let done = self.engine.completion(job).expect("inputs supplied");
            self.engine.retire(job);
            return (job, done);
        };
        self.tracer
            .instant(Category::Irb, "irb_hit", now, entry.job.raw(), line.0);

        // Release the in-flight fresh-value prediction.
        if let (Some(v), Some(false)) = (entry.data, entry.predicted_dup) {
            self.pending_fresh.remove(&v);
        }
        let job = entry.job;
        if entry.stale {
            // Metadata under the pre-execution changed (§4.3.1 case 2).
            self.stats.inval_meta += 1;
            self.tracer
                .instant(Category::Irb, "irb_inval_meta", now, job.raw(), line.0);
            self.engine.invalidate_all(job, now, fx.dup);
        } else {
            match entry.data {
                Some(pre_data) if pre_data == data => {
                    // Prediction of the dedup outcome must also still hold.
                    // A chained prediction (duplicate of an in-flight value)
                    // carries no slot; any duplicate outcome satisfies it.
                    if entry.predicted_dup == Some(fx.dup)
                        && (!fx.dup
                            || entry.predicted_dup_slot.is_none()
                            || entry.predicted_dup_slot == Some(fx.slot))
                    {
                        // Clean hit — nothing to re-run.
                    } else {
                        self.stats.inval_meta += 1;
                        self.tracer.instant(
                            Category::Irb,
                            "irb_inval_meta",
                            now,
                            job.raw(),
                            line.0,
                        );
                        self.engine.invalidate_all(job, now, fx.dup);
                    }
                }
                Some(_) => {
                    // Stale data (§4.3.1 case 1): re-run data-dependent
                    // sub-operations, reusing address-dependent ones —
                    // unless the partial-reuse optimization is ablated.
                    self.stats.inval_data += 1;
                    self.tracer
                        .instant(Category::Irb, "irb_inval_data", now, job.raw(), line.0);
                    if self.config.partial_reuse {
                        self.engine.invalidate_data(job, now, fx.dup);
                    } else {
                        self.engine.invalidate_all(job, now, fx.dup);
                    }
                }
                None => {
                    // Address-only pre-execution: supply data now.
                    self.engine.provide_data(job, now);
                }
            }
        }
        if entry.line.is_none() {
            self.engine.provide_addr(job, now);
        }

        let done = self
            .engine
            .completion(job)
            .expect("all inputs supplied by write arrival");
        if done <= now {
            self.stats.pre_full += 1;
            self.tracer
                .instant(Category::Engine, "job_pre_executed", now, job.raw(), line.0);
        } else {
            self.stats.pre_partial += 1;
            self.tracer.instant(
                Category::Engine,
                "job_pre_partial",
                now,
                job.raw(),
                (done - now).0,
            );
        }
        self.stats.bmo_wasted_cycles += self.engine.wasted(job).0;
        self.engine.retire(job);
        self.tracer.instant(
            Category::Engine,
            "job_committed",
            done.max(now),
            job.raw(),
            line.0,
        );
        (job, done)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Times a demand read (L2 miss) of logical `line` arriving at `now`;
    /// returns when the data is available to the core.
    pub fn handle_read(&mut self, now: Cycles, line: LineAddr) -> Cycles {
        self.stats.nvm_reads += 1;
        let lat = &self.config.latencies;

        // Counter/metadata fetch: counter cache hit lets OTP generation
        // overlap the data fetch.
        let meta_line = janus_bmo::metadata::meta_loc_of_logical(line).line;
        let counter_hit = self.counter_cache.access(meta_line, false).is_hit();
        let meta_ready = if counter_hit {
            now
        } else {
            self.device.schedule(now, meta_line, AccessKind::Read)
        };

        // Data fetch (from the mapped frame if any; cold lines read zero
        // without a device access — they have no slot).
        let data_ready = match self.pipeline.data_addr_of(line) {
            Some(addr) => self.device.schedule(meta_ready, addr, AccessKind::Read),
            None => now,
        };

        // Decryption (when stacked): OTP (AES) overlaps the data fetch when
        // the counter was cached; otherwise it starts after the metadata
        // arrives.
        let decrypted = if self.stack.contains(BmoId::Encryption) {
            let otp_ready = meta_ready + lat.aes;
            data_ready.max(otp_ready) + lat.xor
        } else {
            data_ready
        };

        // Integrity verification (when stacked), truncated by the Merkle
        // Tree cache.
        let verified = if !self.stack.contains(BmoId::Integrity) {
            decrypted
        } else if self.merkle_cache.access(meta_line, false).is_hit() {
            decrypted + lat.sha1 // MAC check only
        } else {
            decrypted + lat.sha1 * lat.merkle_levels as u64
        };
        self.stats.read_latency_sum += verified.elapsed_since(now).0;
        self.tracer
            .span(Category::Controller, "read", now, verified, line.0, 0);
        verified
    }

    /// Functional value of a logical line (volatile view).
    pub fn read_value(&self, line: LineAddr) -> Line {
        self.pipeline.read(line)
    }

    // ------------------------------------------------------------------
    // Crash / recovery / maintenance
    // ------------------------------------------------------------------

    /// Starts recording the [`DurabilityLog`] from the next write on.
    pub(crate) fn record_durability(&mut self) {
        self.durability.get_or_insert_with(DurabilityLog::default);
    }

    /// The durability log, if this controller records one.
    #[cfg(test)]
    pub(crate) fn durability_log(&self) -> Option<&DurabilityLog> {
        self.durability.as_ref()
    }

    /// Simulates power loss at `at`: the durable image is the fold of the
    /// log entries stamped at or before `at`; caches, IRB and engine state
    /// are lost. Without a log the image is empty, so the crash entry
    /// points of [`crate::system::System`] switch it on before the first
    /// write. The secure root register is not in the log: read it with
    /// [`Self::secure_root`] at the crash point itself.
    pub(crate) fn crash_image(&self, at: Cycles) -> LineStore {
        self.durability
            .as_ref()
            .map_or_else(LineStore::new, |log| log.image_at(at))
    }

    /// Rebuilds the functional pipeline from a crash's durable image,
    /// verifying integrity (recovery after power loss).
    ///
    /// # Errors
    ///
    /// Propagates the first integrity violation found.
    pub fn recover(
        snapshot: &LineStore,
        config: JanusConfig,
        secure_root: NodeHash,
    ) -> Result<Self, IntegrityError> {
        let pipeline = BmoPipeline::recover_stack(
            &config.stack(),
            snapshot,
            config.latencies.dedup_algo,
            DEFAULT_KEY,
            secure_root,
        )?;
        let mut mc = MemoryController::new(config);
        mc.pipeline = pipeline;
        // The recovered pipeline's root equals the verified register, so
        // `secure_root()` needs no separate restore.
        Ok(mc)
    }

    /// A thread terminated: clear its IRB entries (§4.6).
    pub fn thread_exited(&mut self, core: usize) {
        self.irb.clear_thread(core);
    }

    /// The OS swapped out `[first, first+nlines)`: clear matching IRB
    /// entries (§4.6).
    pub fn range_swapped(&mut self, first: LineAddr, nlines: u64) {
        self.irb.clear_range(first, nlines);
    }

    /// Fraction of Janus writes whose BMOs were completely pre-executed
    /// (§5.2.2 reports 45.13% on average).
    pub fn fully_preexecuted_fraction(&self) -> f64 {
        let s = &self.stats;
        let total = s.pre_full + s.pre_partial + s.pre_miss;
        if total == 0 {
            0.0
        } else {
            s.pre_full as f64 / total as f64
        }
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mode", &self.config.mode)
            .field("irb", &self.irb.len())
            .field("live_jobs", &self.engine.live_jobs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PreFunc;
    use janus_sim::stats::Histogram;

    fn mc(mode: SystemMode) -> MemoryController {
        MemoryController::new(JanusConfig::paper(mode, 1))
    }

    /// A controller that records its durability log, as crash runs do.
    fn logged(config: JanusConfig) -> MemoryController {
        let mut m = MemoryController::new(config);
        m.record_durability();
        m
    }

    /// Power loss after every write so far.
    fn crash(m: &MemoryController) -> (LineStore, NodeHash) {
        (m.crash_image(Cycles::MAX), m.secure_root())
    }

    /// An immediate request from thread 0 for `obj`.
    fn request(obj: u32, func: PreFunc) -> PreRequest {
        PreRequest {
            key: IrbKey {
                core: 0,
                obj: crate::ir::PreObjId(obj),
            },
            tx_id: 0,
            func,
            buffered: false,
        }
    }

    fn pre_both(mcx: &mut MemoryController, now: Cycles, obj: u32, line: u64, data: Line) {
        let line = LineAddr(line);
        let values = vec![data];
        mcx.handle_pre_request(now, request(obj, PreFunc::Both { line, values }));
    }

    #[test]
    fn counters_list_the_nonzero_fields_in_name_order() {
        assert_eq!(ControllerStats::default().counters().count(), 0);
        // Every field set, each counter to its rank in name order: adding a
        // field breaks this literal, and listing it out of order breaks the
        // order check.
        let all = ControllerStats {
            bmo_wasted_cycles: 1,
            inval_data: 2,
            inval_meta: 3,
            irb_meta_invalidations: 4,
            meta_evictions: 5,
            nvm_reads: 6,
            pre_full: 7,
            pre_miss: 8,
            pre_op_dropped: 9,
            pre_ops_admitted: 10,
            pre_partial: 11,
            pre_req_dropped: 12,
            writes: 13,
            writes_dup: 14,
            irb_dropped: 15,
            irb_expired: 16,
            write_latency_sum: 17,
            read_latency_sum: 18,
        };
        let names: Vec<&str> = all.counters().map(|(n, _)| n).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        let values: Vec<u64> = all.counters().map(|(_, v)| v).collect();
        assert_eq!(values, (1..=14).collect::<Vec<u64>>(), "{names:?}");
        let some = ControllerStats {
            writes: 3,
            pre_miss: 1,
            ..ControllerStats::default()
        };
        assert_eq!(
            some.counters().collect::<Vec<_>>(),
            vec![("pre_miss", 1), ("writes", 3)]
        );
    }

    #[test]
    fn mean_latencies_divide_sums_by_counts() {
        let m = mc(SystemMode::Serialized);
        assert_eq!(m.stats().mean_write_latency(), Cycles::ZERO);
        assert_eq!(m.stats().mean_read_latency(), Cycles::ZERO);
        let s = ControllerStats {
            writes: 4,
            write_latency_sum: 1003,
            nvm_reads: 3,
            read_latency_sum: 300,
            ..ControllerStats::default()
        };
        assert_eq!(s.mean_write_latency(), Cycles(250), "truncates");
        assert_eq!(s.mean_read_latency(), Cycles(100));
        // The controller sums what each write and read took.
        let mut m = mc(SystemMode::Serialized);
        let (mut writes, mut reads) = (Histogram::new(), Histogram::new());
        for i in 0..5u64 {
            let now = Cycles(i * 7_000);
            let out = m.handle_write(now, 0, LineAddr(i), Line::splat(i as u8 + 1), i % 2 == 0);
            writes.record(out.persist_at.elapsed_since(now));
            let at = now + Cycles(3_000);
            reads.record(m.handle_read(at, LineAddr(i)).elapsed_since(at));
        }
        assert_eq!(Some(m.stats().mean_write_latency()), writes.mean());
        assert_eq!(Some(m.stats().mean_read_latency()), reads.mean());
        assert_eq!((m.stats().writes, m.stats().nvm_reads), (5, 5));
    }

    #[test]
    fn serialized_write_latency_is_serial_sum() {
        let mut m = mc(SystemMode::Serialized);
        let out = m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        let serial = m.config.latencies.serialized_total();
        assert!(out.persist_at >= serial);
        assert!(out.persist_at < serial + Cycles::from_ns(50));
    }

    #[test]
    fn parallelized_is_faster_than_serialized() {
        let mut s = mc(SystemMode::Serialized);
        let mut p = mc(SystemMode::Parallelized);
        let a = s.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        let b = p.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        assert!(b.persist_at < a.persist_at);
    }

    #[test]
    fn ideal_write_persists_immediately() {
        let mut m = mc(SystemMode::Ideal);
        let out = m.handle_write(Cycles(100), 0, LineAddr(1), Line::splat(1), false);
        assert_eq!(out.persist_at, Cycles(100));
    }

    #[test]
    fn janus_pre_executed_write_is_fast() {
        let mut m = mc(SystemMode::Janus);
        pre_both(&mut m, Cycles(0), 1, 5, Line::splat(9));
        // Write arrives long after pre-execution completes.
        let out = m.handle_write(Cycles(20_000), 0, LineAddr(5), Line::splat(9), false);
        assert!(
            out.persist_at <= Cycles(20_000) + Cycles(16),
            "persist_at = {:?}",
            out.persist_at
        );
        assert_eq!(m.stats().pre_full, 1);
        assert!((m.fully_preexecuted_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn janus_without_pre_request_pays_parallelized_latency() {
        let mut m = mc(SystemMode::Janus);
        let out = m.handle_write(Cycles(0), 0, LineAddr(5), Line::splat(9), false);
        let cp = BmoStack::paper().graph(&m.config.latencies).critical_path();
        assert!(out.persist_at >= cp);
        assert_eq!(m.stats().pre_miss, 1);
    }

    #[test]
    fn stale_data_triggers_partial_rerun() {
        let mut m = mc(SystemMode::Janus);
        pre_both(&mut m, Cycles(0), 1, 5, Line::splat(1));
        // Actual write has different data.
        let out = m.handle_write(Cycles(20_000), 0, LineAddr(5), Line::splat(2), false);
        assert_eq!(m.stats().inval_data, 1);
        // Re-ran data-dependent chain (D1→…) from arrival.
        assert!(out.persist_at > Cycles(20_000) + Cycles::from_ns(300));
        // Functional result is the *write's* data, not the stale one.
        assert_eq!(m.read_value(LineAddr(5)), Line::splat(2));
    }

    #[test]
    fn freed_slot_invalidate_metadata_dependents() {
        let mut m = mc(SystemMode::Janus);
        // Line 1 holds value A (slot s).
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(0xA), false);
        // Pre-execute a write of value A to line 2 — predicted duplicate of
        // slot s.
        pre_both(&mut m, Cycles(10_000), 1, 2, Line::splat(0xA));
        // Overwrite line 1 — frees slot s, invalidating the prediction.
        m.handle_write(Cycles(20_000), 0, LineAddr(1), Line::splat(0xB), false);
        assert_eq!(m.stats().irb_meta_invalidations, 1);
        // The write to line 2 arrives; stale entry forces a full re-run but
        // functional content stays correct.
        let out = m.handle_write(Cycles(30_000), 0, LineAddr(2), Line::splat(0xA), false);
        assert_eq!(m.stats().inval_meta, 1);
        assert!(out.persist_at > Cycles(30_000));
        assert_eq!(m.read_value(LineAddr(2)), Line::splat(0xA));
    }

    #[test]
    fn functional_results_identical_across_modes() {
        let writes: Vec<(u64, Line)> = (0..40)
            .map(|i| (i % 11, Line::from_words(&[i % 5, i])))
            .collect();
        let mut reference: Option<Vec<Line>> = None;
        for mode in [
            SystemMode::Serialized,
            SystemMode::Parallelized,
            SystemMode::Janus,
            SystemMode::Ideal,
        ] {
            let mut m = mc(mode);
            let mut t = Cycles(0);
            for (l, d) in &writes {
                if mode == SystemMode::Janus {
                    pre_both(&mut m, t, *l as u32 + 1000, *l, *d);
                }
                t += Cycles(5000);
                m.handle_write(t, 0, LineAddr(*l), *d, false);
            }
            let values: Vec<Line> = (0..11).map(|i| m.read_value(LineAddr(i))).collect();
            match &reference {
                None => reference = Some(values),
                Some(r) => assert_eq!(r, &values, "mode {mode} diverged"),
            }
        }
    }

    #[test]
    fn crash_and_recover_round_trip() {
        let mut m = logged(JanusConfig::paper(SystemMode::Janus, 1));
        for i in 0..10u64 {
            m.handle_write(
                Cycles(i * 10_000),
                0,
                LineAddr(i),
                Line::from_words(&[i]),
                true,
            );
        }
        let (snapshot, root) = crash(&m);
        let r =
            MemoryController::recover(&snapshot, JanusConfig::paper(SystemMode::Janus, 1), root)
                .expect("recovery succeeds");
        for i in 0..10u64 {
            assert_eq!(r.read_value(LineAddr(i)), Line::from_words(&[i]));
        }
    }

    #[test]
    fn crash_images_fold_the_log_at_the_crash_cycle() {
        let mut m = logged(JanusConfig::paper(SystemMode::Serialized, 1));
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), true);
        let at_first = m.crash_image(Cycles(0));
        m.handle_write(Cycles(50_000), 0, LineAddr(2), Line::splat(2), true);
        assert!(m.durability_log().is_some_and(|log| log.len() >= 2));
        assert!(m.crash_image(Cycles(0)).same_contents(&at_first));
        assert!(!m.crash_image(Cycles(50_000)).same_contents(&at_first));
        assert!(m.crash_image(Cycles(49_999)).same_contents(&at_first));
    }

    #[test]
    fn an_unlogged_controller_records_nothing_and_never_panics() {
        let mut m = mc(SystemMode::Janus);
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), true);
        assert!(m.durability_log().is_none());
        assert!(m.crash_image(Cycles::MAX).is_empty());
    }

    #[test]
    fn read_path_charges_device_latency_when_cold() {
        let mut m = logged(JanusConfig::paper(SystemMode::Janus, 1));
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        // Cold caches: a fresh controller reading the recovered state.
        let (snapshot, root) = crash(&m);
        let mut r =
            MemoryController::recover(&snapshot, JanusConfig::paper(SystemMode::Janus, 1), root)
                .unwrap();
        let t = r.handle_read(Cycles(1_000_000), LineAddr(1));
        assert!(
            t > Cycles(1_000_000) + Cycles::from_ns(63),
            "device read charged"
        );
        // Warm second read is cheaper.
        let t2 = r.handle_read(t, LineAddr(1));
        assert!(t2 - t < t - Cycles(1_000_000));
    }

    #[test]
    fn pre_requests_ignored_off_janus() {
        let mut m = mc(SystemMode::Serialized);
        pre_both(&mut m, Cycles(0), 1, 5, Line::splat(9));
        assert_eq!(m.stats().pre_ops_admitted, 0);
        assert_eq!(m.irb.len(), 0);
    }

    #[test]
    fn dup_write_outcome_flag() {
        let mut m = mc(SystemMode::Serialized);
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(7), false);
        let out = m.handle_write(Cycles(50_000), 0, LineAddr(2), Line::splat(7), false);
        assert!(out.dup);
        assert_eq!(m.stats().writes_dup, 1);
    }

    #[test]
    fn addr_then_data_requests_merge() {
        let mut m = mc(SystemMode::Janus);
        let (line, nlines) = (LineAddr(5), 1);
        m.handle_pre_request(Cycles(0), request(1, PreFunc::Addr { line, nlines }));
        let values = vec![Line::splat(3)];
        m.handle_pre_request(Cycles(1_000), request(1, PreFunc::Data { values }));
        // One IRB entry, and the write consumes it.
        assert_eq!(m.stats().pre_ops_admitted, 1);
        assert_eq!(m.irb.len(), 1);
        let out = m.handle_write(Cycles(30_000), 0, LineAddr(5), Line::splat(3), false);
        assert!(out.persist_at <= Cycles(30_016));
        assert!(m.irb.is_empty());
        assert_eq!(m.stats().pre_full, 1);
    }

    #[test]
    fn non_default_stack_runs_end_to_end() {
        // Encryption-only stack: no integrity, no dedup; reads skip the
        // Merkle verification latency and writes never dedup.
        let mut config = JanusConfig::paper(SystemMode::Janus, 1);
        config.bmo_stack = BmoStack::parse("enc").unwrap().members().to_vec();
        let mut m = logged(config.clone());
        m.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(7), true);
        let out = m.handle_write(Cycles(50_000), 0, LineAddr(2), Line::splat(7), true);
        assert!(!out.dup, "no dedup BMO stacked");
        let (snapshot, root) = crash(&m);
        assert_eq!(root, [0u8; 20], "no Merkle tree without integrity");
        let r = MemoryController::recover(&snapshot, config, root).expect("recovery");
        assert_eq!(r.read_value(LineAddr(1)), Line::splat(7));
        assert_eq!(r.read_value(LineAddr(2)), Line::splat(7));
    }

    #[test]
    fn stackless_reads_skip_bmo_latency() {
        let mut full = mc(SystemMode::Janus);
        let mut config = JanusConfig::paper(SystemMode::Janus, 1);
        config.bmo_stack = Vec::new();
        let mut bare = MemoryController::new(config);
        full.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        bare.handle_write(Cycles(0), 0, LineAddr(1), Line::splat(1), false);
        let t_full = full.handle_read(Cycles(1_000_000), LineAddr(1));
        let t_bare = bare.handle_read(Cycles(1_000_000), LineAddr(1));
        assert!(t_bare < t_full, "no decrypt/verify latency without BMOs");
    }

    #[test]
    fn thread_exit_clears_entries() {
        let mut m = mc(SystemMode::Janus);
        pre_both(&mut m, Cycles(0), 1, 5, Line::splat(9));
        m.thread_exited(0);
        // Write misses the IRB now.
        m.handle_write(Cycles(10_000), 0, LineAddr(5), Line::splat(9), false);
        assert_eq!(m.stats().pre_miss, 1);
    }
}
