//! Trace-stream replay: per-write causal chains and cycle accounting.

use std::collections::BTreeMap;
use std::fmt;

use janus_bmo::subop::DepGraph;
use janus_sim::hash::FxHashMap;
use janus_sim::time::Cycles;
use janus_trace::{EventKind, TraceEvent};

/// Why a profile could not be built from a trace stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// The ring buffer wrapped: `n` events were lost, so causal chains
    /// would be silently truncated. Re-run with a larger trace capacity.
    Dropped(u64),
    /// The stream contains no `prof_*` events — the tracer was not in
    /// causal mode (see `System::enable_profiling`).
    NoCausalEvents,
    /// The causal-event grammar was violated (a corrupted or hand-edited
    /// stream); the message names the first offending event.
    Malformed(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Dropped(n) => write!(
                f,
                "{n} events dropped by ring wraparound; raise the trace capacity to profile"
            ),
            ProfileError::NoCausalEvents => {
                write!(f, "no prof_* events in stream (tracer not in causal mode)")
            }
            ProfileError::Malformed(msg) => write!(f, "malformed causal stream: {msg}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Classification of one segment of a write's blocked interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegKind {
    /// A unit was doing this write's work.
    Service,
    /// Waiting for a busy unit (BMO pipelining) or for write-queue
    /// backpressure (NVM banks draining too slowly).
    Queue,
    /// Waiting for operands, predecessors, or serialization order.
    DepWait,
}

impl SegKind {
    /// Stable lowercase tag used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SegKind::Service => "service",
            SegKind::Queue => "queue",
            SegKind::DepWait => "dep-wait",
        }
    }
}

/// One contiguous, exclusively-attributed slice of a write's
/// `[arrival, persist]` interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The resource the cycles are charged to (`"bmo.integrity"`,
    /// `"controller.irb"`, `"wq"`, …).
    pub resource: &'static str,
    /// Finer label: the sub-operation name, `"lookup"`, `"accept"`, ….
    pub label: &'static str,
    /// Service, queueing, or dependency wait.
    pub kind: SegKind,
    /// Segment start (inclusive).
    pub from: Cycles,
    /// Segment end (exclusive).
    pub to: Cycles,
}

impl Segment {
    /// Segment duration in cycles.
    pub fn dur(&self) -> u64 {
        self.to.0 - self.from.0
    }
}

/// One final scheduled instance of a sub-operation node within a job.
#[derive(Clone, Copy, Debug)]
struct NodeInst {
    avail: Cycles,
    ready: Cycles,
    start: Cycles,
    end: Cycles,
}

/// Write-latency tail summary for one tenant (or one core, in closed-loop
/// runs) — see [`Profile::tenant_tails`]. All latencies in cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantTail {
    /// Number of profiled writes the tenant issued.
    pub writes: u64,
    /// Mean write latency.
    pub mean: u64,
    /// Median write latency (nearest rank).
    pub p50: u64,
    /// 99th-percentile write latency (nearest rank).
    pub p99: u64,
    /// 99.9th-percentile write latency (nearest rank).
    pub p999: u64,
    /// Worst write latency.
    pub max: u64,
}

/// One write's reconstructed causal profile.
#[derive(Clone, Debug)]
pub struct WriteProfile {
    /// Causal uid assigned by the controller (1-based, arrival order).
    pub wuid: u64,
    /// Issuing core.
    pub core: u64,
    /// Logical line address written.
    pub line: u64,
    /// The BMO engine job that timed this write, if any (`None` under
    /// ideal timing).
    pub job: Option<u64>,
    /// Arrival at the controller.
    pub arrive: Cycles,
    /// Raw BMO engine completion (may precede `arrive` when the write was
    /// fully pre-executed).
    pub engine_done: Cycles,
    /// BMO phase end as the controller saw it (engine completion floored
    /// at the IRB lookup under Janus timing).
    pub bmo_done: Cycles,
    /// When the write became persistent.
    pub persist: Cycles,
    /// Whether deduplication cancelled the data write.
    pub dup: bool,
    /// The causal chain: contiguous segments partitioning
    /// `[arrive, persist]`, in chronological order.
    pub chain: Vec<Segment>,
}

impl WriteProfile {
    /// The write's blocked latency, `persist - arrive`.
    pub fn latency(&self) -> u64 {
        self.persist.0 - self.arrive.0
    }

    /// The measured BMO critical path: how long the engine kept this write
    /// blocked past arrival. On the default stack under parallelized
    /// timing with an idle engine this is exactly the `DepGraph` critical
    /// path (2764 cycles).
    pub fn bmo_critical_path(&self) -> u64 {
        self.engine_done.0.saturating_sub(self.arrive.0)
    }
}

/// Per-resource cycle attribution (sums over chain segments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Cycles the resource spent servicing writes on their critical chains.
    pub service: u64,
    /// Cycles writes queued for the resource.
    pub queue: u64,
    /// Cycles writes waited on dependencies at the resource.
    pub dep_wait: u64,
}

impl Attribution {
    /// All attributed cycles.
    pub fn total(&self) -> u64 {
        self.service + self.queue + self.dep_wait
    }
}

struct PendingWrite {
    arrive: Cycles,
    core: u64,
    line: u64,
    job: Option<u64>,
    engine_done: Option<Cycles>,
    bmo_done: Option<Cycles>,
    accepts: Vec<(Cycles, Cycles, u64)>, // (requested, accepted, addr)
    persist: Option<Cycles>,
    dup: bool,
}

/// A built profile. See [`crate`] docs for the model.
#[derive(Clone, Debug)]
pub struct Profile {
    writes: Vec<WriteProfile>,
    accounting: BTreeMap<&'static str, Attribution>,
    /// Final node instances per job, indexed by node id.
    nodes_by_job: FxHashMap<u64, Vec<Option<NodeInst>>>,
    node_names: Vec<&'static str>,
    node_succs: Vec<Vec<usize>>,
    /// Busy cycles per span category across the whole stream (not just
    /// critical chains) — utilization, including the NVM banks.
    busy: BTreeMap<&'static str, u64>,
    span: (Cycles, Cycles),
}

/// Resource name for the engine itself (dependency/serialization waits
/// that no single BMO owns).
const RES_ENGINE: &str = "bmo.engine";
/// Resource name for the controller front-end (IRB CAM lookup).
const RES_IRB: &str = "controller.irb";
/// Resource name for the ADR write queue.
const RES_WQ: &str = "wq";

impl Profile {
    /// Replays a causal trace snapshot into a profile.
    ///
    /// `graph` must be the `DepGraph` of the run's BMO stack (node indices
    /// in `prof_node` events refer to it).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Dropped`] if the ring lost events,
    /// [`ProfileError::NoCausalEvents`] for a non-causal stream, and
    /// [`ProfileError::Malformed`] if the causal grammar is violated.
    pub fn build(
        events: &[TraceEvent],
        dropped: u64,
        graph: &DepGraph,
    ) -> Result<Profile, ProfileError> {
        if dropped > 0 {
            return Err(ProfileError::Dropped(dropped));
        }
        let node_names: Vec<&'static str> = graph.node_ids().map(|n| graph.node(n).name).collect();
        let node_res: Vec<&'static str> = graph
            .node_ids()
            .map(|n| graph.node(n).bmo.category().as_str())
            .collect();
        let node_succs: Vec<Vec<usize>> = graph
            .node_ids()
            .map(|n| graph.succs(n).iter().map(|s| s.0).collect())
            .collect();

        let mut nodes_by_job: FxHashMap<u64, Vec<Option<NodeInst>>> = Default::default();
        let mut pending: BTreeMap<u64, PendingWrite> = BTreeMap::new();
        let mut busy: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut open_spans: FxHashMap<(&'static str, u64, &'static str), Vec<Cycles>> =
            Default::default();
        let mut lo = Cycles(u64::MAX);
        let mut hi = Cycles(0);

        let mut i = 0;
        while i < events.len() {
            let ev = &events[i];
            lo = lo.min(ev.cycle);
            hi = hi.max(ev.cycle);
            match ev.kind {
                EventKind::Begin => {
                    open_spans
                        .entry((ev.name, ev.id, ev.cat.as_str()))
                        .or_default()
                        .push(ev.cycle);
                }
                EventKind::End => {
                    if let Some(starts) = open_spans.get_mut(&(ev.name, ev.id, ev.cat.as_str())) {
                        if !starts.is_empty() {
                            let s = starts.remove(0);
                            *busy.entry(ev.cat.as_str()).or_default() +=
                                ev.cycle.0.saturating_sub(s.0);
                        }
                    }
                }
                EventKind::Instant => match ev.name {
                    "prof_node" => {
                        let job = ev.id;
                        let node = ev.arg as usize;
                        if node >= node_names.len() {
                            return Err(ProfileError::Malformed(format!(
                                "prof_node references node {node} outside the {}-node graph",
                                node_names.len()
                            )));
                        }
                        // The engine emits the node's span immediately after
                        // its prof_node instant; hold it to the grammar.
                        let (b, e) = match (events.get(i + 1), events.get(i + 2)) {
                            (Some(b), Some(e))
                                if b.kind == EventKind::Begin
                                    && e.kind == EventKind::End
                                    && b.id == job
                                    && e.id == job
                                    && b.name == node_names[node]
                                    && e.name == b.name =>
                            {
                                (b, e)
                            }
                            _ => {
                                return Err(ProfileError::Malformed(format!(
                                    "prof_node for job {job} node {node} not followed by its \
                                     {} span",
                                    node_names[node]
                                )))
                            }
                        };
                        let insts = nodes_by_job
                            .entry(job)
                            .or_insert_with(|| vec![None; node_names.len()]);
                        // Re-runs (IRB invalidations) overwrite: the last
                        // schedule is the one the completion time reflects.
                        insts[node] = Some(NodeInst {
                            avail: ev.cycle,
                            ready: Cycles(ev.link),
                            start: b.cycle,
                            end: e.cycle,
                        });
                    }
                    "prof_write" => {
                        pending.insert(
                            ev.id,
                            PendingWrite {
                                arrive: ev.cycle,
                                core: ev.link,
                                line: ev.arg,
                                job: None,
                                engine_done: None,
                                bmo_done: None,
                                accepts: Vec::new(),
                                persist: None,
                                dup: false,
                            },
                        );
                    }
                    "prof_job" => {
                        let w = pending.get_mut(&ev.id).ok_or_else(|| {
                            ProfileError::Malformed(format!("prof_job for unknown write {}", ev.id))
                        })?;
                        w.job = Some(ev.arg);
                    }
                    "prof_bmo_done" => {
                        let w = pending.get_mut(&ev.id).ok_or_else(|| {
                            ProfileError::Malformed(format!(
                                "prof_bmo_done for unknown write {}",
                                ev.id
                            ))
                        })?;
                        w.bmo_done = Some(ev.cycle);
                        w.engine_done = Some(Cycles(ev.arg));
                    }
                    "prof_wq_accept" => {
                        let w = pending.get_mut(&ev.id).ok_or_else(|| {
                            ProfileError::Malformed(format!(
                                "prof_wq_accept for unknown write {}",
                                ev.id
                            ))
                        })?;
                        w.accepts.push((Cycles(ev.link), ev.cycle, ev.arg));
                    }
                    "prof_persist" => {
                        let w = pending.get_mut(&ev.id).ok_or_else(|| {
                            ProfileError::Malformed(format!(
                                "prof_persist for unknown write {}",
                                ev.id
                            ))
                        })?;
                        w.persist = Some(ev.cycle);
                        w.dup = ev.arg != 0;
                    }
                    _ => {}
                },
                EventKind::Counter => {}
            }
            i += 1;
        }

        if pending.is_empty() {
            return Err(ProfileError::NoCausalEvents);
        }

        let mut writes = Vec::with_capacity(pending.len());
        let mut accounting: BTreeMap<&'static str, Attribution> = BTreeMap::new();
        for (wuid, w) in pending {
            let (Some(bmo_done), Some(engine_done), Some(persist)) =
                (w.bmo_done, w.engine_done, w.persist)
            else {
                return Err(ProfileError::Malformed(format!(
                    "write {wuid} has no complete arrival→persist record (truncated run?)"
                )));
            };
            let chain = build_chain(
                &w,
                bmo_done,
                engine_done,
                persist,
                &nodes_by_job,
                &node_names,
                &node_res,
            )?;
            let total: u64 = chain.iter().map(Segment::dur).sum();
            if total != persist.0 - w.arrive.0 {
                return Err(ProfileError::Malformed(format!(
                    "write {wuid}: chain covers {total} of {} blocked cycles",
                    persist.0 - w.arrive.0
                )));
            }
            for s in &chain {
                let a = accounting.entry(s.resource).or_default();
                match s.kind {
                    SegKind::Service => a.service += s.dur(),
                    SegKind::Queue => a.queue += s.dur(),
                    SegKind::DepWait => a.dep_wait += s.dur(),
                }
            }
            writes.push(WriteProfile {
                wuid,
                core: w.core,
                line: w.line,
                job: w.job,
                arrive: w.arrive,
                engine_done,
                bmo_done,
                persist,
                dup: w.dup,
                chain,
            });
        }

        if lo > hi {
            lo = Cycles(0);
            hi = Cycles(0);
        }
        Ok(Profile {
            writes,
            accounting,
            nodes_by_job,
            node_names,
            node_succs,
            busy,
            span: (lo, hi),
        })
    }

    /// The profiled writes, in arrival (uid) order.
    pub fn writes(&self) -> &[WriteProfile] {
        &self.writes
    }

    /// Per-resource attribution, name-ordered.
    pub fn accounting(&self) -> &BTreeMap<&'static str, Attribution> {
        &self.accounting
    }

    /// Sum of all writes' blocked intervals.
    pub fn total_cycles(&self) -> u64 {
        self.writes.iter().map(WriteProfile::latency).sum()
    }

    /// Sum of all attributed segments. Equal to [`Profile::total_cycles`]
    /// by construction — the identity the tests pin.
    pub fn attributed_cycles(&self) -> u64 {
        self.accounting.values().map(Attribution::total).sum()
    }

    /// Exact order statistic of write latency (`q` in (0, 1]). Integer
    /// (nearest-rank) on the sorted latencies, so it is deterministic and
    /// names an actual write's latency.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range");
        let mut lat: Vec<u64> = self.writes.iter().map(WriteProfile::latency).collect();
        lat.sort_unstable();
        let rank = ((lat.len() as f64) * q).ceil().max(1.0) as usize;
        lat[rank - 1]
    }

    /// Per-tenant write tail latency: writes grouped by issuing thread
    /// ([`WriteProfile::core`], which carries the tenant id under the
    /// multi-tenant open-loop front end and the physical core id in
    /// closed-loop runs). Nearest-rank quantiles over each group's sorted
    /// latencies; groups are id-ordered, so the result is deterministic.
    pub fn tenant_tails(&self) -> BTreeMap<u64, TenantTail> {
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for w in &self.writes {
            groups.entry(w.core).or_default().push(w.latency());
        }
        groups
            .into_iter()
            .map(|(tenant, mut lat)| {
                lat.sort_unstable();
                let rank = |q: f64| {
                    let r = ((lat.len() as f64) * q).ceil().max(1.0) as usize;
                    lat[r - 1]
                };
                let tail = TenantTail {
                    writes: lat.len() as u64,
                    mean: lat.iter().sum::<u64>() / lat.len() as u64,
                    p50: rank(0.50),
                    p99: rank(0.99),
                    p999: rank(0.999),
                    max: *lat.last().expect("group is nonempty"),
                };
                (tenant, tail)
            })
            .collect()
    }

    /// Tail-latency blame: total chain cycles per resource over the writes
    /// with latency ≥ the `q` quantile, ranked by cycles (desc), then name.
    /// Returns `(threshold, tail write count, ranking)`.
    pub fn blame(&self, q: f64) -> (u64, usize, Vec<(&'static str, u64)>) {
        let threshold = self.latency_quantile(q);
        let mut per: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut n = 0;
        for w in &self.writes {
            if w.latency() >= threshold {
                n += 1;
                for s in &w.chain {
                    *per.entry(s.resource).or_default() += s.dur();
                }
            }
        }
        let mut ranked: Vec<(&'static str, u64)> = per.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        (threshold, n, ranked)
    }

    /// Folded flamegraph stacks (`frame;frame;frame cycles`), name-ordered.
    /// Service segments fold to `write;resource;label`; queueing and
    /// dependency waits gain a trailing kind frame.
    pub fn folded(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for w in &self.writes {
            for s in &w.chain {
                if s.dur() == 0 {
                    continue;
                }
                let key = match s.kind {
                    SegKind::Service => format!("write;{};{}", s.resource, s.label),
                    k => format!("write;{};{};{}", s.resource, s.label, k.as_str()),
                };
                *out.entry(key).or_default() += s.dur();
            }
        }
        out
    }

    /// The longest write (ties: earliest). Its chain is the run's measured
    /// end-to-end critical path.
    pub fn critical_write(&self) -> Option<&WriteProfile> {
        self.writes
            .iter()
            .max_by(|a, b| a.latency().cmp(&b.latency()).then(b.wuid.cmp(&a.wuid)))
    }

    /// Per-node slack for a write's job: how many cycles each scheduled
    /// sub-operation could have slipped without delaying the engine
    /// completion, given the measured schedule (`latest finish − end`;
    /// nodes on the measured critical path have zero slack). `None` if the
    /// write has no job or the job scheduled no nodes. Entries are in node
    /// order.
    pub fn node_slack(&self, w: &WriteProfile) -> Option<Vec<(&'static str, u64)>> {
        let insts = self.nodes_by_job.get(&w.job?)?;
        if insts.iter().all(Option::is_none) {
            return None;
        }
        let n = insts.len();
        // Latest finish: min over scheduled successors' starts; sinks (or
        // nodes whose successors were all skipped) bound by completion.
        let mut lf = vec![w.engine_done; n];
        for i in 0..n {
            if insts[i].is_none() {
                continue;
            }
            for &s in &self.node_succs[i] {
                if let Some(si) = insts[s] {
                    lf[i] = lf[i].min(si.start);
                }
            }
        }
        Some(
            (0..n)
                .filter_map(|i| {
                    insts[i].map(|inst| (self.node_names[i], lf[i].0.saturating_sub(inst.end.0)))
                })
                .collect(),
        )
    }

    /// Busy cycles per span category over the whole stream (every span,
    /// not just critical chains) plus the stream's cycle extent — the raw
    /// material for utilization: `busy / extent` can exceed 1 for banked
    /// resources like the NVM array.
    pub fn utilization(&self) -> (&BTreeMap<&'static str, u64>, u64) {
        (&self.busy, self.span.1 .0 - self.span.0 .0)
    }
}

/// Builds one write's causal chain (see module docs for the invariants).
fn build_chain(
    w: &PendingWrite,
    bmo_done: Cycles,
    engine_done: Cycles,
    persist: Cycles,
    nodes_by_job: &FxHashMap<u64, Vec<Option<NodeInst>>>,
    node_names: &[&'static str],
    node_res: &[&'static str],
) -> Result<Vec<Segment>, ProfileError> {
    let arrive = w.arrive;
    let mut segs: Vec<Segment> = Vec::new();

    // --- BMO / IRB phase: [arrive, bmo_done] -------------------------------
    let insts = w.job.and_then(|j| nodes_by_job.get(&j));
    if bmo_done > arrive {
        // IRB-lookup tail: the part of the phase past the raw engine
        // completion (the whole phase, when the engine pre-executed).
        let irb_from = engine_done.max(arrive);
        if bmo_done > irb_from {
            segs.push(Segment {
                resource: RES_IRB,
                label: "lookup",
                kind: SegKind::Service,
                from: irb_from,
                to: bmo_done,
            });
        }
        if engine_done > arrive {
            let Some(insts) = insts else {
                return Err(ProfileError::Malformed(format!(
                    "write at {} blocked on the engine with no recorded job",
                    arrive.0
                )));
            };
            let mut back: Vec<Segment> = Vec::new();
            let mut cur = engine_done;
            // Backward walk: at `cur`, find the node whose final schedule
            // ends there; its service → queueing → binding predecessor
            // extends the chain toward arrival.
            loop {
                let at = (0..insts.len()).find(|&i| insts[i].is_some_and(|inst| inst.end == cur));
                let Some(ni) = at else {
                    // No node ends here: unexplained time is a dependency
                    // wait on the engine (e.g. global-serialization clamp).
                    back.push(Segment {
                        resource: RES_ENGINE,
                        label: "wait",
                        kind: SegKind::DepWait,
                        from: arrive,
                        to: cur,
                    });
                    break;
                };
                let inst = insts[ni].expect("found above");
                back.push(Segment {
                    resource: node_res[ni],
                    label: node_names[ni],
                    kind: SegKind::Service,
                    from: inst.start.max(arrive),
                    to: cur,
                });
                if inst.start <= arrive {
                    break;
                }
                if inst.ready < inst.start {
                    back.push(Segment {
                        resource: node_res[ni],
                        label: node_names[ni],
                        kind: SegKind::Queue,
                        from: inst.ready.max(arrive),
                        to: inst.start,
                    });
                    if inst.ready <= arrive {
                        break;
                    }
                }
                if inst.ready > inst.avail {
                    // A predecessor (or, in serialized modes, an earlier
                    // node) released this one at `ready`: continue there.
                    let binder = (0..insts.len())
                        .any(|i| i != ni && insts[i].is_some_and(|o| o.end == inst.ready));
                    if binder && inst.ready < cur {
                        cur = inst.ready;
                        continue;
                    }
                    back.push(Segment {
                        resource: RES_ENGINE,
                        label: "wait",
                        kind: SegKind::DepWait,
                        from: arrive,
                        to: inst.ready,
                    });
                } else if inst.avail > arrive {
                    // External input availability bound the node
                    // (submission clamp or operand arrival).
                    back.push(Segment {
                        resource: RES_ENGINE,
                        label: "input",
                        kind: SegKind::DepWait,
                        from: arrive,
                        to: inst.avail,
                    });
                }
                break;
            }
            back.reverse();
            segs.extend(back);
        }
        // Chronological order within the phase: engine walk precedes the
        // IRB tail.
        segs.sort_by_key(|s| (s.from, s.to));
    }

    // --- Write-queue phase: [bmo_done, persist] ----------------------------
    let mut cur = bmo_done;
    for &(req, at, _addr) in &w.accepts {
        if at > persist {
            break; // beyond the selective-atomicity persistence point
        }
        if req != cur {
            return Err(ProfileError::Malformed(format!(
                "write at {}: wq accept requested at {} but chain is at {}",
                arrive.0, req.0, cur.0
            )));
        }
        if at > req {
            segs.push(Segment {
                resource: RES_WQ,
                label: "accept",
                kind: SegKind::Queue,
                from: req,
                to: at,
            });
        }
        cur = at;
    }
    if cur != persist {
        return Err(ProfileError::Malformed(format!(
            "write at {}: wq chain ends at {} but persist is {}",
            arrive.0, cur.0, persist.0
        )));
    }

    Ok(segs)
}
