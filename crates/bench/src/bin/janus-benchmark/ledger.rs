//! The per-layer ledger, measured from outside each layer.
//!
//! Per spec, one traced run (ring sized so no event is dropped) at a tenth
//! of the timed transaction count — a full-size trace of `tatp_janus`
//! holds over four million events — yields the write stream the memory
//! controller saw: each Controller `write` span
//! begin gives the arrival cycle, the line (`id`) and the thread (`arg`).
//! Each write is paired with its data — the value the thread stored to the
//! line before that `clwb` in program order — and the stream is replayed
//! into each lower layer's public functions in isolation, timed per call
//! site. The replays approximate the loop on purpose, and the README
//! lists how: no pre-execution requests are replayed, every write is
//! replayed with `commit_critical = false`, the engine sees only full
//! submits, and the write queue sees every non-metadata line a write
//! persists, at the write's arrival cycle.

use std::hint::black_box;
use std::time::Instant;

use janus_bench::RunSpec;
use janus_bmo::engine::BmoEngine;
use janus_bmo::metadata::META_BASE;
use janus_bmo::pipeline::{BmoPipeline, DEFAULT_KEY};
use janus_bmo::{BmoId, BmoStack};
use janus_core::controller::MemoryController;
use janus_core::ir::Op;
use janus_crypto::{crc32, line_mac, md5, otp_for_line, Aes128};
use janus_nvm::addr::LineAddr;
use janus_nvm::device::NvmDevice;
use janus_nvm::line::Line;
use janus_nvm::wq::AdrWriteQueue;
use janus_sim::time::Cycles;
use janus_trace::{Category, EventKind, TraceConfig};

use crate::phases::{execute, prepare, run_phases, Failure, Input, Phases};
use crate::suite::PER_LAYER;

/// Every trace category, in the order [`PER_LAYER`] lists `trace.events.*`.
const CATEGORIES: [Category; 14] = [
    Category::Controller,
    Category::Irb,
    Category::Queue,
    Category::Engine,
    Category::Encryption,
    Category::Integrity,
    Category::Dedup,
    Category::Compression,
    Category::WearLeveling,
    Category::Ecc,
    Category::Oram,
    Category::Nvm,
    Category::WriteQueue,
    Category::Sim,
];

/// The traced run's transaction count is the timed one divided by this.
const TRACED_TX_DIVISOR: usize = 10;

/// Trace-ring slots reserved per simulated event (`tpcc_serialized`
/// records about 5.4); a run that still drops events is retried with twice
/// the ring.
const RING_SLOTS_PER_EVENT: u64 = 6;

/// One write as the controller received it.
#[derive(Clone, Copy, Debug)]
struct Write {
    at: Cycles,
    thread: usize,
    line: LineAddr,
    data: Line,
}

/// Host time and work counts summed over a workload's specs.
#[derive(Debug, Default)]
struct Totals {
    writes: u64,
    replayed: u64,
    dup_writes: u64,
    pre_full: u64,
    pre_partial: u64,
    pre_miss: u64,
    irb_drops: u64,
    untraced_loop_s: f64,
    traced_loop_s: f64,
    events: [u64; 14],
    controller_s: f64,
    pipeline_s: f64,
    single_bmo_s: [f64; 7],
    /// OTP, MAC, MD5, CRC-32.
    crypto_s: [f64; 4],
    engine_s: f64,
    accepts: u64,
    coalesced: u64,
    nvm_s: f64,
}

/// One thread's program, walked in order to find each `clwb`'s data.
struct Cursor<'a> {
    ops: Vec<&'a Op>,
    pos: usize,
    stored: janus_sim::hash::FxHashMap<LineAddr, Line>,
    next_clwb: Option<LineAddr>,
}

impl<'a> Cursor<'a> {
    fn new(ops: Vec<&'a Op>) -> Self {
        Cursor {
            ops,
            pos: 0,
            stored: Default::default(),
            next_clwb: None,
        }
    }

    /// Advances past stores to the next `clwb`, unless one is pending.
    fn peek_clwb(&mut self) -> Option<LineAddr> {
        while self.next_clwb.is_none() && self.pos < self.ops.len() {
            match self.ops[self.pos] {
                Op::Store { line, value } => {
                    self.stored.insert(*line, *value);
                }
                Op::Clwb(line) => self.next_clwb = Some(*line),
                _ => {}
            }
            self.pos += 1;
        }
        self.next_clwb
    }

    /// The data of a write of `line`: the pending `clwb`'s when it names
    /// the line (consuming it), else — a dirty-line eviction — the last
    /// value stored to the line so far. `None` when the thread never
    /// stored the line.
    fn data_for(&mut self, line: LineAddr) -> Option<Line> {
        if self.peek_clwb() == Some(line) {
            self.next_clwb = None;
        }
        self.stored.get(&line).copied()
    }
}

fn cursors(input: &Input) -> Vec<Cursor<'_>> {
    match input {
        Input::Closed(programs) => programs
            .iter()
            .map(|p| Cursor::new(p.ops.iter().collect()))
            .collect(),
        Input::Open(streams) => streams
            .iter()
            .map(|s| Cursor::new(s.txs.iter().flat_map(|p| p.ops.iter()).collect()))
            .collect(),
    }
}

/// Runs `spec` untraced and then traced (tracing must not change the
/// simulated output); adds the traced run's counts and the replay timings
/// of its write stream to `totals`.
fn traced_spec(spec: &RunSpec, totals: &mut Totals) -> Result<(), Failure> {
    let (plain, digest) = run_phases(spec)?;
    let mut capacity = (plain.events * RING_SLOTS_PER_EVENT).max(1 << 16);
    let (e, input, trace) = loop {
        let mut p = prepare(spec);
        let input = p.input.clone();
        let tracer = p.sys.enable_trace(&TraceConfig {
            capacity: usize::try_from(capacity).expect("ring capacity fits in usize"),
        });
        let e = execute(p)?;
        if tracer.dropped() == 0 {
            break (e, input, tracer.snapshot());
        }
        capacity *= 2;
    };
    if e.digest != digest {
        return Err(Failure::Digest {
            expected: digest,
            got: e.digest,
        });
    }
    totals.untraced_loop_s += plain.loop_s;
    let r = &e.report;
    totals.writes += r.writes;
    totals.dup_writes += r.dup_writes;
    totals.pre_full += r.counter("pre_full");
    totals.pre_partial += r.counter("pre_partial");
    totals.pre_miss += r.counter("pre_miss");
    totals.irb_drops += r.irb.2;
    totals.traced_loop_s += e.loop_s;

    let mut cur = cursors(&input);
    let mut writes = Vec::with_capacity(usize::try_from(r.writes).unwrap_or(0));
    for ev in &trace {
        let slot = CATEGORIES
            .iter()
            .position(|c| *c == ev.cat)
            .expect("every category is listed");
        totals.events[slot] += 1;
        if ev.cat == Category::Controller && ev.name == "write" && ev.kind == EventKind::Begin {
            let thread = usize::try_from(ev.arg).unwrap_or(usize::MAX);
            let line = LineAddr(ev.id);
            if let Some(data) = cur.get_mut(thread).and_then(|c| c.data_for(line)) {
                writes.push(Write {
                    at: ev.cycle,
                    thread,
                    line,
                    data,
                });
            }
        }
    }
    drop(trace);
    totals.replayed += writes.len() as u64;
    replay(spec, &writes, totals);
    Ok(())
}

/// Times `f` in host seconds.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Replays a write stream into each layer on its own.
fn replay(spec: &RunSpec, writes: &[Write], totals: &mut Totals) {
    let config = spec.config();

    let mut mc = MemoryController::new(config.clone());
    totals.controller_s += timed(|| {
        for w in writes {
            black_box(mc.handle_write(w.at, w.thread, w.line, w.data, false));
        }
    });
    drop(mc);

    // The workload's own stack, recording what the engine and the write
    // queue replays need.
    let algo = config.latencies.dedup_algo;
    let mut pipeline = BmoPipeline::for_stack(&config.stack(), algo);
    let mut dups = Vec::with_capacity(writes.len());
    let mut accepts = Vec::with_capacity(writes.len() * 2);
    totals.pipeline_s += timed(|| {
        for w in writes {
            let fx = pipeline.write(w.line, w.data);
            dups.push(fx.dup);
            accepts.extend(
                fx.line_writes
                    .iter()
                    .filter(|(a, _)| a.0 < META_BASE)
                    .map(|(a, _)| (w.at, *a)),
            );
            pipeline.recycle(fx);
        }
        black_box(pipeline.root());
    });
    drop(pipeline);

    for (slot, id) in BmoId::ALL.iter().enumerate() {
        let stack = BmoStack::new([*id]).expect("a one-member stack is valid");
        let mut p = BmoPipeline::for_stack(&stack, algo);
        totals.single_bmo_s[slot] += timed(|| {
            for w in writes {
                let fx = p.write(w.line, w.data);
                p.recycle(fx);
            }
            black_box(p.root());
        });
    }

    let aes = Aes128::new(DEFAULT_KEY);
    totals.crypto_s[0] += timed(|| {
        for (i, w) in writes.iter().enumerate() {
            black_box(otp_for_line(&aes, i as u64 + 1, w.line.0));
        }
    });
    totals.crypto_s[1] += timed(|| {
        for (i, w) in writes.iter().enumerate() {
            black_box(line_mac(w.data.as_bytes(), i as u64 + 1));
        }
    });
    totals.crypto_s[2] += timed(|| {
        for w in writes {
            black_box(md5(w.data.as_bytes()));
        }
    });
    totals.crypto_s[3] += timed(|| {
        for w in writes {
            black_box(crc32(w.data.as_bytes()));
        }
    });

    let graph = config.stack().graph(&config.latencies);
    let mode = config.mode.bmo_mode_with(config.serialized_global);
    let mut engine = BmoEngine::new(graph, mode, config.total_bmo_units());
    totals.engine_s += timed(|| {
        for (w, dup) in writes.iter().zip(&dups) {
            let job = engine.submit(w.at, Some(w.at), Some(w.at), *dup);
            black_box(engine.completion(job));
            engine.retire(job);
        }
    });

    let mut wq = AdrWriteQueue::new(config.wq_capacity);
    let mut device = NvmDevice::new(config.nvm);
    totals.nvm_s += timed(|| {
        for &(at, addr) in &accepts {
            black_box(wq.accept(at, addr, &mut device));
        }
    });
    totals.accepts += wq.accepted();
    totals.coalesced += wq.coalesced();
}

/// The [`PER_LAYER`] entry's own name (metric names are `'static`).
fn listed(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .expect("every measured metric is listed in PER_LAYER")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Measures every per-layer metric of one workload, in [`PER_LAYER`] order.
///
/// The set-up and loop metrics describe the timed size: `base` carries the
/// untraced phase times (for a sweep, summed over its specs run serially).
/// `wall_s` is the median wall time of one timed repetition, `workers` the
/// number of threads it ran on.
pub fn measure(
    specs: &[RunSpec],
    base: Phases,
    wall_s: f64,
    workers: usize,
) -> Result<Vec<(&'static str, f64)>, Failure> {
    let mut t = Totals::default();
    for spec in specs {
        let mut small = spec.clone();
        small.transactions = (spec.transactions / TRACED_TX_DIVISOR).max(1);
        traced_spec(&small, &mut t)?;
    }

    let writes = t.writes as f64;
    let replayed = t.replayed as f64;
    let per_write_ns = |s: f64| ratio(s * 1e9, replayed);
    let controller_ns = per_write_ns(t.controller_s);
    let lookups = (t.pre_full + t.pre_partial + t.pre_miss) as f64;
    let mut m: Vec<(&'static str, f64)> = vec![
        ("workloads.gen_ms", base.setup.gen_s * 1e3),
        ("instrument.pass_ms", base.setup.pass_s * 1e3),
        ("core.new_ms", base.setup.new_s * 1e3),
        ("core.warm_ms", base.setup.warm_s * 1e3),
        ("core.loop_ms", base.loop_s * 1e3),
        ("core.verify_ms", base.verify_s * 1e3),
        ("core.events", base.events as f64),
        (
            "core.ns_per_event",
            ratio(base.loop_s * 1e9, base.events as f64),
        ),
        (
            "core.residual_ns_per_write",
            ratio(base.loop_s * 1e9, base.writes as f64) - controller_ns,
        ),
        ("controller.ns_per_write", controller_ns),
        ("controller.preexec_frac", ratio(t.pre_full as f64, lookups)),
        (
            "irb.hit_ratio",
            ratio((t.pre_full + t.pre_partial) as f64, lookups),
        ),
        ("irb.drops", t.irb_drops as f64),
        ("pipeline.ns_per_write", per_write_ns(t.pipeline_s)),
    ];
    m.extend(
        BmoId::ALL
            .iter()
            .zip(t.single_bmo_s.map(per_write_ns))
            .map(|(id, ns)| (listed(&format!("pipeline.{id}.ns_per_write")), ns)),
    );
    m.push(("pipeline.dup_ratio", ratio(t.dup_writes as f64, writes)));
    let crypto = [
        "crypto.otp_ns",
        "crypto.mac_ns",
        "crypto.md5_ns",
        "crypto.crc32_ns",
    ];
    m.extend(crypto.into_iter().zip(t.crypto_s.map(per_write_ns)));
    m.extend([
        ("engine.ns_per_submit", per_write_ns(t.engine_s)),
        ("nvm.ns_per_accept", ratio(t.nvm_s * 1e9, t.accepts as f64)),
        ("nvm.accepts_per_write", ratio(t.accepts as f64, replayed)),
        (
            "nvm.coalesced_ratio",
            ratio(t.coalesced as f64, t.accepts as f64),
        ),
        ("trace.report_ms", base.report_s * 1e3),
        (
            "trace.overhead_ratio",
            ratio(t.traced_loop_s, t.untraced_loop_s),
        ),
    ]);
    m.extend(
        CATEGORIES
            .iter()
            .zip(t.events)
            .map(|(cat, n)| (listed(&format!("trace.events.{cat}")), n as f64)),
    );
    m.push((
        "pool.efficiency",
        ratio(base.total_s(), wall_s * workers as f64),
    ));
    m.push(("ledger.replay_coverage", ratio(replayed, writes)));
    Ok(m)
}
