//! Crash-snapshot pins for the one event loop and the durability log, and
//! pins of the events and counter samples it delivers.
//!
//! `System::run_until_crashes` drains the same batched loop as a full run,
//! bounded at each crash cycle in turn: every same-cycle cohort at or
//! before it is delivered (including events its handlers schedule for that
//! cycle), and nothing after it. The secure root is read at each point, and
//! the durable image is the durability log folded at that point. Image and
//! root are what recovery starts from, so they are pinned here as one
//! FNV-1a digest per workload.
//!
//! The digests were recorded from the per-event loop that produced crash
//! snapshots, one fresh run per crash, from a store written at every write,
//! before the bounded batch drain and the log replaced them. A match means
//! the one loop stops exactly where the per-event loop did, and that the
//! log folded at a cycle reproduces that store's contents there. Each
//! digest folds `{serialized, parallelized, janus-manual} × {1, 2} cores ×
//! 4 crash cycles`, with the two-core Janus runs on an all-seven-BMO stack;
//! each configuration's four crashes come from one run. Crash cycles are
//! fixed fractions of each configuration's full-run length, so every crash
//! lands mid-run.

use janus::bmo::BmoId;
use janus::core::config::{JanusConfig, SystemMode};
use janus::core::system::System;
use janus::core::Program;
use janus::sim::time::Cycles;
use janus::workloads::traffic::{generate_tenants, Arrival, TenantSpec};
use janus::workloads::{generate, Instrumentation, Workload, WorkloadConfig};

/// `(workload, digest)`, recorded from the per-event loop.
const PINNED: [(Workload, u64); 7] = [
    (Workload::ArraySwap, 0x60ae91dc4083a90f),
    (Workload::Queue, 0xa00cb50185791312),
    (Workload::HashTable, 0x276bda797ff049c6),
    (Workload::BTree, 0x34b9ec89a27ac13d),
    (Workload::RbTree, 0x737fd6ff3359aa84),
    (Workload::Tatp, 0xb35099267e12259a),
    (Workload::Tpcc, 0x05a56eae5b0b624a),
];

/// `(mode, instrumentation, cores, all seven BMOs)` for every crash run.
const CONFIGS: [(SystemMode, Instrumentation, usize, bool); 6] = [
    (SystemMode::Serialized, Instrumentation::None, 1, false),
    (SystemMode::Serialized, Instrumentation::None, 2, false),
    (SystemMode::Parallelized, Instrumentation::None, 1, false),
    (SystemMode::Parallelized, Instrumentation::None, 2, false),
    (SystemMode::Janus, Instrumentation::Manual, 1, false),
    (SystemMode::Janus, Instrumentation::Manual, 2, true),
];

/// Crash cycles as eighths of the full run.
const CRASH_EIGHTHS: [u64; 4] = [1, 3, 5, 7];

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds every crash run of `workload` into one digest.
fn crash_digest(workload: Workload) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (mode, instrumentation, cores, all_bmos) in CONFIGS {
        let mut config = JanusConfig::paper(mode, cores);
        if all_bmos {
            config.bmo_stack = BmoId::ALL.to_vec();
        }
        let wc = WorkloadConfig {
            transactions: 12,
            instrumentation,
            ..WorkloadConfig::default()
        };
        let programs: Vec<Program> = (0..cores)
            .map(|core| generate(workload, core, &wc).program)
            .collect();
        let full = System::new(config.clone()).run(programs.clone()).cycles;
        let points = CRASH_EIGHTHS.map(|eighth| Cycles(full.0 * eighth / 8));
        let crashes = System::new(config)
            .run_until_crashes(programs, &points)
            .expect("one program per core");
        let mut snapshots = Vec::new();
        for (crash_at, (snapshot, root)) in points.into_iter().zip(crashes) {
            let mut image = Vec::new();
            for (addr, line) in snapshot.iter() {
                image.extend_from_slice(&addr.0.to_le_bytes());
                image.extend_from_slice(line.as_bytes());
            }
            h.eat(format!("{mode:?}/{cores}/{all_bmos}@{}", crash_at.0).as_bytes());
            h.eat(&image);
            h.eat(&root);
            snapshots.push(image);
        }
        snapshots.dedup();
        assert!(
            snapshots.len() > 1,
            "{workload} {mode:?} x{cores}: every crash left the same image, so the \
             crash cycles do not fall mid-run"
        );
    }
    h.0
}

#[test]
fn crash_snapshots_match_the_per_event_loop() {
    let got: Vec<(Workload, u64)> = PINNED.iter().map(|&(w, _)| (w, crash_digest(w))).collect();
    let table: String = got
        .iter()
        .map(|(w, d)| format!("    (Workload::{w:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got,
        PINNED.to_vec(),
        "crash snapshots diverged from the pinned digests; got:\n{table}"
    );
}

/// Delivered-event counts, and a digest of the counter samples taken every
/// 1000 cycles, for one closed-loop and one open-loop run, recorded from
/// the loop that delivered every core step through the event queue. The
/// loop now runs a core's next step in place when the queue would deliver
/// it next and alone; such a step must be counted, and offered to the
/// sampler, exactly once and at the same point.
#[test]
fn event_counts_and_samples_match_the_queue_only_loop() {
    let sampled = |sys: &System| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for s in sys.samples() {
            h.eat(&s.cycle.0.to_le_bytes());
            for (name, value) in &s.counters {
                h.eat(name.as_bytes());
                h.eat(&value.to_le_bytes());
            }
        }
        (sys.samples().len(), h.0)
    };
    // Closed loop: TPC-C on two cores with hand-placed pre-execution.
    let wc = WorkloadConfig {
        transactions: 40,
        instrumentation: Instrumentation::Manual,
        ..WorkloadConfig::default()
    };
    let programs: Vec<Program> = (0..2)
        .map(|core| generate(Workload::Tpcc, core, &wc).program)
        .collect();
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 2));
    sys.enable_sampling(Cycles(1000));
    let closed = sys.run(programs).events;
    let closed_samples = sampled(&sys);
    // Open loop: four tenants of mixed workloads on two cores.
    let specs: Vec<TenantSpec> = [
        Workload::Tatp,
        Workload::HashTable,
        Workload::Queue,
        Workload::Tpcc,
    ]
    .into_iter()
    .map(|w| {
        TenantSpec::new(
            w,
            8,
            Arrival::Poisson {
                mean: Cycles(5_000),
            },
        )
    })
    .collect();
    let streams = generate_tenants(&specs, 7)
        .into_iter()
        .map(|t| t.stream)
        .collect();
    let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 2));
    sys.enable_sampling(Cycles(1000));
    let open = sys.try_run_tenants(streams).expect("valid streams").events;
    let open_samples = sampled(&sys);
    assert_eq!(
        (closed, closed_samples, open, open_samples),
        (
            7434,
            (212, 0x962c_1995_44ba_57ff),
            1615,
            (207, 0x92c2_6b8a_243a_6714)
        )
    );
}
