//! The five workloads and the metric vocabulary. `BENCHMARK.json` at the
//! repository root lists the same names, units, directions and bounds; a
//! unit test keeps the two in step.

use janus_bench::{OpenLoopSpec, RunSpec, Variant};
use janus_bmo::BmoId;
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_workloads::traffic::Arrival;
use janus_workloads::Workload;

/// One benchmark workload.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists: the layer it loads and the one it bypasses.
    pub why: &'static str,
    /// Transactions per spec (per tenant for `tenants_open`).
    pub tx: usize,
    /// Simulated-output digest of the whole workload at seed 42.
    pub seed42_digest: u64,
    build: fn(seed: u64, tx: usize) -> Vec<RunSpec>,
}

impl WorkloadDef {
    /// The specs one repetition runs, at the workload's own size.
    pub fn specs(&self, seed: u64) -> Vec<RunSpec> {
        self.specs_with_tx(seed, self.tx)
    }

    /// The specs at an explicit transaction count (tests shrink it).
    pub fn specs_with_tx(&self, seed: u64, tx: usize) -> Vec<RunSpec> {
        (self.build)(seed, tx)
    }
}

fn spec(workload: Workload, variant: Variant, seed: u64, tx: usize) -> RunSpec {
    let mut s = RunSpec::new(workload, variant);
    s.seed = seed;
    s.transactions = tx;
    s
}

fn tatp_janus(seed: u64, tx: usize) -> Vec<RunSpec> {
    vec![spec(Workload::Tatp, Variant::JanusManual, seed, tx)]
}

fn tpcc_serialized(seed: u64, tx: usize) -> Vec<RunSpec> {
    vec![spec(Workload::Tpcc, Variant::Serialized, seed, tx)]
}

fn tenants_open(seed: u64, tx: usize) -> Vec<RunSpec> {
    let mut s = spec(Workload::Tatp, Variant::JanusManual, seed, tx);
    s.cores = 4;
    s.crc32 = true;
    s.bmo_stack = Some(vec![BmoId::Dedup]);
    s.irb_policy = IrbPolicy::Banked { per_tenant: 64 };
    s.open_loop = Some(OpenLoopSpec {
        tenants: 16,
        arrival: Arrival::Poisson {
            mean: Cycles(10_000),
        },
        mix: Workload::all().to_vec(),
    });
    vec![s]
}

fn fullstack_auto(seed: u64, tx: usize) -> Vec<RunSpec> {
    let mut s = spec(Workload::BTree, Variant::JanusAuto, seed, tx);
    s.bmo_stack = Some(BmoId::ALL.to_vec());
    vec![s]
}

fn fig_matrix(seed: u64, tx: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for w in Workload::all() {
        for v in [
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
        ] {
            for cores in [1, 4] {
                let mut s = spec(w, v, seed, tx);
                s.cores = cores;
                specs.push(s);
            }
        }
    }
    specs
}

pub static WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "tatp_janus",
        why: "TATP under hand-placed pre-execution: the IRB hit path, pre-op queues and staged engine submits",
        tx: 30_000,
        seed42_digest: 0x4e8e_94d8_6f7d_5fe0,
        build: tatp_janus,
    },
    WorkloadDef {
        name: "tpcc_serialized",
        why: "TPC-C serialized: most writes per transaction, crypto, Merkle and write queue heaviest, IRB idle",
        tx: 10_000,
        seed42_digest: 0x6cb7_f035_4911_b52f,
        build: tpcc_serialized,
    },
    WorkloadDef {
        name: "tenants_open",
        why: "16 open-loop tenants on 4 cores, dedup-only CRC-32 stack: front end and event loop dominate, little crypto",
        tx: 1_000,
        seed42_digest: 0x3eb2_8ad8_f0f9_00ec,
        build: tenants_open,
    },
    WorkloadDef {
        name: "fullstack_auto",
        why: "B-tree through the compiler pass with all 7 BMOs: the only load on instrument, ECC, compression, wear and ORAM",
        tx: 1_200,
        seed42_digest: 0x1c9e_8fca_8297_0220,
        build: fullstack_auto,
    },
    WorkloadDef {
        name: "fig_matrix",
        why: "42 short specs swept across host threads: per-spec set-up, report building and pool fan-out",
        tx: 400,
        seed42_digest: 0xc753_257a_a917_4f66,
        build: fig_matrix,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction; `bound` is the regression bound
/// as a share of the parent's median (end-to-end metrics only).
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off; times in reference
/// seconds (see `probe.rs`).
pub static END_TO_END: [Metric; 3] = [
    e2e("tx_per_s", "tx/s", Higher, 0.10),
    e2e("setup_s", "s", Lower, 0.10),
    e2e("peak_heap_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics, from the traced ledger run and the layer replays.
pub static PER_LAYER: [Metric; 48] = [
    layer("workloads.gen_ms", "ms", Lower),
    layer("instrument.pass_ms", "ms", Lower),
    layer("core.new_ms", "ms", Lower),
    layer("core.warm_ms", "ms", Lower),
    layer("core.loop_ms", "ms", Lower),
    layer("core.verify_ms", "ms", Lower),
    layer("core.events", "count", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.residual_ns_per_write", "ns", Lower),
    layer("controller.ns_per_write", "ns", Lower),
    layer("controller.preexec_frac", "ratio", Higher),
    layer("irb.hit_ratio", "ratio", Higher),
    layer("irb.drops", "count", Lower),
    layer("pipeline.ns_per_write", "ns", Lower),
    layer("pipeline.enc.ns_per_write", "ns", Lower),
    layer("pipeline.int.ns_per_write", "ns", Lower),
    layer("pipeline.dedup.ns_per_write", "ns", Lower),
    layer("pipeline.comp.ns_per_write", "ns", Lower),
    layer("pipeline.wear.ns_per_write", "ns", Lower),
    layer("pipeline.ecc.ns_per_write", "ns", Lower),
    layer("pipeline.oram.ns_per_write", "ns", Lower),
    layer("pipeline.dup_ratio", "ratio", Higher),
    layer("crypto.otp_ns", "ns", Lower),
    layer("crypto.mac_ns", "ns", Lower),
    layer("crypto.md5_ns", "ns", Lower),
    layer("crypto.crc32_ns", "ns", Lower),
    layer("engine.ns_per_submit", "ns", Lower),
    layer("nvm.ns_per_accept", "ns", Lower),
    layer("nvm.accepts_per_write", "ratio", Lower),
    layer("nvm.coalesced_ratio", "ratio", Higher),
    layer("trace.report_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.events.controller", "count", Lower),
    layer("trace.events.irb", "count", Lower),
    layer("trace.events.queue", "count", Lower),
    layer("trace.events.bmo.engine", "count", Lower),
    layer("trace.events.bmo.encryption", "count", Lower),
    layer("trace.events.bmo.integrity", "count", Lower),
    layer("trace.events.bmo.dedup", "count", Lower),
    layer("trace.events.bmo.compression", "count", Lower),
    layer("trace.events.bmo.wear", "count", Lower),
    layer("trace.events.bmo.ecc", "count", Lower),
    layer("trace.events.bmo.oram", "count", Lower),
    layer("trace.events.nvm", "count", Lower),
    layer("trace.events.wq", "count", Lower),
    layer("trace.events.sim", "count", Lower),
    layer("pool.efficiency", "ratio", Higher),
    layer("ledger.replay_coverage", "ratio", Higher),
];
