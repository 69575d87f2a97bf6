//! perfsmoke — self-benchmark that pins the simulator's performance
//! trajectory (not a paper figure).
//!
//! Three measurements, each k-sample wall-clock with a warmup run
//! (best-of-k for the event-loop throughput, median-of-k elsewhere):
//!
//! 1. **Event-loop throughput + latency percentiles** — simulated events
//!    retired per second of host time spent in the event loop *proper*
//!    ([`janus_bench::run_timed`]: `System::try_run` only — workload
//!    generation, system construction, and oracle verification excluded,
//!    so the metric matches its name), plus exact nearest-rank p50/p99/p999
//!    per-event latency over the timed samples via [`Reservoir`] (the
//!    log2-bucketed [`janus_sim::stats::Histogram`] put all three
//!    percentiles in one bucket and reported them identical; nearest-rank
//!    over raw samples cannot — though p99 and p999 still coincide at the
//!    sample counts this tool runs, both being the observed max). The run
//!    also publishes the engine's schedule-template cache hit/miss counts.
//! 2. **Raw queue throughput** — schedule/pop operations per second through
//!    the calendar [`EventQueue`] on a synthetic trace with the simulator's
//!    delay mix.
//! 3. **Sweep wall-clock** — a fig9-style 9-spec sweep at `--jobs 1` vs
//!    `--jobs N` (`N` from `--jobs`/`JANUS_JOBS`, else the host's available
//!    parallelism), pinning the thread-pool speedup.
//!
//! Results go to stdout and, machine-readably, to `BENCH_perfsmoke.json`
//! (`--out PATH` to override). The JSON schema is stable: the keys
//! `events_per_sec`, `event_ns_p50`, `event_ns_p99`, `event_ns_p999`,
//! `sweep_wall_ms`, `jobs`, `sched_cache_hits`, and `sched_cache_misses`
//! are always present.
//!
//! Knobs: `--tx N` (transactions per spec), `--samples K`, `--warmup K`,
//! `--jobs N`, `--out PATH`.

use janus_bench::cli::{arg_str, jobs};
use janus_bench::timing::median_wall_ms;
use janus_bench::{arg_usize, banner, run_all_jobs, run_timed, RunSpec, Variant};
use janus_sim::event::EventQueue;
use janus_sim::stats::Reservoir;
use janus_sim::time::Cycles;
use janus_trace::metrics::MetricsRegistry;
use janus_workloads::Workload;

fn sweep_specs(tx: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for w in [Workload::Tatp, Workload::HashTable, Workload::ArraySwap] {
        for v in [
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
        ] {
            let mut s = RunSpec::new(w, v);
            s.transactions = tx;
            specs.push(s);
        }
    }
    specs
}

/// Drives `ops` schedule/pop pairs through the queue with the simulator's
/// delay mix: bursts at the current cycle, short device delays, occasional
/// long (beyond-wheel) refresh horizons. Returns a checksum so the work
/// cannot be optimized away.
fn queue_trace(q: &mut EventQueue<u64>, ops: u64) -> u64 {
    q.clear();
    let mut now = 0u64; // tracks the queue clock (last popped timestamp)
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut sum = 0u64;
    for i in 0..ops {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let delay = match state % 16 {
            0..=5 => 0,                  // same-cycle burst
            6..=12 => state % 64,        // short device delay
            13 | 14 => 64 + state % 960, // queue/bank latency
            _ => 5000 + state % 4096,    // refresh horizon (overflow path)
        };
        q.schedule(Cycles(now + delay), i);
        if i % 2 == 1 {
            let (t, p) = q.pop().expect("queue nonempty");
            sum = sum.wrapping_add(p);
            now = now.max(t.0);
        }
    }
    sum
}

fn main() {
    janus_bench::require_known_args(&["--tx", "--samples", "--warmup", "--out"], &[]);
    let tx = arg_usize("--tx", 200);
    let samples = arg_usize("--samples", 5);
    let warmup = arg_usize("--warmup", 1);
    let out_path = arg_str("--out", "BENCH_perfsmoke.json");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_jobs = jobs().unwrap_or(host);
    banner(
        "perfsmoke — simulator self-benchmark",
        &format!("{tx} tx per spec, {samples} samples (warmup {warmup}), host cores {host}"),
    );

    // 1. Event-loop throughput and latency distribution on a full
    // simulation, timing only the event loop itself. Each timed run
    // contributes one per-event latency sample (at picosecond resolution,
    // so sub-nanosecond per-event costs stay distinguishable) to an exact
    // reservoir; the percentiles are nearest-rank over the raw samples, so
    // host jitter shows up in the spread instead of collapsing into one
    // histogram bucket.
    let mut spec = RunSpec::new(Workload::Tatp, Variant::JanusManual);
    spec.transactions = tx;
    let first = run_timed(spec.clone()).0;
    let events = first.report.events;
    let (sched_hits, sched_misses) = first.report.sched_cache;
    for _ in 0..warmup {
        std::hint::black_box(run_timed(spec.clone()));
    }
    let mut loop_ms: Vec<f64> = (0..samples)
        .map(|_| run_timed(spec.clone()).1 * 1e3)
        .collect();
    let mut event_ps = Reservoir::new();
    for ms in &loop_ms {
        event_ps.record(Cycles((ms * 1e9 / events as f64) as u64));
    }
    let event_ns_p50 = event_ps.p50().map_or(0.0, |c| c.0 as f64 / 1e3);
    let event_ns_p99 = event_ps.p99().map_or(0.0, |c| c.0 as f64 / 1e3);
    let event_ns_p999 = event_ps.p999().map_or(0.0, |c| c.0 as f64 / 1e3);
    loop_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Throughput uses the *fastest* sample: the loop does identical
    // deterministic work every run, so all variance is host-scheduler
    // interference, which only ever adds time. The minimum is the standard
    // noise-rejecting estimator for that model (median still carries half
    // the interference on a busy box); the percentiles above keep the full
    // spread visible.
    let run_ms = loop_ms[0];
    let events_per_sec = events as f64 / (run_ms / 1e3);
    println!(
        "event loop:   {events} events in {run_ms:.2} ms  ->  {:.2} M events/s  \
         (per-event p50 {event_ns_p50:.1} ns, p99 {event_ns_p99:.1} ns, p999 {event_ns_p999:.1} ns)",
        events_per_sec / 1e6
    );
    println!(
        "sched cache:  {sched_hits} hits / {sched_misses} misses  \
         ({:.1}% of submits replayed a compiled template)",
        100.0 * sched_hits as f64 / (sched_hits + sched_misses).max(1) as f64
    );

    // 2. Raw queue schedule+pop throughput.
    let ops: u64 = 1_000_000;
    let mut cal: EventQueue<u64> = EventQueue::with_capacity(4096);
    let cal_ms = median_wall_ms(warmup, samples, || queue_trace(&mut cal, ops));
    let queue_ops_per_sec = ops as f64 / (cal_ms / 1e3);
    println!("queue:        {:.2} M ops/s", queue_ops_per_sec / 1e6);

    // 3. Sweep wall-clock. The serial-vs-fanned comparison only means
    // something when the host can actually fan out; on a 1-core box the
    // "speedup" is pure thread-pool overhead plus timer noise (observed
    // 0.9957x), so we skip the serial leg and omit the ratio entirely.
    let fanout_meaningful = host > 1;
    let sweep_wall_ms = median_wall_ms(warmup, samples, || run_all_jobs(sweep_specs(tx), n_jobs));
    let sweep_serial_ms = if fanout_meaningful {
        let serial = median_wall_ms(warmup, samples, || run_all_jobs(sweep_specs(tx), 1));
        println!(
            "sweep (9 specs): {serial:.1} ms at --jobs 1 vs {sweep_wall_ms:.1} ms at --jobs {n_jobs}  ({:.2}x)",
            serial / sweep_wall_ms
        );
        Some(serial)
    } else {
        println!(
            "sweep (9 specs): {sweep_wall_ms:.1} ms at --jobs {n_jobs} (1 host core; fan-out comparison skipped)"
        );
        None
    };

    let mut m = MetricsRegistry::new();
    m.set_f64("events_per_sec", events_per_sec);
    m.set_f64("event_ns_p50", event_ns_p50);
    m.set_f64("event_ns_p99", event_ns_p99);
    m.set_f64("event_ns_p999", event_ns_p999);
    m.set_f64("sweep_wall_ms", sweep_wall_ms);
    m.set_u64("jobs", n_jobs as u64);
    m.set_u64("fanout_meaningful", fanout_meaningful as u64);
    if let Some(serial) = sweep_serial_ms {
        m.set_f64("sweep_wall_ms_serial", serial);
        m.set_f64("sweep_speedup", serial / sweep_wall_ms);
    }
    m.set_f64("queue_ops_per_sec", queue_ops_per_sec);
    m.set_u64("events", events);
    m.set_u64("sched_cache_hits", sched_hits);
    m.set_u64("sched_cache_misses", sched_misses);
    m.set_u64("host_cores", host as u64);
    std::fs::write(&out_path, m.to_json() + "\n").expect("write perfsmoke json");
    println!("wrote {out_path}");
}
