//! Self-contained wall-clock micro-benchmark harness.
//!
//! Replaces the former `criterion` dev-dependency so `cargo bench` works in
//! a hermetic (offline) checkout. Each benchmark is calibrated to a target
//! sample duration, timed over a fixed number of samples, and reported as
//! min / median / mean ns-per-iteration. Environment knobs:
//!
//! - `JANUS_BENCH_SAMPLES` — samples per benchmark (default 30)
//! - `JANUS_BENCH_SAMPLE_MS` — target milliseconds per sample (default 5)
//!
//! These are host-speed guards for the simulator itself; simulated NVM
//! latencies are fixed by the paper's Table 3 and unaffected.

use std::time::{Duration, Instant};

/// Runs and reports a group of related benchmarks.
pub struct BenchHarness {
    samples: usize,
    sample_target: Duration,
}

impl Default for BenchHarness {
    fn default() -> Self {
        Self::new()
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Iterations executed per sample.
    pub iters_per_sample: u64,
}

impl BenchHarness {
    /// Harness with environment-configured sample counts.
    pub fn new() -> Self {
        BenchHarness {
            samples: env_usize("JANUS_BENCH_SAMPLES", 30).max(1),
            sample_target: Duration::from_millis(env_usize("JANUS_BENCH_SAMPLE_MS", 5) as u64),
        }
    }

    /// Prints the group header.
    pub fn group(&self, title: &str) {
        println!();
        println!("{title}");
        println!("{}", "-".repeat(title.len().max(24)));
    }

    /// Times `f`, printing one summary line, and returns the summary.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Summary {
        // Calibrate: grow the iteration count until a batch reaches the
        // target sample duration (or a generous cap for very slow bodies).
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.sample_target || iters >= 1 << 30 {
                break;
            }
            if elapsed < self.sample_target / 20 {
                iters = iters.saturating_mul(10);
            } else {
                iters = iters.saturating_mul(2);
            }
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let summary = Summary {
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            iters_per_sample: iters,
        };
        println!(
            "  {name:<28} {:>12}/iter  (min {}, mean {}, {} iters x {} samples)",
            fmt_ns(summary.median_ns),
            fmt_ns(summary.min_ns),
            fmt_ns(summary.mean_ns),
            iters,
            self.samples,
        );
        summary
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_timings() {
        let h = BenchHarness {
            samples: 5,
            sample_target: Duration::from_micros(200),
        };
        let s = h.bench("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50 s");
    }
}
