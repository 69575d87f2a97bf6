//! Periodic metrics sampling: counter snapshots every N cycles.
//!
//! End-of-run totals hide phase behaviour — a write burst that saturates
//! the ADR queue in the first 10 µs looks identical to steady load. The
//! [`MetricsSampler`] snapshots its caller's counters whenever simulated
//! time crosses the next sampling epoch, producing a time-series that
//! [`MetricsSampler::counter_events_of`] turns into Chrome counter tracks.

use janus_sim::time::Cycles;

use crate::event::{Category, EventKind, TraceEvent};

/// One snapshot: the cycle it was taken at plus every counter's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time of the snapshot (a multiple of the sampling period).
    pub cycle: Cycles,
    /// `(name, value)` pairs as the caller listed them.
    pub counters: Vec<(&'static str, u64)>,
}

/// Samples a list of counters every `every` cycles. See module docs.
#[derive(Clone, Debug)]
pub struct MetricsSampler {
    every: u64,
    next: u64,
    samples: Vec<Sample>,
}

impl MetricsSampler {
    /// Creates a sampler firing every `every` cycles (minimum one).
    pub fn new(every: Cycles) -> Self {
        let every = every.0.max(1);
        MetricsSampler {
            every,
            next: every,
            samples: Vec::new(),
        }
    }

    /// Sampling period in cycles.
    pub fn period(&self) -> Cycles {
        Cycles(self.every)
    }

    /// Takes snapshots for every sampling epoch that `now` has crossed
    /// since the last call, listing the counters with `counters`, which
    /// runs only then. Event-driven simulation jumps time, so one call may
    /// emit several samples (all with the same counter values — the epochs
    /// passed without activity). Returns how many were taken.
    pub fn maybe_sample(
        &mut self,
        now: Cycles,
        counters: impl Fn() -> Vec<(&'static str, u64)>,
    ) -> usize {
        let mut taken = 0;
        while now.0 >= self.next {
            self.samples.push(Sample {
                cycle: Cycles(self.next),
                counters: counters(),
            });
            self.next += self.every;
            taken += 1;
        }
        taken
    }

    /// Takes one final snapshot at `now` (end of run), regardless of epoch
    /// alignment, unless one was already taken at exactly `now`.
    pub fn finish(&mut self, now: Cycles, counters: impl Fn() -> Vec<(&'static str, u64)>) {
        self.maybe_sample(now, &counters);
        if self.samples.last().map(|s| s.cycle) != Some(now) {
            self.samples.push(Sample {
                cycle: now,
                counters: counters(),
            });
        }
    }

    /// The collected time-series, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Converts a sampled time-series (as returned by e.g.
    /// `System::samples`) into Chrome trace `Counter` events so
    /// occupancy/utilization curves render in Perfetto as counter tracks
    /// alongside spans. One event per (sample, counter), in sample order
    /// then each sample's counter order — fully deterministic. Counter
    /// names are `&'static str`s, so this allocates only the returned
    /// vector.
    pub fn counter_events_of(samples: &[Sample]) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(samples.iter().map(|s| s.counters.len()).sum::<usize>());
        for s in samples {
            for (name, value) in &s.counters {
                out.push(TraceEvent {
                    name,
                    cat: Category::Sim,
                    kind: EventKind::Counter,
                    cycle: s.cycle,
                    id: 0,
                    arg: *value,
                    link: 0,
                    seq: 0,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn samples_on_epoch_crossings_only() {
        let mut sampler = MetricsSampler::new(Cycles(100));
        let unread = || -> Vec<(&'static str, u64)> { panic!("no epoch was crossed") };
        assert_eq!(sampler.maybe_sample(Cycles(50), unread), 0);
        assert_eq!(sampler.maybe_sample(Cycles(100), || vec![("w", 1)]), 1);
        // Time jumped over epochs 200 and 300.
        assert_eq!(sampler.maybe_sample(Cycles(350), || vec![("w", 5)]), 2);
        assert_eq!(sampler.maybe_sample(Cycles(399), unread), 0);
        let cycles: Vec<u64> = sampler.samples().iter().map(|x| x.cycle.0).collect();
        assert_eq!(cycles, vec![100, 200, 300]);
        assert_eq!(sampler.samples()[0].counters, vec![("w", 1)]);
        assert_eq!(sampler.samples()[2].counters, vec![("w", 5)]);
    }

    #[test]
    fn finish_appends_final_unaligned_sample_once() {
        let counters = || vec![("w", 2)];
        let mut sampler = MetricsSampler::new(Cycles(100));
        sampler.finish(Cycles(150), counters);
        let cycles: Vec<u64> = sampler.samples().iter().map(|x| x.cycle.0).collect();
        assert_eq!(cycles, vec![100, 150]);
        assert!(sampler.samples().iter().all(|x| x.counters == counters()));
        // Aligned end: no duplicate.
        let mut sampler = MetricsSampler::new(Cycles(100));
        sampler.finish(Cycles(200), counters);
        let cycles: Vec<u64> = sampler.samples().iter().map(|x| x.cycle.0).collect();
        assert_eq!(cycles, vec![100, 200]);
    }

    #[test]
    fn counter_events_cover_every_sample_in_order() {
        let mut sampler = MetricsSampler::new(Cycles(10));
        sampler.maybe_sample(Cycles(10), || vec![("reads", 1)]);
        sampler.maybe_sample(Cycles(20), || vec![("reads", 1), ("writes", 3)]);
        let evs = MetricsSampler::counter_events_of(sampler.samples());
        assert_eq!(evs.len(), 3, "1 counter at t=10 + 2 at t=20");
        assert!(evs.iter().all(|e| e.kind == EventKind::Counter));
        assert_eq!(
            (evs[0].name, evs[0].cycle, evs[0].arg),
            ("reads", Cycles(10), 1)
        );
        assert_eq!(
            (evs[2].name, evs[2].cycle, evs[2].arg),
            ("writes", Cycles(20), 3)
        );
        // Round-trips through the Chrome exporter as "C" rows.
        let mut out = Vec::new();
        crate::chrome::export(&evs, 0, &mut out).unwrap();
        let doc = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let arr = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(arr
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("C")));
    }

    #[test]
    fn period_is_at_least_one() {
        let sampler = MetricsSampler::new(Cycles(0));
        assert_eq!(sampler.period(), Cycles(1));
    }
}
