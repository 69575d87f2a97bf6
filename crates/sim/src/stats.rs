//! Latency histograms: the open-loop front end keeps one per tenant for
//! its latency percentiles. (The memory controller's counters are the
//! fields of janus-core's `ControllerStats`.)

use std::collections::BTreeMap;
use std::fmt;

use crate::time::Cycles;

/// A latency histogram with power-of-two buckets plus exact mean/min/max.
///
/// Bucketing is coarse on purpose: it is used for reporting latency
/// distributions (e.g. a tenant's arrival → persistence latency) without
/// storing every sample.
///
/// ```
/// use janus_sim::{stats::Histogram, time::Cycles};
/// let mut h = Histogram::new();
/// h.record(Cycles(10));
/// h.record(Cycles(30));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), Some(Cycles(20)));
/// assert_eq!(h.max(), Cycles(30));
/// assert_eq!(Histogram::new().mean(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: Option<Cycles>,
    max: Cycles,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: Cycles) {
        let bucket = 64 - value.0.leading_zeros(); // log2 bucket; 0 for value 0
        *self.buckets.entry(bucket).or_insert(0) += 1;
        self.count += 1;
        self.sum += value.0 as u128;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean, or `None` if no samples were recorded.
    ///
    /// An empty histogram has no mean; returning a fabricated zero made
    /// empty-workload reports indistinguishable from genuinely-zero-latency
    /// ones, so callers must now decide how to present the absence.
    pub fn mean(&self) -> Option<Cycles> {
        if self.count == 0 {
            None
        } else {
            Some(Cycles((self.sum / self.count as u128) as u64))
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Cycles {
        Cycles(self.sum.min(u64::MAX as u128) as u64)
    }

    /// Smallest sample (zero if empty).
    pub fn min(&self) -> Cycles {
        self.min.unwrap_or(Cycles::ZERO)
    }

    /// Largest sample (zero if empty).
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Iterates over `(log2_bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(b, c)| (*b, *c))
    }

    /// Approximate percentile (`q` in \[0,1\]), or `None` if no samples were
    /// recorded.
    ///
    /// Locates the log2 bucket holding the q-quantile sample, then linearly
    /// interpolates by the sample's rank within that bucket — returning the
    /// bucket's *upper bound* regardless of rank overstated tail latency by
    /// up to 2× on coarse buckets. The result is clamped to the observed
    /// `[min, max]`, which also keeps `percentile(1.0)` exactly `max`.
    pub fn percentile(&self, q: f64) -> Option<Cycles> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, c) in &self.buckets {
            if seen + c >= target {
                // Bucket b covers [2^(b-1), 2^b - 1]; bucket 0 holds value 0.
                let (lo, hi) = if *b == 0 {
                    (0u64, 0u64)
                } else {
                    (1u64 << (b - 1), (1u64 << b) - 1)
                };
                // Rank of the target sample within this bucket, in (0, 1].
                let frac = (target - seen) as f64 / *c as f64;
                let v = lo + (frac * (hi - lo) as f64).round() as u64;
                return Some(Cycles(v).clamp(self.min(), self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Median ([`Histogram::percentile`] at 0.5).
    pub fn p50(&self) -> Option<Cycles> {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<Cycles> {
        self.percentile(0.99)
    }

    /// 99.9th percentile — the tail-latency metric the multi-tenant sweeps
    /// report alongside p50/p99.
    pub fn p999(&self) -> Option<Cycles> {
        self.percentile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if let Some(omin) = other.min {
            self.min = Some(self.min.map_or(omin, |m| m.min(omin)));
        }
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={} min={} max={}",
                self.count,
                mean,
                self.min(),
                self.max()
            ),
            None => write!(f, "n=0 (no samples)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new();
        for v in [5u64, 15, 100] {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Some(Cycles(40)));
        assert_eq!(h.min(), Cycles(5));
        assert_eq!(h.max(), Cycles(100));
        assert_eq!(h.sum(), Cycles(120));
    }

    #[test]
    fn histogram_empty_has_no_mean_or_percentile() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(1.0), None);
        assert_eq!(h.min(), Cycles::ZERO);
        assert_eq!(h.max(), Cycles::ZERO);
        assert_eq!(h.to_string(), "n=0 (no samples)");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(Cycles(1)); // bucket 1
        h.record(Cycles(2)); // bucket 2
        h.record(Cycles(3)); // bucket 2
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(Cycles(10));
        let mut b = Histogram::new();
        b.record(Cycles(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(Cycles(20)));
        assert_eq!(a.min(), Cycles(10));
        assert_eq!(a.max(), Cycles(30));
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(Cycles(v));
        }
        // Uniform 1..=100: the interpolated quantile stays within the
        // containing log2 bucket (never beyond its upper bound) …
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 >= Cycles(32) && p50 <= Cycles(63), "p50 = {p50}");
        assert!(p99 >= Cycles(64) && p99 <= Cycles(127), "p99 = {p99}");
        // … and pins these exact interpolated values: the p50 sample is
        // rank 50, the 19th of 32 samples in bucket [32, 63]
        // (32 + round(19/32·31) = 50); the p99 sample is rank 99, the 36th
        // of 37 samples in bucket [64, 127], clamped to the observed max
        // (64 + round(36/37·63) = 125 → 100).
        assert_eq!(p50, Cycles(50));
        assert_eq!(p99, Cycles(100));
        assert_eq!(h.percentile(1.0), Some(Cycles(100)), "p100 is exact max");
        assert_eq!(Histogram::new().percentile(0.5), None);
    }

    #[test]
    fn percentile_no_longer_overstates_coarse_tails() {
        // One low outlier plus a cluster near the bottom of a coarse
        // bucket: the old upper-bound rule reported 1023 for everything in
        // bucket [512, 1023].
        let mut h = Histogram::new();
        h.record(Cycles(100));
        for _ in 0..99 {
            h.record(Cycles(520));
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 < Cycles(800), "p50 = {p50} still at bucket bound");
        assert_eq!(h.percentile(1.0), Some(Cycles(520)));
        // Single-sample histogram: every quantile is that sample.
        let mut one = Histogram::new();
        one.record(Cycles(777));
        assert_eq!(one.percentile(0.01), Some(Cycles(777)));
        assert_eq!(one.percentile(1.0), Some(Cycles(777)));
    }

    #[test]
    fn named_percentile_accessors_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Cycles(i));
        }
        let (p50, p99, p999) = (h.p50().unwrap(), h.p99().unwrap(), h.p999().unwrap());
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p999 <= h.max());
        // p999 must actually sit in the tail above p99's bucket midpoint.
        assert!(p999 >= Cycles(9_000), "p999 = {p999}");
        assert_eq!(Histogram::new().p999(), None);
    }
}
