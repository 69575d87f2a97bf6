//! Simulation statistics: counters, latency histograms, and named sets.
//!
//! Every figure in the paper's evaluation reduces to ratios of execution
//! times plus a handful of auxiliary statistics (e.g. §5.2.2's "only 45.13%
//! of BMOs have been completely pre-executed"). These types collect them.

use std::collections::BTreeMap;
use std::fmt;

// (BTreeMap remains in use for the histogram's sparse log2 buckets, which
// must iterate in ascending bucket order.)

use crate::time::Cycles;

/// A monotonically increasing event counter.
///
/// ```
/// use janus_sim::stats::Counter;
/// let mut writes = Counter::default();
/// writes.add(3);
/// writes.incr();
/// assert_eq!(writes.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` occurrences.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one occurrence.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A latency histogram with power-of-two buckets plus exact mean/min/max.
///
/// Bucketing is coarse on purpose: it is used for reporting latency
/// distributions (e.g. critical write latency) without storing every sample.
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

/// A stable handle to a counter in one [`StatSet`], from
/// [`StatSet::counter_id`]. Bumping through a handle is a plain vector
/// index — no name lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// A stable handle to a histogram in one [`StatSet`], from
/// [`StatSet::histogram_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A named collection of counters and histograms, keyed by static strings.
///
/// Components register statistics lazily by name; the experiment harness
/// reads them back for reporting. Hot-path components intern their names
/// once ([`StatSet::counter_id`] / [`StatSet::histogram_id`]) and then
/// update by handle: storage is insertion-ordered vectors with a hash index
/// by name, so a handle access is one bounds-checked vector index instead
/// of a string-keyed map walk per event. Reporting iterators sort by name
/// on demand (they run once per report, not per event), so exported output
/// is independent of registration order.
#[derive(Clone, Debug, Default)]
pub struct StatSet {
    counters: Vec<(&'static str, Counter)>,
    counter_index: crate::hash::FxHashMap<&'static str, usize>,
    histograms: Vec<(&'static str, Histogram)>,
    histogram_index: crate::hash::FxHashMap<&'static str, usize>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, creating the counter if needed, and returns its
    /// stable handle.
    pub fn counter_id(&mut self, name: &'static str) -> CounterId {
        if let Some(&i) = self.counter_index.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push((name, Counter::default()));
        self.counter_index.insert(name, i);
        CounterId(i)
    }

    /// Mutable access to a counter by interned handle (O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different `StatSet`.
    pub fn counter_by_id(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters[id.0].1
    }

    /// Mutable access to (and lazy creation of) a named counter.
    pub fn counter(&mut self, name: &'static str) -> &mut Counter {
        let id = self.counter_id(name);
        self.counter_by_id(id)
    }

    /// Reads a counter's value (zero if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&i| self.counters[i].1.get())
    }

    /// Interns `name`, creating the histogram if needed, and returns its
    /// stable handle.
    pub fn histogram_id(&mut self, name: &'static str) -> HistogramId {
        if let Some(&i) = self.histogram_index.get(name) {
            return HistogramId(i);
        }
        let i = self.histograms.len();
        self.histograms.push((name, Histogram::default()));
        self.histogram_index.insert(name, i);
        HistogramId(i)
    }

    /// Mutable access to a histogram by interned handle (O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different `StatSet`.
    pub fn histogram_by_id(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms[id.0].1
    }

    /// Mutable access to (and lazy creation of) a named histogram.
    pub fn histogram(&mut self, name: &'static str) -> &mut Histogram {
        let id = self.histogram_id(name);
        self.histogram_by_id(id)
    }

    /// Reads a histogram (if it exists).
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&i| &self.histograms[i].1)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut v: Vec<(&'static str, u64)> =
            self.counters.iter().map(|(n, c)| (*n, c.get())).collect();
        v.sort_unstable_by_key(|(n, _)| *n);
        v.into_iter()
    }

    /// Iterates over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        let mut v: Vec<(&'static str, &Histogram)> =
            self.histograms.iter().map(|(n, h)| (*n, h)).collect();
        v.sort_unstable_by_key(|(n, _)| *n);
        v.into_iter()
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            writeln!(f, "{name}: {value}")?;
        }
        for (name, h) in self.histograms() {
            writeln!(f, "{name}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

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

    #[test]
    fn statset_lazily_creates() {
        let mut s = StatSet::new();
        s.counter("writes").add(2);
        s.histogram("latency").record(Cycles(8));
        assert_eq!(s.counter_value("writes"), 2);
        assert_eq!(s.counter_value("missing"), 0);
        assert_eq!(s.histogram_ref("latency").unwrap().count(), 1);
        assert!(s.histogram_ref("missing").is_none());
        let names: Vec<_> = s.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["writes"]);
    }

    #[test]
    fn statset_handles_alias_names() {
        let mut s = StatSet::new();
        let id = s.counter_id("writes");
        s.counter_by_id(id).add(3);
        s.counter("writes").incr();
        assert_eq!(s.counter_id("writes"), id, "interning is stable");
        assert_eq!(s.counter_value("writes"), 4);
        let h = s.histogram_id("lat");
        s.histogram_by_id(h).record(Cycles(7));
        assert_eq!(s.histogram_ref("lat").unwrap().count(), 1);
        assert_eq!(s.histogram_id("lat"), h);
    }

    #[test]
    fn statset_iterates_in_name_order_regardless_of_registration() {
        let mut s = StatSet::new();
        s.counter("zeta").incr();
        s.counter("alpha").incr();
        s.counter("mid").incr();
        s.histogram("z_lat").record(Cycles(1));
        s.histogram("a_lat").record(Cycles(1));
        let counter_names: Vec<_> = s.counters().map(|(n, _)| n).collect();
        assert_eq!(counter_names, vec!["alpha", "mid", "zeta"]);
        let histo_names: Vec<_> = s.histograms().map(|(n, _)| n).collect();
        assert_eq!(histo_names, vec!["a_lat", "z_lat"]);
    }
}
