//! Metrics registry: monotonic counters, gauges and log-scaled histograms.
//!
//! A [`MetricsRegistry`] is a plain value the caller owns — the serving
//! engine creates one per rate point, records into it and embeds its
//! [`MetricsSummary`] snapshot in its deterministic JSON reports. Nothing here is global or
//! feature-gated; determinism comes from `BTreeMap`'s sorted iteration
//! order.
//!
//! Histograms bucket values by powers of two (64 buckets covering
//! `[0, 2^63)`), so a histogram is a few hundred bytes regardless of
//! sample count, merging is bucket-wise addition, and percentile queries
//! are a cumulative walk. The price is resolution: a reported percentile
//! is the upper bound of its bucket (clamped to the observed min/max), i.e.
//! within 2x of the true order statistic — plenty for p50/p95/p99 summary
//! reporting.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets.
const BUCKETS: usize = 64;

/// A fixed-size log-scaled histogram of non-negative samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index of a sample: bucket 0 holds `[0, 1)`, bucket `b >= 1`
/// holds `[2^(b-1), 2^b)`.
fn bucket_of(v: f64) -> usize {
    if v < 1.0 {
        0
    } else {
        ((v.log2().floor() as usize) + 1).min(BUCKETS - 1)
    }
}

/// Upper bound of a bucket, the value percentile queries report.
fn bucket_upper(b: usize) -> f64 {
    (1u128 << b.min(BUCKETS - 1)) as f64
}

impl Histogram {
    /// Records one sample. Negative and non-finite samples are clamped to
    /// zero — the workloads only produce non-negative measurements, and a
    /// histogram must never poison a report with NaN.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in 0.0–1.0) as the upper bound of the bucket
    /// holding the order statistic, clamped to the observed `[min, max]`.
    /// Returns 0.0 for an empty histogram. Monotone in `q` by
    /// construction, so `percentile(0.50) <= percentile(0.95) <=
    /// percentile(0.99)` always holds.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_upper(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Counts and sums add
    /// exactly; min/max and every bucket combine, so percentiles of the
    /// merge equal percentiles of recording both sample sets into one
    /// histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Snapshot used in JSON reports.
    pub fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Serializable percentile snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Registry key.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (upper bucket bound).
    pub p50: f64,
    /// 95th percentile (upper bucket bound).
    pub p95: f64,
    /// 99th percentile (upper bucket bound).
    pub p99: f64,
}

/// Named counters, gauges and histograms for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the monotonic counter `name`.
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another registry: counters add, gauges take the other's
    /// value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic snapshot (sorted by name) for embedding in reports.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, h)| h.summary(k)).collect(),
        }
    }
}

/// Serializable snapshot of a whole registry, sorted by metric name so
/// repeated runs produce byte-identical JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Monotonic counters as `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram percentile summaries.
    pub histograms: Vec<HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn single_sample_percentiles_are_exactish() {
        let mut h = Histogram::default();
        h.record(100.0);
        // One sample: every percentile clamps to [min, max] = [100, 100].
        assert_eq!(h.percentile(0.5), 100.0);
        assert_eq!(h.percentile(0.99), 100.0);
        assert_eq!(h.min(), 100.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Log-scaled buckets: within 2x of the true order statistic.
        assert!((250.0..=1000.0).contains(&p50), "{p50}");
        assert!((500.0..=1000.0).contains(&p95), "{p95}");
    }

    #[test]
    fn negative_and_nan_samples_clamp_to_zero() {
        let mut h = Histogram::default();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..100 {
            a.record(i as f64);
            b.record((i * 7) as f64);
        }
        let (ca, sa) = (a.count(), a.sum());
        let (cb, sb) = (b.count(), b.sum());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert!((a.sum() - (sa + sb)).abs() < 1e-9);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.incr("layers", 3);
        r.incr("layers", 2);
        r.gauge("speedup", 1.11);
        r.observe("cycles", 10.0);
        r.observe("cycles", 20.0);
        assert_eq!(r.counter("layers"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge_value("speedup"), Some(1.11));
        assert_eq!(r.histogram("cycles").unwrap().count(), 2);
    }

    #[test]
    fn registry_merge_and_summary_are_deterministic() {
        let mut a = MetricsRegistry::new();
        a.incr("x", 1);
        a.observe("h", 4.0);
        let mut b = MetricsRegistry::new();
        b.incr("x", 2);
        b.incr("y", 1);
        b.gauge("g", 0.5);
        b.observe("h", 8.0);
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.counters, vec![("x".into(), 3), ("y".into(), 1)]);
        assert_eq!(s.gauges, vec![("g".into(), 0.5)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].count, 2);
        // Summaries of equal registries are equal (and thus serialize
        // byte-identically through the insertion-ordered JSON writer).
        assert_eq!(s, a.summary());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        r.incr("n", 7);
        r.gauge("g", 2.5);
        r.observe("h", 3.0);
        let s = r.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
