//! Property-based tests of the histogram percentile math and registry
//! merge semantics.

use proptest::prelude::*;
use zcomp_trace::metrics::{Histogram, MetricsRegistry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_are_monotone(samples in proptest::collection::vec(0.0f64..1e12, 1..400)) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        prop_assert!(h.min() <= p50 && p99 <= h.max(),
            "percentiles escape [{}, {}]", h.min(), h.max());
    }

    #[test]
    fn percentile_is_within_one_bucket_of_truth(
        samples in proptest::collection::vec(1.0f64..1e9, 1..200),
        q in 0.01f64..1.0,
    ) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.percentile(q);
        // Log2 buckets: the upper bucket bound is at most 2x the true
        // order statistic and never below it (modulo min/max clamping).
        prop_assert!(est >= truth * 0.999, "estimate {est} below truth {truth}");
        prop_assert!(est <= truth * 2.001, "estimate {est} above 2x truth {truth}");
    }

    #[test]
    fn merge_preserves_totals_and_percentiles(
        a_samples in proptest::collection::vec(0.0f64..1e9, 0..200),
        b_samples in proptest::collection::vec(0.0f64..1e9, 0..200),
    ) {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for &s in &a_samples {
            a.record(s);
            combined.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            combined.record(s);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.count(), combined.count());
        prop_assert!((merged.sum() - combined.sum()).abs() <= 1e-6 * combined.sum().max(1.0));
        prop_assert_eq!(merged.min(), combined.min());
        prop_assert_eq!(merged.max(), combined.max());
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(merged.percentile(q), combined.percentile(q));
        }
    }

    #[test]
    fn registry_merge_is_associative(
        xs in proptest::collection::vec(0u64..1000, 3),
        vs in proptest::collection::vec(0.0f64..1e6, 3),
    ) {
        let mk = |x: u64, v: f64| {
            let mut r = MetricsRegistry::new();
            r.incr("count", x);
            r.observe("values", v);
            r
        };
        let (a, b, c) = (mk(xs[0], vs[0]), mk(xs[1], vs[1]), mk(xs[2], vs[2]));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let (l, r) = (left.summary(), right.summary());
        prop_assert_eq!(&l.counters, &r.counters);
        prop_assert_eq!(&l.gauges, &r.gauges);
        prop_assert_eq!(l.histograms.len(), r.histograms.len());
        for (lh, rh) in l.histograms.iter().zip(&r.histograms) {
            prop_assert_eq!(lh.count, rh.count);
            prop_assert_eq!(lh.min, rh.min);
            prop_assert_eq!(lh.max, rh.max);
            prop_assert_eq!((lh.p50, lh.p95, lh.p99), (rh.p50, rh.p95, rh.p99));
            // Float sums regroup, so associativity holds only to rounding.
            prop_assert!((lh.sum - rh.sum).abs() <= 1e-9 * rh.sum.abs().max(1.0));
        }
    }
}
