//! Rate sweep and SLO-knee bisection.
//!
//! An open-loop latency curve is flat until the offered rate approaches
//! capacity, then queueing delay blows up super-linearly — the *knee*.
//! [`find_knee`] locates it with a doubling scan (bracket the first
//! unsustainable rate) followed by geometric bisection (latency grows
//! multiplicatively near saturation, so midpoints in log space converge
//! evenly). The knee is the highest offered QPS whose rate point is
//! sustainable: completions happened, drops within tolerance, and the
//! exact (nearest-rank) p99 of the point's latencies under the SLO.

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;

use super::arrival::NS_PER_SEC;
use super::engine::{simulate, RatePoint};
use super::service::ServiceModel;
use super::ServeConfig;

/// Knee-search controls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KneeOpts {
    /// Geometric bisection iterations after bracketing (each narrows the
    /// bracket by its square root).
    pub bisect_iters: usize,
    /// First probed rate, as a fraction of the node's ideal capacity
    /// (instances × max_batch / solo batch time).
    pub start_fraction: f64,
    /// Cap on doubling/halving steps while bracketing.
    pub max_scan_steps: usize,
}

impl Default for KneeOpts {
    fn default() -> Self {
        KneeOpts {
            bisect_iters: 6,
            start_fraction: 0.05,
            max_scan_steps: 12,
        }
    }
}

/// How the knee search terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KneeOutcome {
    /// The doubling scan bracketed an unsustainable rate and bisection
    /// converged — `knee_qps` is a real capacity estimate.
    Converged,
    /// Every probed rate stayed sustainable through `max_scan_steps`
    /// doublings: `knee_qps` is only a *lower bound*. The scan used to
    /// silently saturate here and report the last probe as the knee; the
    /// outcome makes the unfinished bracket visible so callers can widen
    /// the scan instead of publishing a too-small capacity.
    Unbounded,
    /// No probed rate was sustainable, even after halving down
    /// `max_scan_steps` times — `knee_qps` is zero.
    Infeasible,
}

impl KneeOutcome {
    /// Short stable label for tables and JSON-adjacent text.
    pub fn label(self) -> &'static str {
        match self {
            KneeOutcome::Converged => "converged",
            KneeOutcome::Unbounded => "unbounded",
            KneeOutcome::Infeasible => "infeasible",
        }
    }
}

/// A full rate-sweep curve for one (model, scheme) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCurve {
    /// Network served.
    pub model: ModelId,
    /// Compression scheme.
    pub scheme: Scheme,
    /// p99 SLO the knee is held to, microseconds.
    pub slo_p99_us: f64,
    /// Ideal capacity estimate (instances × max_batch / solo batch
    /// seconds), QPS; the scan's scale anchor.
    pub capacity_estimate_qps: f64,
    /// Highest sustainable offered QPS found.
    pub knee_qps: f64,
    /// Whether the search converged, saturated its scan (knee is a lower
    /// bound), or found nothing sustainable.
    pub outcome: KneeOutcome,
    /// Every rate point probed, sorted by offered QPS.
    pub points: Vec<RatePoint>,
}

/// Derives the latency SLO for a serving cell: `slo_factor` × the solo
/// *uncompressed* full-batch service time, so compressed and uncompressed
/// cells are held to the identical bound. Returns `(slo_ns, max_wait_ns)`
/// with the batching deadline at a quarter of the SLO.
pub fn derive_slo(
    uncompressed: &mut ServiceModel,
    max_batch: usize,
    slo_factor: f64,
) -> (u64, u64) {
    let solo = uncompressed.solo_ns(0, 0, max_batch);
    let slo_ns = (slo_factor * solo as f64) as u64;
    (slo_ns, slo_ns / 4)
}

/// Sweeps offered rate for `cfg`, returning the probed curve and knee.
pub fn find_knee(cfg: &ServeConfig, service: &mut ServiceModel, opts: &KneeOpts) -> ServeCurve {
    cfg.validate();
    let _span = zcomp_trace::tracer::span("serve", "knee_search");
    let solo_ns = service.solo_ns(0, 0, cfg.max_batch);
    let capacity = (cfg.instances * cfg.max_batch) as f64 / (solo_ns as f64 / NS_PER_SEC);

    let mut points: Vec<RatePoint> = Vec::new();
    let mut eval = |qps: f64, points: &mut Vec<RatePoint>| -> bool {
        let p = simulate(cfg, service, qps);
        let ok = p.sustainable;
        points.push(p);
        ok
    };

    // Bracket: double from the start rate until unsustainable (or halve
    // until sustainable if the start already blows the SLO).
    let start = (capacity * opts.start_fraction).max(1.0);
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;
    let mut q = start;
    if eval(q, &mut points) {
        lo = Some(q);
        for _ in 0..opts.max_scan_steps {
            q *= 2.0;
            if eval(q, &mut points) {
                lo = Some(q);
            } else {
                hi = Some(q);
                break;
            }
        }
    } else {
        hi = Some(q);
        for _ in 0..opts.max_scan_steps {
            q /= 2.0;
            if eval(q, &mut points) {
                lo = Some(q);
                break;
            } else {
                hi = Some(q);
            }
        }
    }

    let (knee, outcome) = match (lo, hi) {
        (Some(mut lo), Some(mut hi)) => {
            for _ in 0..opts.bisect_iters {
                let mid = (lo * hi).sqrt();
                if eval(mid, &mut points) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (lo, KneeOutcome::Converged)
        }
        // Never became unsustainable within the scan: the last
        // sustainable rate is only a lower bound — surface that instead
        // of silently saturating.
        (Some(lo), None) => (lo, KneeOutcome::Unbounded),
        // Nothing sustainable at any probed rate.
        (None, _) => (0.0, KneeOutcome::Infeasible),
    };

    points.sort_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps));
    ServeCurve {
        model: cfg.model,
        scheme: cfg.scheme,
        slo_p99_us: cfg.slo_ns as f64 / 1_000.0,
        capacity_estimate_qps: capacity,
        knee_qps: knee,
        outcome,
        points,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::super::arrival::ArrivalShape;
    use super::super::service::ServiceProfile;
    use super::super::slo::SloClass;
    use super::super::TenantSpec;
    use super::*;

    fn one_ms_cfg() -> (ServeConfig, impl Fn() -> ServiceModel) {
        let mut cfg = ServeConfig::new(ModelId::Googlenet, Scheme::None, 1);
        cfg.instances = 2;
        cfg.arrivals_per_tenant = 500;
        cfg.tenants = vec![TenantSpec {
            shape: ArrivalShape::Poisson,
            weight: 1.0,
            class: SloClass::Interactive,
        }];
        let mut profiles = BTreeMap::new();
        profiles.insert(
            1usize,
            ServiceProfile {
                base_cycles: 1_000_000.0,
                dram_bytes: 0.0,
                noc_bytes: 0.0,
            },
        );
        let make_service = move || ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles.clone());
        (cfg, make_service)
    }

    #[test]
    fn knee_lands_between_half_and_full_capacity() {
        // 1 ms fixed batches, 2 instances, no batching: ideal capacity
        // 2000 qps. The knee must land in a sane band below it.
        let (mut cfg, make_service) = one_ms_cfg();
        let (slo, wait) = derive_slo(&mut make_service(), 1, 3.0);
        cfg.slo_ns = slo;
        cfg.max_wait_ns = wait;
        assert_eq!(slo, 3_000_000);

        let mut service = make_service();
        let curve = find_knee(&cfg, &mut service, &KneeOpts::default());
        assert!((curve.capacity_estimate_qps - 2000.0).abs() < 1.0);
        assert_eq!(curve.outcome, KneeOutcome::Converged);
        assert!(
            curve.knee_qps > 400.0 && curve.knee_qps <= 2100.0,
            "knee {}",
            curve.knee_qps
        );
        assert!(curve
            .points
            .windows(2)
            .all(|w| w[0].offered_qps <= w[1].offered_qps));

        // Byte-identical re-run.
        let again = find_knee(&cfg, &mut make_service(), &KneeOpts::default());
        assert_eq!(
            serde_json::to_string(&curve).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "knee search must replay byte-identically"
        );
    }

    #[test]
    fn saturated_scan_reports_unbounded_not_a_knee() {
        // One doubling step from 5% of capacity can never reach the
        // saturation point: the scan must say so instead of passing the
        // last probe off as the knee.
        let (mut cfg, make_service) = one_ms_cfg();
        let (slo, wait) = derive_slo(&mut make_service(), 1, 3.0);
        cfg.slo_ns = slo;
        cfg.max_wait_ns = wait;
        let opts = KneeOpts {
            max_scan_steps: 1,
            ..KneeOpts::default()
        };
        let curve = find_knee(&cfg, &mut make_service(), &opts);
        assert_eq!(curve.outcome, KneeOutcome::Unbounded);
        assert!(
            curve.knee_qps < curve.capacity_estimate_qps / 2.0,
            "the reported lower bound ({}) is far from capacity ({})",
            curve.knee_qps,
            curve.capacity_estimate_qps
        );
    }

    #[test]
    fn impossible_slo_reports_infeasible() {
        let (mut cfg, make_service) = one_ms_cfg();
        // 1 ms service time against a 1 µs SLO: nothing can ever pass.
        cfg.slo_ns = 1_000;
        cfg.max_wait_ns = 250;
        let curve = find_knee(&cfg, &mut make_service(), &KneeOpts::default());
        assert_eq!(curve.outcome, KneeOutcome::Infeasible);
        assert_eq!(curve.knee_qps, 0.0);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(KneeOutcome::Converged.label(), "converged");
        assert_eq!(KneeOutcome::Unbounded.label(), "unbounded");
        assert_eq!(KneeOutcome::Infeasible.label(), "infeasible");
    }
}
