//! Serving experiment: sustainable QPS at fixed p99, compressed vs
//! uncompressed.
//!
//! For each network in the grid, two knee searches run on identical
//! serving nodes (same tenants, same arrival seeds, same SLO derived from
//! the *uncompressed* solo batch latency) differing only in the feature-map
//! scheme. The deliverable per network is the pair of knees — the paper's
//! Fig. 13/14 traffic-to-speedup story restated as "compression raises
//! the sustainable QPS at a fixed p99".
//!
//! The default grid serves GoogLeNet and VGG-16, the two networks whose
//! inference feature-map traffic is large enough for the shared-bandwidth
//! roofline to bind (see DESIGN.md "Serving scenario"); ResNet-32's maps
//! are cache-resident and AlexNet is weight-dominated, so neither would
//! test the claim.

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_sim::config::{config_fingerprint, SimConfig};

use crate::report::Table;
use crate::serve::knee::{derive_slo, find_knee, KneeOpts, KneeOutcome, ServeCurve};
use crate::serve::service::ServiceModel;
use crate::serve::ServeConfig;
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{run_cells, SweepError, SweepOpts, SweepOutcome};

/// The two schemes compared per network, in column order.
const SCHEMES: [Scheme; 2] = [Scheme::None, Scheme::Zcomp];

/// Grid-wide serving knobs (per-cell config is derived from these plus
/// the network).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeParams {
    /// Tenants sharing the node (truncates the default Poisson / bursty /
    /// diurnal mix).
    pub tenants: usize,
    /// Arrivals per tenant at each rate point.
    pub arrivals_per_tenant: usize,
    /// Sparsity drift epochs across the trace horizon.
    pub drift_epochs: usize,
    /// SLO as a multiple of the uncompressed solo full-batch latency.
    pub slo_factor: f64,
    /// Knee bisection iterations.
    pub bisect_iters: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            tenants: 3,
            arrivals_per_tenant: 600,
            drift_epochs: 2,
            slo_factor: 3.0,
            bisect_iters: 6,
            seed: 0x5eed_5e12e,
        }
    }
}

/// The serving grid: networks (with serving batch caps) × two schemes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeGridSpec {
    /// `(network, max_batch)` pairs; max_batch is the admission cap.
    pub networks: Vec<(ModelId, usize)>,
    /// Shared knobs.
    pub params: ServeParams,
}

impl ServeGridSpec {
    /// Default grid: the two bandwidth-bound inference networks.
    pub fn default_grid() -> Self {
        ServeGridSpec {
            networks: vec![(ModelId::Googlenet, 8), (ModelId::Vgg16, 4)],
            params: ServeParams::default(),
        }
    }

    /// Smoke grid: GoogLeNet only, two tenants, one drift epoch, shorter
    /// traces and a coarser bisection. Still a real knee search on the
    /// real simulator; the `perfbench` `serve_knee` workload starts from
    /// its parameters.
    pub fn smoke_grid() -> Self {
        ServeGridSpec {
            networks: vec![(ModelId::Googlenet, 8)],
            params: ServeParams {
                tenants: 2,
                arrivals_per_tenant: 250,
                drift_epochs: 1,
                bisect_iters: 4,
                ..ServeParams::default()
            },
        }
    }

    /// Divides trace lengths by `scale` (floored to a useful minimum) for
    /// quick local runs.
    pub fn scaled(mut self, scale: usize) -> Self {
        self.params.arrivals_per_tenant = (self.params.arrivals_per_tenant / scale.max(1)).max(120);
        self
    }
}

/// One network's compressed-vs-uncompressed knee pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRow {
    /// Network served.
    pub model: ModelId,
    /// Admission batch cap.
    pub max_batch: usize,
    /// Rate-sweep curve with `Scheme::None`.
    pub uncompressed: ServeCurve,
    /// Rate-sweep curve with `Scheme::Zcomp`.
    pub compressed: ServeCurve,
}

impl ServeRow {
    /// Compressed / uncompressed sustainable-QPS ratio (>1 means
    /// compression bought serving headroom).
    pub fn knee_ratio(&self) -> f64 {
        if self.uncompressed.knee_qps <= 0.0 {
            0.0
        } else {
            self.compressed.knee_qps / self.uncompressed.knee_qps
        }
    }
}

/// Complete serving-experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeResult {
    /// One row per grid network.
    pub rows: Vec<ServeRow>,
    /// Cells the supervised sweep quarantined; their curve slots hold
    /// empty placeholders.
    pub quarantined: Vec<CellFailure>,
}

impl ServeResult {
    /// The headline table: knee QPS per scheme and the ratio.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Sustainable QPS at fixed p99 (serving knee)",
            &[
                "network",
                "max_batch",
                "slo p99 (ms)",
                "knee none (qps)",
                "knee zcomp (qps)",
                "ratio",
            ],
        );
        for row in &self.rows {
            t.row([
                row.model.to_string(),
                row.max_batch.to_string(),
                format!("{:.2}", row.uncompressed.slo_p99_us / 1_000.0),
                format!("{:.1}", row.uncompressed.knee_qps),
                format!("{:.1}", row.compressed.knee_qps),
                format!("{:.3}x", row.knee_ratio()),
            ]);
        }
        t
    }

    /// Whether every row's compressed knee strictly beats uncompressed.
    pub fn all_compressed_higher(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                r.compressed.knee_qps > r.uncompressed.knee_qps && r.uncompressed.knee_qps > 0.0
            })
    }
}

/// Builds one cell's serving config (SLO fields still zero).
fn cell_config(model: ModelId, scheme: Scheme, max_batch: usize, p: &ServeParams) -> ServeConfig {
    let mut cfg = ServeConfig::new(model, scheme, max_batch);
    cfg.tenants.truncate(p.tenants.max(1));
    cfg.arrivals_per_tenant = p.arrivals_per_tenant;
    cfg.drift_epochs = p.drift_epochs;
    cfg.seed = p.seed;
    cfg
}

/// Runs one (network, scheme) knee search. The SLO is derived from the
/// *uncompressed* solo full-batch latency inside every cell — both scheme
/// cells therefore hold to the identical bound, and each cell stays
/// self-contained for the supervised sweep.
fn run_cell(model: ModelId, max_batch: usize, params: &ServeParams, scheme: Scheme) -> ServeCurve {
    let base_cfg = cell_config(model, Scheme::None, max_batch, params);
    let mut base_service = ServiceModel::for_network(&base_cfg);
    let (slo_ns, max_wait_ns) = derive_slo(&mut base_service, max_batch, params.slo_factor);

    let mut cfg = cell_config(model, scheme, max_batch, params);
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    let mut service = if scheme == Scheme::None {
        base_service
    } else {
        ServiceModel::for_network(&cfg)
    };
    let opts = KneeOpts {
        bisect_iters: params.bisect_iters,
        ..KneeOpts::default()
    };
    find_knee(&cfg, &mut service, &opts)
}

fn cell_key(model: ModelId, max_batch: usize, p: &ServeParams, scheme: Scheme) -> String {
    format!(
        "model={model};scheme={scheme:?};mb={max_batch};tenants={};arr={};epochs={};slofac={};bisect={};seed={:#x}",
        p.tenants, p.arrivals_per_tenant, p.drift_epochs, p.slo_factor, p.bisect_iters, p.seed
    )
}

/// Placeholder curve for a quarantined cell.
fn empty_curve(model: ModelId, scheme: Scheme) -> ServeCurve {
    ServeCurve {
        model,
        scheme,
        slo_p99_us: 0.0,
        capacity_estimate_qps: 0.0,
        knee_qps: 0.0,
        outcome: KneeOutcome::Infeasible,
        points: Vec::new(),
    }
}

fn assemble(
    grid: &ServeGridSpec,
    outcomes: Vec<CellOutcome<ServeCurve>>,
    quarantined: Vec<CellFailure>,
) -> ServeResult {
    let mut it = outcomes.into_iter();
    let mut rows = Vec::with_capacity(grid.networks.len());
    for &(model, max_batch) in &grid.networks {
        let mut curves = Vec::with_capacity(SCHEMES.len());
        for scheme in SCHEMES {
            let curve = match it.next().expect("one outcome per cell") {
                CellOutcome::Completed { value, .. } => value,
                CellOutcome::Quarantined(_) => empty_curve(model, scheme),
            };
            curves.push(curve);
        }
        let compressed = curves.pop().expect("two curves");
        let uncompressed = curves.pop().expect("two curves");
        rows.push(ServeRow {
            model,
            max_batch,
            uncompressed,
            compressed,
        });
    }
    ServeResult { rows, quarantined }
}

/// Runs the grid as a supervised sweep via [`run_cells`]: cells (one per
/// network × scheme) run sharded across threads, once each, with panic
/// quarantine and deterministic merge. With a cache root in
/// [`CacheMode::Auto`], cells the root's journal already holds restore
/// instead of executing; [`CacheMode::Refresh`] recomputes every cell.
///
/// [`CacheMode::Auto`]: crate::sweep::CacheMode::Auto
/// [`CacheMode::Refresh`]: crate::sweep::CacheMode::Refresh
pub fn run_sweep(
    grid: &ServeGridSpec,
    opts: &SweepOpts,
) -> Result<SweepOutcome<ServeResult>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "serve-sweep");
    let opts = &opts.reusing_journal();
    let fingerprint = opts.fingerprint(config_fingerprint(&SimConfig::table1()));
    let items = grid.networks.len() * SCHEMES.len();
    let cell_of = |idx: usize| {
        let (model, max_batch) = grid.networks[idx / SCHEMES.len()];
        (model, max_batch, SCHEMES[idx % SCHEMES.len()])
    };
    let key_of = |idx: usize| {
        let (model, max_batch, scheme) = cell_of(idx);
        cell_key(model, max_batch, &grid.params, scheme)
    };
    let make_job = |idx: usize| {
        let (model, max_batch, scheme) = cell_of(idx);
        move || run_cell(model, max_batch, &grid.params, scheme)
    };
    let run = run_cells("serve", items, fingerprint, opts, key_of, make_job)?;

    let result = assemble(grid, run.outcomes, run.report.quarantined.clone());
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CacheMode;
    use std::sync::OnceLock;

    /// A cheap real-simulator grid: ResNet-32 maps are tiny, so the
    /// service-time sims run in milliseconds. (The default grid's
    /// compressed>uncompressed claim is asserted on the committed record
    /// by `committed_record_keeps_the_knee_claim`, not here — ResNet-32
    /// is deliberately the network where compression does *not* pay.)
    fn tiny_grid() -> ServeGridSpec {
        ServeGridSpec {
            networks: vec![(ModelId::Resnet32, 4)],
            params: ServeParams {
                tenants: 2,
                arrivals_per_tenant: 150,
                drift_epochs: 1,
                bisect_iters: 3,
                ..ServeParams::default()
            },
        }
    }

    /// A serial, uncached sweep that must complete every cell.
    fn serial() -> ServeResult {
        let out = run_sweep(&tiny_grid(), &SweepOpts::serial()).expect("serial sweep");
        assert!(
            out.result.quarantined.is_empty(),
            "{:?}",
            out.result.quarantined
        );
        out.result
    }

    fn quick() -> &'static ServeResult {
        static RESULT: OnceLock<ServeResult> = OnceLock::new();
        RESULT.get_or_init(serial)
    }

    #[test]
    fn grid_produces_positive_knees_per_scheme() {
        let r = quick();
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert!(row.uncompressed.knee_qps > 0.0);
        assert!(row.compressed.knee_qps > 0.0);
        assert_eq!(row.uncompressed.scheme, Scheme::None);
        assert_eq!(row.compressed.scheme, Scheme::Zcomp);
        // Same SLO bound on both sides — that is what makes the knee
        // comparison meaningful.
        assert_eq!(row.uncompressed.slo_p99_us, row.compressed.slo_p99_us);
        assert!(row.uncompressed.slo_p99_us > 0.0);
    }

    #[test]
    fn curve_percentiles_are_ordered() {
        let r = quick();
        for curve in [&r.rows[0].uncompressed, &r.rows[0].compressed] {
            assert!(!curve.points.is_empty());
            for p in &curve.points {
                assert!(
                    p.p50_us <= p.p95_us && p.p95_us <= p.p99_us,
                    "{} qps: p50 {} p95 {} p99 {}",
                    p.offered_qps,
                    p.p50_us,
                    p.p95_us,
                    p.p99_us
                );
                for c in &p.classes {
                    assert!(c.p50_us <= c.p99_us, "{} qps {:?}", p.offered_qps, c);
                }
            }
        }
    }

    #[test]
    fn serial_run_is_deterministic() {
        let a = quick();
        let b = serial();
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn sweep_matches_serial_run() {
        let reference = quick();
        let sweep =
            run_sweep(&tiny_grid(), &SweepOpts::default().with_threads(2)).expect("sweep succeeds");
        assert_eq!(
            serde_json::to_string(reference).unwrap(),
            serde_json::to_string(&sweep.result).unwrap()
        );
    }

    #[test]
    fn cached_sweep_restores_every_cell_on_rerun() {
        let root = std::env::temp_dir().join(format!("zserve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::serial().with_cache(&root);
        let cold = run_sweep(&tiny_grid(), &opts).expect("cold sweep");
        let warm = run_sweep(&tiny_grid(), &opts).expect("warm sweep");
        let refreshed = run_sweep(&tiny_grid(), &opts.clone().with_mode(CacheMode::Refresh))
            .expect("refreshed sweep");
        let _ = std::fs::remove_dir_all(&root);

        let cells = tiny_grid().networks.len() * SCHEMES.len();
        assert_eq!(cold.supervision.executed, cells);
        assert_eq!(
            (warm.supervision.executed, warm.supervision.resume_skips),
            (0, cells)
        );
        assert_eq!(
            serde_json::to_string(&warm.result).unwrap(),
            serde_json::to_string(&cold.result).unwrap()
        );
        assert_eq!(
            (
                refreshed.supervision.executed,
                refreshed.supervision.resume_skips
            ),
            (cells, 0)
        );
    }

    /// The claim EXPERIMENTS makes of the committed `results/serve.json`,
    /// which the records test regenerates and `cmp`s, so this reads the
    /// code's own output: no cell was quarantined, and the compressed knee
    /// is strictly above the uncompressed one on every network.
    #[test]
    fn committed_record_keeps_the_knee_claim() {
        let r: ServeResult = serde_json::from_str(include_str!("../../../../results/serve.json"))
            .expect("the committed serving record parses");
        assert!(r.quarantined.is_empty(), "{:?}", r.quarantined);
        assert_eq!(r.rows.len(), ServeGridSpec::default_grid().networks.len());
        assert!(r.all_compressed_higher(), "{}", r.table().render());
    }

    #[test]
    fn table_renders() {
        assert!(quick().table().render().contains("resnet-32"));
    }
}
