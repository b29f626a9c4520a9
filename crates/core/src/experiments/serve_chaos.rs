//! Chaos serving experiment: goodput and per-class p99 under instance
//! crashes and codec faults, compressed vs uncompressed vs degraded.
//!
//! The robustness question PR-1 answered at layer level — *a codec fault
//! need not fail the computation, it can brown out to uncompressed* — is
//! restated here at serving level. For each codec fault rate in the grid,
//! three identically-loaded serving nodes run the same seeded crash
//! schedule and the same arrival traces at the same offered rate (a fixed
//! fraction of the uncompressed capacity estimate):
//!
//! * **uncompressed** — `Scheme::None`; codec faults cannot strike, the
//!   crash process still does. The resilience baseline.
//! * **hard-fail** — `Scheme::Zcomp` with [`DegradePolicy::HardFail`]:
//!   the naive integration where any detected stream corruption fails
//!   every request in the batch.
//! * **degraded** — `Scheme::Zcomp` with [`DegradePolicy::Degrade`]: the
//!   PR-1 retry-then-uncompressed policy. Transient faults clear on a
//!   retry read; persistent faults brown the batch out to the
//!   uncompressed service profile. No request hard-fails.
//!
//! The headline claim: degraded-mode goodput tracks the uncompressed
//! baseline as the fault rate rises, while hard-fail goodput collapses —
//! compression's serving win (the PR-8 knee gap) does not have to be paid
//! back in fragility.
//!
//! One more cell runs the knee search itself under chaos (crashes + the
//! mid-grid fault rate, degrade policy) on the fixed fleet, reporting the
//! capacity estimate that survives the crash process.

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_sim::config::{config_fingerprint, SimConfig};

use crate::report::Table;
use crate::serve::admission::AdmissionConfig;
use crate::serve::chaos::{ChaosConfig, DegradePolicy};
use crate::serve::engine::{simulate, RatePoint};
use crate::serve::knee::{derive_slo, find_knee, KneeOpts, ServeCurve};
use crate::serve::service::ServiceModel;
use crate::serve::slo::SloClass;
use crate::serve::ServeConfig;
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{run_cells, SweepError, SweepOpts, SweepOutcome};

/// The three serving modes compared at every fault rate, in column order.
pub const MODES: [ChaosMode; 3] = [
    ChaosMode::Uncompressed,
    ChaosMode::HardFail,
    ChaosMode::Degraded,
];

/// One column of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChaosMode {
    /// `Scheme::None`: immune to codec faults, exposed to crashes.
    Uncompressed,
    /// `Scheme::Zcomp`, any stream fault fails the batch.
    HardFail,
    /// `Scheme::Zcomp`, PR-1 retry-then-uncompressed brownout.
    Degraded,
}

impl ChaosMode {
    /// Feature-map scheme this mode serves with.
    pub fn scheme(self) -> Scheme {
        match self {
            ChaosMode::Uncompressed => Scheme::None,
            ChaosMode::HardFail | ChaosMode::Degraded => Scheme::Zcomp,
        }
    }

    /// Degradation policy this mode applies to detected codec faults.
    pub fn policy(self) -> DegradePolicy {
        match self {
            // Irrelevant for the uncompressed node (no compressed stream
            // to fault); Degrade keeps the config honest.
            ChaosMode::Uncompressed | ChaosMode::Degraded => DegradePolicy::Degrade,
            ChaosMode::HardFail => DegradePolicy::HardFail,
        }
    }

    /// Short stable label for keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            ChaosMode::Uncompressed => "uncompressed",
            ChaosMode::HardFail => "hard_fail",
            ChaosMode::Degraded => "degraded",
        }
    }
}

/// Grid-wide chaos-serving knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosParams {
    /// Network served (one network — the grid axis is the fault rate).
    pub model: ModelId,
    /// Admission batch cap.
    pub max_batch: usize,
    /// Tenants sharing the node (truncates the default mix).
    pub tenants: usize,
    /// Arrivals per tenant.
    pub arrivals_per_tenant: usize,
    /// Sparsity drift epochs.
    pub drift_epochs: usize,
    /// SLO as a multiple of the uncompressed solo full-batch latency.
    pub slo_factor: f64,
    /// Offered rate as a fraction of the uncompressed capacity estimate
    /// (identical across modes so the curves compare like for like).
    pub offered_fraction: f64,
    /// Mean time to instance failure, seconds.
    pub mttf_s: f64,
    /// Mean time to instance recovery, seconds.
    pub mttr_s: f64,
    /// Fraction of codec faults that are transient.
    pub transient_fraction: f64,
    /// Retry-read cost as a fraction of the compressed service time.
    pub retry_cost_frac: f64,
    /// Codec fault rate of the knee cell.
    pub knee_fault_rate: f64,
    /// Knee bisection iterations of the knee cell.
    pub bisect_iters: usize,
    /// Master arrival/drift seed.
    pub seed: u64,
    /// Independent chaos seed (crash schedules and fault probes).
    pub chaos_seed: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            model: ModelId::Googlenet,
            max_batch: 8,
            tenants: 3,
            arrivals_per_tenant: 600,
            drift_epochs: 2,
            slo_factor: 3.0,
            offered_fraction: 0.6,
            mttf_s: 0.25,
            mttr_s: 0.05,
            transient_fraction: 0.25,
            retry_cost_frac: 0.25,
            knee_fault_rate: 0.05,
            bisect_iters: 4,
            seed: 0x5eed_5e12e,
            chaos_seed: 0xc4a0_5eed,
        }
    }
}

/// The chaos grid: codec fault rates × three modes, plus one knee search
/// under chaos.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosGridSpec {
    /// Per-batch codec fault probabilities swept.
    pub fault_rates: Vec<f64>,
    /// Shared knobs.
    pub params: ChaosParams,
}

impl ChaosGridSpec {
    /// Default grid: five fault rates from healthy to heavily faulted.
    pub fn default_grid() -> Self {
        ChaosGridSpec {
            fault_rates: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            params: ChaosParams::default(),
        }
    }

    /// Divides trace lengths by `scale` (floored) for quick local runs.
    pub fn scaled(mut self, scale: usize) -> Self {
        self.params.arrivals_per_tenant = (self.params.arrivals_per_tenant / scale.max(1)).max(120);
        self
    }

    /// Total supervised cells: one rate point per (fault rate, mode),
    /// plus the knee cell.
    pub fn cell_count(&self) -> usize {
        self.fault_rates.len() * MODES.len() + 1
    }
}

/// One supervised cell's payload: a rate point for grid cells, a knee
/// curve for the knee cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Grid-cell payload.
    pub point: Option<RatePoint>,
    /// Knee-cell payload.
    pub curve: Option<ServeCurve>,
}

/// One (fault rate, mode) observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCellResult {
    /// Codec fault rate of this cell.
    pub fault_rate: f64,
    /// Serving mode.
    pub mode: ChaosMode,
    /// The simulated rate point (`None` if the cell was quarantined).
    pub point: Option<RatePoint>,
}

/// Complete chaos-serving result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Grid observations, grouped by fault rate then [`MODES`] order.
    pub cells: Vec<ChaosCellResult>,
    /// The knee search under chaos (`None` if the cell was quarantined).
    pub knee: Option<ServeCurve>,
    /// Cells the supervised sweep quarantined (their payload slots hold
    /// `None`).
    pub quarantined: Vec<CellFailure>,
}

impl ChaosResult {
    /// The rate point of one (fault rate, mode) cell, if it completed.
    pub fn point(&self, fault_rate: f64, mode: ChaosMode) -> Option<&RatePoint> {
        self.cells
            .iter()
            .find(|c| c.fault_rate == fault_rate && c.mode == mode)
            .and_then(|c| c.point.as_ref())
    }

    /// Invariant: degraded mode never hard-fails a request — every codec
    /// fault resolves to a retry or an uncompressed brownout.
    pub fn degraded_never_hard_fails(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.mode == ChaosMode::Degraded)
            .filter_map(|c| c.point.as_ref())
            .all(|p| p.failed == 0)
    }

    /// Invariant: at every fault rate, degraded goodput is at least
    /// hard-fail goodput (hard-fail loses whole batches to faults that
    /// degrade merely slows down).
    pub fn degraded_goodput_dominates(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.mode == ChaosMode::Degraded)
            .all(|c| {
                match (
                    c.point.as_ref(),
                    self.point(c.fault_rate, ChaosMode::HardFail),
                ) {
                    (Some(degraded), Some(hard)) => degraded.goodput_qps >= hard.goodput_qps,
                    _ => true, // quarantined cells cannot fail the invariant
                }
            })
    }

    /// The headline table: goodput and per-class p99 per (fault rate,
    /// mode).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Goodput and per-class p99 under chaos (crashes + codec faults)",
            &[
                "fault rate",
                "mode",
                "goodput (qps)",
                "completed",
                "failed",
                "fallbacks",
                "p99 inter (ms)",
                "p99 batch (ms)",
                "crashes",
            ],
        );
        for cell in &self.cells {
            let Some(p) = &cell.point else {
                t.row([
                    format!("{:.3}", cell.fault_rate),
                    cell.mode.label().to_string(),
                    "quarantined".to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            let class_p99 = |class: SloClass| {
                p.classes
                    .iter()
                    .find(|c| c.class == class)
                    .map_or(0.0, |c| c.p99_us / 1_000.0)
            };
            t.row([
                format!("{:.3}", cell.fault_rate),
                cell.mode.label().to_string(),
                format!("{:.1}", p.goodput_qps),
                p.completed.to_string(),
                p.failed.to_string(),
                p.codec_fallbacks.to_string(),
                format!("{:.2}", class_p99(SloClass::Interactive)),
                format!("{:.2}", class_p99(SloClass::Batch)),
                p.crashes.to_string(),
            ]);
        }
        t
    }

    /// The knee-under-chaos table.
    pub fn knee_table(&self) -> Table {
        let mut t = Table::new(
            "Knee under chaos (crashes + codec faults, degrade policy)",
            &["knee (qps)", "outcome", "points probed", "crashes"],
        );
        match &self.knee {
            Some(c) => t.row([
                format!("{:.1}", c.knee_qps),
                c.outcome.label().to_string(),
                c.points.len().to_string(),
                c.points.iter().map(|p| p.crashes).sum::<u64>().to_string(),
            ]),
            None => t.row([
                "quarantined".to_string(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        };
        t
    }
}

/// Chaos process for one cell at `fault_rate`.
fn chaos_config(p: &ChaosParams, fault_rate: f64, policy: DegradePolicy) -> ChaosConfig {
    ChaosConfig {
        seed: p.chaos_seed,
        mttf_s: p.mttf_s,
        mttr_s: p.mttr_s,
        codec_fault_rate: fault_rate,
        transient_fraction: p.transient_fraction,
        retry_cost_frac: p.retry_cost_frac,
        policy,
    }
}

/// Builds one cell's serving config (SLO fields still zero).
fn cell_config(p: &ChaosParams, scheme: Scheme) -> ServeConfig {
    let mut cfg = ServeConfig::new(p.model, scheme, p.max_batch);
    cfg.tenants.truncate(p.tenants.max(1));
    cfg.arrivals_per_tenant = p.arrivals_per_tenant;
    cfg.drift_epochs = p.drift_epochs;
    cfg.seed = p.seed;
    cfg.admission = AdmissionConfig::protective();
    cfg
}

/// Derives the shared SLO and capacity anchor from the *uncompressed*
/// node, exactly as the PR-8 serve experiment does, so every mode holds
/// to the identical bound and offered rate.
fn slo_and_offered(p: &ChaosParams) -> (u64, u64, f64, ServiceModel) {
    let base_cfg = cell_config(p, Scheme::None);
    let mut base_service = ServiceModel::for_network(&base_cfg);
    let (slo_ns, max_wait_ns) = derive_slo(&mut base_service, p.max_batch, p.slo_factor);
    let solo_s = base_service.solo_ns(0, 0, p.max_batch) as f64 / 1e9;
    let capacity = (base_cfg.instances * p.max_batch) as f64 / solo_s;
    (
        slo_ns,
        max_wait_ns,
        capacity * p.offered_fraction,
        base_service,
    )
}

/// Runs one (fault rate, mode) grid cell.
fn run_point_cell(p: &ChaosParams, fault_rate: f64, mode: ChaosMode) -> ChaosCell {
    let (slo_ns, max_wait_ns, offered_qps, base_service) = slo_and_offered(p);
    let mut cfg = cell_config(p, mode.scheme());
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    cfg.chaos = Some(chaos_config(p, fault_rate, mode.policy()));
    let mut service = if mode.scheme() == Scheme::None {
        base_service
    } else {
        ServiceModel::for_network(&cfg)
    };
    ChaosCell {
        point: Some(simulate(&cfg, &mut service, offered_qps)),
        curve: None,
    }
}

/// Runs the knee cell: chaos on, degrade policy, at the mid-grid fault
/// rate.
fn run_knee_cell(p: &ChaosParams) -> ChaosCell {
    let (slo_ns, max_wait_ns, _, _) = slo_and_offered(p);
    let mut cfg = cell_config(p, Scheme::Zcomp);
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    cfg.chaos = Some(chaos_config(p, p.knee_fault_rate, DegradePolicy::Degrade));
    let mut service = ServiceModel::for_network(&cfg);
    let opts = KneeOpts {
        bisect_iters: p.bisect_iters,
        ..KneeOpts::default()
    };
    ChaosCell {
        point: None,
        curve: Some(find_knee(&cfg, &mut service, &opts)),
    }
}

/// Flat cell index → work description.
enum CellSpec {
    Point { fault_rate: f64, mode: ChaosMode },
    Knee,
}

fn cell_of(grid: &ChaosGridSpec, idx: usize) -> CellSpec {
    let grid_cells = grid.fault_rates.len() * MODES.len();
    if idx < grid_cells {
        CellSpec::Point {
            fault_rate: grid.fault_rates[idx / MODES.len()],
            mode: MODES[idx % MODES.len()],
        }
    } else {
        CellSpec::Knee
    }
}

fn cell_key(grid: &ChaosGridSpec, idx: usize) -> String {
    let p = &grid.params;
    let common = format!(
        "model={};mb={};tenants={};arr={};epochs={};slofac={};off={};mttf={};mttr={};tf={};rcf={};seed={:#x};chaos={:#x}",
        p.model,
        p.max_batch,
        p.tenants,
        p.arrivals_per_tenant,
        p.drift_epochs,
        p.slo_factor,
        p.offered_fraction,
        p.mttf_s,
        p.mttr_s,
        p.transient_fraction,
        p.retry_cost_frac,
        p.seed,
        p.chaos_seed
    );
    match cell_of(grid, idx) {
        CellSpec::Point { fault_rate, mode } => {
            format!("chaos;{common};rate={fault_rate};mode={}", mode.label())
        }
        CellSpec::Knee => format!(
            "chaos-knee;{common};rate={};bisect={}",
            p.knee_fault_rate, p.bisect_iters
        ),
    }
}

fn run_cell(grid: &ChaosGridSpec, idx: usize) -> ChaosCell {
    match cell_of(grid, idx) {
        CellSpec::Point { fault_rate, mode } => run_point_cell(&grid.params, fault_rate, mode),
        CellSpec::Knee => run_knee_cell(&grid.params),
    }
}

fn assemble(
    grid: &ChaosGridSpec,
    outcomes: Vec<CellOutcome<ChaosCell>>,
    quarantined: Vec<CellFailure>,
) -> ChaosResult {
    let mut cells = Vec::with_capacity(grid.fault_rates.len() * MODES.len());
    let mut knee = None;
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        let payload = match outcome {
            CellOutcome::Completed { value, .. } => Some(value),
            CellOutcome::Quarantined(_) => None,
        };
        match cell_of(grid, idx) {
            CellSpec::Point { fault_rate, mode } => cells.push(ChaosCellResult {
                fault_rate,
                mode,
                point: payload.and_then(|c| c.point),
            }),
            CellSpec::Knee => knee = payload.and_then(|c| c.curve),
        }
    }
    ChaosResult {
        cells,
        knee,
        quarantined,
    }
}

/// Runs the grid as a supervised sweep via [`run_cells`]: each cell runs
/// once, with panic quarantine. With a cache root in [`CacheMode::Auto`],
/// cells the root's journal already holds restore instead of executing;
/// [`CacheMode::Refresh`] recomputes every cell.
///
/// [`CacheMode::Auto`]: crate::sweep::CacheMode::Auto
/// [`CacheMode::Refresh`]: crate::sweep::CacheMode::Refresh
pub fn run_sweep(
    grid: &ChaosGridSpec,
    opts: &SweepOpts,
) -> Result<SweepOutcome<ChaosResult>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "serve_chaos-sweep");
    let opts = &opts.reusing_journal();
    let fingerprint = opts.fingerprint(config_fingerprint(&SimConfig::table1()));
    let key_of = |idx: usize| cell_key(grid, idx);
    let make_job = |idx: usize| move || run_cell(grid, idx);
    let run = run_cells(
        "serve_chaos",
        grid.cell_count(),
        fingerprint,
        opts,
        key_of,
        make_job,
    )?;

    let result = assemble(grid, run.outcomes, run.report.quarantined.clone());
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::knee::KneeOutcome;
    use crate::sweep::CacheMode;
    use std::sync::OnceLock;

    /// A cheap real-simulator grid: ResNet-32 service sims run in
    /// milliseconds, and two fault rates exercise both the clean and the
    /// heavily-faulted paths.
    fn tiny_grid() -> ChaosGridSpec {
        ChaosGridSpec {
            fault_rates: vec![0.0, 0.2],
            params: ChaosParams {
                model: ModelId::Resnet32,
                max_batch: 4,
                tenants: 2,
                arrivals_per_tenant: 150,
                drift_epochs: 1,
                bisect_iters: 2,
                ..ChaosParams::default()
            },
        }
    }

    /// A serial, uncached sweep that must complete every cell.
    fn serial() -> ChaosResult {
        let out = run_sweep(&tiny_grid(), &SweepOpts::serial()).expect("serial sweep");
        assert!(
            out.result.quarantined.is_empty(),
            "{:?}",
            out.result.quarantined
        );
        out.result
    }

    fn quick() -> &'static ChaosResult {
        static RESULT: OnceLock<ChaosResult> = OnceLock::new();
        RESULT.get_or_init(serial)
    }

    #[test]
    fn grid_covers_every_mode_and_rate() {
        let r = quick();
        assert_eq!(r.cells.len(), 6);
        for cell in &r.cells {
            let p = cell.point.as_ref().expect("serial run completes cells");
            assert!(p.completed > 0, "{:?} at {}", cell.mode, cell.fault_rate);
            assert!(p.crashes > 0, "the crash process must actually run");
        }
        // Codec faults strike only compressed modes at nonzero rates.
        let un = r.point(0.2, ChaosMode::Uncompressed).unwrap();
        assert_eq!(un.codec_faults, 0);
        let deg = r.point(0.2, ChaosMode::Degraded).unwrap();
        assert!(deg.codec_faults > 0);
    }

    #[test]
    fn degrade_invariants_hold() {
        let r = quick();
        assert!(r.degraded_never_hard_fails());
        assert!(r.degraded_goodput_dominates());
        let hard = r.point(0.2, ChaosMode::HardFail).unwrap();
        assert!(hard.failed > 0, "hard-fail must actually fail requests");
    }

    #[test]
    fn knee_search_runs_under_chaos_on_the_fixed_fleet() {
        let r = quick();
        let knee = r.knee.as_ref().expect("serial run completes the knee cell");
        assert_eq!(knee.outcome, KneeOutcome::Converged);
        assert!(knee.knee_qps > 0.0);
        let p = &tiny_grid().params;
        assert!(
            knee.points.len() >= p.bisect_iters,
            "{} points probed, {} bisection steps",
            knee.points.len(),
            p.bisect_iters
        );
        let instances = cell_config(p, Scheme::Zcomp).instances as f64;
        for point in &knee.points {
            assert!(point.crashes > 0, "no crash at {} qps", point.offered_qps);
            assert!(point.mean_instances <= instances, "{point:?}");
        }
    }

    #[test]
    fn serial_run_is_deterministic() {
        let a = quick();
        let b = serial();
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "chaos grid must replay byte-identically"
        );
    }

    #[test]
    fn sweep_matches_serial_run() {
        let reference = quick();
        let sweep =
            run_sweep(&tiny_grid(), &SweepOpts::default().with_threads(2)).expect("sweep succeeds");
        assert_eq!(
            serde_json::to_string(reference).unwrap(),
            serde_json::to_string(&sweep.result).unwrap(),
            "sweep must match the serial run"
        );
    }

    #[test]
    fn cached_sweep_restores_every_cell_on_rerun() {
        let root = std::env::temp_dir().join(format!("zchaos-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::serial().with_cache(&root);
        let cold = run_sweep(&tiny_grid(), &opts).expect("cold sweep");
        let warm = run_sweep(&tiny_grid(), &opts).expect("warm sweep");
        let refreshed = run_sweep(&tiny_grid(), &opts.clone().with_mode(CacheMode::Refresh))
            .expect("refreshed sweep");
        let _ = std::fs::remove_dir_all(&root);

        let cells = tiny_grid().cell_count();
        assert_eq!(cold.supervision.executed, cells);
        assert_eq!(
            (warm.supervision.executed, warm.supervision.resume_skips),
            (0, cells)
        );
        assert_eq!(
            serde_json::to_string(&cold.result).unwrap(),
            serde_json::to_string(&warm.result).unwrap(),
            "a restored sweep must match the computed one"
        );
        assert_eq!(
            (
                refreshed.supervision.executed,
                refreshed.supervision.resume_skips
            ),
            (cells, 0)
        );
    }

    /// The claims EXPERIMENTS makes of the committed
    /// `results/serve_chaos.json`, which the records test regenerates and
    /// `cmp`s, so this reads the code's own output: degraded goodput is at
    /// least hard-fail goodput at fault rates 0.1 and 0.2 (not at 0.05,
    /// where the two nearly tie), and no degraded request ever hard-fails.
    #[test]
    fn committed_record_keeps_the_degrade_claims() {
        let r: ChaosResult =
            serde_json::from_str(include_str!("../../../../results/serve_chaos.json"))
                .expect("the committed chaos record parses");
        assert!(r.quarantined.is_empty(), "{:?}", r.quarantined);
        for rate in [0.1, 0.2] {
            let deg = r.point(rate, ChaosMode::Degraded).expect("degraded cell");
            let hard = r.point(rate, ChaosMode::HardFail).expect("hard-fail cell");
            assert!(
                deg.goodput_qps >= hard.goodput_qps,
                "fault rate {rate}: degraded {} < hard-fail {}",
                deg.goodput_qps,
                hard.goodput_qps
            );
        }
        let degraded = r.cells.iter().filter(|c| c.mode == ChaosMode::Degraded);
        assert_eq!(
            degraded.count(),
            ChaosGridSpec::default_grid().fault_rates.len()
        );
        assert!(r.degraded_never_hard_fails());
    }

    #[test]
    fn tables_render() {
        let r = quick();
        assert!(r.table().render().contains("degraded"));
        let knee = r.knee_table().render();
        assert!(knee.contains("Knee under chaos"), "{knee}");
        assert!(knee.contains("converged"), "{knee}");
    }
}
