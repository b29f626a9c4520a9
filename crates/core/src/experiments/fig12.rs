//! Figure 12 — ReLU activation layers over 44 DeepBench shapes.
//!
//! (a) Core↔cache-hierarchy data traffic, (b) off-chip DRAM traffic and
//! (c) runtime, for `avx512-vec`, `avx512-comp` and `zcomp`. The paper's
//! headline numbers: traffic reductions of 42%/46% (core) and 48%/54%
//! (DRAM) for avx512-comp/zcomp, a 77% average ZCOMP speedup over the
//! baseline with superlinear spots up to 12x at the cache-fit crossover,
//! and only two small-input outliers where ZCOMP loses ≤4%.

use serde::{Deserialize, Serialize};
use zcomp_dnn::deepbench::DeepBenchConfig;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu, ReluOpts, ReluRunResult, ReluScheme};
use zcomp_sim::config::{config_fingerprint, SimConfig};
use zcomp_sim::engine::Machine;
use zcomp_sim::stats::PrefetchStats;

use crate::report::{fmt_bytes, mean, pct, Table};
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{run_cells, SweepError, SweepOpts, SweepOutcome};

/// The three schemes in plotting order.
pub const SCHEMES: [ReluScheme; 3] = [
    ReluScheme::Avx512Vec,
    ReluScheme::Avx512Comp,
    ReluScheme::Zcomp,
];

/// Measurements of one (config, scheme) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Cell {
    /// Scheme measured.
    pub scheme: ReluScheme,
    /// Cache-hierarchy traffic in bytes — demand plus inter-level line
    /// fills (Fig. 12(a)).
    pub onchip_bytes: u64,
    /// DRAM traffic in bytes (Fig. 12(b)).
    pub dram_bytes: u64,
    /// Runtime in cycles (Fig. 12(c)).
    pub cycles: f64,
    /// Output compression ratio.
    pub compression_ratio: f64,
}

/// All cells of one DeepBench configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig12Row {
    /// The configuration.
    pub config: DeepBenchConfig,
    /// Elements actually simulated (after any scale-down).
    pub simulated_elements: usize,
    /// One cell per scheme.
    pub cells: Vec<Fig12Cell>,
}

impl Fig12Row {
    fn cell(&self, scheme: ReluScheme) -> &Fig12Cell {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme)
            .expect("every scheme is measured")
    }

    /// Speedup of `scheme` over the avx512-vec baseline.
    pub fn speedup(&self, scheme: ReluScheme) -> f64 {
        self.cell(ReluScheme::Avx512Vec).cycles / self.cell(scheme).cycles
    }

    /// Traffic reduction (cache hierarchy) of `scheme` vs baseline.
    pub fn core_reduction(&self, scheme: ReluScheme) -> f64 {
        1.0 - self.cell(scheme).onchip_bytes as f64
            / self.cell(ReluScheme::Avx512Vec).onchip_bytes as f64
    }

    /// Traffic reduction (DRAM) of `scheme` vs baseline.
    pub fn dram_reduction(&self, scheme: ReluScheme) -> f64 {
        let base = self.cell(ReluScheme::Avx512Vec).dram_bytes;
        if base == 0 {
            0.0
        } else {
            1.0 - self.cell(scheme).dram_bytes as f64 / base as f64
        }
    }
}

/// Complete Figure 12 result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig12Result {
    /// Per-configuration rows, suite-grouped and size-sorted.
    pub rows: Vec<Fig12Row>,
    /// L2 prefetcher effectiveness aggregated over the zcomp runs
    /// (§3.3 reports 98–99% accuracy, 94–97% coverage).
    pub zcomp_prefetch: PrefetchStats,
    /// Cells the supervised sweep quarantined (they panicked), in index
    /// order. Their row slots hold zeroed placeholder cells so the report
    /// shape — and byte layout — is independent of *which* cells failed.
    pub quarantined: Vec<CellFailure>,
}

/// Aggregate summary in the shape of the paper's §5.2 text.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig12Summary {
    /// Mean core-traffic reduction of avx512-comp (paper: 42%).
    pub avx_core_reduction: f64,
    /// Mean core-traffic reduction of zcomp (paper: 46%).
    pub zcomp_core_reduction: f64,
    /// Mean DRAM reduction of avx512-comp (paper: 48%).
    pub avx_dram_reduction: f64,
    /// Mean DRAM reduction of zcomp (paper: 54%).
    pub zcomp_dram_reduction: f64,
    /// Mean zcomp speedup over avx512-vec (paper: +77%).
    pub zcomp_speedup: f64,
    /// Mean zcomp speedup over avx512-comp (paper: +56%).
    pub zcomp_vs_avx_speedup: f64,
    /// Configurations where zcomp is slower than the baseline
    /// (paper: 2 outliers, ≤4%).
    pub zcomp_outliers: usize,
    /// Largest zcomp speedup (paper: up to 12x superlinear).
    pub max_zcomp_speedup: f64,
}

impl Fig12Result {
    /// Computes the aggregate summary over all rows.
    pub fn summary(&self) -> Fig12Summary {
        Self::summary_of(&self.rows)
    }

    /// Computes the summary of one benchmark group (the per-suite
    /// averages of Fig. 12's x-axis groups).
    pub fn suite_summary(&self, suite: zcomp_dnn::deepbench::Suite) -> Fig12Summary {
        let rows: Vec<Fig12Row> = self
            .rows
            .iter()
            .filter(|r| r.config.suite == suite)
            .cloned()
            .collect();
        Self::summary_of(&rows)
    }

    fn summary_of(rows: &[Fig12Row]) -> Fig12Summary {
        let col = |f: &dyn Fn(&Fig12Row) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
        let zcomp_speedups = col(&|r| r.speedup(ReluScheme::Zcomp));
        Fig12Summary {
            avx_core_reduction: mean(&col(&|r| r.core_reduction(ReluScheme::Avx512Comp))),
            zcomp_core_reduction: mean(&col(&|r| r.core_reduction(ReluScheme::Zcomp))),
            avx_dram_reduction: mean(&col(&|r| r.dram_reduction(ReluScheme::Avx512Comp))),
            zcomp_dram_reduction: mean(&col(&|r| r.dram_reduction(ReluScheme::Zcomp))),
            zcomp_speedup: mean(&zcomp_speedups),
            zcomp_vs_avx_speedup: mean(&col(&|r| {
                r.cell(ReluScheme::Avx512Comp).cycles / r.cell(ReluScheme::Zcomp).cycles
            })),
            zcomp_outliers: zcomp_speedups.iter().filter(|&&s| s < 1.0).count(),
            max_zcomp_speedup: zcomp_speedups.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Renders one of the three panels.
    pub fn table(&self, panel: Panel) -> Table {
        let title = match panel {
            Panel::CoreTraffic => "Figure 12(a): cache-hierarchy data traffic",
            Panel::DramTraffic => "Figure 12(b): off-chip DRAM data traffic",
            Panel::Runtime => "Figure 12(c): runtime (cycles; speedup vs avx512-vec)",
        };
        let mut t = Table::new(
            title,
            &[
                "suite",
                "config",
                "size",
                "avx512-vec",
                "avx512-comp",
                "zcomp",
                "zcomp_gain",
            ],
        );
        for r in &self.rows {
            let cell_text = |s: ReluScheme| match panel {
                Panel::CoreTraffic => fmt_bytes(r.cell(s).onchip_bytes),
                Panel::DramTraffic => fmt_bytes(r.cell(s).dram_bytes),
                Panel::Runtime => format!("{:.0}", r.cell(s).cycles),
            };
            let gain = match panel {
                Panel::CoreTraffic => pct(r.core_reduction(ReluScheme::Zcomp)),
                Panel::DramTraffic => pct(r.dram_reduction(ReluScheme::Zcomp)),
                Panel::Runtime => format!("{:.2}x", r.speedup(ReluScheme::Zcomp)),
            };
            t.row([
                r.config.suite.to_string(),
                r.config.name.to_string(),
                fmt_bytes(r.config.bytes() as u64),
                cell_text(ReluScheme::Avx512Vec),
                cell_text(ReluScheme::Avx512Comp),
                cell_text(ReluScheme::Zcomp),
                gain,
            ]);
        }
        t
    }
}

/// The three panels of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Panel {
    /// Fig. 12(a).
    CoreTraffic,
    /// Fig. 12(b).
    DramTraffic,
    /// Fig. 12(c).
    Runtime,
}

/// Runs `configs` serially and uncached: one [`run_sweep`] call with
/// [`SweepOpts::serial`]. A cell that panics is quarantined in the
/// result, as in any sweep.
pub fn run_configs(
    configs: &[DeepBenchConfig],
    scale_divisor: usize,
    sparsity: f64,
) -> Fig12Result {
    // An uncached serial sweep has no journal, the only source of a
    // `SweepError`.
    run_sweep(configs, scale_divisor, sparsity, &SweepOpts::serial())
        .expect("an uncached serial sweep cannot fail")
        .result
}

impl Fig12Cell {
    /// The cell of a finished kernel run: traffic and cycles over the
    /// measured (steady-state) window only — the warm-up iteration's
    /// compulsory misses are the caches' problem, as in DeepBench itself.
    fn measured(scheme: ReluScheme, result: &ReluRunResult) -> Fig12Cell {
        Fig12Cell {
            scheme,
            onchip_bytes: result.traffic.onchip_bytes(),
            dram_bytes: result.traffic.dram_bytes,
            cycles: result.total_cycles(),
            compression_ratio: result.compression_ratio(),
        }
    }
}

/// Elements configuration `config` simulates at `scale_divisor`.
fn cell_elements(config: &DeepBenchConfig, scale_divisor: usize) -> usize {
    (config.elements / scale_divisor.max(1)).max(256)
}

/// The input seed of the configuration at `index` in a run.
fn cell_seed(index: usize) -> u64 {
    0xF16_5EED ^ ((index as u64) << 8)
}

/// What one supervised fig12 cell produces — the measured cell plus the
/// prefetch counters the result aggregates. Serialized whole into the
/// completion journal, so a restored cell is indistinguishable from an
/// executed one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fig12CellRecord {
    cell: Fig12Cell,
    prefetch: PrefetchStats,
}

/// The journal key of one (config, scheme) cell. Everything that
/// determines the cell's result is folded in, so a journal hit is safe to
/// restore.
fn cell_key(
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale_divisor: usize,
    sparsity: f64,
) -> String {
    format!(
        "cfg={};scheme={scheme};elements={};sparsity={sparsity};seed={:#x};opts=default",
        config.name,
        cell_elements(config, scale_divisor),
        cell_seed(index)
    )
}

/// Generates the input of one (config, scheme) cell and runs its kernel
/// on `machine`.
fn simulate_cell(
    machine: &mut Machine,
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale_divisor: usize,
    sparsity: f64,
) -> ReluRunResult {
    let nnz = nnz_synthetic(
        cell_elements(config, scale_divisor),
        sparsity,
        6.0,
        cell_seed(index),
    );
    run_relu(machine, scheme, &nnz, &ReluOpts::default())
}

/// Simulates one (config, scheme) cell on a fresh machine, under the
/// `fig12/<shape>/<scheme>` tracer span.
fn sweep_cell(
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale_divisor: usize,
    sparsity: f64,
) -> Fig12CellRecord {
    let _span = zcomp_trace::tracer::span_owned("experiment", || {
        format!("fig12/{}/{scheme:?}", config.name)
    });
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    let result = simulate_cell(&mut machine, config, index, scheme, scale_divisor, sparsity);
    Fig12CellRecord {
        cell: Fig12Cell::measured(scheme, &result),
        prefetch: machine.summary().l2_prefetch,
    }
}

/// Runs the Figure 12 sweep sharded across threads with journalled,
/// *supervised* cells.
///
/// * `scale_divisor` — divide tensor sizes for quick runs (1 = full).
/// * `sparsity` — input sparsity (the paper's snapshots average 53%).
///
/// With a cache root in [`CacheMode::Auto`], every cell the root's
/// journal already holds under this model identity is restored without
/// executing, and newly executed cells are added to it — so a rerun over
/// a warm root executes nothing, and calls over different configuration
/// subsets accumulate into one journal. [`CacheMode::Refresh`] starts a
/// fresh journal and recomputes every cell. Every cell runs once under
/// panic isolation; a cell that panics lands in `quarantined` with a
/// zeroed placeholder in its row slot instead of aborting the sweep. The
/// merge is deterministic: results are assembled in config/scheme order
/// regardless of which worker finished first, and a restored result is
/// byte-identical to a computed one.
///
/// [`CacheMode::Auto`]: crate::sweep::CacheMode::Auto
/// [`CacheMode::Refresh`]: crate::sweep::CacheMode::Refresh
pub fn run_sweep(
    configs: &[DeepBenchConfig],
    scale_divisor: usize,
    sparsity: f64,
    opts: &SweepOpts,
) -> Result<SweepOutcome<Fig12Result>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "fig12-sweep");
    let opts = &opts.reusing_journal();
    let fingerprint = opts.fingerprint(config_fingerprint(&SimConfig::table1()));
    let items = configs.len() * SCHEMES.len();
    let key_of = |idx: usize| {
        cell_key(
            &configs[idx / SCHEMES.len()],
            idx / SCHEMES.len(),
            SCHEMES[idx % SCHEMES.len()],
            scale_divisor,
            sparsity,
        )
    };
    let make_job = |idx: usize| {
        let config_index = idx / SCHEMES.len();
        let scheme = SCHEMES[idx % SCHEMES.len()];
        move || {
            sweep_cell(
                &configs[config_index],
                config_index,
                scheme,
                scale_divisor,
                sparsity,
            )
        }
    };
    let run = run_cells("fig12", items, fingerprint, opts, key_of, make_job)?;

    let mut rows = Vec::with_capacity(configs.len());
    let mut zcomp_prefetch = PrefetchStats::default();
    for (ci, config) in configs.iter().enumerate() {
        let mut row_cells = Vec::with_capacity(SCHEMES.len());
        for (si, scheme) in SCHEMES.iter().enumerate() {
            let cell = match &run.outcomes[ci * SCHEMES.len() + si] {
                CellOutcome::Completed { value, .. } => {
                    if *scheme == ReluScheme::Zcomp {
                        zcomp_prefetch.merge(&value.prefetch);
                    }
                    value.cell.clone()
                }
                // Quarantined slot: an explicit zeroed placeholder keeps
                // the row shape (and byte layout) stable; the failure
                // itself is reported in `quarantined`.
                CellOutcome::Quarantined(_) => Fig12Cell {
                    scheme: *scheme,
                    onchip_bytes: 0,
                    dram_bytes: 0,
                    cycles: 0.0,
                    compression_ratio: 0.0,
                },
            };
            row_cells.push(cell);
        }
        rows.push(Fig12Row {
            config: config.clone(),
            simulated_elements: cell_elements(config, scale_divisor),
            cells: row_cells,
        });
    }
    let result = Fig12Result {
        rows,
        zcomp_prefetch,
        quarantined: run.report.quarantined.clone(),
    };
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sharded, CacheMode};
    use zcomp_dnn::deepbench::{all_configs, suite_configs, Suite};

    /// A serial, uncached sweep that must complete every cell.
    fn serial(configs: &[DeepBenchConfig]) -> Fig12Result {
        let out = run_sweep(configs, 4096, 0.53, &SweepOpts::serial()).expect("serial sweep");
        assert!(
            out.result.quarantined.is_empty(),
            "{:?}",
            out.result.quarantined
        );
        out.result
    }

    fn quick() -> Fig12Result {
        // Heavy scale-down: structure checks only.
        serial(&suite_configs(Suite::ConvTrain)[..4])
    }

    #[test]
    fn run_configs_is_the_serial_sweep() {
        let configs = &suite_configs(Suite::ConvTrain)[..1];
        assert_eq!(run_configs(configs, 4096, 0.53), serial(configs));
    }

    #[test]
    fn every_row_has_all_schemes() {
        let r = quick();
        for row in &r.rows {
            assert_eq!(row.cells.len(), 3);
        }
    }

    #[test]
    fn compression_reduces_core_traffic() {
        let r = quick();
        for row in &r.rows {
            // At the heavy test scale-down, line-granular fills blunt the
            // reduction for the smallest shapes; full-size runs land near
            // the paper's 46%.
            assert!(
                row.core_reduction(ReluScheme::Zcomp) > 0.1,
                "{}: {}",
                row.config.name,
                row.core_reduction(ReluScheme::Zcomp)
            );
        }
    }

    #[test]
    fn summary_aggregates() {
        let r = quick();
        let s = r.summary();
        assert!(s.zcomp_core_reduction > 0.0);
        assert!(s.max_zcomp_speedup >= s.zcomp_speedup * 0.5);
    }

    #[test]
    fn tables_render_all_panels() {
        let r = quick();
        for panel in [Panel::CoreTraffic, Panel::DramTraffic, Panel::Runtime] {
            let text = r.table(panel).render();
            assert!(text.contains("zcomp"));
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("zfig12-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn json(result: &Fig12Result) -> String {
        serde_json::to_string(result).unwrap()
    }

    /// A threaded, cached sweep — cold, then warm from its journal —
    /// writes the bytes of a serial, uncached one.
    #[test]
    fn sweep_matches_serial_run() {
        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let reference = serial(configs);
        let root = temp_root("sweep");
        let opts = SweepOpts::default().with_cache(&root).with_threads(4);
        let cold = run_sweep(configs, 4096, 0.53, &opts).expect("cold sweep");
        let warm = run_sweep(configs, 4096, 0.53, &opts).expect("warm sweep");
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(json(&cold.result), json(&reference), "cold sweep");
        assert_eq!(cold.supervision.executed, configs.len() * SCHEMES.len());
        assert!(cold.supervision.quarantined.is_empty());
        assert_eq!(
            warm.supervision.executed, 0,
            "a warm rerun executes nothing"
        );
        assert_eq!(json(&warm.result), json(&reference), "warm sweep");
    }

    /// The benchmark's shape: one call per configuration, every call on
    /// the same root. The calls must accumulate one journal (not truncate
    /// it), so the second pass restores all 132 cells.
    #[test]
    fn per_configuration_calls_share_one_warm_journal() {
        let configs = all_configs();
        let root = temp_root("per-config");
        let opts = SweepOpts::serial().with_cache(&root);
        let pass = || {
            let mut executed = 0;
            let mut restored = 0;
            let mut results = Vec::new();
            for config in &configs {
                let out = run_sweep(std::slice::from_ref(config), 4096, 0.53, &opts)
                    .expect("per-configuration sweep");
                executed += out.supervision.executed;
                restored += out.supervision.resume_skips;
                results.push(out.result);
            }
            (executed, restored, results)
        };
        let (cold_executed, cold_restored, cold) = pass();
        let (warm_executed, warm_restored, warm) = pass();
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(configs.len() * SCHEMES.len(), 132);
        assert_eq!((cold_executed, cold_restored), (132, 0));
        assert_eq!((warm_executed, warm_restored), (0, 132));
        assert_eq!(
            warm.iter().map(json).collect::<Vec<_>>(),
            cold.iter().map(json).collect::<Vec<_>>(),
            "restored JSON must be byte-identical to the computed JSON"
        );
    }

    #[test]
    fn refresh_recomputes_every_cell() {
        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let root = temp_root("refresh");
        let opts = SweepOpts::serial().with_cache(&root);
        let cold = run_sweep(configs, 4096, 0.53, &opts).expect("cold sweep");
        let refreshed = run_sweep(
            configs,
            4096,
            0.53,
            &opts.clone().with_mode(CacheMode::Refresh),
        )
        .expect("refreshed sweep");
        let warm = run_sweep(configs, 4096, 0.53, &opts).expect("warm sweep");
        let _ = std::fs::remove_dir_all(&root);

        let cells = configs.len() * SCHEMES.len();
        assert_eq!(refreshed.supervision.executed, cells);
        assert_eq!(refreshed.supervision.resume_skips, 0);
        assert_eq!(refreshed.result.rows, cold.result.rows);
        // The refreshed journal serves the next run.
        assert_eq!(warm.supervision.resume_skips, cells);
    }

    #[test]
    fn journal_of_another_model_identity_restores_nothing() {
        use crate::supervise::Journal;
        use crate::sweep::{fold_identity, model_identity};

        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let root = temp_root("identity");
        let opts = SweepOpts::serial().with_cache(&root);
        let cold = run_sweep(configs, 4096, 0.53, &opts).expect("cold sweep");

        // The journal is keyed by this executable's identity...
        let path = root.join("fig12").join("journal.jsonl");
        let ours = Journal::load(&path).expect("journal");
        assert_eq!(ours.len(), configs.len() * SCHEMES.len());
        let base = config_fingerprint(&SimConfig::table1());
        let own = fold_identity(base, model_identity());
        // ...so re-keying every record as if a different executable had
        // written it must leave nothing to restore.
        let other = fold_identity(base, model_identity() ^ 1);
        let mut theirs = Journal::fresh(&path);
        for (index, config) in configs.iter().enumerate() {
            for scheme in SCHEMES {
                let cell = cell_key(config, index, scheme, 4096, 0.53);
                let payload = ours
                    .lookup(&cell, own)
                    .expect("journalled under our identity");
                theirs
                    .commit(cell, other, payload.to_string())
                    .expect("commit");
            }
        }
        assert_eq!(theirs.len(), configs.len() * SCHEMES.len());

        let rerun = run_sweep(configs, 4096, 0.53, &opts).expect("rerun");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(rerun.supervision.resume_skips, 0);
        assert_eq!(rerun.supervision.executed, configs.len() * SCHEMES.len());
        assert_eq!(rerun.result.rows, cold.result.rows);
    }

    #[test]
    fn interrupted_sweep_continues_exactly() {
        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let root = temp_root("resume");
        let full = serial(configs);

        // An "interrupted" run journalled only the first configuration.
        let opts = SweepOpts::serial().with_cache(&root);
        run_sweep(&configs[..1], 4096, 0.53, &opts).expect("partial sweep");
        let continued = run_sweep(configs, 4096, 0.53, &opts).expect("continued sweep");
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(continued.supervision.resume_skips, SCHEMES.len());
        assert_eq!(continued.supervision.executed, SCHEMES.len());
        assert_eq!(json(&continued.result), json(&full));
    }

    /// The byte counts a cell's trace carries in its trailer note: what
    /// replay cannot recover from the op stream alone.
    #[derive(Serialize, Deserialize)]
    struct CellNote {
        output_bytes: u64,
        uncompressed_bytes: u64,
    }

    fn trace_key(configs: &[DeepBenchConfig], idx: usize) -> zcomp_replay::TraceKey {
        let ci = idx / SCHEMES.len();
        let scheme = SCHEMES[idx % SCHEMES.len()];
        zcomp_replay::TraceKey::new("fig12", cell_key(&configs[ci], ci, scheme, 4096, 0.53))
    }

    /// Runs cell `idx` with its op stream captured into `cache`.
    fn capture_cell(
        cache: &zcomp_replay::TraceCache,
        configs: &[DeepBenchConfig],
        idx: usize,
    ) -> Fig12CellRecord {
        let ci = idx / SCHEMES.len();
        let scheme = SCHEMES[idx % SCHEMES.len()];
        let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let meta = zcomp_replay::TraceMeta::for_config(machine.config());
        let session = cache
            .begin_capture(&trace_key(configs, idx), meta)
            .expect("begin capture");
        machine.set_observer(Some(session.observer()));
        let result = simulate_cell(&mut machine, &configs[ci], ci, scheme, 4096, 0.53);
        machine.set_observer(None);
        let note = CellNote {
            output_bytes: result.output_bytes,
            uncompressed_bytes: result.uncompressed_bytes,
        };
        session
            .finish(&serde_json::to_string(&note).unwrap())
            .expect("finish capture");
        Fig12CellRecord {
            cell: Fig12Cell::measured(scheme, &result),
            prefetch: machine.summary().l2_prefetch,
        }
    }

    /// `.ztrc` fidelity, off the sweep path: serial and threaded capture
    /// write identical bytes, and replaying a trace through a fresh
    /// machine reproduces the captured cell bit for bit.
    #[test]
    fn captured_cells_are_deterministic_and_replay_exactly() {
        use zcomp_replay::{replay, TraceCache};

        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let items = configs.len() * SCHEMES.len();
        let root = temp_root("capture");
        let serial = TraceCache::open_validated(root.join("serial")).unwrap();
        let threaded = TraceCache::open_validated(root.join("threaded")).unwrap();
        let captured: Vec<_> = (0..items)
            .map(|i| capture_cell(&serial, configs, i))
            .collect();
        let captured_threaded = run_sharded(items, 4, |i| capture_cell(&threaded, configs, i));
        assert_eq!(captured, captured_threaded);

        let fingerprint = config_fingerprint(&SimConfig::table1());
        for (idx, record) in captured.iter().enumerate() {
            let key = trace_key(configs, idx);
            assert_eq!(
                std::fs::read(serial.path_for(&key, fingerprint)).unwrap(),
                std::fs::read(threaded.path_for(&key, fingerprint)).unwrap(),
                "serial and threaded capture must write identical traces"
            );
            let mut reader = serial.open(&key, fingerprint).expect("cached trace");
            let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            let outcome = replay(&mut reader, &mut machine).expect("replay");
            let window = outcome.measured.expect("measured window");
            let note: CellNote = serde_json::from_str(&outcome.note).unwrap();
            let replayed = Fig12Cell {
                scheme: record.cell.scheme,
                onchip_bytes: window.traffic.onchip_bytes(),
                dram_bytes: window.traffic.dram_bytes,
                cycles: window.cycles,
                compression_ratio: note.uncompressed_bytes as f64 / note.output_bytes as f64,
            };
            assert_eq!(replayed, record.cell);
            assert_eq!(replayed.cycles.to_bits(), record.cell.cycles.to_bits());
            assert_eq!(outcome.summary.l2_prefetch, record.prefetch);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
