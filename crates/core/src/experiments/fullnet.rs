//! Figures 2, 13 and 14 — full-network cycle breakdown, data-traffic
//! reduction and speedup.
//!
//! Five networks, training (batch 64; ResNet 128) and inference
//! (batch 4), three schemes. Paper results: 24–41% of the baseline
//! training cycles stalled on memory (Fig. 2); average traffic reductions
//! of 31%/23% (zcomp, training/inference) and 26%/19% (avx512-comp);
//! speedups of 11%/3% for zcomp vs 4%/−2% for avx512-comp, with
//! avx512-comp slowing down 5 of 10 benchmarks.

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_dnn::sparsity::SparsityModel;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_kernels::network_exec::{run_network, NetworkExecOpts};
use zcomp_sim::config::{config_fingerprint, SimConfig};
use zcomp_sim::engine::{Machine, RunSummary};
use zcomp_sim::stats::CycleBreakdown;

use crate::report::{mean, pct, Table};
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{run_cells, SweepError, SweepOpts, SweepOutcome};

/// Training or inference column group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Forward + backward, large batch.
    Training,
    /// Forward only, batch 4.
    Inference,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Training => "training",
            Mode::Inference => "inference",
        })
    }
}

/// Measurements of one (network, mode, scheme) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FullNetCell {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Total cache-hierarchy traffic in bytes (demand + inter-level
    /// fills).
    pub onchip_bytes: u64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Wall cycles for one step.
    pub cycles: f64,
    /// Cycles by stall bucket (Fig. 2).
    pub breakdown: CycleBreakdown,
}

/// One (network, mode) row with all three schemes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullNetRow {
    /// Network.
    pub model: ModelId,
    /// Training or inference.
    pub mode: Mode,
    /// Batch size used.
    pub batch: usize,
    /// One cell per scheme.
    pub cells: Vec<FullNetCell>,
}

impl FullNetRow {
    fn cell(&self, scheme: Scheme) -> &FullNetCell {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme)
            .expect("every scheme measured")
    }

    /// Traffic reduction of `scheme` vs the baseline (Fig. 13's metric).
    pub fn traffic_reduction(&self, scheme: Scheme) -> f64 {
        1.0 - self.cell(scheme).onchip_bytes as f64 / self.cell(Scheme::None).onchip_bytes as f64
    }

    /// Speedup of `scheme` over the baseline (Fig. 14's metric).
    pub fn speedup(&self, scheme: Scheme) -> f64 {
        self.cell(Scheme::None).cycles / self.cell(scheme).cycles
    }
}

/// Complete Figures 2/13/14 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullNetResult {
    /// All (network, mode) rows.
    pub rows: Vec<FullNetRow>,
    /// Cells the supervised sweep quarantined, in index order; their row
    /// slots hold zeroed placeholder cells.
    pub quarantined: Vec<CellFailure>,
}

/// Aggregate summary in the shape of the paper's §5.3 text.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FullNetSummary {
    /// Mean zcomp traffic reduction in training (paper: 31%).
    pub zcomp_train_traffic: f64,
    /// Mean zcomp traffic reduction in inference (paper: 23%).
    pub zcomp_infer_traffic: f64,
    /// Mean avx512-comp traffic reduction in training (paper: 26%).
    pub avx_train_traffic: f64,
    /// Mean avx512-comp traffic reduction in inference (paper: 19%).
    pub avx_infer_traffic: f64,
    /// Mean zcomp speedup in training (paper: 1.11x).
    pub zcomp_train_speedup: f64,
    /// Mean zcomp speedup in inference (paper: 1.03x).
    pub zcomp_infer_speedup: f64,
    /// Mean avx512-comp speedup in training (paper: 1.04x).
    pub avx_train_speedup: f64,
    /// Mean avx512-comp speedup in inference (paper: 0.98x).
    pub avx_infer_speedup: f64,
    /// Benchmarks (of 10) that avx512-comp slows down (paper: 5).
    pub avx_slowdowns: usize,
}

impl FullNetResult {
    /// Computes the aggregate summary.
    pub fn summary(&self) -> FullNetSummary {
        let sel = |mode: Mode, f: &dyn Fn(&FullNetRow) -> f64| -> Vec<f64> {
            self.rows.iter().filter(|r| r.mode == mode).map(f).collect()
        };
        FullNetSummary {
            zcomp_train_traffic: mean(&sel(Mode::Training, &|r| {
                r.traffic_reduction(Scheme::Zcomp)
            })),
            zcomp_infer_traffic: mean(&sel(Mode::Inference, &|r| {
                r.traffic_reduction(Scheme::Zcomp)
            })),
            avx_train_traffic: mean(&sel(Mode::Training, &|r| {
                r.traffic_reduction(Scheme::Avx512Comp)
            })),
            avx_infer_traffic: mean(&sel(Mode::Inference, &|r| {
                r.traffic_reduction(Scheme::Avx512Comp)
            })),
            zcomp_train_speedup: mean(&sel(Mode::Training, &|r| r.speedup(Scheme::Zcomp))),
            zcomp_infer_speedup: mean(&sel(Mode::Inference, &|r| r.speedup(Scheme::Zcomp))),
            avx_train_speedup: mean(&sel(Mode::Training, &|r| r.speedup(Scheme::Avx512Comp))),
            avx_infer_speedup: mean(&sel(Mode::Inference, &|r| r.speedup(Scheme::Avx512Comp))),
            avx_slowdowns: self
                .rows
                .iter()
                .filter(|r| r.speedup(Scheme::Avx512Comp) < 1.0)
                .count(),
        }
    }

    /// Fig. 2's rows: each network's compute, memory and sync shares of
    /// its baseline training cycles.
    pub fn breakdown(&self) -> impl Iterator<Item = (ModelId, [f64; 3])> + '_ {
        let training = self.rows.iter().filter(|r| r.mode == Mode::Training);
        training.map(|r| {
            let b = r.cell(Scheme::None).breakdown;
            let total = b.total().max(1e-9);
            (
                r.model,
                [b.compute / total, b.memory / total, b.sync / total],
            )
        })
    }

    /// Renders Fig. 2 (the baseline training cycle breakdown).
    pub fn table_breakdown(&self) -> Table {
        let mut t = Table::new(
            "Figure 2: CPU cycle breakdown (training, baseline)",
            &["network", "compute", "memory", "sync"],
        );
        for (model, [compute, memory, sync]) in self.breakdown() {
            t.row([model.to_string(), pct(compute), pct(memory), pct(sync)]);
        }
        t
    }

    /// Renders Fig. 13 (traffic reduction).
    pub fn table_traffic(&self) -> Table {
        let mut t = Table::new(
            "Figure 13: full-network data traffic reduction vs baseline",
            &["network", "mode", "avx512-comp", "zcomp"],
        );
        for r in &self.rows {
            t.row([
                r.model.to_string(),
                r.mode.to_string(),
                pct(r.traffic_reduction(Scheme::Avx512Comp)),
                pct(r.traffic_reduction(Scheme::Zcomp)),
            ]);
        }
        t
    }

    /// Renders Fig. 14 (speedup).
    pub fn table_speedup(&self) -> Table {
        let mut t = Table::new(
            "Figure 14: full-network speedup vs baseline",
            &["network", "mode", "avx512-comp", "zcomp"],
        );
        for r in &self.rows {
            t.row([
                r.model.to_string(),
                r.mode.to_string(),
                format!("{:.3}x", r.speedup(Scheme::Avx512Comp)),
                format!("{:.3}x", r.speedup(Scheme::Zcomp)),
            ]);
        }
        t
    }
}

/// The three schemes in plotting order.
const SCHEMES: [Scheme; 3] = [Scheme::None, Scheme::Avx512Comp, Scheme::Zcomp];

fn cell_from_summary(scheme: Scheme, summary: &RunSummary) -> FullNetCell {
    FullNetCell {
        scheme,
        onchip_bytes: summary.traffic.onchip_bytes(),
        dram_bytes: summary.traffic.dram_bytes,
        cycles: summary.wall_cycles,
        breakdown: summary.breakdown,
    }
}

/// Builds the (model, mode) workload at `batch` and runs it under
/// `scheme` on `machine`.
fn simulate_cell(
    machine: &mut Machine,
    model: ModelId,
    mode: Mode,
    scheme: Scheme,
    batch: usize,
) -> RunSummary {
    let net = model.build(batch);
    let profile = SparsityModel::default().profile(&net, 50);
    run_network(
        machine,
        &net,
        &profile,
        &NetworkExecOpts {
            scheme,
            training: mode == Mode::Training,
            ..NetworkExecOpts::default()
        },
    )
    .summary
}

/// Simulates one (model, mode, scheme) cell on a fresh machine, under the
/// `fullnet/<model>/<mode>/<scheme>` tracer span.
fn sweep_cell(model: ModelId, mode: Mode, scheme: Scheme, batch: usize) -> FullNetCell {
    let _span = zcomp_trace::tracer::span_owned("experiment", || {
        format!("fullnet/{model}/{mode}/{scheme:?}")
    });
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    cell_from_summary(
        scheme,
        &simulate_cell(&mut machine, model, mode, scheme, batch),
    )
}

/// The journal key of one (model, mode, scheme) cell.
fn cell_key(model: ModelId, mode: Mode, scheme: Scheme, batch: usize) -> String {
    format!("model={model};mode={mode};scheme={scheme:?};batch={batch};profile=50")
}

/// Runs the full-network sweep sharded across threads with journalled,
/// *supervised* cells.
///
/// `batch_divisor` scales training batches down for quick runs (1 = the
/// paper's sizes). Inference always uses batch 4, the paper's choice.
///
/// All 30 (network, mode, scheme) cells are independent. With a cache
/// root in [`CacheMode::Auto`], cells the root's journal already holds
/// under this model identity are restored without executing;
/// [`CacheMode::Refresh`] recomputes every cell. Each cell runs once
/// under panic isolation — a panic quarantines the cell (zeroed
/// placeholder slot + entry in `quarantined`) instead of aborting. The merge is deterministic regardless of scheduling, and a
/// restored result is byte-identical to a computed one.
///
/// [`CacheMode::Auto`]: crate::sweep::CacheMode::Auto
/// [`CacheMode::Refresh`]: crate::sweep::CacheMode::Refresh
pub fn run_sweep(
    batch_divisor: usize,
    opts: &SweepOpts,
) -> Result<SweepOutcome<FullNetResult>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "fullnet-sweep");
    let opts = &opts.reusing_journal();
    let fingerprint = opts.fingerprint(config_fingerprint(&SimConfig::table1()));
    let modes = [Mode::Training, Mode::Inference];
    let batch_of = |model: ModelId, mode: Mode| match mode {
        Mode::Training => (model.training_batch() / batch_divisor.max(1)).max(1),
        Mode::Inference => model.inference_batch(),
    };
    let cell_of = |idx: usize| {
        let model = ModelId::ALL[idx / (modes.len() * SCHEMES.len())];
        let mode = modes[(idx / SCHEMES.len()) % modes.len()];
        let scheme = SCHEMES[idx % SCHEMES.len()];
        (model, mode, scheme)
    };
    let items = ModelId::ALL.len() * modes.len() * SCHEMES.len();
    let key_of = |idx: usize| {
        let (model, mode, scheme) = cell_of(idx);
        cell_key(model, mode, scheme, batch_of(model, mode))
    };
    let make_job = |idx: usize| {
        let (model, mode, scheme) = cell_of(idx);
        let batch = batch_of(model, mode);
        move || sweep_cell(model, mode, scheme, batch)
    };
    let run = run_cells("fullnet", items, fingerprint, opts, key_of, make_job)?;

    let mut rows = Vec::with_capacity(ModelId::ALL.len() * modes.len());
    let mut it = run.outcomes.iter().enumerate();
    for model in ModelId::ALL {
        for mode in modes {
            let cells = it
                .by_ref()
                .take(SCHEMES.len())
                .map(|(idx, outcome)| match outcome {
                    CellOutcome::Completed { value, .. } => *value,
                    CellOutcome::Quarantined(_) => FullNetCell {
                        scheme: SCHEMES[idx % SCHEMES.len()],
                        onchip_bytes: 0,
                        dram_bytes: 0,
                        cycles: 0.0,
                        breakdown: CycleBreakdown::default(),
                    },
                })
                .collect();
            rows.push(FullNetRow {
                model,
                mode,
                batch: batch_of(model, mode),
                cells,
            });
        }
    }
    let result = FullNetResult {
        rows,
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
    use std::sync::OnceLock;

    /// The scaled-down serial, uncached sweep is expensive; share it
    /// across tests.
    fn quick() -> &'static FullNetResult {
        static RESULT: OnceLock<FullNetResult> = OnceLock::new();
        RESULT.get_or_init(|| {
            let out = run_sweep(16, &SweepOpts::serial()).expect("serial sweep");
            assert!(
                out.result.quarantined.is_empty(),
                "{:?}",
                out.result.quarantined
            );
            out.result
        })
    }

    #[test]
    fn ten_rows_two_modes() {
        let r = quick();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(
            r.rows.iter().filter(|r| r.mode == Mode::Training).count(),
            5
        );
    }

    #[test]
    fn zcomp_reduces_traffic_in_training() {
        let r = quick();
        for row in r.rows.iter().filter(|r| r.mode == Mode::Training) {
            assert!(
                row.traffic_reduction(Scheme::Zcomp) > 0.05,
                "{}: {}",
                row.model,
                row.traffic_reduction(Scheme::Zcomp)
            );
        }
    }

    #[test]
    fn training_gains_exceed_inference_gains() {
        let s = quick().summary();
        assert!(s.zcomp_train_traffic > s.zcomp_infer_traffic);
        assert!(s.zcomp_train_speedup >= s.zcomp_infer_speedup * 0.98);
    }

    #[test]
    fn zcomp_beats_avx512_comp() {
        let s = quick().summary();
        assert!(s.zcomp_train_traffic > s.avx_train_traffic);
        assert!(s.zcomp_train_speedup > s.avx_train_speedup);
    }

    #[test]
    fn fractions_sum_to_one() {
        let rows: Vec<_> = quick().breakdown().collect();
        assert_eq!(rows.len(), 5);
        for (model, fractions) in rows {
            let sum: f64 = fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{model}: sum {sum}");
        }
    }

    #[test]
    fn tables_render() {
        let r = quick();
        let breakdown = r.table_breakdown().render();
        for m in ModelId::ALL {
            assert!(breakdown.contains(&m.to_string()), "{m}");
        }
        assert!(r.table_traffic().render().contains("zcomp"));
        assert!(r.table_speedup().render().contains('x'));
    }

    /// The claims EXPERIMENTS makes of the committed `results/fullnet.json`,
    /// which the records test regenerates and `cmp`s, so this reads the
    /// code's own output at the paper's batch.
    #[test]
    fn committed_record_keeps_the_fullnet_claims() {
        let r: FullNetResult =
            serde_json::from_str(include_str!("../../../../results/fullnet.json"))
                .expect("the committed fullnet record parses");
        assert!(r.quarantined.is_empty(), "{:?}", r.quarantined);
        assert_eq!(r.rows.len(), 10);
        let text = r.table_breakdown().render();
        let breakdown: Vec<_> = r.breakdown().collect();
        assert_eq!(breakdown.len(), 5);
        let baseline = |model: ModelId| {
            let row = breakdown.iter().find(|(m, _)| *m == model);
            row.expect("a Fig. 2 row").1
        };
        // Fig. 2: the inception and residual networks stall on memory
        // more than the plain layer stacks, and nothing waits on a barrier.
        for deep in [
            ModelId::Googlenet,
            ModelId::InceptionResnetV2,
            ModelId::Resnet32,
        ] {
            for plain in [ModelId::Alexnet, ModelId::Vgg16] {
                assert!(
                    baseline(deep)[1] > baseline(plain)[1],
                    "{deep} vs {plain}\n{text}"
                );
            }
        }
        for model in ModelId::ALL {
            assert!(baseline(model)[2] < 1e-6, "{model} sync\n{text}");
        }
        // Figs. 13/14: zcomp is never worse than avx512-comp, and never
        // slows a network down by more than 1%. On traffic this holds to
        // the table's 0.1%: ResNet-32 training is a tie at 46.8%, with
        // zcomp 0.002 points behind.
        let traffic = r.table_traffic().render();
        let speedup = r.table_speedup().render();
        for row in &r.rows {
            assert!(
                row.traffic_reduction(Scheme::Zcomp)
                    > row.traffic_reduction(Scheme::Avx512Comp) - 5e-4,
                "{} {}\n{traffic}",
                row.model,
                row.mode
            );
            assert!(
                row.speedup(Scheme::Zcomp) >= row.speedup(Scheme::Avx512Comp),
                "{} {}\n{speedup}",
                row.model,
                row.mode
            );
            assert!(row.speedup(Scheme::Zcomp) >= 0.99, "{speedup}");
        }
        let s = r.summary();
        assert!(s.zcomp_train_traffic > s.zcomp_infer_traffic, "{s:?}");
        assert!(s.avx_train_traffic > s.avx_infer_traffic, "{s:?}");
        assert!(s.zcomp_train_speedup > s.zcomp_infer_speedup, "{s:?}");
        assert!(s.avx_train_speedup > s.avx_infer_speedup, "{s:?}");
        assert_eq!(s.avx_slowdowns, 2, "{speedup}");
    }

    #[test]
    fn sweep_matches_serial_run() {
        let reference = quick();
        let root = std::env::temp_dir().join(format!("zfullnet-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::default().with_cache(&root).with_threads(4);
        let cold = run_sweep(16, &opts).expect("cold sweep");
        // A warm rerun restores every cell from the journal.
        let warm = run_sweep(16, &opts).expect("warm sweep");
        let _ = std::fs::remove_dir_all(&root);

        let json = |r: &FullNetResult| serde_json::to_string(r).unwrap();
        assert_eq!(json(&cold.result), json(reference), "cold sweep");
        assert_eq!(cold.supervision.cells, 30);
        assert_eq!(cold.supervision.executed, 30);
        assert_eq!(warm.supervision.executed, 0);
        assert_eq!(warm.supervision.resume_skips, 30);
        assert_eq!(
            json(&warm.result),
            json(reference),
            "restored JSON must be byte-identical to the computed JSON"
        );
    }

    /// `.ztrc` fidelity, off the sweep path: serial and threaded capture
    /// of the ResNet-32 inference cells write identical bytes, and replay
    /// reproduces each captured run's statistics bit for bit.
    #[test]
    fn captured_cells_are_deterministic_and_replay_exactly() {
        use crate::sweep::run_sharded;
        use zcomp_replay::{replay, TraceCache, TraceKey, TraceMeta};

        let root = std::env::temp_dir().join(format!("zfullnet-capture-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (model, mode, batch) = (ModelId::Resnet32, Mode::Inference, 4);
        let key = |scheme| TraceKey::new("fullnet", cell_key(model, mode, scheme, batch));
        let capture = |cache: &TraceCache, scheme: Scheme| {
            let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            let meta = TraceMeta::for_config(machine.config());
            let session = cache.begin_capture(&key(scheme), meta).expect("begin");
            machine.set_observer(Some(session.observer()));
            let summary = simulate_cell(&mut machine, model, mode, scheme, batch);
            machine.set_observer(None);
            session.finish("{}").expect("finish");
            summary
        };
        let serial = TraceCache::open_validated(root.join("serial")).unwrap();
        let threaded = TraceCache::open_validated(root.join("threaded")).unwrap();
        let captured: Vec<RunSummary> = SCHEMES.iter().map(|&s| capture(&serial, s)).collect();
        let captured_threaded = run_sharded(SCHEMES.len(), 3, |i| capture(&threaded, SCHEMES[i]));
        assert_eq!(captured, captured_threaded);

        let fingerprint = config_fingerprint(&SimConfig::table1());
        for (scheme, summary) in SCHEMES.iter().zip(&captured) {
            assert_eq!(
                std::fs::read(serial.path_for(&key(*scheme), fingerprint)).unwrap(),
                std::fs::read(threaded.path_for(&key(*scheme), fingerprint)).unwrap(),
                "serial and threaded capture must write identical traces"
            );
            let mut reader = serial.open(&key(*scheme), fingerprint).expect("trace");
            let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            let outcome = replay(&mut reader, &mut machine).expect("replay");
            assert_eq!(&outcome.summary, summary, "replay must reproduce all stats");
            assert_eq!(
                cell_from_summary(*scheme, &outcome.summary),
                cell_from_summary(*scheme, summary)
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
