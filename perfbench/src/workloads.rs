//! The four workloads, each driven two ways.
//!
//! The timed runs call the same public entry points the figure binaries
//! call (`fig12::run_sweep`, `serve::run_sweep`, `fig15::run`), with
//! tracing off, and time each call: a Fig. 12 round is one call per
//! DeepBench configuration, the others one call. The traced run redrives
//! the same work through the layers' public functions from this file, with
//! a span around each call, and must reproduce the timed run's result JSON
//! byte for byte.
//!
//! Every run checks its outputs; a failed check is a line in
//! [`Output::failures`], never a panic.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use zcomp::experiments::fig12::{self, Fig12Cell, Fig12Result, Fig12Row, SCHEMES};
use zcomp::experiments::fig15::{self, Fig15Result, Fig15Snapshot};
use zcomp::experiments::serve::{self, ServeGridSpec, ServeParams, ServeResult, ServeRow};
use zcomp::serve::knee::{derive_slo, find_knee, KneeOpts, KneeOutcome, ServeCurve};
use zcomp::serve::service::ServiceModel;
use zcomp::serve::ServeConfig;
use zcomp::supervise::CellOutcome;
use zcomp::sweep::{run_cells, SweepOpts};
use zcomp_cachecomp::{limitcc_ratio, twotag_ratio};
use zcomp_dnn::deepbench::{all_configs, DeepBenchConfig};
use zcomp_dnn::models::ModelId;
use zcomp_dnn::sparsity::{generate_activations, SparsityModel};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::compress_f32_with_backend;
use zcomp_isa::native::CodecBackend;
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu, ReluOpts, ReluScheme};
use zcomp_replay::{config_fingerprint, replay, TraceCache, TraceKey, TraceMeta, TraceReader};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;
use zcomp_sim::stats::PrefetchStats;

use crate::spans::Tracer;
use crate::BenchError;

/// Fig. 12 input sparsity (the paper's snapshots average 53%).
pub const SPARSITY: f64 = 0.53;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig12::run_sweep` per configuration, without a trace cache.
    Fig12Cold,
    /// `fig12::run_sweep` per configuration, replaying a trace cache
    /// captured in set-up.
    Fig12Warm,
    /// `serve::run_sweep` on a one-row ResNet-32 grid.
    ServeKnee,
    /// `fig15::run`.
    Fig15,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig12Cold,
        Workload::Fig12Warm,
        Workload::ServeKnee,
        Workload::Fig15,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Cold => "fig12_cold",
            Workload::Fig12Warm => "fig12_warm",
            Workload::ServeKnee => "serve_knee",
            Workload::Fig15 => "fig15",
        }
    }

    /// Why the workload is in the benchmark (one line, as in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig12Cold => {
                "Headline Fig. 12 sweep at scale 64: kernels drive the cache model; it never calls \
                 replay or the codec, so changes there must not move it"
            }
            Workload::Fig12Warm => {
                "Fig. 12 replayed from a .ztrc cache captured in set-up: trace writes in set-up, \
                 trace reads in the timed run, no workload generation"
            }
            Workload::ServeKnee => {
                "ResNet-32 knee search at max batch 2: the serving path, solo-profile pricing \
                 through network_exec, then the event loop"
            }
            Workload::Fig15 => {
                "Fig. 15 snapshots: the only workload that runs the stream codec and the cachecomp \
                 compressors, plus activation generation"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Fig. 12 DeepBench configurations.
    pub fig12_configs: Vec<DeepBenchConfig>,
    /// Fig. 12 tensor-size divisor.
    pub fig12_scale: usize,
    /// The serving grid (its seed comes from `--seed`).
    pub serve: ServeGridSpec,
    /// Fig. 15 snapshots per network.
    pub fig15_snapshots: usize,
    /// Fig. 15 elements per snapshot.
    pub fig15_elements: usize,
}

impl Size {
    /// The benchmark's sizes: `fig12_relu_deepbench --scale 64`, ResNet-32
    /// at max batch 2 with the default serving knobs, and the
    /// `fig15_cache_compression` default of 5 snapshots per network at 1 Mi
    /// elements instead of 4 Mi (the same 25 snapshots, a quarter of the
    /// size). No timed call takes more than a second or two, so a run
    /// times many.
    pub fn full(seed: u64) -> Size {
        Size {
            fig12_configs: all_configs(),
            fig12_scale: 64,
            serve: ServeGridSpec {
                networks: vec![(ModelId::Resnet32, 2)],
                params: ServeParams {
                    seed,
                    ..ServeParams::default()
                },
            },
            fig15_snapshots: 5,
            fig15_elements: 1 << 20,
        }
    }

    /// Seconds-long sizes for tests and smoke runs: every Fig. 12 cell at
    /// the 256-element floor, the CI serving smoke grid cut to max batch 2
    /// and shorter traces, and two small Fig. 15 snapshots per network.
    pub fn tiny(seed: u64) -> Size {
        let smoke = ServeGridSpec::smoke_grid();
        Size {
            fig12_configs: all_configs(),
            fig12_scale: 1 << 16,
            serve: ServeGridSpec {
                networks: vec![(ModelId::Googlenet, 2)],
                params: ServeParams {
                    seed,
                    arrivals_per_tenant: 120,
                    bisect_iters: 3,
                    ..smoke.params
                },
            },
            fig15_snapshots: 2,
            fig15_elements: 64 << 10,
        }
    }

    /// One line naming the inputs `workload` runs on.
    pub fn describe(&self, workload: Workload) -> String {
        match workload {
            Workload::Fig12Cold | Workload::Fig12Warm => format!(
                "fig12 scale {} sparsity {SPARSITY} ({} cells in {} one-configuration calls, \
                 fixed seed)",
                self.fig12_scale,
                self.fig12_configs.len() * SCHEMES.len(),
                self.fig12_configs.len()
            ),
            Workload::ServeKnee => {
                let p = &self.serve.params;
                let nets: Vec<String> = self
                    .serve
                    .networks
                    .iter()
                    .map(|(m, b)| format!("{m} max_batch {b}"))
                    .collect();
                format!(
                    "serve {} tenants {} arrivals {} epochs {} bisect {} seed {:#x}",
                    nets.join(", "),
                    p.tenants,
                    p.arrivals_per_tenant,
                    p.drift_epochs,
                    p.bisect_iters,
                    p.seed
                )
            }
            Workload::Fig15 => format!(
                "fig15 {} snapshots x {} elements per network (fixed seeds)",
                self.fig15_snapshots, self.fig15_elements
            ),
        }
    }
}

/// What one set-up pass, timed run or traced run produced.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// The result JSON, pretty-printed as the figure binaries' `--json`
    /// writes it; its digest goes into the record.
    pub json: String,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Ungated model outputs recorded next to the digest:
    /// `(name, value, paper value)`.
    pub refs: Vec<(&'static str, f64, Option<f64>)>,
}

/// Work counted during the traced run, turned into per-layer rates.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Bytes of generated workload input.
    pub gen_bytes: u64,
    /// On-chip bytes moved by the `kernels` runs.
    pub onchip_bytes: u64,
    /// Cells replayed from the cache.
    pub replay_hits: u64,
    /// Ops replayed.
    pub replay_ops: u64,
    /// Bytes of `.ztrc` files in the cache.
    pub trace_bytes: u64,
    /// Bytes the warm cache leaves on disk (traces plus journal).
    pub disk_bytes: u64,
    /// Bytes compressed by the stream codec.
    pub isa_bytes: u64,
    /// Bytes fed to each cache compressor.
    pub cachecomp_bytes: u64,
    /// Knee-search rate points simulated.
    pub rate_points: u64,
    /// Requests the event loop simulated.
    pub arrivals: u64,
    /// Problems a cell job could not return as an error.
    pub failures: Vec<String>,
}

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Counters>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Counters> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn take(&self) -> Counters {
        std::mem::take(&mut *self.lock())
    }
}

/// A workload's three phases.
pub trait Bench {
    /// Set-up passes before the timed rounds; `setup_s` is their median.
    fn setup_passes(&self) -> usize {
        7
    }
    /// One set-up pass. Set-up runs before the timed runs and may repeat;
    /// the last pass's state is what the timed runs use.
    fn setup(&mut self) -> Result<Output, BenchError>;
    /// One timed round: every call of the workload's public entry point,
    /// with the host seconds of each call, in a fixed order.
    fn run(&mut self) -> Result<(Output, Vec<f64>), BenchError>;
    /// Redrives the timed call's work with a span around every layer
    /// call. The measured part runs under a top-level `workload` span.
    fn traced(&mut self, tracer: &Tracer) -> Result<(Output, Counters), BenchError>;
}

/// The runner of `workload` at `size`; temporary trace caches go under
/// `scratch`.
pub fn bench_for(workload: Workload, size: Size, scratch: &Path) -> Box<dyn Bench> {
    match workload {
        Workload::Fig12Cold => Box::new(Fig12Cold {
            size,
            inputs: None,
            reference: None,
        }),
        Workload::Fig12Warm => Box::new(Fig12Warm {
            size,
            scratch: scratch.to_path_buf(),
            cache: None,
            reference: None,
        }),
        Workload::ServeKnee => Box::new(ServeKnee { size, slos: None }),
        Workload::Fig15 => Box::new(Fig15 { size }),
    }
}

fn pretty<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_default()
}

/// `call`'s result and its host seconds.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = call();
    (out, t.elapsed().as_secs_f64())
}

fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

fn quarantine_check(failures: &mut Vec<String>, quarantined: usize) {
    check(failures, quarantined == 0, || {
        format!("{quarantined} cells quarantined")
    });
}

/// A directory that is removed when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty directory under `base`. An unusable `base`
    /// is a typed error.
    pub fn create(base: &Path, tag: &str) -> Result<TempDir, BenchError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = base.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let made = std::fs::create_dir_all(base).and_then(|()| {
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir(&path)
        });
        made.map_err(|source| BenchError::TempDir {
            path: path.clone(),
            source,
        })?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Fig. 12
// ---------------------------------------------------------------------------

fn fig12_refs(result: &Fig12Result) -> Vec<(&'static str, f64, Option<f64>)> {
    let s = result.summary();
    vec![
        ("fig12.zcomp_speedup", s.zcomp_speedup, Some(1.77)),
        (
            "fig12.zcomp_core_traffic_cut",
            s.zcomp_core_reduction,
            Some(0.46),
        ),
        (
            "fig12.zcomp_dram_traffic_cut",
            s.zcomp_dram_reduction,
            Some(0.54),
        ),
    ]
}

fn fig12_output(result: &Fig12Result, reference: Option<&str>, what: &str) -> Output {
    let json = pretty(result);
    let mut failures = Vec::new();
    quarantine_check(&mut failures, result.quarantined.len());
    if let Some(reference) = reference {
        check(&mut failures, json == reference, || {
            format!("{what} JSON differs from its reference")
        });
    }
    Output {
        json,
        failures,
        refs: fig12_refs(result),
    }
}

struct Fig12Cold {
    size: Size,
    /// Digest of the first set-up pass's inputs.
    inputs: Option<String>,
    /// The first timed call's JSON, which every later call must repeat.
    reference: Option<String>,
}

impl Bench for Fig12Cold {
    /// Generates every cell's input as the sweep does, one per cell. The
    /// seed is fixed, so every pass must produce the same bytes.
    fn setup(&mut self) -> Result<Output, BenchError> {
        let s = &self.size;
        let mut bytes = Vec::new();
        for config in &s.fig12_configs {
            for _ in SCHEMES {
                let elements = fig12_elements(config, s.fig12_scale);
                bytes.extend(nnz_synthetic(elements, SPARSITY, 6.0, fig12_seed(0)));
            }
        }
        let digest = crate::host::digest(&bytes);
        let first = self.inputs.get_or_insert_with(|| digest.clone());
        let mut failures = Vec::new();
        check(&mut failures, *first == digest, || {
            "fig12 inputs differ between set-up passes".to_string()
        });
        Ok(Output {
            json: digest,
            failures,
            refs: Vec::new(),
        })
    }

    fn run(&mut self) -> Result<(Output, Vec<f64>), BenchError> {
        let s = &self.size;
        let (result, piece_s) = fig12_calls(&s.fig12_configs, s.fig12_scale, &SweepOpts::serial())?;
        let out = fig12_output(&result, self.reference.as_deref(), "fig12_cold");
        self.reference.get_or_insert_with(|| out.json.clone());
        Ok((out, piece_s))
    }

    /// Also checks the sweep against the plain serial runner (no
    /// supervision, no cache), called the same way, one configuration at
    /// a time.
    fn traced(&mut self, tracer: &Tracer) -> Result<(Output, Counters), BenchError> {
        let shared = Shared::default();
        let result = tracer.span("workload", || {
            traced_fig12(tracer, &self.size, CellMode::Simulate, &shared)
        })?;
        let s = &self.size;
        let plain = merge_fig12(
            s.fig12_configs
                .iter()
                .map(|c| fig12::run_configs(std::slice::from_ref(c), s.fig12_scale, SPARSITY)),
        );
        let plain = pretty(&plain);
        Ok(finish_traced(
            fig12_output(
                &result,
                Some(&plain),
                "traced fig12_cold vs the plain runner",
            ),
            &shared,
        ))
    }
}

struct Fig12Warm {
    size: Size,
    scratch: PathBuf,
    /// The cache the last set-up pass captured.
    cache: Option<TempDir>,
    /// That capture's result JSON, which every replay must match.
    reference: Option<String>,
}

impl Bench for Fig12Warm {
    /// A capture takes seconds, so fewer passes than the other workloads.
    fn setup_passes(&self) -> usize {
        3
    }

    /// A cold capture into a fresh cache (the previous pass's cache is
    /// removed first), with the same one-configuration calls as the
    /// timed rounds.
    fn setup(&mut self) -> Result<Output, BenchError> {
        self.cache = None;
        let dir = TempDir::create(&self.scratch, "fig12-warm")?;
        let s = &self.size;
        let (result, _) = fig12_calls(
            &s.fig12_configs,
            s.fig12_scale,
            &SweepOpts::serial().with_cache(dir.path()),
        )?;
        self.cache = Some(dir);
        let out = fig12_output(&result, None, "fig12 capture");
        self.reference = Some(out.json.clone());
        Ok(out)
    }

    fn run(&mut self) -> Result<(Output, Vec<f64>), BenchError> {
        let dir = self
            .cache
            .as_ref()
            .expect("set-up runs before the timed runs");
        let s = &self.size;
        let (result, piece_s) = fig12_calls(
            &s.fig12_configs,
            s.fig12_scale,
            &SweepOpts::serial().with_cache(dir.path()),
        )?;
        let out = fig12_output(&result, self.reference.as_deref(), "fig12_warm");
        Ok((out, piece_s))
    }

    /// A traced capture into its own fresh cache (under a `setup` span),
    /// the traced replay of it (under `workload`), then a decode-only pass
    /// over the same files (under `decode`).
    fn traced(&mut self, tracer: &Tracer) -> Result<(Output, Counters), BenchError> {
        let dir = TempDir::create(&self.scratch, "fig12-warm-traced")?;
        let root = dir.path();
        let cache = TraceCache::open_validated(root).map_err(|source| BenchError::Cache {
            root: root.to_path_buf(),
            source,
        })?;
        // The capture's counters are set-up work, not the warm workload's.
        let capture = Shared::default();
        let cold = tracer.span("setup", || {
            traced_fig12(
                tracer,
                &self.size,
                CellMode::Capture(cache.clone()),
                &capture,
            )
        })?;
        let mut cold = fig12_output(&cold, self.reference.as_deref(), "traced fig12 capture");
        cold.failures.extend(capture.take().failures);
        let shared = Shared::default();
        let warm = tracer.span("workload", || {
            traced_fig12(tracer, &self.size, CellMode::Replay(cache.clone()), &shared)
        })?;
        let mut out = fig12_output(&warm, None, "traced fig12_warm");
        out.failures.extend(cold.failures);
        tracer.span("decode", || {
            decode_pass(tracer, &self.size, &cache, &shared)
        });
        {
            let mut c = shared.lock();
            c.disk_bytes = crate::host::disk_bytes(root);
            c.trace_bytes = std::fs::read_dir(root)
                .map(|entries| {
                    entries
                        .flatten()
                        .filter(|e| e.path().extension().is_some_and(|x| x == "ztrc"))
                        .map(|e| crate::host::disk_bytes(&e.path()))
                        .sum()
                })
                .unwrap_or(0);
        }
        Ok(finish_traced(out, &shared))
    }
}

fn finish_traced(mut out: Output, shared: &Shared) -> (Output, Counters) {
    let counters = shared.take();
    out.failures.extend(counters.failures.iter().cloned());
    (out, counters)
}

/// `fig12::run_sweep` once per configuration, each call timed, merged into
/// one result in configuration order. Every configuration is the first of
/// its call, so every configuration gets the same input seed.
fn fig12_calls(
    configs: &[DeepBenchConfig],
    scale: usize,
    opts: &SweepOpts,
) -> Result<(Fig12Result, Vec<f64>), BenchError> {
    let mut results = Vec::with_capacity(configs.len());
    let mut call_s = Vec::with_capacity(configs.len());
    for config in configs {
        let (out, secs) = timed(|| {
            fig12::run_sweep(std::slice::from_ref(config), scale, SPARSITY, opts)
        });
        results.push(out.map_err(BenchError::Sweep)?.result);
        call_s.push(secs);
    }
    Ok((merge_fig12(results), call_s))
}

/// One result from per-configuration results: rows and quarantined cells
/// concatenated, prefetch counters summed.
fn merge_fig12(results: impl IntoIterator<Item = Fig12Result>) -> Fig12Result {
    let mut merged = Fig12Result {
        rows: Vec::new(),
        zcomp_prefetch: PrefetchStats::default(),
        quarantined: Vec::new(),
    };
    for result in results {
        merged.rows.extend(result.rows);
        merged.zcomp_prefetch.merge(&result.zcomp_prefetch);
        merged.quarantined.extend(result.quarantined);
    }
    merged
}

/// Elements one Fig. 12 configuration simulates at `scale`.
fn fig12_elements(config: &DeepBenchConfig, scale: usize) -> usize {
    (config.elements / scale.max(1)).max(256)
}

/// The workload seed `fig12` fixes for configuration `index`.
fn fig12_seed(index: usize) -> u64 {
    0xF16_5EED ^ ((index as u64) << 8)
}

/// The trace-cache and journal key `fig12::run_sweep` gives a cell.
fn fig12_key(config: &DeepBenchConfig, index: usize, scheme: ReluScheme, scale: usize) -> TraceKey {
    TraceKey::new(
        "fig12",
        format!(
            "cfg={};scheme={scheme};elements={};sparsity={SPARSITY};seed={:#x};opts=default",
            config.name,
            fig12_elements(config, scale),
            fig12_seed(index)
        ),
    )
}

/// The byte counts a fig12 trace carries in its trailer note.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct CellNote {
    output_bytes: u64,
    uncompressed_bytes: u64,
}

impl CellNote {
    fn compression_ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            1.0
        } else {
            self.uncompressed_bytes as f64 / self.output_bytes as f64
        }
    }
}

/// What a traced fig12 cell returns (and the journal records).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellRecord {
    cell: Fig12Cell,
    prefetch: PrefetchStats,
}

/// How a traced fig12 cell gets its numbers.
#[derive(Clone)]
enum CellMode {
    /// Generate the input and run the kernel on a fresh machine.
    Simulate,
    /// As `Simulate`, recording the op stream into the cache.
    Capture(TraceCache),
    /// Replay the cached op stream; simulate on a miss.
    Replay(TraceCache),
}

impl CellMode {
    fn cache_root(&self) -> Option<&Path> {
        match self {
            CellMode::Simulate => None,
            CellMode::Capture(c) | CellMode::Replay(c) => Some(c.root()),
        }
    }
}

/// The traced Fig. 12 sweep: the cells of each one-configuration
/// `fig12::run_sweep` call, driven through `sweep::run_cells`, assembled
/// into the same result.
fn traced_fig12(
    tracer: &Tracer,
    size: &Size,
    mode: CellMode,
    shared: &Shared,
) -> Result<Fig12Result, BenchError> {
    let results = size
        .fig12_configs
        .iter()
        .map(|config| {
            traced_fig12_call(
                tracer,
                std::slice::from_ref(config),
                size.fig12_scale,
                &mode,
                shared,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(merge_fig12(results))
}

/// The cells of one `fig12::run_sweep` call over `configs`.
fn traced_fig12_call(
    tracer: &Tracer,
    configs: &[DeepBenchConfig],
    scale: usize,
    mode: &CellMode,
    shared: &Shared,
) -> Result<Fig12Result, BenchError> {
    let fingerprint = config_fingerprint(&SimConfig::table1());
    let mut opts = SweepOpts::serial();
    if let Some(root) = mode.cache_root() {
        opts = opts.with_cache(root);
    }
    let items = configs.len() * SCHEMES.len();
    let key_of = |idx: usize| {
        let ci = idx / SCHEMES.len();
        fig12_key(&configs[ci], ci, SCHEMES[idx % SCHEMES.len()], scale).cell
    };
    let make_job = |idx: usize| -> Box<dyn FnOnce() -> CellRecord + Send + 'static> {
        let (tracer, shared, mode) = (tracer.clone(), shared.clone(), mode.clone());
        let index = idx / SCHEMES.len();
        let config = configs[index].clone();
        let scheme = SCHEMES[idx % SCHEMES.len()];
        Box::new(move || {
            tracer.span("cell", || {
                fig12_cell(&tracer, &shared, &mode, &config, index, scheme, scale)
            })
        })
    };
    let run = tracer
        .span("sweep.run_cells", || {
            run_cells("fig12", items, fingerprint, &opts, key_of, make_job)
        })
        .map_err(BenchError::Sweep)?;
    let mut rows = Vec::with_capacity(configs.len());
    let mut zcomp_prefetch = PrefetchStats::default();
    for (ci, config) in configs.iter().enumerate() {
        let mut cells = Vec::with_capacity(SCHEMES.len());
        for (si, &scheme) in SCHEMES.iter().enumerate() {
            cells.push(match &run.outcomes[ci * SCHEMES.len() + si] {
                CellOutcome::Completed { value, .. } => {
                    if scheme == ReluScheme::Zcomp {
                        zcomp_prefetch.merge(&value.prefetch);
                    }
                    value.cell.clone()
                }
                CellOutcome::Quarantined(_) => Fig12Cell {
                    scheme,
                    onchip_bytes: 0,
                    dram_bytes: 0,
                    cycles: 0.0,
                    compression_ratio: 0.0,
                },
            });
        }
        rows.push(Fig12Row {
            config: config.clone(),
            simulated_elements: fig12_elements(config, scale),
            cells,
        });
    }
    Ok(Fig12Result {
        rows,
        zcomp_prefetch,
        quarantined: run.report.quarantined.clone(),
    })
}

fn fig12_cell(
    tracer: &Tracer,
    shared: &Shared,
    mode: &CellMode,
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale: usize,
) -> CellRecord {
    let sim = SimConfig::table1();
    let fingerprint = config_fingerprint(&sim);
    let key = fig12_key(config, index, scheme, scale);
    if let CellMode::Replay(cache) = mode {
        if let Some(mut reader) = tracer.span("replay.open", || cache.open(&key, fingerprint)) {
            let replayed = tracer.span("replay.replay", || {
                let mut machine = Machine::new(sim.clone(), UopTable::skylake_x());
                replay(&mut reader, &mut machine)
            });
            match replayed {
                Ok(outcome) => {
                    let note = serde_json::from_str::<CellNote>(&outcome.note);
                    if let (Some(window), Ok(note)) = (outcome.measured, note) {
                        let mut c = shared.lock();
                        c.replay_hits += 1;
                        c.replay_ops += outcome.ops;
                        return CellRecord {
                            cell: Fig12Cell {
                                scheme,
                                onchip_bytes: window.traffic.onchip_bytes(),
                                dram_bytes: window.traffic.dram_bytes,
                                cycles: window.cycles,
                                compression_ratio: note.compression_ratio(),
                            },
                            prefetch: outcome.summary.l2_prefetch,
                        };
                    }
                    shared
                        .lock()
                        .failures
                        .push(format!("[{}] replay lacks a window or note", key.cell));
                }
                Err(e) => {
                    shared
                        .lock()
                        .failures
                        .push(format!("[{}] replay failed: {e}", key.cell));
                }
            }
        }
    }

    let nnz = tracer.span("gen.nnz_synthetic", || {
        nnz_synthetic(
            fig12_elements(config, scale),
            SPARSITY,
            6.0,
            fig12_seed(index),
        )
    });
    shared.lock().gen_bytes += nnz.len() as u64;
    let (result, prefetch) = match mode {
        CellMode::Capture(cache) => {
            let (result, prefetch, session) = tracer.span("replay.capture", || {
                let mut machine = Machine::new(sim.clone(), UopTable::skylake_x());
                let session = cache.begin_capture(&key, TraceMeta::for_config(machine.config()));
                if let Ok(s) = &session {
                    machine.set_observer(Some(s.observer()));
                }
                let result = run_relu(&mut machine, scheme, &nnz, &ReluOpts::default());
                machine.set_observer(None);
                (result, machine.summary().l2_prefetch, session)
            });
            let note = CellNote {
                output_bytes: result.output_bytes,
                uncompressed_bytes: result.uncompressed_bytes,
            };
            let finished = session.and_then(|s| {
                let note = serde_json::to_string(&note).unwrap_or_default();
                tracer.span("replay.finish", || s.finish(&note))
            });
            if let Err(e) = finished {
                shared
                    .lock()
                    .failures
                    .push(format!("[{}] capture failed: {e}", key.cell));
            }
            (result, prefetch)
        }
        CellMode::Simulate | CellMode::Replay(_) => {
            let (result, prefetch) = tracer.span("kernels.run_relu", || {
                let mut machine = Machine::new(sim.clone(), UopTable::skylake_x());
                let result = run_relu(&mut machine, scheme, &nnz, &ReluOpts::default());
                (result, machine.summary().l2_prefetch)
            });
            shared.lock().onchip_bytes += result.traffic.onchip_bytes();
            (result, prefetch)
        }
    };
    CellRecord {
        cell: Fig12Cell {
            scheme,
            onchip_bytes: result.traffic.onchip_bytes(),
            dram_bytes: result.traffic.dram_bytes,
            cycles: result.total_cycles(),
            compression_ratio: result.compression_ratio(),
        },
        prefetch,
    }
}

/// Reads every cached trace once and discards the ops: the decode half of
/// `replay.replay`, without the simulator.
fn decode_pass(tracer: &Tracer, size: &Size, cache: &TraceCache, shared: &Shared) {
    let fingerprint = config_fingerprint(&SimConfig::table1());
    for config in &size.fig12_configs {
        for scheme in SCHEMES {
            // Each configuration was the first of its call.
            let key = fig12_key(config, 0, scheme, size.fig12_scale);
            let path = cache.path_for(&key, fingerprint);
            let decoded = tracer.span("replay.decode", || -> Result<u64, String> {
                let file = File::open(&path).map_err(|e| e.to_string())?;
                let mut reader =
                    TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
                while reader.next().map_err(|e| e.to_string())?.is_some() {}
                Ok(reader.ops_read())
            });
            if let Err(e) = decoded {
                shared
                    .lock()
                    .failures
                    .push(format!("[{}] decode failed: {e}", key.cell));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Serving knee
// ---------------------------------------------------------------------------

/// The two schemes `serve::run_sweep` compares, in cell order.
const SERVE_SCHEMES: [Scheme; 2] = [Scheme::None, Scheme::Zcomp];

/// The serving config `serve::run_sweep` builds for one cell.
fn serve_config(model: ModelId, scheme: Scheme, max_batch: usize, p: &ServeParams) -> ServeConfig {
    let mut cfg = ServeConfig::new(model, scheme, max_batch);
    cfg.tenants.truncate(p.tenants.max(1));
    cfg.arrivals_per_tenant = p.arrivals_per_tenant;
    cfg.drift_epochs = p.drift_epochs;
    cfg.seed = p.seed;
    cfg
}

struct ServeKnee {
    size: Size,
    /// Per grid network, the SLO set-up derived.
    slos: Option<Vec<u64>>,
}

impl ServeKnee {
    fn output(&self, result: &ServeResult) -> Output {
        let mut failures = Vec::new();
        quarantine_check(&mut failures, result.quarantined.len());
        let mut refs = Vec::new();
        for (i, row) in result.rows.iter().enumerate() {
            let name = row.model;
            for curve in [&row.uncompressed, &row.compressed] {
                check(
                    &mut failures,
                    curve.outcome == KneeOutcome::Converged,
                    || {
                        format!(
                            "{name} {:?} knee search ended {}",
                            curve.scheme,
                            curve.outcome.label()
                        )
                    },
                );
                if let Some(slo) = self.slos.as_ref().and_then(|s| s.get(i)) {
                    check(
                        &mut failures,
                        curve.slo_p99_us == *slo as f64 / 1_000.0,
                        || format!("{name} {:?} SLO differs from set-up's", curve.scheme),
                    );
                }
            }
            check(
                &mut failures,
                row.compressed.knee_qps >= row.uncompressed.knee_qps,
                || {
                    format!(
                        "{name}: compressed knee {} below uncompressed {}",
                        row.compressed.knee_qps, row.uncompressed.knee_qps
                    )
                },
            );
            refs.push(("serve.knee_ratio", row.knee_ratio(), None));
        }
        Output {
            json: pretty(result),
            failures,
            refs,
        }
    }
}

impl Bench for ServeKnee {
    /// Derives each network's SLO from its uncompressed solo full-batch
    /// profile: the bound both knee searches must report.
    fn setup(&mut self) -> Result<Output, BenchError> {
        let grid = &self.size.serve;
        let slos: Vec<u64> = grid
            .networks
            .iter()
            .map(|&(model, max_batch)| {
                let cfg = serve_config(model, Scheme::None, max_batch, &grid.params);
                let mut service = ServiceModel::for_network(&cfg);
                derive_slo(&mut service, max_batch, grid.params.slo_factor).0
            })
            .collect();
        let mut failures = Vec::new();
        check(&mut failures, slos.iter().all(|&s| s > 0), || {
            "a derived SLO is zero".to_string()
        });
        let out = Output {
            json: pretty(&slos),
            failures,
            refs: Vec::new(),
        };
        self.slos = Some(slos);
        Ok(out)
    }

    fn run(&mut self) -> Result<(Output, Vec<f64>), BenchError> {
        let (out, secs) = timed(|| serve::run_sweep(&self.size.serve, &SweepOpts::serial()));
        let out = out.map_err(BenchError::Sweep)?;
        Ok((self.output(&out.result), vec![secs]))
    }

    fn traced(&mut self, tracer: &Tracer) -> Result<(Output, Counters), BenchError> {
        let shared = Shared::default();
        let result = tracer.span("workload", || {
            traced_serve(tracer, &self.size.serve, &shared)
        })?;
        Ok(finish_traced(self.output(&result), &shared))
    }
}

/// The cells of `serve::run_sweep`, driven through `sweep::run_cells`.
fn traced_serve(
    tracer: &Tracer,
    grid: &ServeGridSpec,
    shared: &Shared,
) -> Result<ServeResult, BenchError> {
    let fingerprint = config_fingerprint(&SimConfig::table1());
    let items = grid.networks.len() * SERVE_SCHEMES.len();
    let params = grid.params;
    let cell_of = |idx: usize| {
        let (model, max_batch) = grid.networks[idx / SERVE_SCHEMES.len()];
        (model, max_batch, SERVE_SCHEMES[idx % SERVE_SCHEMES.len()])
    };
    let key_of = |idx: usize| {
        let (model, max_batch, scheme) = cell_of(idx);
        format!(
            "model={model};scheme={scheme:?};mb={max_batch};seed={:#x}",
            params.seed
        )
    };
    let make_job = |idx: usize| -> Box<dyn FnOnce() -> ServeCurve + Send + 'static> {
        let (model, max_batch, scheme) = cell_of(idx);
        let (tracer, shared) = (tracer.clone(), shared.clone());
        Box::new(move || {
            tracer.span("cell", || {
                serve_cell(&tracer, &shared, model, max_batch, &params, scheme)
            })
        })
    };
    let run = tracer
        .span("sweep.run_cells", || {
            run_cells(
                "serve",
                items,
                fingerprint,
                &SweepOpts::serial(),
                key_of,
                make_job,
            )
        })
        .map_err(BenchError::Sweep)?;
    let mut outcomes = run.outcomes.into_iter();
    let mut rows = Vec::with_capacity(grid.networks.len());
    for &(model, max_batch) in &grid.networks {
        let [uncompressed, compressed] = SERVE_SCHEMES.map(|scheme| match outcomes.next() {
            Some(CellOutcome::Completed { value, .. }) => value,
            _ => ServeCurve {
                model,
                scheme,
                slo_p99_us: 0.0,
                capacity_estimate_qps: 0.0,
                knee_qps: 0.0,
                outcome: KneeOutcome::Infeasible,
                points: Vec::new(),
            },
        });
        rows.push(ServeRow {
            model,
            max_batch,
            uncompressed,
            compressed,
        });
    }
    Ok(ServeResult {
        rows,
        quarantined: run.report.quarantined.clone(),
    })
}

/// One knee search, split into profile pricing and the event loop: every
/// (tenant, epoch, padded batch) profile the engine can ask for is priced
/// up front, so `find_knee` then runs on a warm memo.
fn serve_cell(
    tracer: &Tracer,
    shared: &Shared,
    model: ModelId,
    max_batch: usize,
    params: &ServeParams,
    scheme: Scheme,
) -> ServeCurve {
    let base_cfg = serve_config(model, Scheme::None, max_batch, params);
    let mut base = tracer.span("serve.for_network", || ServiceModel::for_network(&base_cfg));
    let (slo_ns, max_wait_ns) = tracer.span("serve.derive_slo", || {
        derive_slo(&mut base, max_batch, params.slo_factor)
    });
    let mut cfg = serve_config(model, scheme, max_batch, params);
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    // The uncompressed cell reuses the SLO's service model, whose memo
    // already holds the (0, 0, max_batch) profile.
    let (mut service, priced) = if scheme == Scheme::None {
        (base, Some((0, 0, max_batch)))
    } else {
        (
            tracer.span("serve.for_network", || ServiceModel::for_network(&cfg)),
            None,
        )
    };
    for tenant in 0..cfg.tenants.len() {
        for epoch in 0..cfg.drift_epochs {
            let mut padded = 1;
            while padded <= max_batch {
                if priced != Some((tenant, epoch, padded)) {
                    tracer.span("serve.price", || {
                        service.batch_cost(tenant, epoch, padded, 1)
                    });
                }
                padded *= 2;
            }
        }
    }
    let opts = KneeOpts {
        bisect_iters: params.bisect_iters,
        ..KneeOpts::default()
    };
    let curve = tracer.span("serve.find_knee", || find_knee(&cfg, &mut service, &opts));
    let mut c = shared.lock();
    c.rate_points += curve.points.len() as u64;
    c.arrivals += curve.points.iter().map(|p| p.arrivals).sum::<u64>();
    curve
}

// ---------------------------------------------------------------------------
// Fig. 15
// ---------------------------------------------------------------------------

struct Fig15 {
    size: Size,
}

fn fig15_output(result: &Fig15Result) -> Output {
    let (z, l, t) = result.geomeans();
    let mut failures = Vec::new();
    check(&mut failures, z > l && l > t, || {
        format!("fig15 geomeans out of order: zcomp {z} limitcc {l} twotag {t}")
    });
    Output {
        json: pretty(result),
        failures,
        refs: vec![
            ("fig15.zcomp_geomean", z, Some(1.8)),
            ("fig15.limitcc_geomean", l, Some(1.54)),
            ("fig15.twotag_geomean", t, Some(1.1)),
        ],
    }
}

impl Bench for Fig15 {
    /// Checks that the detected codec backend agrees with the scalar
    /// oracle on one small snapshot per network before anything is timed.
    fn setup(&mut self) -> Result<Output, BenchError> {
        let scalar = fig15::run_with_backend(1, 1 << 20, CodecBackend::Scalar);
        let detected = fig15::run_with_backend(1, 1 << 20, CodecBackend::detect());
        let mut failures = Vec::new();
        check(&mut failures, scalar == detected, || {
            format!(
                "the {} codec backend disagrees with the scalar oracle",
                CodecBackend::detect()
            )
        });
        Ok(Output {
            json: pretty(&detected),
            failures,
            refs: Vec::new(),
        })
    }

    fn run(&mut self) -> Result<(Output, Vec<f64>), BenchError> {
        let (result, secs) =
            timed(|| fig15::run(self.size.fig15_snapshots, self.size.fig15_elements));
        Ok((fig15_output(&result), vec![secs]))
    }

    fn traced(&mut self, tracer: &Tracer) -> Result<(Output, Counters), BenchError> {
        let shared = Shared::default();
        let result = tracer.span("workload", || {
            traced_fig15(
                tracer,
                self.size.fig15_snapshots,
                self.size.fig15_elements,
                &shared,
            )
        })?;
        Ok(finish_traced(fig15_output(&result), &shared))
    }
}

/// `fig15::run`, step by step.
fn traced_fig15(
    tracer: &Tracer,
    snapshots_per_network: usize,
    elements_per_snapshot: usize,
    shared: &Shared,
) -> Result<Fig15Result, BenchError> {
    let backend = CodecBackend::detect();
    let mut rng = SmallRng::seed_from_u64(0x0F15);
    let model = SparsityModel::default();
    let mut snapshots = Vec::new();
    for id in ModelId::ALL {
        let net = tracer.span("gen.build", || id.build(id.training_batch()));
        let profile = tracer.span("gen.profile", || model.profile(&net, 50));
        let candidates: Vec<usize> = net
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.has_relu())
            .map(|(i, _)| i)
            .collect();
        let weights: Vec<u64> = candidates
            .iter()
            .map(|&i| net.layers[i].output.bytes() as u64)
            .collect();
        let total_weight: u64 = weights.iter().sum();
        for k in 0..snapshots_per_network {
            let mut pick = rng.gen_range(0..total_weight.max(1));
            let mut chosen = 0usize;
            for (ci, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = ci;
                    break;
                }
                pick -= w;
            }
            let idx = candidates[chosen];
            let sparsity = profile.per_layer[idx];
            let elements = elements_per_snapshot.div_ceil(16) * 16;
            let data = tracer.span("gen.activations", || {
                generate_activations(
                    elements,
                    sparsity,
                    6.0,
                    0x0F15_0000 ^ ((k as u64) << 32) ^ idx as u64,
                )
            });
            let stream = tracer
                .span("isa.compress", || {
                    compress_f32_with_backend(
                        &data,
                        CompareCond::Eqz,
                        HeaderMode::Interleaved,
                        backend,
                    )
                })
                .map_err(BenchError::Codec)?;
            let limitcc = tracer.span("cachecomp.limitcc", || limitcc_ratio(&data));
            let twotag = tracer.span("cachecomp.twotag", || twotag_ratio(&data));
            {
                let bytes = std::mem::size_of_val(data.as_slice()) as u64;
                let mut c = shared.lock();
                c.gen_bytes += bytes;
                c.isa_bytes += bytes;
                c.cachecomp_bytes += bytes;
            }
            snapshots.push(Fig15Snapshot {
                model: id,
                layer: net.layers[idx].name.clone(),
                sparsity,
                zcomp: stream.compression_ratio(),
                limitcc,
                twotag,
            });
        }
    }
    Ok(Fig15Result { snapshots })
}
