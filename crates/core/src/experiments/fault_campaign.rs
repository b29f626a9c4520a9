//! Fault-injection campaign — detection, silent corruption, degradation.
//!
//! Sweeps fault rate × injection site over the data-faithful faulted
//! layer of `zcomp_kernels::degrade`: every trial materializes a real
//! compressed stream, streams it through the simulated memory hierarchy
//! with probes armed at exactly one site, applies every drained bit flip
//! to the modeled bytes, and runs the consumer-side integrity policy
//! (validate + optional CRC32 sidecar, retry once, fall back to the
//! uncompressed avx512-vec path).
//!
//! Reported per (site, rate) cell: injection and detection counts,
//! outcome mix (clean / recovered / fallback / silent corruption),
//! degradation overhead in bytes and cycles, and the desynchronization
//! distance distribution (how many trailing vectors one corrupted byte
//! poisons — the §4.1 in-band-header hazard the integrity machinery
//! exists to contain).
//!
//! The campaign is fully deterministic: every probe seed is derived from
//! the campaign seed, the site, the rate bits and the trial index, so the
//! same configuration reproduces byte-identical JSON.

use serde::{Deserialize, Serialize};
use zcomp_dnn::sparsity::generate_activations;
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::degrade::{run_layer_faulted, DegradeOpts, FaultyLayerReport, LayerOutcome};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;
use zcomp_sim::faults::{FaultConfig, FaultSite};

use crate::report::{fmt_bytes, pct, Table};
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{run_cells, SweepError, SweepOpts, SweepOutcome};

/// One campaign's configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed every probe stream derives from.
    pub seed: u64,
    /// Per-access flip rates swept (0.0 is the clean control).
    pub rates: Vec<f64>,
    /// Sites swept, one armed at a time.
    pub sites: Vec<FaultSite>,
    /// Independent trials per (site, rate) cell.
    pub trials: usize,
    /// Layer size in fp32 elements (whole 16-lane vectors).
    pub elements: usize,
    /// Activation sparsity of the synthetic layer (paper average: 53%).
    pub sparsity: f64,
    /// Header placement of the compressed stream.
    pub mode: HeaderMode,
    /// Whether the CRC32 sidecar is maintained and verified.
    pub checksum: bool,
    /// Worker threads streaming the buffers.
    pub threads: usize,
}

impl CampaignConfig {
    /// The default campaign at a workload scale divisor (1 = full size).
    pub fn default_scaled(scale_divisor: usize) -> CampaignConfig {
        let elements = ((1usize << 20) / scale_divisor.max(1)).max(4096) / 16 * 16;
        CampaignConfig {
            seed: 0x000F_A017_CA4D,
            rates: vec![0.0, 1e-5, 1e-4, 1e-3],
            sites: FaultSite::ALL.to_vec(),
            trials: 3,
            elements,
            sparsity: 0.53,
            mode: HeaderMode::Separate,
            checksum: true,
            threads: 4,
        }
    }

    /// The same campaign under the weakest policy: interleaved headers
    /// and no checksum — the configuration where silent corruption is
    /// possible (payload flips keep the stream well-formed).
    pub fn weak_policy(mut self) -> CampaignConfig {
        self.mode = HeaderMode::Interleaved;
        self.checksum = false;
        self
    }

    fn degrade_opts(&self) -> DegradeOpts {
        DegradeOpts {
            threads: self.threads,
            mode: self.mode,
            checksum: self.checksum,
            max_retries: 1,
        }
    }
}

/// Outcome counts of one cell's trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Exact output, no retry.
    pub clean: u64,
    /// Detected, recovered by the retry read.
    pub recovered: u64,
    /// Detected, recovered by the uncompressed fallback.
    pub fallback: u64,
    /// Wrong output that passed every enabled check.
    pub silent: u64,
}

impl OutcomeCounts {
    fn record(&mut self, outcome: LayerOutcome) {
        match outcome {
            LayerOutcome::Clean => self.clean += 1,
            LayerOutcome::Recovered => self.recovered += 1,
            LayerOutcome::Fallback => self.fallback += 1,
            LayerOutcome::SilentCorruption => self.silent += 1,
        }
    }
}

/// Desynchronization-distance distribution of a cell's stream hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DesyncDistribution {
    /// Stream hits with a computable impact.
    pub count: u64,
    /// Fewest trailing vectors poisoned by one hit.
    pub min_vectors: u64,
    /// Mean trailing vectors poisoned.
    pub mean_vectors: f64,
    /// Most trailing vectors poisoned.
    pub max_vectors: u64,
}

impl DesyncDistribution {
    fn of(poisoned: &[u64]) -> DesyncDistribution {
        if poisoned.is_empty() {
            return DesyncDistribution::default();
        }
        DesyncDistribution {
            count: poisoned.len() as u64,
            min_vectors: poisoned.iter().copied().min().unwrap_or(0),
            mean_vectors: poisoned.iter().sum::<u64>() as f64 / poisoned.len() as f64,
            max_vectors: poisoned.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Measurements of one (site, rate) cell, aggregated over its trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Site armed for this cell.
    pub site: FaultSite,
    /// Per-access flip rate.
    pub rate: f64,
    /// Trials run.
    pub trials: u64,
    /// Fault events the probes injected (anywhere in memory).
    pub injected: u64,
    /// Events whose flipped byte landed inside the compressed stream.
    pub stream_hits: u64,
    /// Stream hits credited as detected by the integrity checks.
    pub detections: u64,
    /// Outcome mix of the trials.
    pub outcomes: OutcomeCounts,
    /// Extra bytes moved by retries and fallbacks, per trial.
    pub mean_extra_bytes: f64,
    /// Mean consumer-phase cycles, relative to the clean control (1.0 =
    /// no overhead).
    pub load_cycle_overhead: f64,
    /// Desync-distance distribution of the stream hits.
    pub desync: DesyncDistribution,
}

impl CampaignCell {
    /// Detected fraction of stream hits (1.0 when nothing hit).
    pub fn detection_rate(&self) -> f64 {
        if self.stream_hits == 0 {
            1.0
        } else {
            self.detections as f64 / self.stream_hits as f64
        }
    }

    /// Silently corrupted fraction of trials.
    pub fn silent_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.outcomes.silent as f64 / self.trials as f64
        }
    }
}

/// Complete campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignResult {
    /// The configuration that produced it.
    pub config: CampaignConfig,
    /// Consumer-phase cycles of the clean (no probes) control run.
    pub clean_load_cycles: f64,
    /// Producer-phase cycles of the clean control run.
    pub clean_store_cycles: f64,
    /// One cell per (site, rate), sites outer, rates inner.
    pub cells: Vec<CampaignCell>,
    /// Cells the supervised campaign quarantined, in index order; their
    /// slots hold zeroed placeholder cells.
    pub quarantined: Vec<CellFailure>,
}

/// Aggregate summary over every cell with a non-zero rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignSummary {
    /// Trials across all faulted cells.
    pub trials: u64,
    /// Stream hits across all faulted cells.
    pub stream_hits: u64,
    /// Overall detected fraction of stream hits.
    pub detection_rate: f64,
    /// Trials that ended in silent corruption.
    pub silent_runs: u64,
    /// Trials recovered by retry alone.
    pub recovered_runs: u64,
    /// Trials that fell back to the uncompressed path.
    pub fallback_runs: u64,
    /// Largest observed desync distance in vectors.
    pub max_desync_vectors: u64,
}

impl FaultCampaignResult {
    /// Computes the aggregate summary (clean controls excluded).
    pub fn summary(&self) -> FaultCampaignSummary {
        let faulted: Vec<&CampaignCell> = self.cells.iter().filter(|c| c.rate > 0.0).collect();
        let hits: u64 = faulted.iter().map(|c| c.stream_hits).sum();
        let detections: u64 = faulted.iter().map(|c| c.detections).sum();
        FaultCampaignSummary {
            trials: faulted.iter().map(|c| c.trials).sum(),
            stream_hits: hits,
            detection_rate: if hits == 0 {
                1.0
            } else {
                detections as f64 / hits as f64
            },
            silent_runs: faulted.iter().map(|c| c.outcomes.silent).sum(),
            recovered_runs: faulted.iter().map(|c| c.outcomes.recovered).sum(),
            fallback_runs: faulted.iter().map(|c| c.outcomes.fallback).sum(),
            max_desync_vectors: faulted
                .iter()
                .map(|c| c.desync.max_vectors)
                .max()
                .unwrap_or(0),
        }
    }

    /// Renders the campaign as one table, one row per cell.
    pub fn table(&self) -> Table {
        let policy = format!(
            "{} headers, checksum {}",
            match self.config.mode {
                HeaderMode::Interleaved => "interleaved",
                HeaderMode::Separate => "separate",
            },
            if self.config.checksum { "on" } else { "off" },
        );
        let mut t = Table::new(
            format!("Fault campaign ({policy})"),
            &[
                "site",
                "rate",
                "hits",
                "detect",
                "clean",
                "retry_ok",
                "fallback",
                "silent",
                "extra/trial",
                "cycle_ovh",
                "desync max",
            ],
        );
        for c in &self.cells {
            t.row([
                c.site.label().to_string(),
                format!("{:.0e}", c.rate),
                c.stream_hits.to_string(),
                pct(c.detection_rate()),
                c.outcomes.clean.to_string(),
                c.outcomes.recovered.to_string(),
                c.outcomes.fallback.to_string(),
                c.outcomes.silent.to_string(),
                fmt_bytes(c.mean_extra_bytes.round() as u64),
                format!("{:.2}x", c.load_cycle_overhead),
                format!("{} vec", c.desync.max_vectors),
            ]);
        }
        t
    }
}

/// Runs one configured campaign with every (site, rate) cell routed
/// through the supervised sweep runtime ([`run_cells`]): a panicking cell
/// is quarantined into the result's `quarantined` list with a zeroed
/// placeholder cell — the rest of the campaign completes. With a cache
/// root the cells are journalled, and restored unless `opts.cache_mode`
/// is [`CacheMode::Refresh`].
///
/// [`CacheMode::Refresh`]: crate::sweep::CacheMode::Refresh
///
/// The clean control run stays *unsupervised*: if the baseline itself
/// cannot run there is nothing meaningful to salvage, so that panic
/// still propagates.
///
/// # Panics
///
/// Panics if the configuration has no trials or a non-vector-multiple
/// element count.
pub fn run_sweep(
    cfg: &CampaignConfig,
    opts: &SweepOpts,
) -> Result<SweepOutcome<FaultCampaignResult>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "fault_campaign");
    let opts = &opts.reusing_journal();
    assert!(cfg.trials > 0, "campaign needs at least one trial");
    assert_eq!(cfg.elements % 16, 0, "elements must be whole vectors");
    let data = layer_data(cfg);
    let degrade = cfg.degrade_opts();

    let clean = {
        let mut machine = machine();
        run_trial(&mut machine, &data, &degrade)
    };

    let pairs: Vec<(FaultSite, f64)> = cfg
        .sites
        .iter()
        .flat_map(|&s| cfg.rates.iter().map(move |&r| (s, r)))
        .collect();
    let items = pairs.len();
    // The fingerprint covers the whole campaign configuration, and the
    // cell key names the integrity policy: cells journalled by the
    // strong campaign can never be resumed into the weak one even when
    // both share a cache root.
    let fingerprint = opts.fingerprint(campaign_fingerprint(cfg));
    let key_of = |idx: usize| {
        let (site, rate) = pairs[idx];
        format!(
            "mode={:?};checksum={};site={site:?};rate={rate:e}",
            cfg.mode, cfg.checksum
        )
    };
    let make_job = |idx: usize| {
        let (site, rate) = pairs[idx];
        let (data, degrade, clean) = (&data, &degrade, &clean);
        move || run_cell(cfg, site, rate, data, degrade, clean)
    };
    let run = run_cells("fault_campaign", items, fingerprint, opts, key_of, make_job)?;

    let mut cells = Vec::with_capacity(items);
    for (idx, outcome) in run.outcomes.iter().enumerate() {
        let (site, rate) = pairs[idx];
        match outcome {
            CellOutcome::Completed { value, .. } => cells.push(value.clone()),
            CellOutcome::Quarantined(_) => cells.push(CampaignCell {
                site,
                rate,
                trials: 0,
                injected: 0,
                stream_hits: 0,
                detections: 0,
                outcomes: OutcomeCounts::default(),
                mean_extra_bytes: 0.0,
                load_cycle_overhead: 0.0,
                desync: DesyncDistribution::default(),
            }),
        }
    }
    let result = FaultCampaignResult {
        config: cfg.clone(),
        clean_load_cycles: clean.load_cycles,
        clean_store_cycles: clean.store_cycles,
        cells,
        quarantined: run.report.quarantined.clone(),
    };
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

/// CRC32 of the serialized campaign configuration — the journal
/// fingerprint that keeps differently-configured campaigns apart.
fn campaign_fingerprint(cfg: &CampaignConfig) -> u32 {
    let text = serde_json::to_string(cfg).expect("campaign config serializes");
    zcomp_trace::hash::crc32(text.as_bytes())
}

fn machine() -> Machine {
    Machine::new(SimConfig::table1(), UopTable::skylake_x())
}

/// Synthetic post-activation layer data (zero or positive, clustered
/// zero runs), deterministic in the campaign seed.
fn layer_data(cfg: &CampaignConfig) -> Vec<f32> {
    generate_activations(cfg.elements, cfg.sparsity, 6.0, cfg.seed ^ 0xDA7A)
}

/// One faulted (or clean) layer trial. The input is whole vectors by
/// construction, so compression cannot fail.
fn run_trial(machine: &mut Machine, data: &[f32], opts: &DegradeOpts) -> FaultyLayerReport {
    run_layer_faulted(machine, data, opts).expect("campaign input is whole vectors")
}

fn run_cell(
    cfg: &CampaignConfig,
    site: FaultSite,
    rate: f64,
    data: &[f32],
    opts: &DegradeOpts,
    clean: &FaultyLayerReport,
) -> CampaignCell {
    let mut injected = 0u64;
    let mut stream_hits = 0u64;
    let mut detections = 0u64;
    let mut outcomes = OutcomeCounts::default();
    let mut extra_bytes = 0u64;
    let mut load_cycles = 0.0f64;
    let mut poisoned = Vec::new();
    for trial in 0..cfg.trials {
        let mut m = machine();
        if rate > 0.0 {
            let seed = trial_seed(cfg.seed, site, rate, trial);
            m.attach_faults(&FaultConfig::off(seed).with_rate(site, rate));
        }
        let r = run_trial(&mut m, data, opts);
        injected += m.fault_stats().total_injected();
        stream_hits += r.stream_hits;
        detections += r.detections;
        outcomes.record(r.outcome);
        extra_bytes += r.fallback_extra_bytes;
        load_cycles += r.load_cycles;
        poisoned.extend(r.desync.iter().map(|d| d.poisoned_vectors as u64));
    }
    let trials = cfg.trials as u64;
    CampaignCell {
        site,
        rate,
        trials,
        injected,
        stream_hits,
        detections,
        outcomes,
        mean_extra_bytes: extra_bytes as f64 / trials as f64,
        load_cycle_overhead: (load_cycles / trials as f64) / clean.load_cycles.max(1.0),
        desync: DesyncDistribution::of(&poisoned),
    }
}

/// Derives one trial's probe seed from the campaign coordinates.
fn trial_seed(master: u64, site: FaultSite, rate: f64, trial: usize) -> u64 {
    master
        ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ rate.to_bits().wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (trial as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            rates: vec![0.0, 1e-3],
            sites: vec![FaultSite::L2Line, FaultSite::DramBurst, FaultSite::NocFlit],
            trials: 2,
            elements: 8192,
            ..CampaignConfig::default_scaled(1)
        }
    }

    /// A serial, uncached campaign that must complete every cell.
    fn serial(cfg: &CampaignConfig) -> FaultCampaignResult {
        let out = run_sweep(cfg, &SweepOpts::serial()).expect("serial campaign");
        assert!(
            out.result.quarantined.is_empty(),
            "{:?}",
            out.result.quarantined
        );
        out.result
    }

    #[test]
    fn zero_rate_cells_match_clean_control() {
        let r = serial(&quick_config());
        for c in r.cells.iter().filter(|c| c.rate == 0.0) {
            assert_eq!(c.injected, 0, "{}", c.site);
            assert_eq!(c.stream_hits, 0);
            assert_eq!(c.outcomes.clean, c.trials);
            assert_eq!(c.mean_extra_bytes, 0.0);
            assert!(
                (c.load_cycle_overhead - 1.0).abs() < 1e-12,
                "clean cells must cost exactly the clean control: {}",
                c.load_cycle_overhead
            );
        }
    }

    #[test]
    fn strong_policy_never_corrupts_silently() {
        let r = serial(&quick_config());
        let s = r.summary();
        assert!(s.stream_hits > 0, "campaign must land hits: {s:?}");
        assert_eq!(s.silent_runs, 0);
        assert!((s.detection_rate - 1.0).abs() < 1e-12, "{s:?}");
        assert!(s.fallback_runs > 0, "persistent sites must fall back");
    }

    #[test]
    fn faulted_cells_charge_overhead() {
        let r = serial(&quick_config());
        let dram: Vec<&CampaignCell> = r
            .cells
            .iter()
            .filter(|c| c.site == FaultSite::DramBurst && c.rate > 0.0)
            .collect();
        assert!(dram.iter().any(|c| c.outcomes.fallback > 0));
        for c in dram {
            if c.outcomes.fallback > 0 {
                assert!(c.mean_extra_bytes > 0.0);
                assert!(c.load_cycle_overhead > 1.0);
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick_config();
        assert_eq!(serial(&cfg), serial(&cfg));
    }

    #[test]
    fn desync_distribution_is_populated_on_hits() {
        let r = serial(&quick_config());
        let s = r.summary();
        assert!(s.max_desync_vectors >= 1);
        for c in r.cells.iter().filter(|c| c.stream_hits > 0) {
            assert!(c.desync.count > 0);
            assert!(c.desync.mean_vectors >= c.desync.min_vectors as f64);
            assert!(c.desync.mean_vectors <= c.desync.max_vectors as f64);
        }
    }

    #[test]
    fn table_renders_every_cell() {
        let r = serial(&quick_config());
        let text = r.table().render();
        assert!(text.contains("dram_burst"));
        assert!(text.contains("noc_flit"));
    }

    #[test]
    fn sweep_matches_serial_run() {
        let cfg = quick_config();
        let reference = serial(&cfg);
        let root = std::env::temp_dir().join(format!("zcampaign-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::default().with_cache(&root).with_threads(3);
        let threaded = run_sweep(&cfg, &opts).expect("threaded campaign");
        let resumed = run_sweep(&cfg, &opts).expect("resumed campaign");
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(threaded.result, reference);
        let cells = cfg.sites.len() * cfg.rates.len();
        assert_eq!(threaded.supervision.executed, cells);
        assert!(threaded.supervision.quarantined.is_empty());
        assert_eq!(resumed.supervision.resume_skips, cells);
        assert_eq!(resumed.result, reference);
    }

    #[test]
    fn strong_and_weak_campaigns_never_share_a_fingerprint() {
        let cfg = quick_config();
        assert_ne!(
            campaign_fingerprint(&cfg),
            campaign_fingerprint(&cfg.clone().weak_policy())
        );
    }

    #[test]
    fn weak_policy_detects_less_or_equal() {
        let cfg = quick_config();
        let strong = serial(&cfg).summary();
        let weak = serial(&cfg.weak_policy()).summary();
        assert!(weak.detection_rate <= strong.detection_rate + 1e-12);
    }
}
