//! Data-faithful graceful degradation for one compressed activation layer.
//!
//! The simulator injects faults as *events*
//! ([`FaultEvent`](zcomp_sim::faults::FaultEvent)) because its caches are
//! tag-only. This module closes the loop: it runs a ReLU layer
//! whose output actually exists as a [`CompressedStream`], streams the
//! stream's bytes through the simulated memory system (so the fault probes
//! roll real trials against its addresses), applies every drained flip to
//! the modeled bytes, and then exercises the consumer-side integrity
//! policy end to end:
//!
//! 1. **Validate** — [`CompressedStream::validate`] plus the optional
//!    CRC32 sidecar ([`StreamChecksum`]) on every read.
//! 2. **Retry once** — a detected corruption triggers one re-read,
//!    charged to the machine. Transient flips (NoC flits,
//!    [`FaultSite::is_transient`]) clear on retry; array corruption
//!    (cache lines, DRAM bursts) persists and fails again.
//! 3. **Fall back** — persistent corruption abandons the compressed
//!    stream: the layer re-reads its pristine uncompressed input,
//!    recomputes with the avx512-vec path and stores the output
//!    uncompressed, all charged to the machine. The fallback output is
//!    bit-exact with the never-compressed reference by construction.
//!
//! Write-path flips are made durable by the store (even an in-flight NoC
//! flip ends up in memory), so every event drained after the producer pass
//! corrupts the stored stream; only read-path NoC events are transient.
//!
//! Faults that strike *uncompressed* traffic (the fallback re-read, or a
//! baseline run) carry no integrity metadata and are invisible here — that
//! is exactly the exposure an uncompressed baseline has, and the paper's
//! schemes neither add nor remove it.

use serde::{Deserialize, Serialize};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::{compress_f32_with, expand_f32_into};
use zcomp_isa::error::ZcompError;
use zcomp_isa::integrity::{desync_impact, DesyncImpact, StreamChecksum, StreamRegion};
use zcomp_isa::stream::{CompressedStream, HeaderMode};
use zcomp_isa::uops::UopCounts;
use zcomp_sim::engine::{Machine, PhaseMode};
use zcomp_sim::faults::FaultSite;

use crate::layer_exec::{
    read_uops_per_vector, stream_region, write_uops_per_vector, Region, Scheme,
};

/// Virtual base of the uncompressed input feature map.
pub const X_BASE: u64 = 0x1000_0000;
/// Virtual base of the compressed output stream's data region.
pub const Y_BASE: u64 = 0x5000_0000;
/// Virtual base of the separate header store ([`HeaderMode::Separate`]).
pub const HEADER_BASE: u64 = 0x9000_0000;

/// Integrity and degradation policy for a faulted layer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeOpts {
    /// Worker threads streaming the buffers.
    pub threads: usize,
    /// Header placement of the compressed stream. Separate headers are
    /// what makes every single-bit header flip detectable by length
    /// reconciliation alone.
    pub mode: HeaderMode,
    /// Maintain and verify a CRC32 sidecar per stream. Required to catch
    /// payload flips (which keep the stream well-formed).
    pub checksum: bool,
    /// Re-reads attempted after a detection before falling back.
    pub max_retries: u32,
}

impl Default for DegradeOpts {
    fn default() -> Self {
        DegradeOpts {
            threads: 4,
            mode: HeaderMode::Separate,
            checksum: true,
            max_retries: 1,
        }
    }
}

/// How a faulted layer run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerOutcome {
    /// The expanded output is exact and no retry was needed.
    Clean,
    /// Corruption was detected and a retry read produced a valid stream.
    Recovered,
    /// Detection persisted across retries; the layer re-ran uncompressed.
    Fallback,
    /// The stream passed every enabled check but expanded to wrong
    /// values — an undetected corruption.
    SilentCorruption,
}

impl LayerOutcome {
    /// Short stable name used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            LayerOutcome::Clean => "clean",
            LayerOutcome::Recovered => "recovered",
            LayerOutcome::Fallback => "fallback",
            LayerOutcome::SilentCorruption => "silent_corruption",
        }
    }
}

impl std::fmt::Display for LayerOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything one faulted layer run observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyLayerReport {
    /// Final disposition of the layer.
    pub outcome: LayerOutcome,
    /// Fault events whose flipped byte landed inside the compressed
    /// stream (others struck unrelated addresses).
    pub stream_hits: u64,
    /// Stream hits credited as detected (reported to the machine's
    /// per-site detection counters).
    pub detections: u64,
    /// Retry reads performed.
    pub retries: u64,
    /// Extra bytes streamed by the uncompressed fallback (zero unless
    /// the outcome is [`LayerOutcome::Fallback`]).
    pub fallback_extra_bytes: u64,
    /// Desynchronization impact of each stream hit: how many trailing
    /// vectors the corrupted byte poisons before any recovery.
    pub desync: Vec<DesyncImpact>,
    /// Wall cycles of the producer (compress + store) phase.
    pub store_cycles: f64,
    /// Wall cycles of the consumer phase, including retries and fallback.
    pub load_cycles: f64,
    /// Whether the final output equals the never-faulted ReLU bit for bit.
    pub output_exact: bool,
}

/// Distills the retry-then-uncompressed policy for a *detected* stream
/// corruption at `site` into its resolution, without simulating the
/// reads: how many retry reads get charged and how the layer ends.
///
/// This is the contract [`run_layer_faulted`] implements against real
/// stream bytes — transient in-flight flips ([`FaultSite::is_transient`])
/// clear on the first retry, persistent array corruption survives every
/// re-read and forces the uncompressed fallback — exposed so higher
/// layers (the serving chaos engine) degrade by the same rules instead of
/// inventing their own. With `max_retries == 0` even a transient flip
/// falls back: there is no clean read to recover from.
pub fn resolve_stream_fault(site: FaultSite, max_retries: u32) -> (u32, LayerOutcome) {
    if site.is_transient() && max_retries >= 1 {
        (1, LayerOutcome::Recovered)
    } else {
        (max_retries, LayerOutcome::Fallback)
    }
}

/// A drained fault event translated into stream coordinates.
#[derive(Debug, Clone, Copy)]
struct StreamHit {
    site: FaultSite,
    region: StreamRegion,
    offset: usize,
    bit: u8,
}

/// Runs one ReLU layer whose compressed output is subject to whatever
/// fault probes are attached to `machine`, applying the retry-then-fallback
/// policy of `opts`. Returns the full incident report.
///
/// The reference output is `max(x, 0)`; the compressed path must reproduce
/// it bit for bit unless a corruption slips past the enabled checks (in
/// which case the report says so).
///
/// # Errors
///
/// Returns [`ZcompError::PartialVector`] if `x` is not a whole number of
/// 16-lane vectors.
///
/// # Panics
///
/// Panics if `opts.threads` is zero or exceeds the machine's cores.
pub fn run_layer_faulted(
    machine: &mut Machine,
    x: &[f32],
    opts: &DegradeOpts,
) -> Result<FaultyLayerReport, ZcompError> {
    assert!(
        opts.threads > 0 && opts.threads <= machine.threads(),
        "thread count must be in 1..=cores"
    );
    let y_ref: Vec<f32> = x.iter().map(|&v| v.max(0.0)).collect();
    let pristine = compress_f32_with(x, CompareCond::Ltez, opts.mode)?;
    let sidecar = opts.checksum.then(|| StreamChecksum::of(&pristine));

    let data_len = pristine.data().len();
    let header_len = pristine.headers().len();
    let vectors = pristine.vectors() as u64;

    // Discard events left over from whatever ran before this layer so the
    // attribution below is exact.
    machine.drain_fault_events();

    let mut stream_hits = 0u64;
    let mut detections = 0u64;
    let mut desync = Vec::new();
    // Sites of applied-but-not-yet-credited hits: they become detections
    // the first time a check fails with them in view.
    let mut uncredited: Vec<FaultSite> = Vec::new();

    // ---- producer: compress and store the stream ----
    stream_compressed(machine, opts.threads, data_len, header_len, vectors, true);
    let store_cycles = machine.end_phase(PhaseMode::Parallel).wall_cycles;
    // Every write-path flip is made durable by the store.
    let mut stored = pristine.clone();
    for hit in drain_stream_hits(machine, data_len, header_len) {
        stream_hits += 1;
        if let Some(d) = desync_impact(&pristine, hit.region, hit.offset) {
            desync.push(d);
        }
        stored.flip_bit(hit.region, hit.offset, hit.bit);
        uncredited.push(hit.site);
    }

    // ---- consumer: read, check, retry ----
    let mut attempts = 0u32;
    let mut valid: Option<CompressedStream> = None;
    loop {
        attempts += 1;
        stream_compressed(machine, opts.threads, data_len, header_len, vectors, false);
        let mut transient = Vec::new();
        for hit in drain_stream_hits(machine, data_len, header_len) {
            stream_hits += 1;
            if let Some(d) = desync_impact(&stored, hit.region, hit.offset) {
                desync.push(d);
            }
            if hit.site.is_transient() {
                // In-flight flip: this attempt sees it, a retry does not.
                transient.push(hit);
            } else {
                // Array flip: every later read sees it too.
                stored.flip_bit(hit.region, hit.offset, hit.bit);
            }
            uncredited.push(hit.site);
        }
        let mut view = stored.clone();
        for hit in &transient {
            view.flip_bit(hit.region, hit.offset, hit.bit);
        }
        let check = view.validate().and_then(|()| match &sidecar {
            Some(s) => s.verify(&view),
            None => Ok(()),
        });
        match check {
            Ok(()) => {
                valid = Some(view);
                break;
            }
            Err(_) => {
                for site in uncredited.drain(..) {
                    machine.record_fault_detection(site);
                    detections += 1;
                }
                if attempts > opts.max_retries {
                    break;
                }
                zcomp_trace::tracer::instant("kernels", "degrade.retry");
            }
        }
    }
    let retries = u64::from(attempts - 1);

    let mut fallback_extra_bytes = 0u64;
    let (outcome, output) = match valid {
        Some(view) => {
            // Expand into one exactly-sized buffer (the `_into` variant
            // dispatches to the native SIMD backend when available).
            let mut out = vec![0.0f32; view.elements()];
            expand_f32_into(&view, &mut out)?;
            if out == y_ref {
                let outcome = if retries > 0 {
                    LayerOutcome::Recovered
                } else {
                    LayerOutcome::Clean
                };
                (outcome, out)
            } else {
                (LayerOutcome::SilentCorruption, out)
            }
        }
        None => {
            // Uncompressed fallback: re-read the pristine input, recompute
            // with the avx512-vec path, store the output uncompressed.
            zcomp_trace::tracer::instant("kernels", "degrade.fallback");
            zcomp_trace::log_warn!(
                "stream corruption persisted across {retries} retry(ies): uncompressed fallback"
            );
            let unc = pristine.uncompressed_bytes() as u64;
            let x_region = Region {
                base: X_BASE,
                alloc_bytes: unc,
            };
            let y_region = Region {
                base: Y_BASE,
                alloc_bytes: unc,
            };
            stream_region(
                machine,
                opts.threads,
                x_region,
                unc,
                vectors,
                false,
                &read_uops_per_vector(Scheme::None),
            );
            stream_region(
                machine,
                opts.threads,
                y_region,
                unc,
                vectors,
                true,
                &write_uops_per_vector(Scheme::None),
            );
            // Flips on uncompressed traffic are baseline-equivalent
            // exposure, not stream corruption — drop them.
            machine.drain_fault_events();
            fallback_extra_bytes = 2 * unc;
            (LayerOutcome::Fallback, y_ref.clone())
        }
    };
    let load_cycles = machine.end_phase(PhaseMode::Parallel).wall_cycles;

    let output_exact = output == y_ref;
    Ok(FaultyLayerReport {
        outcome,
        stream_hits,
        detections,
        retries,
        fallback_extra_bytes,
        desync,
        store_cycles,
        load_cycles,
        output_exact,
    })
}

/// Streams the compressed stream's regions through the machine: the data
/// region at [`Y_BASE`] (carrying the zcomp per-vector uops) and, for
/// separate-header streams, the header store at [`HEADER_BASE`].
fn stream_compressed(
    machine: &mut Machine,
    threads: usize,
    data_len: usize,
    header_len: usize,
    vectors: u64,
    write: bool,
) {
    let uops = if write {
        write_uops_per_vector(Scheme::Zcomp)
    } else {
        read_uops_per_vector(Scheme::Zcomp)
    };
    if data_len > 0 {
        let region = Region {
            base: Y_BASE,
            alloc_bytes: data_len as u64,
        };
        stream_region(
            machine,
            threads,
            region,
            data_len as u64,
            vectors,
            write,
            &uops,
        );
    }
    if header_len > 0 {
        let region = Region {
            base: HEADER_BASE,
            alloc_bytes: header_len as u64,
        };
        // Header load/store uops are already part of the zcomp per-vector
        // counts; this adds their cache-line traffic.
        stream_region(
            machine,
            threads,
            region,
            header_len as u64,
            0,
            write,
            &UopCounts::new(),
        );
    }
}

/// Drains the machine's pending fault events and keeps those whose flipped
/// byte lands inside the stream's address ranges, translated to stream
/// coordinates.
fn drain_stream_hits(machine: &mut Machine, data_len: usize, header_len: usize) -> Vec<StreamHit> {
    machine
        .drain_fault_events()
        .into_iter()
        .filter_map(|e| {
            let addr = e.addr();
            if addr >= Y_BASE && addr < Y_BASE + data_len as u64 {
                Some(StreamHit {
                    site: e.site,
                    region: StreamRegion::Data,
                    offset: (addr - Y_BASE) as usize,
                    bit: e.bit,
                })
            } else if addr >= HEADER_BASE && addr < HEADER_BASE + header_len as u64 {
                Some(StreamHit {
                    site: e.site,
                    region: StreamRegion::Headers,
                    offset: (addr - HEADER_BASE) as usize,
                    bit: e.bit,
                })
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_isa::uops::UopTable;
    use zcomp_sim::config::SimConfig;
    use zcomp_sim::faults::FaultConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::table1(), UopTable::skylake_x())
    }

    /// Mixed-sign input, several KB, whole vectors.
    fn input(elements: usize) -> Vec<f32> {
        (0..elements)
            .map(|i| ((i * 37) % 97) as f32 - 48.0)
            .collect()
    }

    #[test]
    fn clean_run_is_exact() {
        let mut m = machine();
        let x = input(4096);
        let r = run_layer_faulted(&mut m, &x, &DegradeOpts::default()).unwrap();
        assert_eq!(r.outcome, LayerOutcome::Clean);
        assert!(r.output_exact);
        assert_eq!(r.stream_hits, 0);
        assert_eq!(r.retries, 0);
        assert!(r.store_cycles > 0.0 && r.load_cycles > 0.0);
    }

    #[test]
    fn persistent_fault_falls_back_bit_exact() {
        let mut m = machine();
        m.attach_faults(&FaultConfig::off(11).with_rate(FaultSite::DramBurst, 1.0));
        let x = input(16 * 1024);
        let r = run_layer_faulted(&mut m, &x, &DegradeOpts::default()).unwrap();
        assert_eq!(r.outcome, LayerOutcome::Fallback, "report {r:?}");
        assert!(r.output_exact, "fallback must reproduce the reference");
        assert!(r.stream_hits > 0);
        assert!(r.detections > 0);
        assert_eq!(r.retries, 1);
        let unc = (16 * 1024 * 4) as u64;
        assert_eq!(r.fallback_extra_bytes, 2 * unc);
        assert!(m.fault_stats().total_detected() > 0);
    }

    #[test]
    fn checksum_policy_never_corrupts_silently() {
        // With separate headers + CRC32, every stream flip is detected, so
        // the output is exact at any rate, at any site.
        for seed in 0..4u64 {
            let mut m = machine();
            m.attach_faults(&FaultConfig::uniform(0.02, seed));
            let x = input(8192);
            let r = run_layer_faulted(&mut m, &x, &DegradeOpts::default()).unwrap();
            assert_ne!(
                r.outcome,
                LayerOutcome::SilentCorruption,
                "seed {seed}: {r:?}"
            );
            assert!(r.output_exact, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn replay_is_bit_for_bit_deterministic() {
        let run = || {
            let mut m = machine();
            m.attach_faults(&FaultConfig::uniform(0.01, 99));
            run_layer_faulted(&mut m, &input(8192), &DegradeOpts::default()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn desync_impacts_are_recorded_on_hits() {
        let mut m = machine();
        m.attach_faults(&FaultConfig::off(3).with_rate(FaultSite::DramBurst, 1.0));
        let x = input(16 * 1024);
        let r = run_layer_faulted(&mut m, &x, &DegradeOpts::default()).unwrap();
        assert!(!r.desync.is_empty());
        for d in &r.desync {
            assert!(d.poisoned_vectors >= 1);
        }
    }

    #[test]
    fn interleaved_without_checksum_is_weaker() {
        // The weakest policy may or may not corrupt silently at a given
        // seed, but it must never panic and must stay deterministic.
        let opts = DegradeOpts {
            mode: HeaderMode::Interleaved,
            checksum: false,
            ..DegradeOpts::default()
        };
        let run = || {
            let mut m = machine();
            m.attach_faults(&FaultConfig::uniform(0.02, 5));
            run_layer_faulted(&mut m, &input(8192), &opts).unwrap()
        };
        let r = run();
        assert_eq!(r, run());
        if r.outcome == LayerOutcome::SilentCorruption {
            assert!(!r.output_exact);
        }
    }

    #[test]
    fn resolve_matches_the_simulated_policy() {
        // Persistent corruption: the full-fidelity run falls back after
        // exhausting retries; the distilled resolution must agree on both
        // the outcome and the retry charge.
        let mut m = machine();
        m.attach_faults(&FaultConfig::off(11).with_rate(FaultSite::DramBurst, 1.0));
        let r = run_layer_faulted(&mut m, &input(16 * 1024), &DegradeOpts::default()).unwrap();
        let (retries, outcome) = resolve_stream_fault(FaultSite::DramBurst, 1);
        assert_eq!(outcome, r.outcome);
        assert_eq!(u64::from(retries), r.retries);

        // Transient flips recover on one retry; without any retry budget
        // they fall back too.
        assert_eq!(
            resolve_stream_fault(FaultSite::NocFlit, 1),
            (1, LayerOutcome::Recovered)
        );
        assert_eq!(
            resolve_stream_fault(FaultSite::NocFlit, 0),
            (0, LayerOutcome::Fallback)
        );
        assert_eq!(
            resolve_stream_fault(FaultSite::L3Line, 2),
            (2, LayerOutcome::Fallback)
        );
    }

    #[test]
    fn partial_vector_input_is_rejected() {
        let mut m = machine();
        let err = run_layer_faulted(&mut m, &[1.0; 17], &DegradeOpts::default()).unwrap_err();
        assert!(matches!(err, ZcompError::PartialVector { .. }));
    }
}
