//! The repository's benchmark: four workloads timed end to end with
//! tracing off, and a separate traced run per workload that says what
//! share of it each layer takes. `README.md` in this directory lists the
//! workloads, the metrics and what each metric should respond to.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12_cold --seed 1 --seconds 22 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A record with host, commit, command, run counts, min/median/mean of
//! every metric, the result digest and the paper-reference fields goes to
//! `out/records/`, and a traced run's spans to `out/spans/`.

pub mod host;
pub mod spans;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;
use zcomp::sweep::SweepError;
use zcomp_isa::error::ZcompError;
use zcomp_replay::TraceError;

use crate::host::Summary;
use crate::spans::{quantile, Profile, Span, Tracer, LAYERS};
use crate::workloads::{bench_for, Counters, Output, Size, Workload};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported by every timed run (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] = [
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_heap_mib", "MiB", "lower"),
];

/// Reported by every traced run (`--trace 1`); a layer a workload never
/// calls reads 0.
pub const PER_LAYER: [MetricDef; 41] = [
    m("sweep.self_s", "s", "lower"),
    m("sweep.cells", "count", "higher"),
    m("sweep.share", "frac", "lower"),
    m("gen.self_s", "s", "lower"),
    m("gen.calls", "count", "lower"),
    m("gen.mib", "MiB", "lower"),
    m("gen.share", "frac", "lower"),
    m("kernels.self_s", "s", "lower"),
    m("kernels.calls", "count", "lower"),
    m("kernels.cell_p50_ms", "ms", "lower"),
    m("kernels.cell_p90_ms", "ms", "lower"),
    m("kernels.sim_mlines_per_s", "Mlines/s", "higher"),
    m("kernels.share", "frac", "lower"),
    m("replay.capture_s", "s", "lower"),
    m("replay.finish_s", "s", "lower"),
    m("replay.open_s", "s", "lower"),
    m("replay.replay_s", "s", "lower"),
    m("replay.decode_s", "s", "lower"),
    m("replay.trace_mib", "MiB", "lower"),
    m("replay.disk_mib", "MiB", "lower"),
    m("replay.mops", "Mops", "lower"),
    m("replay.hit_frac", "frac", "higher"),
    m("replay.share", "frac", "lower"),
    m("isa.compress_s", "s", "lower"),
    m("isa.compress_gb_s", "GB/s", "higher"),
    m("isa.calls", "count", "lower"),
    m("isa.share", "frac", "lower"),
    m("cachecomp.limitcc_s", "s", "lower"),
    m("cachecomp.twotag_s", "s", "lower"),
    m("cachecomp.gb_s", "GB/s", "higher"),
    m("cachecomp.share", "frac", "lower"),
    m("serve.profile_s", "s", "lower"),
    m("serve.profiles", "count", "lower"),
    m("serve.profile_p50_ms", "ms", "lower"),
    m("serve.engine_s", "s", "lower"),
    m("serve.rate_points", "count", "lower"),
    m("serve.arrivals_per_s", "1/s", "higher"),
    m("serve.share", "frac", "lower"),
    m("traced.total_s", "s", "lower"),
    m("traced.other_s", "s", "lower"),
    m("traced.overhead_frac", "frac", "lower"),
];

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum BenchError {
    /// A malformed command line.
    Usage(String),
    /// A temporary directory could not be created.
    TempDir {
        /// The directory.
        path: PathBuf,
        /// The I/O error.
        source: std::io::Error,
    },
    /// A trace-cache root is unusable.
    Cache {
        /// The root.
        root: PathBuf,
        /// The cache error.
        source: TraceError,
    },
    /// A sweep refused to start.
    Sweep(SweepError),
    /// The stream codec rejected a snapshot.
    Codec(ZcompError),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::TempDir { path, source } => {
                write!(f, "cannot create temp dir {}: {source}", path.display())
            }
            BenchError::Cache { root, source } => {
                write!(f, "trace cache {} is unusable: {source}", root.display())
            }
            BenchError::Sweep(e) => write!(f, "sweep failed to start: {e}"),
            BenchError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::TempDir { source, .. } => Some(source),
            BenchError::Cache { source, .. } => Some(source),
            BenchError::Sweep(e) => Some(e),
            BenchError::Codec(e) => Some(e),
            BenchError::Usage(_) => None,
        }
    }
}

/// The command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>` (required).
    pub workload: Workload,
    /// `--seed <n>`: the serving workload's seed (default `0x5eed5e12e`).
    pub seed: u64,
    /// `--seconds <s>`: how long the timed runs repeat (at least one).
    pub seconds: f64,
    /// `--trace <0|1>`: the traced run instead of timed runs.
    pub trace: bool,
    /// `--tiny`: seconds-long input sizes, for tests and smoke runs.
    pub tiny: bool,
}

impl Args {
    /// Parses arguments (without argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, BenchError> {
        let usage = |msg: String| BenchError::Usage(msg);
        let mut workload = None;
        let mut out = Args {
            workload: Workload::Fig12Cold,
            seed: zcomp::experiments::serve::ServeParams::default().seed,
            seconds: 22.0,
            trace: false,
            tiny: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| usage(format!("{arg} needs a value")))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(Workload::parse(&name).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        usage(format!(
                            "unknown workload `{name}` (expected one of {})",
                            names.join(", ")
                        ))
                    })?);
                }
                "--seed" => {
                    let text = value()?;
                    out.seed = parse_u64(&text)
                        .ok_or_else(|| usage(format!("--seed needs an integer, got `{text}`")))?;
                }
                "--seconds" => {
                    let text = value()?;
                    out.seconds = text
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| usage(format!("--seconds needs a number, got `{text}`")))?;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(usage(format!("--trace takes 0 or 1, got `{other}`"))),
                    };
                }
                "--tiny" => out.tiny = true,
                other => return Err(usage(format!("unknown argument `{other}`"))),
            }
        }
        out.workload = workload.ok_or_else(|| usage("--workload is required".to_string()))?;
        Ok(out)
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

/// Where records, spans and temporary trace caches go: `out/` next to
/// this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Output checks across a run's set-up passes, timed runs and traced run.
#[derive(Debug, Clone, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn add(&mut self, phase: &str, out: &Output) {
        self.attempted += 1;
        if !out.failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(out.failures.iter().map(|f| format!("{phase}: {f}")));
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// `(metric, samples)` in declaration order.
    pub metrics: Vec<(MetricDef, Vec<f64>)>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs with at least one failed check.
    pub failed: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// The run record (one schema for every workload).
    pub record: Value,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// The traced run's share table.
    pub table: Option<String>,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one workload: set-up, then either the timed rounds (as many as fit
/// in `seconds`) or one untraced round plus the traced run.
///
/// `wall_s` is the sum over a round's calls of each call's fastest time
/// in the run. Interference from other tenants of a shared host only ever
/// adds time, and it comes in bursts, so the fastest of many short calls
/// repeats from run to run where a whole round's median does not.
pub fn run(args: &Args, scratch: &Path) -> Result<Report, BenchError> {
    zcomp_trace::log::set_level(zcomp_trace::log::Level::Off);
    let size = if args.tiny {
        Size::tiny(args.seed)
    } else {
        Size::full(args.seed)
    };
    let scale = size.describe(args.workload);
    let mut bench = bench_for(args.workload, size, scratch);
    let mut checks = Checks::default();

    // Set-up passes are spread evenly over the timed rounds, so that
    // `setup_s` samples the host over the whole run rather than over its
    // first seconds. Timed rounds go on until the next one would likely
    // take the rounds past `seconds`, so they last at most `seconds` or one
    // round, whichever is longer.
    let passes = if args.trace { 1 } else { bench.setup_passes() };
    let mut setup_s = Vec::new();
    let mut round_s = Vec::new();
    let mut fastest: Vec<f64> = Vec::new();
    let last = loop {
        let rounds_total: f64 = round_s.iter().sum();
        if setup_s.len() < passes
            && rounds_total >= setup_s.len() as f64 * args.seconds / passes as f64
        {
            let t = Instant::now();
            let out = bench.setup()?;
            setup_s.push(secs_since(t));
            checks.add("setup", &out);
        }
        let t = Instant::now();
        let (out, call_s) = bench.run()?;
        round_s.push(secs_since(t));
        checks.add("run", &out);
        if fastest.is_empty() {
            fastest = call_s;
        } else {
            for (best, s) in fastest.iter_mut().zip(call_s) {
                *best = best.min(s);
            }
        }
        let next_end = round_s.iter().sum::<f64>() + Summary::of(&round_s).median;
        if args.trace || (setup_s.len() == passes && next_end > args.seconds) {
            break out;
        }
    };

    let mut spans = Vec::new();
    let mut table = None;
    let metrics: Vec<(MetricDef, Vec<f64>)> = if args.trace {
        let tracer = Tracer::new();
        let (mut traced, counters) = bench.traced(&tracer)?;
        if traced.json != last.json {
            traced
                .failures
                .push("did not reproduce the untraced run's result JSON".to_string());
        }
        checks.add("traced", &traced);
        spans = tracer.spans();
        table = Some(Profile::of(&spans, "workload").render(&format!(
            "{} traced profile (untraced round {:.4} s)",
            args.workload.name(),
            round_s[0]
        )));
        layer_metrics(&spans, &counters, round_s[0])
            .into_iter()
            .map(|(def, v)| (def, vec![v]))
            .collect()
    } else {
        vec![
            (END_TO_END[0], vec![fastest.iter().sum()]),
            (END_TO_END[1], setup_s.clone()),
            (END_TO_END[2], vec![host::peak_heap_mib()]),
        ]
    };

    let record = record_json(args, &scale, &metrics, &last, &checks, &setup_s, &round_s);
    Ok(Report {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        record,
        spans,
        table,
    })
}

fn record_json(
    args: &Args,
    scale: &str,
    metrics: &[(MetricDef, Vec<f64>)],
    last: &Output,
    checks: &Checks,
    setup_s: &[f64],
    round_s: &[f64],
) -> Value {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut v = Value::new_object();
    v.push_field("schema", Value::Str("zcomp-perfbench-record/1".into()));
    v.push_field("workload", Value::Str(args.workload.name().into()));
    v.push_field("why", Value::Str(args.workload.why().into()));
    v.push_field("host", host::host_json());
    v.push_field("commit", Value::Str(host::commit(&repo)));
    v.push_field(
        "command",
        Value::Array(std::env::args().map(Value::Str).collect()),
    );
    v.push_field("seed", Value::Int(args.seed as i128));
    v.push_field(
        "seed_note",
        Value::Str(
            "fig12 and fig15 fix their input seeds inside zcomp::experiments; \
             --seed moves only serve_knee"
                .into(),
        ),
    );
    v.push_field("scale", Value::Str(scale.into()));
    v.push_field("trace", Value::Bool(args.trace));
    let mut runs = Value::new_object();
    runs.push_field("setup", Value::Int(setup_s.len() as i128));
    runs.push_field("timed", Value::Int(round_s.len() as i128));
    runs.push_field("traced", Value::Int(i128::from(args.trace)));
    v.push_field("runs", runs);
    let summary = |unit: &str, better: &str, samples: &[f64]| {
        let mut entry = Summary::of(samples).json();
        entry.push_field("unit", Value::Str(unit.into()));
        entry.push_field("better", Value::Str(better.into()));
        entry.push_field(
            "samples",
            Value::Array(samples.iter().copied().map(Value::Float).collect()),
        );
        entry
    };
    let mut ms = Value::new_object();
    for (def, samples) in metrics {
        ms.push_field(def.name, summary(def.unit, def.better, samples));
    }
    v.push_field("metrics", ms);
    // Whole timed rounds, for comparison with `wall_s`.
    v.push_field("round_s", summary("s", "lower", round_s));
    v.push_field("digest", Value::Str(host::digest(last.json.as_bytes())));
    let mut refs = Value::new_object();
    for &(name, value, paper) in &last.refs {
        let mut entry = Value::new_object();
        entry.push_field("value", Value::Float(value));
        entry.push_field("paper", paper.map_or(Value::Null, Value::Float));
        refs.push_field(name, entry);
    }
    v.push_field("reference", refs);
    let mut c = Value::new_object();
    c.push_field("attempted", Value::Int(checks.attempted as i128));
    c.push_field("failed", Value::Int(checks.failed as i128));
    c.push_field(
        "failures",
        Value::Array(checks.failures.iter().cloned().map(Value::Str).collect()),
    );
    v.push_field("checks", c);
    v
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: each metric's median with its unit.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::new_object();
        for (def, samples) in &self.metrics {
            let mut entry = Value::new_object();
            entry.push_field("value", Value::Float(Summary::of(samples).median));
            entry.push_field("unit", Value::Str(def.unit.into()));
            metrics.push_field(def.name, entry);
        }
        let mut v = Value::new_object();
        v.push_field("correct", Value::Bool(self.correct()));
        v.push_field("attempted", Value::Int(i128::from(self.attempted)));
        v.push_field("failed", Value::Int(i128::from(self.failed)));
        v.push_field("metrics", metrics);
        serde_json::to_string(&v).unwrap_or_default()
    }

    /// Writes the record (and a traced run's spans) under `dir`.
    pub fn write_sidecars(&self, dir: &Path, args: &Args) -> std::io::Result<()> {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let records = dir.join("records");
        std::fs::create_dir_all(&records)?;
        let text = serde_json::to_string_pretty(&self.record).unwrap_or_default();
        std::fs::write(records.join(format!("{stem}.json")), text)?;
        if args.trace {
            let spans = dir.join("spans");
            std::fs::create_dir_all(&spans)?;
            let text = serde_json::to_string(&spans::spans_json(&self.spans)).unwrap_or_default();
            std::fs::write(spans.join(format!("{stem}.json")), text)?;
        }
        Ok(())
    }
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
/// Layer times come from the `workload` span's subtree; capture and
/// finish from the `setup` subtree and decode from the `decode` subtree
/// (both only in `fig12_warm`).
pub fn layer_metrics(spans: &[Span], c: &Counters, untraced_round_s: f64) -> Vec<(MetricDef, f64)> {
    const MIB: f64 = (1u64 << 20) as f64;
    let p = Profile::of(spans, "workload");
    let setup = Profile::of(spans, "setup");
    let decode = Profile::of(spans, "decode");
    let s = |ns: u64| ns as f64 / 1e9;
    let rate = |amount: f64, secs: f64| if secs > 0.0 { amount / secs } else { 0.0 };
    let calls = |layer: &str| {
        p.calls
            .iter()
            .filter(|(name, _)| spans::layer_of(name) == Some(layer))
            .map(|(_, c)| c.calls)
            .sum::<u64>() as f64
    };
    let kernels = p.call("kernels.run_relu");
    let kernels_s = s(p.layer_self_ns("kernels"));
    let isa_s = p.call("isa.compress").total_s();
    let limitcc_s = p.call("cachecomp.limitcc").total_s();
    let twotag_s = p.call("cachecomp.twotag").total_s();
    let mut prices = p.call("serve.price").durations_ns;
    prices.extend(p.call("serve.derive_slo").durations_ns);
    let engine_s = p.call("serve.find_knee").total_s();
    let traced_s = s(p.total_ns);

    let values = [
        s(p.layer_self_ns("sweep")),
        p.call("cell").calls as f64,
        p.share("sweep"),
        s(p.layer_self_ns("gen")),
        calls("gen"),
        c.gen_bytes as f64 / MIB,
        p.share("gen"),
        kernels_s,
        kernels.calls as f64,
        quantile(&kernels.durations_ns, 0.5) as f64 / 1e6,
        quantile(&kernels.durations_ns, 0.9) as f64 / 1e6,
        rate(c.onchip_bytes as f64 / 64.0 / 1e6, kernels_s),
        p.share("kernels"),
        setup.call("replay.capture").total_s(),
        setup.call("replay.finish").total_s(),
        p.call("replay.open").total_s(),
        p.call("replay.replay").total_s(),
        decode.call("replay.decode").total_s(),
        c.trace_bytes as f64 / MIB,
        c.disk_bytes as f64 / MIB,
        c.replay_ops as f64 / 1e6,
        rate(c.replay_hits as f64, p.call("replay.open").calls as f64),
        p.share("replay"),
        isa_s,
        rate(c.isa_bytes as f64 / 1e9, isa_s),
        calls("isa"),
        p.share("isa"),
        limitcc_s,
        twotag_s,
        rate(2.0 * c.cachecomp_bytes as f64 / 1e9, limitcc_s + twotag_s),
        p.share("cachecomp"),
        p.call("serve.for_network").total_s()
            + p.call("serve.derive_slo").total_s()
            + p.call("serve.price").total_s(),
        prices.len() as f64,
        quantile(&prices, 0.5) as f64 / 1e6,
        engine_s,
        c.rate_points as f64,
        rate(c.arrivals as f64, engine_s),
        p.share("serve"),
        traced_s,
        s(p.other_ns()),
        rate(traced_s, untraced_round_s) - 1.0,
    ];
    debug_assert_eq!(LAYERS.len(), 7);
    PER_LAYER.into_iter().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(strings(&[
            "--workload",
            "fig15",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Fig15);
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (7, 10.0, true, false));
        let a = Args::parse(strings(&[
            "--workload",
            "serve_knee",
            "--seed",
            "0x5eed_5e12e",
        ]))
        .unwrap();
        assert_eq!(a.seed, 0x5eed_5e12e);
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "fig99"],
            &["--workload", "fig15", "--trace", "2"],
            &["--workload", "fig15", "--seconds"],
            &["--workload", "fig15", "--bogus"],
        ] {
            match Args::parse(strings(bad)) {
                Err(BenchError::Usage(_)) => {}
                other => panic!("{bad:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn layer_metrics_cover_per_layer_in_order() {
        let out = layer_metrics(&[], &Counters::default(), 1.0);
        let names: Vec<_> = out.iter().map(|(d, _)| d.name).collect();
        let declared: Vec<_> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        assert!(out.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn every_layer_has_a_share_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.share");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }
}
