//! Runs an experiment under the tracer and writes the trace artifacts.
//!
//! ```text
//! trace_run <fig12|fullnet> [--scale N] [--out-dir DIR]
//! ```
//!
//! Produces, under `--out-dir` (default `results/`):
//!
//! * `trace_<exp>.json` — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing`;
//! * `counters_<exp>.csv` — counter samples as a CSV time series.
//!
//! The binary self-validates the emitted trace (balanced B/E spans,
//! non-decreasing timestamps, numeric counters) and exits non-zero if
//! the check fails, so CI can run it as a smoke test.

use zcomp::experiments::{fig12, fullnet};
use zcomp_bench::run_serial;
use zcomp_dnn::deepbench::all_configs;
use zcomp_trace::{chrome, csv, log_info, tracer};

struct Args {
    experiment: String,
    scale: usize,
    out_dir: String,
}

const USAGE: &str = "usage: trace_run <fig12|fullnet> [--scale N] [--out-dir DIR]";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg} ({USAGE})");
    std::process::exit(2)
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Args {
    let mut experiment = None;
    let mut scale = 64;
    let mut out_dir = "results".to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--scale needs a value"));
                scale = v.parse().unwrap_or_else(|_| {
                    usage_exit(&format!("--scale needs an integer, got `{v}`"))
                });
                if scale < 1 {
                    usage_exit("--scale must be >= 1");
                }
            }
            "--out-dir" => {
                out_dir = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--out-dir needs a path"));
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                if other != "fig12" && other != "fullnet" {
                    usage_exit(&format!("unknown experiment: {other}"));
                }
                experiment = Some(other.to_string());
            }
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }
    Args {
        experiment: experiment.unwrap_or_else(|| usage_exit("missing experiment")),
        scale,
        out_dir,
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));

    tracer::session_start();
    match args.experiment.as_str() {
        "fig12" => {
            let result =
                run_serial(|opts| fig12::run_sweep(&all_configs(), args.scale, 0.53, opts));
            let s = result.summary();
            log_info!(
                "fig12 traced: {} rows, zcomp speedup {:.2}x",
                result.rows.len(),
                s.zcomp_speedup
            );
        }
        "fullnet" => {
            let result = run_serial(|opts| fullnet::run_sweep(args.scale, opts));
            log_info!("fullnet traced: {} rows", result.rows.len());
        }
        // parse_args validates the experiment name up front.
        other => usage_exit(&format!("unknown experiment: {other}")),
    }
    let events = tracer::session_end();

    let json = chrome::export(&events);
    let counters = csv::counter_csv(&events);

    let check = match chrome::validate(&json) {
        Ok(check) => check,
        Err(e) => {
            eprintln!("trace_run: emitted trace failed validation: {e}");
            std::process::exit(1);
        }
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir);
        std::process::exit(1);
    }
    let trace_path = format!("{}/trace_{}.json", args.out_dir, args.experiment);
    let csv_path = format!("{}/counters_{}.csv", args.out_dir, args.experiment);
    for (path, contents) in [(&trace_path, &json), (&csv_path, &counters)] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    println!(
        "trace_run: {} events ({} spans, {} counters, {} instants) over {} us",
        check.events, check.spans, check.counters, check.instants, check.max_ts_us
    );
    let dropped = tracer::dropped_samples();
    if dropped > 0 {
        println!("trace_run: {dropped} samples dropped at the per-session volume ceiling");
    }
    println!("wrote {trace_path}");
    println!("wrote {csv_path}");
}
