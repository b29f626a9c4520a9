//! Runs the Fig. 12 or full-network sweep against a cache root.
//!
//! The root (`--traces DIR`) holds each sweep's completion journal. Every
//! cell the journal already records — same cell, same machine config,
//! same executable — is restored without executing; the rest execute and
//! are journalled. A rerun over a warm root therefore executes nothing
//! and writes a byte-identical `--json` report, and a killed run simply
//! continues where it stopped. `--refresh` ignores the journal and
//! recomputes every cell.
//!
//! Cells run under the supervised runtime: cells that keep panicking (or
//! exceed `--deadline-ms`) are quarantined, reported, and reflected in
//! the exit code (3 = completed with quarantined cells).
//!
//! With `--fabric-dir` the sweep joins the crash-safe multi-process lease
//! fabric: cells are claimed via lease files, heartbeated, reclaimed from
//! dead workers, and committed through fenced per-worker journals, so any
//! number of `capture_run` processes (or `--workers N` spawned siblings)
//! cooperate on one sweep and the merged report stays byte-identical to a
//! single-worker run. Without `--resume` the fabric directory is cleared
//! first. A drained worker (SIGINT/SIGTERM) exits with code 4 and can be
//! resumed by pointing any worker at the same fabric directory.
//!
//! ```text
//! capture_run <fig12|fullnet> [--scale N] [--traces DIR] [--threads N]
//!             [--refresh] [--resume] [--json PATH] [--attempts N]
//!             [--deadline-ms MS] [--fabric-dir DIR] [--worker-id ID]
//!             [--lease-ttl-ms MS] [--workers N] [--quiet]
//! ```

use std::time::Instant;

use zcomp::experiments::{fig12, fullnet};
use zcomp_bench::{
    print_machine, reap_fabric_workers, report_supervision, save_json, spawn_fabric_workers,
    sweep_error_exit, SweepArgs,
};
use zcomp_dnn::deepbench::all_configs;

fn main() {
    let args = SweepArgs::from_env();
    print_machine();
    let opts = args.sweep_opts();
    println!(
        "running {} (scale {}, {} threads) against {}{}{}",
        args.experiment,
        args.scale,
        opts.threads,
        args.traces,
        if args.refresh { " [refresh]" } else { "" },
        if args.run.resume { " [resume]" } else { "" }
    );
    let siblings = spawn_fabric_workers(&args.run);
    let t0 = Instant::now();
    let (cells, supervision) = match args.experiment.as_str() {
        "fig12" => {
            let out = match fig12::run_sweep(&all_configs(), args.scale, 0.53, &opts) {
                Ok(out) => out,
                Err(e) => {
                    reap_fabric_workers(siblings);
                    sweep_error_exit(&e);
                }
            };
            let s = out.result.summary();
            println!(
                "fig12: zcomp core cut {:.1}%, dram cut {:.1}%, speedup {:.2}x",
                s.zcomp_core_reduction * 100.0,
                s.zcomp_dram_reduction * 100.0,
                s.zcomp_speedup
            );
            // The JSON carries the scientific result only, so a resumed
            // run's file is byte-identical to an uninterrupted one.
            if let Some(path) = &args.json {
                save_json(path, &out.result);
            }
            (
                out.result.rows.len() * fig12::SCHEMES.len(),
                out.supervision,
            )
        }
        _ => {
            let out = match fullnet::run_sweep(args.scale, &opts) {
                Ok(out) => out,
                Err(e) => {
                    reap_fabric_workers(siblings);
                    sweep_error_exit(&e);
                }
            };
            let s = out.result.summary();
            println!(
                "fullnet: zcomp traffic cut {:.1}%/{:.1}% (train/infer), speedup {:.2}x/{:.2}x",
                s.zcomp_train_traffic * 100.0,
                s.zcomp_infer_traffic * 100.0,
                s.zcomp_train_speedup,
                s.zcomp_infer_speedup
            );
            if let Some(path) = &args.json {
                save_json(path, &out.result);
            }
            (
                out.result.rows.iter().map(|row| row.cells.len()).sum(),
                out.supervision,
            )
        }
    };
    reap_fabric_workers(siblings);
    println!("ran {cells} cells in {:.2}s", t0.elapsed().as_secs_f64());
    let code = report_supervision(&supervision);
    if code != 0 {
        std::process::exit(code);
    }
}
