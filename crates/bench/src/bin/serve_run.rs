//! Open-loop serving sweep: sustainable QPS at fixed p99, compressed vs
//! uncompressed — plus the chaos grid behind `--chaos`.
//!
//! Default mode runs the `zcomp::serve` knee search over the serving grid
//! (GoogLeNet and VGG-16 by default): per network, two
//! identically-configured serving nodes — same tenants, same seeded
//! arrival traces, same p99 SLO derived from the uncompressed solo batch
//! latency — differing only in the feature-map scheme. The headline table
//! reports the knee (highest sustainable offered QPS) per scheme and the
//! compressed/uncompressed ratio.
//!
//! `--chaos` runs the resilience grid instead: per codec fault rate,
//! three identically-loaded nodes under the same seeded instance-crash
//! schedule — uncompressed, compressed-hard-fail, and
//! compressed-degraded (the retry-then-uncompressed brownout) —
//! reporting goodput and per-class p99, plus one knee search under
//! chaos.
//!
//! Cells run once each under the supervised sweep runtime (`run_cells`):
//! a panicking cell is quarantined, as in the other sweep binaries. With
//! `--traces DIR` each finished cell is journalled under `DIR`, and a
//! rerun over the same root restores them instead of executing (a killed
//! run resumes where it stopped); `--refresh` recomputes every cell.
//! Exit codes: 0 clean, 1 I/O error, 2 usage, 3 quarantined cells.
//!
//! `--smoke` runs the CI gate instead: the short smoke grid twice,
//! asserting the two runs serialize byte-identically and that the
//! compressed knee is at least the uncompressed one; then the chaos smoke
//! grid twice, asserting byte-identical replay under crashes + codec
//! faults, zero request-level hard failures in degraded mode, and
//! degraded goodput at least hard-fail goodput at every fault rate.
//!
//! ```text
//! serve_run [--smoke] [--chaos] [--quick|--scale N] [--threads N]
//!           [--traces DIR [--refresh]] [--json PATH] [--quiet]
//! ```

use std::process::exit;

use zcomp::experiments::serve::{run_sweep, ServeGridSpec};
use zcomp::experiments::serve_chaos::{self, ChaosGridSpec};
use zcomp::serve::determinism::require_byte_identical;
use zcomp_bench::{print_machine, print_table, report_supervision, run_serial, Args, Flags};

/// One OK/FAIL line; returns 1 on failure so callers can sum.
fn check(ok: bool, ok_msg: &str, fail_msg: &str) -> u32 {
    if ok {
        println!("OK   {ok_msg}");
        0
    } else {
        println!("FAIL {fail_msg}");
        1
    }
}

/// CI smoke gate: the knee smoke grid twice (byte-identical, compressed
/// knee >= uncompressed), then the chaos smoke grid twice (byte-identical
/// under crashes + codec faults, degraded mode never hard-fails, degraded
/// goodput >= hard-fail goodput).
fn smoke() -> ! {
    let mut failures = 0;

    let grid = ServeGridSpec::smoke_grid();
    let first = run_serial(|opts| run_sweep(&grid, opts));
    let second = run_serial(|opts| run_sweep(&grid, opts));
    print_table(&first.table());
    match require_byte_identical(&first.rows, &second.rows) {
        Ok(()) => println!("OK   serve re-execution is byte-identical"),
        Err(e) => {
            println!("FAIL serve re-execution differs: {e}");
            failures += 1;
        }
    }
    for row in &first.rows {
        let (un, co) = (row.uncompressed.knee_qps, row.compressed.knee_qps);
        failures += check(
            un > 0.0 && co >= un,
            &format!(
                "{}: compressed knee {:.1} qps >= uncompressed {:.1} qps",
                row.model, co, un
            ),
            &format!(
                "{}: compressed knee {:.1} qps vs uncompressed {:.1} qps",
                row.model, co, un
            ),
        );
    }

    let chaos_grid = ChaosGridSpec::smoke_grid();
    let chaos_first = run_serial(|opts| serve_chaos::run_sweep(&chaos_grid, opts));
    let chaos_second = run_serial(|opts| serve_chaos::run_sweep(&chaos_grid, opts));
    print_table(&chaos_first.table());
    match require_byte_identical(&chaos_first, &chaos_second) {
        Ok(()) => println!("OK   chaos re-execution is byte-identical (crashes + codec faults)"),
        Err(e) => {
            println!("FAIL chaos re-execution differs: {e}");
            failures += 1;
        }
    }
    let crashes: u64 = chaos_first
        .cells
        .iter()
        .filter_map(|c| c.point.as_ref())
        .map(|p| p.crashes)
        .sum();
    failures += check(
        crashes > 0,
        &format!("chaos crash process ran ({crashes} crashes across the grid)"),
        "chaos grid saw no crashes — the chaos process did not run",
    );
    failures += check(
        chaos_first.degraded_never_hard_fails(),
        "degraded mode hard-failed zero requests",
        "degraded mode hard-failed requests — the brownout path leaked failures",
    );
    failures += check(
        chaos_first.degraded_goodput_dominates(),
        "degraded goodput >= hard-fail goodput at every fault rate",
        "hard-fail goodput beat degraded goodput at some fault rate",
    );

    if failures > 0 {
        println!("serve smoke: {failures} check(s) FAILED");
        exit(1);
    }
    println!("serve smoke: all checks passed");
    exit(0);
}

fn chaos_main(args: &Args, threads: usize) -> ! {
    let grid = ChaosGridSpec::default_grid().scaled(args.scale);
    println!(
        "chaos sweep: {} fault rates x {} modes + 1 knee cell, {} tenants, {} arrivals/tenant, {} threads",
        grid.fault_rates.len(),
        serve_chaos::MODES.len(),
        grid.params.tenants,
        grid.params.arrivals_per_tenant,
        threads
    );
    let out = args.run(|opts| serve_chaos::run_sweep(&grid, opts));

    print_table(&out.result.table());
    print_table(&out.result.knee_table());
    if out.result.degraded_never_hard_fails() && out.result.degraded_goodput_dominates() {
        println!(
            "degrade policy held: zero hard failures, goodput >= hard-fail at every fault rate"
        );
    } else {
        println!("warning: degrade policy did not dominate hard-fail on this grid");
    }
    args.save_json(&out.result);
    exit(report_supervision(&out.supervision));
}

fn main() {
    // This binary's own flags, parsed around the shared command line.
    let (args, [gate, chaos]) = Args::from_env_with(Flags::Cached, ["--smoke", "--chaos"]);
    if gate {
        smoke();
    }
    print_machine();
    let threads = args.sweep_opts().threads;
    if chaos {
        chaos_main(&args, threads);
    }
    let grid = ServeGridSpec::default_grid().scaled(args.scale);
    println!(
        "serving sweep: {} networks x 2 schemes, {} tenants, {} arrivals/tenant, {} threads",
        grid.networks.len(),
        grid.params.tenants,
        grid.params.arrivals_per_tenant,
        threads
    );
    let out = args.run(|opts| run_sweep(&grid, opts));

    print_table(&out.result.table());
    for row in &out.result.rows {
        println!(
            "{}: {} rate points probed per scheme, p99 bound {:.2} ms, knee ratio {:.3}x",
            row.model,
            row.uncompressed.points.len(),
            row.uncompressed.slo_p99_us / 1_000.0,
            row.knee_ratio()
        );
    }
    if out.result.all_compressed_higher() {
        println!("compression sustains strictly higher QPS at the same p99 on every network");
    } else {
        println!("warning: compressed knee did not beat uncompressed on every network");
    }
    args.save_json(&out.result);
    exit(report_supervision(&out.supervision));
}
