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
//! ```text
//! serve_run [--chaos] [--quick|--scale N] [--threads N]
//!           [--traces DIR [--refresh]] [--json PATH] [--quiet]
//! ```

use std::process::exit;

use zcomp::experiments::serve::{run_sweep, ServeGridSpec};
use zcomp::experiments::serve_chaos::{self, ChaosGridSpec};
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

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
    let (args, [chaos]) = Args::from_env_with(Flags::Cached, ["--chaos"]);
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
