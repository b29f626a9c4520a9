//! Extension sweep: scheme sensitivity to feature-map sparsity on a
//! DeepBench-scale ReLU layer (complements §4.1's break-even analysis).
//! Each sparsity point simulates once as a supervised cell; a point that
//! panics is quarantined, omitted from the table and reported on stderr
//! (exit 3).

use zcomp::experiments::sweeps::{sparsity_sweep, SparsitySweepResult};
use zcomp::sweep::run_cells;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

const SPARSITIES: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.53, 0.6, 0.7, 0.8, 0.9];

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = ((16 << 20) / args.scale.max(1)).max(64 * 1024);
    let run = args.run(|opts| {
        run_cells(
            "sweep_sparsity",
            SPARSITIES.len(),
            opts.fingerprint(0),
            opts,
            |i| format!("elements={elements};sparsity={}", SPARSITIES[i]),
            |i| move || sparsity_sweep(elements, &[SPARSITIES[i]]).points[0],
        )
    });
    let result = SparsitySweepResult {
        points: run
            .outcomes
            .iter()
            .filter_map(|o| o.value().copied())
            .collect(),
    };
    print_table(&result.table());
    args.save_json(&result);
    std::process::exit(report_supervision(&run.report));
}
