//! Extension sweep: batch-size effect on the feature-map vs weight
//! footprint balance (§2.3's motivation for larger batches stressing the
//! memory system). Each model sweeps once as a supervised cell, so a
//! model that panics is quarantined (exit 3) instead of losing the other
//! tables.

use zcomp::experiments::sweeps::batch_sweep;
use zcomp::sweep::run_cells;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};
use zcomp_dnn::models::ModelId;

const BATCHES: [usize; 6] = [1, 4, 16, 64, 128, 256];

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let run = args.run(|opts| {
        run_cells(
            "sweep_batch",
            ModelId::ALL.len(),
            opts.fingerprint(0),
            opts,
            |i| format!("model={}", ModelId::ALL[i]),
            |i| move || batch_sweep(ModelId::ALL[i], &BATCHES),
        )
    });
    for result in run.outcomes.iter().filter_map(|o| o.value()) {
        print_table(&result.table());
    }
    std::process::exit(report_supervision(&run.report));
}
