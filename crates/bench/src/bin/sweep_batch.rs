//! Extension sweep: batch-size effect on the feature-map vs weight
//! footprint balance (§2.3's motivation for larger batches stressing the
//! memory system). Each model sweeps as a supervised cell, so one sick
//! model is quarantined (exit 3) instead of losing the other tables; the
//! supervision flags (`--attempts`, `--deadline-ms`) apply.

use zcomp::experiments::sweeps::batch_sweep;
use zcomp::sweep::run_cells;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};
use zcomp_dnn::models::ModelId;

const BATCHES: [usize; 6] = [1, 4, 16, 64, 128, 256];

fn main() {
    let args = Args::from_env(Flags::Supervised);
    print_machine();
    let run = args.run(|opts| {
        run_cells(
            "sweep_batch",
            ModelId::ALL.len(),
            opts.fingerprint(0),
            opts,
            |i| format!("model={}", ModelId::ALL[i]),
            |i| {
                let model = ModelId::ALL[i];
                Box::new(move || batch_sweep(model, &BATCHES))
            },
        )
    });
    for result in run.outcomes.iter().filter_map(|o| o.value()) {
        print_table(&result.table());
    }
    std::process::exit(report_supervision(&run.report));
}
