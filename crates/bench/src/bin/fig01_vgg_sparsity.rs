//! Regenerates Figure 1: VGG-16 per-layer zero ratio across training
//! epochs and per-layer feature-map vs weight footprints (batch 64).

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let batch = (64 / args.scale).max(1);
    let result = zcomp::experiments::fig01::run(batch, &[1, 10, 30, 60, 90]);
    print_table(&result.table_sparsity());
    print_table(&result.table_footprint());
    args.save_json(&result);
}
