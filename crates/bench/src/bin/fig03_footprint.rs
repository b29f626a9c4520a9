//! Regenerates Figure 3: memory footprint of key data structures for the
//! five DNN benchmarks at the paper's batch sizes.

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let result = zcomp::experiments::fig03::run();
    print_table(&result.table());
    args.save_json(&result);
}
