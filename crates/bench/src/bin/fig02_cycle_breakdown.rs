//! Regenerates Figure 2: CPU cycle breakdown (compute / memory / sync)
//! for the five DNN training benchmarks on the Table-1 machine.

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let result = zcomp::experiments::fig02::run(args.scale);
    print_table(&result.table());
    args.save_json(&result);
}
