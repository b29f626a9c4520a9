//! §4.3 ablation: serialized (Fig. 7(a)) vs partitioned (Fig. 7(b))
//! parallelization, and sub-block loop unrolling.

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = (16 << 20) / args.scale.max(1);
    let result =
        zcomp::experiments::ablations::parallelization(elements.max(64 * 1024), &[1, 2, 4, 8]);
    print_table(&result.table());
    println!(
        "partitioned speedup over serialized: {:.2}x",
        result.partitioned_speedup()
    );
    args.save_json(&result);
}
