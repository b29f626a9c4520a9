//! §3.3 ablation: ZCOMP logic-pipeline latency (2 vs 3 cycles). The paper
//! reports near-identical performance because operation is
//! throughput-bound.

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = (32 << 20) / args.scale.max(1);
    let result =
        zcomp::experiments::ablations::logic_latency(elements.max(64 * 1024), &[1, 2, 3, 4, 6]);
    print_table(&result.table());
    println!(
        "runtime change from first to last point: {:+.2}% (paper: ~0% for 2 -> 3)",
        result.relative_change() * 100.0
    );
    args.save_json(&result);
}
