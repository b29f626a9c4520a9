//! Regenerates Figure 15: ZCOMP's compression ratio vs cache compression
//! (LimitCC upper bound and practical TwoTagCC, both FPC-D based) on
//! random feature-map snapshots of the five networks.

use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = (4 << 20) / args.scale.max(1);
    let result = zcomp::experiments::fig15::run(5, elements.max(16 * 1024));
    print_table(&result.table());
    let (z, l, t) = result.geomeans();
    println!("== Figure 15 summary (paper values in parentheses) ==");
    println!("geomean ratios: zcomp {z:.2} (1.8), limitcc {l:.2} (1.54), twotagcc {t:.2} (1.1)");
    args.save_json(&result);
}
