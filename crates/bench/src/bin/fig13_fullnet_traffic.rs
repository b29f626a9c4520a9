//! Regenerates Figure 13: full-network data-traffic reduction for
//! training (batch 64; ResNet 128) and inference (batch 4). Cells run
//! under the supervised runtime; a sick cell is quarantined (exit 3)
//! instead of taking the figure down. The flags are
//! `fig12_relu_deepbench`'s: `--traces DIR` journals and restores cells,
//! `--refresh` recomputes them.

use zcomp::report::pct;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Cached);
    print_machine();
    let out = args.run(|opts| zcomp::experiments::fullnet::run_sweep(args.scale, opts));
    let result = out.result;
    print_table(&result.table_traffic());
    let s = result.summary();
    println!("== Figure 13 summary (paper values in parentheses) ==");
    println!(
        "training:  zcomp {} (31%)   avx512-comp {} (26%)",
        pct(s.zcomp_train_traffic),
        pct(s.avx_train_traffic)
    );
    println!(
        "inference: zcomp {} (23%)   avx512-comp {} (19%)",
        pct(s.zcomp_infer_traffic),
        pct(s.avx_infer_traffic)
    );
    args.save_json(&result);
    std::process::exit(report_supervision(&out.supervision));
}
