//! Regenerates Figures 2, 13 and 14 from one full-network sweep: the
//! baseline training cycle breakdown, the data-traffic reduction and the
//! speedup over the uncompressed baseline, for training (batch 64;
//! ResNet 128) and inference (batch 4). Cells run under the supervised
//! runtime; a sick cell is quarantined (exit 3) instead of taking the
//! figures down. The flags are `fig12_relu_deepbench`'s: `--traces DIR`
//! journals and restores cells, `--refresh` recomputes them.

use zcomp::report::pct;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Cached);
    print_machine();
    let out = args.run(|opts| zcomp::experiments::fullnet::run_sweep(args.scale, opts));
    let result = out.result;
    let s = result.summary();
    print_table(&result.table_breakdown());
    print_table(&result.table_traffic());
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
    println!();
    print_table(&result.table_speedup());
    println!("== Figure 14 summary (paper values in parentheses) ==");
    println!(
        "training:  zcomp {:.3}x (1.11x)   avx512-comp {:.3}x (1.04x)",
        s.zcomp_train_speedup, s.avx_train_speedup
    );
    println!(
        "inference: zcomp {:.3}x (1.03x)   avx512-comp {:.3}x (0.98x)",
        s.zcomp_infer_speedup, s.avx_infer_speedup
    );
    println!(
        "avx512-comp slowdowns: {}/10 benchmarks (paper: 5/10)",
        s.avx_slowdowns
    );
    args.save_json(&result);
    std::process::exit(report_supervision(&out.supervision));
}
