//! Regenerates Figure 12: ReLU activation layers over the 44 DeepBench
//! shapes — core↔cache traffic (a), DRAM traffic (b) and runtime (c) for
//! avx512-vec, avx512-comp and zcomp. Also prints the §3.3 L2-prefetcher
//! effectiveness observed during the zcomp runs.
//!
//! Cells run under the supervised runtime: a cell that keeps panicking
//! (or exceeds `--deadline-ms`) is quarantined and reported, and the exit
//! code is 3. With `--traces DIR` the sweep journals every completed
//! cell under `DIR` and restores the cells the journal already holds —
//! same cell, same machine config, same executable — so a rerun executes
//! nothing and writes byte-identical `--json`, and a killed run continues
//! where it stopped; `--refresh` recomputes every cell.
//!
//! ```text
//! fig12_relu_deepbench [--quick|--scale N] [--json PATH] [--quiet]
//!     [--threads N] [--traces DIR] [--refresh] [--attempts N]
//!     [--deadline-ms MS]
//! ```

use zcomp::experiments::fig12::{self, Panel};
use zcomp::report::pct;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};
use zcomp_dnn::deepbench::{all_configs, Suite};

fn main() {
    let args = Args::from_env(Flags::Cached);
    print_machine();
    let out = args.run(|opts| fig12::run_sweep(&all_configs(), args.scale, 0.53, opts));
    let result = out.result;
    for panel in [Panel::CoreTraffic, Panel::DramTraffic, Panel::Runtime] {
        print_table(&result.table(panel));
    }
    println!("== per-suite averages ==");
    for suite in Suite::ALL {
        let s = result.suite_summary(suite);
        println!(
            "{suite:<11} traffic cut (avx/zcomp): {} / {}   dram cut: {} / {}   zcomp speedup {:.2}x",
            pct(s.avx_core_reduction),
            pct(s.zcomp_core_reduction),
            pct(s.avx_dram_reduction),
            pct(s.zcomp_dram_reduction),
            s.zcomp_speedup
        );
    }
    println!();
    let s = result.summary();
    println!("== Figure 12 summary (paper values in parentheses) ==");
    println!(
        "core traffic reduction:  avx512-comp {} (42%)   zcomp {} (46%)",
        pct(s.avx_core_reduction),
        pct(s.zcomp_core_reduction)
    );
    println!(
        "DRAM traffic reduction:  avx512-comp {} (48%)   zcomp {} (54%)",
        pct(s.avx_dram_reduction),
        pct(s.zcomp_dram_reduction)
    );
    println!(
        "zcomp speedup vs avx512-vec:  {:.2}x (1.77x);  vs avx512-comp: {:.2}x (1.56x)",
        s.zcomp_speedup, s.zcomp_vs_avx_speedup
    );
    println!(
        "zcomp outliers slower than baseline: {} (paper: 2); max speedup {:.1}x (paper: up to 12x)",
        s.zcomp_outliers, s.max_zcomp_speedup
    );
    println!(
        "L2 prefetcher on zcomp runs: accuracy {} (98-99%), coverage {} (94-97%)",
        pct(result.zcomp_prefetch.accuracy()),
        pct(result.zcomp_prefetch.coverage())
    );
    args.save_json(&result);
    std::process::exit(report_supervision(&out.supervision));
}
