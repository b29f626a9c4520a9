//! Validation ablation: the bulk roofline core model vs the cycle-stepped
//! interval model on the same ReLU instruction streams, across sizes and
//! schemes. Two independent timing models agreeing on the ordering (and
//! roughly on magnitude) is the Sniper-style sanity check for the
//! simulator substrate.

use zcomp::report::Table;
use zcomp_bench::{print_machine, print_table, Args, Flags};
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu, ReluOpts, ReluScheme};
use zcomp_kernels::relu_interval::run_relu_interval;
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let mut table = Table::new(
        "Ablation: roofline vs interval core model (cycles)",
        &["elements", "scheme", "roofline", "interval", "ratio"],
    );
    for shift in [16usize, 18, 20, 22] {
        let elements = ((1usize << shift) / args.scale.max(1)).max(16 * 1024);
        let nnz = nnz_synthetic(elements, 0.53, 6.0, 77);
        for scheme in [
            ReluScheme::Avx512Vec,
            ReluScheme::Avx512Comp,
            ReluScheme::Zcomp,
        ] {
            let cfg = SimConfig::table1();
            let uop_table = UopTable::skylake_x();
            let opts = ReluOpts::default();
            let mut machine = Machine::new(cfg.clone(), uop_table);
            let roofline = run_relu(&mut machine, scheme, &nnz, &opts).total_cycles();
            let interval = run_relu_interval(&cfg, uop_table, scheme, &nnz, &opts).wall_cycles;
            table.row([
                elements.to_string(),
                scheme.to_string(),
                format!("{roofline:.0}"),
                format!("{interval:.0}"),
                format!("{:.2}", interval / roofline),
            ]);
        }
    }
    print_table(&table);
}
