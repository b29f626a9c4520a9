//! §3.3 alignment analysis: how often compressed vectors straddle
//! cache-line boundaries, and the partial-line transfer overhead, across
//! sparsity levels and element types.

use zcomp::report::{pct, Table};
use zcomp_bench::{print_machine, print_table, Args, Flags};
use zcomp_isa::alignment::analyze_interleaved;
use zcomp_isa::dtype::ElemType;
use zcomp_kernels::nnz::nnz_synthetic;

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = (4 << 20) / args.scale.max(1);
    let mut table = Table::new(
        "Ablation (3.3): compressed-stream alignment",
        &[
            "elem_type",
            "sparsity",
            "line_crossers",
            "transfer_overhead",
        ],
    );
    for ty in [ElemType::F32, ElemType::F16, ElemType::I8] {
        for sparsity in [0.25, 0.53, 0.80] {
            let nnz8 = nnz_synthetic(elements.max(64 * 1024), sparsity, 6.0, 0xA11);
            // Rescale the fp32 16-lane counts to this type's lane count.
            let lanes = ty.lanes() as u32;
            let nnz: Vec<u16> = nnz8
                .iter()
                .map(|&n| ((u32::from(n) * lanes) / 16) as u16)
                .collect();
            let stats = analyze_interleaved(&nnz, ty);
            table.row([
                ty.to_string(),
                format!("{:.0}%", sparsity * 100.0),
                pct(stats.crossing_fraction()),
                format!("{:.3}x", stats.line_transfer_overhead()),
            ]);
        }
    }
    print_table(&table);
}
