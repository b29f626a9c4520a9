//! §4.1 ablation: interleaved vs separate headers across input sparsity,
//! including the 3.125% metadata break-even point.

use zcomp::experiments::ablations::{self, HeaderModeResult};
use zcomp_bench::{print_machine, print_table, Args, Flags};

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    let elements = (4 << 20) / args.scale.max(1);
    let result = ablations::header_mode(
        elements.max(64 * 1024),
        &[0.0, 0.02, 0.03125, 0.05, 0.10, 0.25, 0.53, 0.80],
    );
    print_table(&result.table());
    println!(
        "metadata break-even compressibility (fp32/512-bit): {:.4} (paper: 3.125%)",
        HeaderModeResult::breakeven()
    );
    args.save_json(&result);
}
