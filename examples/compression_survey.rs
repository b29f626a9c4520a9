//! Surveys compression ratios across sparsity levels: ZCOMP's
//! header-per-vector format against the FPC-D-based cache-compression
//! architectures of Fig. 15 (LimitCC upper bound, practical TwoTagCC).
//!
//! Run with: `cargo run --release --example compression_survey`

use zcomp_cachecomp::cache_ratios;
use zcomp_dnn::sparsity::generate_activations;
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::compress_f32;

fn main() {
    println!(
        "{:>9} {:>8} {:>9} {:>10}",
        "sparsity", "zcomp", "limitcc", "twotagcc"
    );
    for pct in [10, 25, 40, 53, 62, 75, 90] {
        let sparsity = pct as f64 / 100.0;
        let data = generate_activations(1 << 20, sparsity, 6.0, 7 * pct as u64);
        let zcomp = compress_f32(&data, CompareCond::Eqz)
            .expect("whole vectors")
            .compression_ratio();
        let (limitcc, twotag) = cache_ratios(&data);
        println!("{pct:>8}% {zcomp:>7.2}x {limitcc:>8.2}x {twotag:>9.2}x");
    }
    println!(
        "\nThe paper's snapshots average 53% sparsity, where ZCOMP reaches\n\
         ~1.8x while the two-tag cache architecture is stuck near 1.1x\n\
         (its pairs need complementary compressed sizes, and FPC-D pays an\n\
         8-byte per-line prefix against ZCOMP's 2-byte headers)."
    );
}
