//! Property-based tests of the cache-compression baselines against the
//! ZCOMP stream format.

use proptest::prelude::*;
use zcomp_cachecomp::line::{lines_of, LINE_BYTES};
use zcomp_cachecomp::{bdi_line_bytes, bdi_ratio, fpcd_line_bytes, limitcc_ratio, twotag_ratio};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::compress_f32;

fn activation_buffer() -> impl Strategy<Value = Vec<f32>> {
    let lane = prop_oneof![
        3 => Just(0.0f32),
        2 => 0.001f32..10.0,
        1 => 10.0f32..1e6,
    ];
    // Any length: a tail shorter than a line is zero-padded, and the last
    // TwoTagCC window may hold fewer than 16 lines.
    proptest::collection::vec(lane, 0..2048)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compressed_line_sizes_are_bounded(data in activation_buffer()) {
        for line in lines_of(&data) {
            let fpcd = fpcd_line_bytes(&line);
            let bdi = bdi_line_bytes(&line);
            prop_assert!((8..=LINE_BYTES).contains(&fpcd), "fpcd {fpcd}");
            prop_assert!((3..=LINE_BYTES).contains(&bdi), "bdi {bdi}");
        }
    }

    #[test]
    fn limitcc_bounds_twotag(data in activation_buffer()) {
        // Byte-granularity packing can never do worse than pair packing
        // of the same per-line sizes.
        prop_assert!(limitcc_ratio(&data) + 1e-9 >= twotag_ratio(&data));
    }

    #[test]
    fn twotag_is_between_1_and_2(data in activation_buffer()) {
        let r = twotag_ratio(&data);
        prop_assert!((1.0 - 1e-9..=2.0 + 1e-9).contains(&r), "ratio {r}");
    }

    #[test]
    fn ratios_are_at_least_harmless(data in activation_buffer()) {
        // Cache compression falls back to raw storage, so no ratio drops
        // below 1 (unlike a dense interleaved ZCOMP stream, which pays
        // its headers).
        prop_assert!(limitcc_ratio(&data) >= 1.0 - 1e-9);
        prop_assert!(bdi_ratio(&data) >= 1.0 - 1e-9);
    }

    #[test]
    fn zcomp_beats_twotag_on_sparse_buffers(seed in 0u64..1000) {
        // Fig. 15's ordering, at the paper's average sparsity.
        let data = zcomp_dnn::sparsity::generate_activations(32 * 1024, 0.53, 6.0, seed);
        let zcomp = compress_f32(&data, CompareCond::Eqz)
            .expect("whole vectors")
            .compression_ratio();
        let twotag = twotag_ratio(&data);
        prop_assert!(zcomp > twotag, "zcomp {zcomp} vs twotag {twotag}");
    }
}
