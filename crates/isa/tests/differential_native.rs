//! Differential tests: native SIMD backend vs the scalar oracle.
//!
//! The scalar `CompressedWriter`/`CompressedReader` pair is the codec's
//! specification; every rung of the native fp32 dispatch ladder
//! (`avx512`, `avx2` — whatever the host supports) must produce
//! byte-identical streams and bit-identical expansions under both
//! compare conditions and both header placements. Properties sweep
//! arbitrary sparsity patterns; directed tests pin the classic traps
//! (empty streams, all-compressed vectors, full masks, runs across the
//! 8-lane seam the AVX2 path splits on, a payload ending within a
//! register of the data region's end, NaN/-0.0, malformed streams).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::{compress_f32_with_backend, expand_f32_into_with_backend};
use zcomp_isa::native::{available_levels, compress_at_level, expand_at_level, CodecBackend};
use zcomp_isa::stream::HeaderMode;

const LANES: usize = 16;
const MODES: [HeaderMode; 2] = [HeaderMode::Interleaved, HeaderMode::Separate];
const CONDS: [CompareCond; 2] = [CompareCond::Eqz, CompareCond::Ltez];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every native rung agrees with the scalar oracle on `data`:
/// identical `CompressedStream` (data bytes, header bytes, vector and
/// nnz counts via `PartialEq`) and bit-identical expansion (NaN lanes
/// survive compression, so values compare by bit pattern).
fn assert_all_levels_match(data: &[f32], cond: CompareCond, mode: HeaderMode) {
    let oracle = compress_f32_with_backend(data, cond, mode, CodecBackend::Scalar).expect("scalar");
    let mut oracle_out = vec![0.0f32; oracle.elements()];
    expand_f32_into_with_backend(&oracle, &mut oracle_out, CodecBackend::Scalar)
        .expect("scalar expand");
    for &level in available_levels() {
        let native = compress_at_level(level, data, cond, mode);
        assert_eq!(
            native, oracle,
            "compress mismatch at {level} for {cond:?}/{mode}"
        );
        let mut native_out = vec![f32::from_bits(0xA5A5_A5A5); oracle.elements()];
        expand_at_level(level, &oracle, &mut native_out).expect("native expand");
        assert_eq!(
            bits(&native_out),
            bits(&oracle_out),
            "expand mismatch at {level} for {cond:?}/{mode}"
        );
    }
}

/// Every (cond, mode) pair of [`assert_all_levels_match`].
fn assert_all_levels_match_everywhere(data: &[f32]) {
    for cond in CONDS {
        for mode in MODES {
            assert_all_levels_match(data, cond, mode);
        }
    }
}

/// Builds `f32` lanes from raw bit patterns.
fn from_bits(patterns: impl IntoIterator<Item = u32>) -> Vec<f32> {
    patterns.into_iter().map(f32::from_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns with arbitrary zeroed-lane masks: every
    /// native rung reproduces the scalar stream and expansion
    /// bit-for-bit, under every (cond, mode) combination.
    #[test]
    fn native_matches_scalar_oracle(
        raw in proptest::collection::vec(0u32..=u32::MAX, 0..16 * LANES),
        zero_masks in proptest::collection::vec(0u16..=u16::MAX, 1..16),
        cond_idx in 0usize..2,
        mode_idx in 0usize..2,
    ) {
        let mut data = from_bits(raw);
        data.truncate(data.len() / LANES * LANES);
        for (vector, &zm) in data.chunks_mut(LANES).zip(zero_masks.iter().cycle()) {
            for (lane, x) in vector.iter_mut().enumerate() {
                if zm >> lane & 1 != 0 {
                    *x = 0.0;
                }
            }
        }
        assert_all_levels_match(&data, CONDS[cond_idx], MODES[mode_idx]);
    }

    /// The public f32 entry points agree across backends, including the
    /// `_into` expansion variant.
    #[test]
    fn f32_entry_points_agree(
        values in proptest::collection::vec(
            prop_oneof![Just(0.0f32), Just(-0.0f32), Just(f32::NAN), -100.0f32..100.0],
            0..16,
        ),
        vectors in 0usize..12,
        cond_idx in 0usize..2,
        mode_idx in 0usize..2,
    ) {
        let data: Vec<f32> = (0..vectors * LANES)
            .map(|i| values.get(i % values.len().max(1)).copied().unwrap_or(0.0))
            .collect();
        let cond = CONDS[cond_idx];
        let mode = MODES[mode_idx];
        let scalar = compress_f32_with_backend(&data, cond, mode, CodecBackend::Scalar)
            .expect("scalar");
        let native = compress_f32_with_backend(&data, cond, mode, CodecBackend::Native)
            .expect("native");
        prop_assert_eq!(&native, &scalar);
        let mut scalar_out = vec![0.0f32; scalar.elements()];
        let mut native_out = vec![-1.0f32; scalar.elements()];
        expand_f32_into_with_backend(&scalar, &mut scalar_out, CodecBackend::Scalar)
            .expect("scalar expand");
        expand_f32_into_with_backend(&scalar, &mut native_out, CodecBackend::Native)
            .expect("native expand");
        prop_assert_eq!(bits(&native_out), bits(&scalar_out));
    }
}

#[test]
fn empty_stream() {
    assert_all_levels_match_everywhere(&[]);
}

#[test]
fn all_compressed_vectors() {
    // Every lane compresses away: the stream is pure headers.
    assert_all_levels_match_everywhere(&[0.0; 8 * LANES]);
}

#[test]
fn full_mask_vectors() {
    // No lane compresses under either condition: every header is 0xFFFF.
    let data: Vec<f32> = (0..8 * LANES).map(|i| 1.0 + i as f32).collect();
    assert_all_levels_match_everywhere(&data);
}

/// A deterministic buffer of `vectors` vectors with roughly `sparsity`
/// of its lanes zero, zeroed lane-at-a-time so runs of every length and
/// alignment appear. The other lanes take either sign.
fn synthetic_buffer(vectors: usize, sparsity: f64, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..vectors * LANES)
        .map(|_| {
            if rng.gen_bool(sparsity) {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect()
}

#[test]
fn seeded_sparse_and_ragged_tail_buffers() {
    // Final vector keeps 15 of 16 lanes, so its 60-byte payload starts
    // less than a register's width before the data region's end: the
    // tail-slack path of the native expand.
    let mut ragged_tail = synthetic_buffer(5, 0.9, 0xC0DEC + 2);
    let last = ragged_tail.len() - LANES;
    for (i, x) in ragged_tail[last..].iter_mut().enumerate() {
        *x = if i == 6 { 0.0 } else { 1.0 + i as f32 };
    }
    for data in [
        synthetic_buffer(16, 0.5, 0xC0DEC),
        synthetic_buffer(16, 0.95, 0xC0DEC + 1),
        ragged_tail,
    ] {
        assert_all_levels_match_everywhere(&data);
    }
}

#[test]
fn runs_crossing_the_half_vector_seam() {
    // Kept runs that straddle lane 8, where the AVX2 path stitches its
    // two 8-lane halves together, plus runs touching either end.
    let mut data = vec![0.0f32; 4 * LANES];
    for (i, x) in data.iter_mut().enumerate() {
        let lane = i % LANES;
        if (5..11).contains(&lane) || lane == 0 || lane == 15 {
            *x = 1.0 + i as f32;
        }
    }
    assert_all_levels_match_everywhere(&data);
}

#[test]
fn f32_special_values() {
    // NaN is kept under both conditions, -0.0 is always compressed,
    // subnormals and negatives split the two conditions.
    let patterns: [u32; 10] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7FC0_0000, // qNaN
        0xFFC0_0000, // -qNaN
        0x7F80_0001, // sNaN
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x0000_0001, // smallest subnormal
        0x8000_0001, // negative subnormal
        0xBF80_0000, // -1.0
    ];
    let data = from_bits((0..4 * LANES).map(|i| patterns[(i / LANES * 3 + i % LANES) % 10]));
    assert_all_levels_match_everywhere(&data);
}

#[test]
fn malformed_streams_fail_identically() {
    // Corrupt a header so its popcount overruns the payload: the native
    // expand walk must report the same typed error at the same offset
    // as the scalar reader.
    let mut data = vec![0.0f32; 4 * LANES];
    data[0] = 7.0; // one kept lane in vector 0, rest all-compressed
    for mode in MODES {
        let mut stream =
            compress_f32_with_backend(&data, CompareCond::Eqz, mode, CodecBackend::Scalar)
                .expect("scalar");
        let region = match mode {
            HeaderMode::Interleaved => zcomp_isa::integrity::StreamRegion::Data,
            HeaderMode::Separate => zcomp_isa::integrity::StreamRegion::Headers,
        };
        // Set a high header bit of the final vector so its declared
        // payload runs past the end of the data region.
        let last_header_byte = match mode {
            HeaderMode::Interleaved => stream.data_bytes() - 1,
            HeaderMode::Separate => stream.header_bytes() - 1,
        };
        assert!(stream.flip_bit(region, last_header_byte, 7));
        let mut scalar_out = vec![0.0f32; stream.elements()];
        let scalar_err =
            expand_f32_into_with_backend(&stream, &mut scalar_out, CodecBackend::Scalar)
                .expect_err("scalar detects overrun");
        for &level in available_levels() {
            let mut native_out = vec![0.0f32; stream.elements()];
            let native_err = expand_at_level(level, &stream, &mut native_out)
                .expect_err("native detects overrun");
            assert_eq!(
                native_err, scalar_err,
                "error mismatch at {level} for {mode}"
            );
        }
    }
}

/// On non-x86 targets the ladder must be empty and dispatch must settle
/// on the scalar backend — the build itself compiling is the check.
#[cfg(not(target_arch = "x86_64"))]
#[test]
fn non_x86_builds_scalar_only() {
    assert!(available_levels().is_empty());
    assert_eq!(CodecBackend::detect(), CodecBackend::Scalar);
}
