//! Differential tests: native SIMD backend vs the scalar oracle.
//!
//! The scalar `CompressedWriter`/`CompressedReader` pair is the codec's
//! specification; every rung of the native dispatch ladder
//! (`avx512vbmi2`, `avx512`, `avx2` — whatever the host supports) must
//! produce byte-identical streams and byte-identical expansions for
//! every element type, both compare conditions and both header
//! placements. Properties sweep arbitrary sparsity patterns; directed
//! tests pin the classic traps (empty streams, all-compressed vectors,
//! full masks, run boundaries at the 16-lane subgroup seams the
//! emulated F16/I8 paths split on, fp16 special values, NaN/-0.0).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use zcomp_isa::buffer::{compress_bytes_with_backend, expand_bytes_into_with_backend};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::{compress_f32_with_backend, expand_f32_into_with_backend};
use zcomp_isa::dtype::ElemType;
use zcomp_isa::native::{available_levels, compress_at_level, expand_at_level, CodecBackend};
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::VECTOR_BYTES;

const TYPES: [ElemType; 5] = [
    ElemType::F32,
    ElemType::F64,
    ElemType::F16,
    ElemType::I32,
    ElemType::I8,
];

const MODES: [HeaderMode; 2] = [HeaderMode::Interleaved, HeaderMode::Separate];
const CONDS: [CompareCond; 2] = [CompareCond::Eqz, CompareCond::Ltez];

/// Asserts every native rung agrees with the scalar oracle on `data`:
/// identical `CompressedStream` (data bytes, header bytes, vector and
/// nnz counts via `PartialEq`) and identical expansion bytes.
fn assert_all_levels_match(data: &[u8], ty: ElemType, cond: CompareCond, mode: HeaderMode) {
    let oracle =
        compress_bytes_with_backend(data, ty, cond, mode, CodecBackend::Scalar).expect("scalar");
    let mut oracle_out = vec![0u8; oracle.vectors() * VECTOR_BYTES];
    expand_bytes_into_with_backend(&oracle, &mut oracle_out, CodecBackend::Scalar)
        .expect("scalar expand");
    for &level in available_levels() {
        let native = compress_at_level(level, data, ty, cond, mode);
        assert_eq!(
            native, oracle,
            "compress mismatch at {level} for {ty}/{cond:?}/{mode}"
        );
        let mut native_out = vec![0xA5u8; oracle.vectors() * VECTOR_BYTES];
        expand_at_level(level, &oracle, &mut native_out).expect("native expand");
        assert_eq!(
            native_out, oracle_out,
            "expand mismatch at {level} for {ty}/{cond:?}/{mode}"
        );
    }
}

/// Zeroes each 4-byte group of `bytes` whose control bit is set, so every
/// sparsity shape appears: dense, empty, and ragged runs that straddle
/// the 16-lane subgroups the emulated F16/I8 kernels split on.
fn sparsify(bytes: &mut [u8], zero_groups: &[u16]) {
    for (chunk, &zg) in bytes
        .chunks_mut(VECTOR_BYTES)
        .zip(zero_groups.iter().cycle())
    {
        for g in 0..16 {
            if zg >> g & 1 != 0 {
                chunk[g * 4..(g + 1) * 4].fill(0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte buffers with arbitrary zeroed-group patterns:
    /// every native rung reproduces the scalar stream and expansion
    /// bit-for-bit, for every (type, cond, mode) combination.
    #[test]
    fn native_matches_scalar_oracle(
        raw in proptest::collection::vec(0u8..=255, 0..16 * VECTOR_BYTES),
        zero_groups in proptest::collection::vec(0u16..=u16::MAX, 1..16),
        ty_idx in 0usize..TYPES.len(),
        cond_idx in 0usize..2,
        mode_idx in 0usize..2,
    ) {
        let mut data = raw;
        data.truncate(data.len() / VECTOR_BYTES * VECTOR_BYTES);
        sparsify(&mut data, &zero_groups);
        assert_all_levels_match(&data, TYPES[ty_idx], CONDS[cond_idx], MODES[mode_idx]);
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
        let lanes = ElemType::F32.lanes();
        let data: Vec<f32> = (0..vectors * lanes)
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
        // NaN lanes survive compression, so compare bit patterns.
        let s_bits: Vec<u32> = scalar_out.iter().map(|x| x.to_bits()).collect();
        let n_bits: Vec<u32> = native_out.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(n_bits, s_bits);
    }
}

#[test]
fn empty_stream_all_types() {
    for ty in TYPES {
        for cond in CONDS {
            for mode in MODES {
                assert_all_levels_match(&[], ty, cond, mode);
            }
        }
    }
}

#[test]
fn all_compressed_vectors() {
    // Every lane compresses away: the stream is pure headers.
    let data = vec![0u8; 8 * VECTOR_BYTES];
    for ty in TYPES {
        for cond in CONDS {
            for mode in MODES {
                assert_all_levels_match(&data, ty, cond, mode);
            }
        }
    }
}

#[test]
fn full_mask_vectors() {
    // No lane compresses: a single run spans the whole mask word (the
    // I8 case sets all 64 bits — the run-loop termination trap).
    let data: Vec<u8> = (0..8 * VECTOR_BYTES).map(|i| (i % 251) as u8 | 1).collect();
    for ty in TYPES {
        for mode in MODES {
            assert_all_levels_match(&data, ty, CompareCond::Eqz, mode);
        }
    }
}

/// A deterministic typed buffer of `vectors` vectors with roughly
/// `sparsity` of its lanes zero, zeroed lane-at-a-time so runs of every
/// length and alignment appear.
fn synthetic_buffer(ty: ElemType, vectors: usize, sparsity: f64, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; vectors * VECTOR_BYTES];
    for lane in data.chunks_mut(ty.size_bytes()) {
        if !rng.gen_bool(sparsity) {
            for b in lane.iter_mut() {
                *b = rng.gen_range(0u8..=255) | 1; // nonzero under every dtype view
            }
        }
    }
    data
}

#[test]
fn seeded_sparse_and_ragged_tail_buffers() {
    for ty in TYPES {
        // Final vector nearly full, so its payload ends within a
        // register's width of the data region's end: the tail-slack path
        // of the native expand.
        let mut ragged_tail = synthetic_buffer(ty, 5, 0.9, 0xC0DEC + 2);
        let last = ragged_tail.len() - VECTOR_BYTES;
        for (i, b) in ragged_tail[last..].iter_mut().enumerate() {
            *b = (i % 97) as u8 | 1;
        }
        let patterns = [
            synthetic_buffer(ty, 16, 0.5, 0xC0DEC),
            synthetic_buffer(ty, 16, 0.95, 0xC0DEC + 1),
            ragged_tail,
        ];
        for data in &patterns {
            for cond in CONDS {
                for mode in MODES {
                    assert_all_levels_match(data, ty, cond, mode);
                }
            }
        }
    }
}

#[test]
fn runs_crossing_subgroup_seams() {
    // Kept runs that straddle byte/lane-16/lane-32/lane-48 boundaries —
    // exactly where the non-VBMI2 F16/I8 emulation stitches 16-lane
    // groups together and where the AVX2 F32 path stitches 8-lane
    // halves.
    let mut data = vec![0u8; 4 * VECTOR_BYTES];
    for (i, b) in data.iter_mut().enumerate() {
        let lane = i % VECTOR_BYTES;
        if (12..20).contains(&lane) || (28..36).contains(&lane) || (60..64).contains(&lane) {
            *b = (i % 97) as u8 | 0x11;
        }
    }
    for ty in TYPES {
        for cond in CONDS {
            for mode in MODES {
                assert_all_levels_match(&data, ty, cond, mode);
            }
        }
    }
}

#[test]
fn f16_special_values() {
    // fp16 classification is by bit pattern: negative zero (0x8000),
    // +/- infinity (0x7C00/0xFC00), quiet and signaling NaNs (0x7E00,
    // 0x7C01), negative NaN (0xFE00), subnormals (0x0001, 0x8001) and
    // ordinary negatives all take different keep decisions under Ltez.
    let patterns: [u16; 12] = [
        0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE00, 0x0001, 0x8001, 0x3C00, 0xBC00,
        0xFFFF,
    ];
    let mut data = Vec::new();
    for v in 0..4 {
        for lane in 0..32 {
            let bits = patterns[(v * 7 + lane) % patterns.len()];
            data.extend_from_slice(&bits.to_le_bytes());
        }
    }
    for cond in CONDS {
        for mode in MODES {
            assert_all_levels_match(&data, ElemType::F16, cond, mode);
        }
    }
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
    let mut data = Vec::new();
    for v in 0..4 {
        for lane in 0..16 {
            data.extend_from_slice(&patterns[(v * 3 + lane) % patterns.len()].to_le_bytes());
        }
    }
    for cond in CONDS {
        for mode in MODES {
            assert_all_levels_match(&data, ElemType::F32, cond, mode);
        }
    }
}

#[test]
fn malformed_streams_fail_identically() {
    // Corrupt a header so its popcount overruns the payload: the native
    // expand walk must report the same typed error at the same offset
    // as the scalar reader.
    let mut data: Vec<u8> = vec![0u8; 4 * VECTOR_BYTES];
    data[0] = 7; // one kept lane in vector 0, rest all-compressed
    for ty in TYPES {
        for mode in MODES {
            let mut stream = compress_bytes_with_backend(
                &data,
                ty,
                CompareCond::Eqz,
                mode,
                CodecBackend::Scalar,
            )
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
            let mut scalar_out = vec![0u8; stream.vectors() * VECTOR_BYTES];
            let scalar_err =
                expand_bytes_into_with_backend(&stream, &mut scalar_out, CodecBackend::Scalar)
                    .expect_err("scalar detects overrun");
            for &level in available_levels() {
                let mut native_out = vec![0u8; stream.vectors() * VECTOR_BYTES];
                let native_err = expand_at_level(level, &stream, &mut native_out)
                    .expect_err("native detects overrun");
                assert_eq!(
                    native_err, scalar_err,
                    "error mismatch at {level} for {ty}/{mode}"
                );
            }
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
