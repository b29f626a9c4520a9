//! Runtime-dispatched native SIMD backend for the fp32 stream codec.
//!
//! The scalar codec in [`stream`](crate::stream) is the *specification*:
//! lane-at-a-time, portable, every element type, and the differential
//! oracle this module is tested against. This module is the
//! *implementation for speed* of the one element type the paper
//! evaluates, fp32: the same byte-exact stream layout produced with real
//! `std::arch` intrinsics — the software realization of what
//! `zcomps`/`zcompl` do in hardware (§3 of the paper):
//!
//! * **compress** — one vector compare produces the keep-mask header
//!   (`vcmpps` → `k` register), one compress-store packs the surviving
//!   lanes (`vcompressps`).
//! * **expand** — the header drives a mask expand-load (`vexpandps`),
//!   zero-filling compressed lanes.
//!
//! Streams of other element types go through the scalar
//! [`CompressedWriter`](crate::stream::CompressedWriter) /
//! [`CompressedReader`](crate::stream::CompressedReader).
//!
//! # Dispatch ladder
//!
//! Capability is probed once per process with
//! [`is_x86_feature_detected!`] and memoized in a [`OnceLock`], so the
//! hot path pays a single atomic load:
//!
//! 1. **AVX-512 (F)** — `vcmpps` into a mask register, `vcompressps`,
//!    `vexpandps`.
//! 2. **AVX2** — `vcmpps` + movemask; compaction and expansion through
//!    an 8-bit-mask `vpermps` LUT, one 8-lane half at a time.
//! 3. **Scalar** — the reference writer/reader (always available; the
//!    only path on non-x86 targets).
//!
//! The `ZCOMP_CODEC_BACKEND` environment variable overrides the choice
//! for A/B runs and CI: `scalar` forces the reference codec; `native`,
//! `auto` or an empty value pick the best rung. Any other value logs a
//! warning and uses auto detection, never an abort.
//!
//! # Oracle policy
//!
//! Every native rung must be **byte-identical** to the scalar codec:
//! same stream bytes, same headers, same `total_nnz`, same expansion,
//! same error offsets on malformed streams. Differential proptests and
//! directed tests (`tests/differential_native.rs`) check this on every
//! rung the host supports.

use std::sync::OnceLock;

use crate::ccf::CompareCond;
use crate::dtype::ElemType;
use crate::error::ZcompError;
use crate::stream::{CompressedStream, HeaderMode};

/// Which codec implementation executes a compress/expand call.
///
/// Mirrors the `ExecPath` pattern of the simulator: every entry point has
/// a `*_with_backend` variant taking this enum explicitly, and the plain
/// variants use [`CodecBackend::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecBackend {
    /// The portable lane-at-a-time reference codec (the oracle).
    Scalar,
    /// The best runtime-detected SIMD path; falls back to scalar on
    /// hosts with no supported vector extension.
    Native,
}

impl CodecBackend {
    /// The process-wide default backend: native when the host supports
    /// it, honoring the `ZCOMP_CODEC_BACKEND` override (`scalar`,
    /// `native`, `auto`).
    ///
    /// Detection and the environment lookup run once; subsequent calls
    /// are a single memoized load.
    #[inline]
    pub fn detect() -> CodecBackend {
        static BACKEND: OnceLock<CodecBackend> = OnceLock::new();
        *BACKEND.get_or_init(|| {
            let auto = if best_level().is_some() {
                CodecBackend::Native
            } else {
                CodecBackend::Scalar
            };
            match std::env::var("ZCOMP_CODEC_BACKEND").ok().as_deref() {
                None | Some("" | "auto" | "native") => auto,
                Some("scalar") => CodecBackend::Scalar,
                Some(other) => {
                    zcomp_trace::log_warn!(
                        "unknown ZCOMP_CODEC_BACKEND value `{other}` \
                         (expected scalar|native|auto); using auto"
                    );
                    auto
                }
            }
        })
    }

    /// Short stable name used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CodecBackend::Scalar => "scalar",
            CodecBackend::Native => "native",
        }
    }
}

impl std::fmt::Display for CodecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The instruction-set rung the native backend uses on this host
/// (`"avx512"` or `"avx2"`), or `None` when only the scalar path exists.
/// Ignores the environment override.
pub fn native_isa() -> Option<&'static str> {
    best_level().map(NativeLevel::label)
}

/// One rung of the native dispatch ladder.
///
/// Exposed (hidden) so differential tests can exercise every rung the
/// host supports, not just the best one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeLevel {
    /// 256-bit: movemask compares + `vpermps` LUT compaction.
    Avx2,
    /// 512-bit AVX-512F: mask compares, `vcompressps`, `vexpandps`.
    Avx512,
}

impl NativeLevel {
    /// Short stable name used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            NativeLevel::Avx2 => "avx2",
            NativeLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for NativeLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Every ladder rung this host supports, best first. Empty on non-x86
/// targets (and on x86 hosts without AVX2).
#[doc(hidden)]
pub fn available_levels() -> &'static [NativeLevel] {
    static LEVELS: OnceLock<Vec<NativeLevel>> = OnceLock::new();
    LEVELS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            x86::all_supported()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Vec::new()
        }
    })
}

/// The best supported rung: the one every [`CodecBackend::Native`] call
/// runs at.
fn best_level() -> Option<NativeLevel> {
    available_levels().first().copied()
}

// ---------------------------------------------------------------------
// crate-internal entry points (used by `compress`)
// ---------------------------------------------------------------------

/// Compresses whole-vector `data` at the best rung, or returns `None`
/// when no native rung exists (caller falls back to the scalar writer).
///
/// `data.len()` must be a multiple of 16 (callers have already rejected
/// partial vectors).
pub(crate) fn compress_to_stream(
    data: &[f32],
    cond: CompareCond,
    mode: HeaderMode,
) -> Option<CompressedStream> {
    Some(compress_at_level(best_level()?, data, cond, mode))
}

/// Expands an fp32 `stream` into `dst` at the best rung, or returns
/// `None` when no native rung exists. `dst` must be exactly
/// `stream.elements()` long.
pub(crate) fn expand_into(
    stream: &CompressedStream,
    dst: &mut [f32],
) -> Option<Result<(), ZcompError>> {
    Some(expand_at_level(best_level()?, stream, dst))
}

// ---------------------------------------------------------------------
// per-rung entry points (hidden: for the differential tests)
// ---------------------------------------------------------------------

/// Compresses fp32 `data` at a specific ladder rung.
///
/// # Panics
///
/// Panics if `level` is not in [`available_levels`] or `data` is not a
/// whole number of vectors — both indicate test-harness bugs, not user
/// input.
#[doc(hidden)]
pub fn compress_at_level(
    level: NativeLevel,
    data: &[f32],
    cond: CompareCond,
    mode: HeaderMode,
) -> CompressedStream {
    assert!(
        available_levels().contains(&level),
        "native level {level} not supported on this host"
    );
    let lanes = ElemType::F32.lanes();
    assert!(
        data.len().is_multiple_of(lanes),
        "native compress requires whole vectors"
    );
    let mut out_data = Vec::new();
    let mut out_headers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    let nnz = x86::compress(level, data, cond, mode, &mut out_data, &mut out_headers);
    #[cfg(not(target_arch = "x86_64"))]
    let nnz = unreachable!("no native levels exist off x86_64");
    CompressedStream::from_raw_parts(
        ElemType::F32,
        mode,
        out_data,
        out_headers,
        data.len() / lanes,
        nnz,
    )
}

/// Expands an fp32 stream at a specific ladder rung into an
/// exactly-sized destination.
///
/// # Panics
///
/// Panics if `level` is unsupported, the stream is not fp32, or `dst`
/// is not exactly `stream.elements()` long.
#[doc(hidden)]
pub fn expand_at_level(
    level: NativeLevel,
    stream: &CompressedStream,
    dst: &mut [f32],
) -> Result<(), ZcompError> {
    assert!(
        available_levels().contains(&level),
        "native level {level} not supported on this host"
    );
    assert_eq!(
        stream.elem_type(),
        ElemType::F32,
        "native expand is fp32-only"
    );
    assert_eq!(
        dst.len(),
        stream.elements(),
        "native expand requires an exactly-sized destination"
    );
    #[cfg(target_arch = "x86_64")]
    {
        x86::expand(
            level,
            stream.header_mode(),
            stream.data(),
            stream.headers(),
            dst,
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("no native levels exist off x86_64")
    }
}

// ---------------------------------------------------------------------
// x86_64 kernels
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::ptr;

    use super::NativeLevel;
    use crate::ccf::CompareCond;
    use crate::error::ZcompError;
    use crate::stream::HeaderMode;
    use crate::VECTOR_BYTES;

    /// fp32 lanes per 512-bit vector.
    const LANES: usize = 16;
    /// Header bytes per vector: one keep bit per lane.
    const HB: usize = LANES / 8;
    /// Bytes per fp32 lane.
    const ES: usize = 4;

    pub(super) fn all_supported() -> Vec<NativeLevel> {
        let mut levels = Vec::new();
        if is_x86_feature_detected!("avx512f") {
            levels.push(NativeLevel::Avx512);
        }
        if is_x86_feature_detected!("avx2") {
            levels.push(NativeLevel::Avx2);
        }
        levels
    }

    /// Dispatches one bulk compress.
    pub(super) fn compress(
        level: NativeLevel,
        data: &[f32],
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        // SAFETY: `level` is in `all_supported()` (asserted in
        // `super::compress_at_level`), so this CPU has its target features.
        unsafe {
            match level {
                NativeLevel::Avx512 => compress_512(data, cond, mode, out_data, out_headers),
                NativeLevel::Avx2 => compress_avx2(data, cond, mode, out_data, out_headers),
            }
        }
    }

    /// Dispatches one bulk expand into an exactly-sized `dst`.
    pub(super) fn expand(
        level: NativeLevel,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        dst: &mut [f32],
    ) -> Result<(), ZcompError> {
        // SAFETY: as in `compress`; asserted in `super::expand_at_level`.
        unsafe {
            match level {
                NativeLevel::Avx512 => expand_512(mode, data, headers, dst),
                NativeLevel::Avx2 => expand_avx2(mode, data, headers, dst),
            }
        }
    }

    /// One rung's `zcomps`/`zcompl` for a single 16-lane vector.
    trait Rung {
        /// Compares the 16 lanes at `src` under `cond` and packs the kept
        /// ones at `dst`, returning the keep-mask header. Bit `i` set =
        /// lane `i` kept, matching [`CompareCond::keep_mask`] exactly
        /// (NaN kept, `-0.0` compressed). Writes full registers;
        /// logically appends `popcount * 4` bytes.
        ///
        /// # Safety
        ///
        /// The CPU must support the rung's target features, `src` must be
        /// readable for 16 lanes and `dst` writable for `VECTOR_BYTES`.
        unsafe fn compress(src: *const f32, cond: CompareCond, dst: *mut u8) -> u16;

        /// Expands the packed lanes at `src` under `mask` into the 16
        /// lanes at `dst`, zero-filling compressed lanes.
        ///
        /// # Safety
        ///
        /// The CPU must support the rung's target features, `src` must be
        /// readable for `VECTOR_BYTES` and `dst` writable for 16 lanes.
        unsafe fn expand(src: *const u8, mask: u16, dst: *mut f32);
    }

    /// The full compress loop, shared by both rungs. Any trailing
    /// partial vector of `data` is ignored.
    ///
    /// # Safety
    ///
    /// The CPU must support `R`'s target features.
    #[inline(always)]
    unsafe fn compress_loop<R: Rung>(
        data: &[f32],
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        let vectors = data.len() / LANES;
        // Worst-case reserve: the incompressible bound per vector is
        // exactly `header + VECTOR_BYTES`, which also covers the
        // full-register store slack of the final vector.
        match mode {
            HeaderMode::Interleaved => out_data.reserve(vectors * (HB + VECTOR_BYTES)),
            HeaderMode::Separate => {
                out_data.reserve(vectors * VECTOR_BYTES);
                out_headers.reserve(vectors * HB);
            }
        }
        let dbase = out_data.as_mut_ptr();
        let hbase = out_headers.as_mut_ptr();
        let mut dlen = out_data.len();
        let mut hlen = out_headers.len();
        let mut nnz = 0u64;
        for v in 0..vectors {
            let src = data.as_ptr().add(v * LANES);
            let hdr = match mode {
                HeaderMode::Interleaved => {
                    let at = dbase.add(dlen);
                    dlen += HB;
                    at
                }
                HeaderMode::Separate => {
                    let at = hbase.add(hlen);
                    hlen += HB;
                    at
                }
            };
            let mask = R::compress(src, cond, dbase.add(dlen));
            ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), hdr, HB);
            let n = mask.count_ones() as usize;
            dlen += n * ES;
            nnz += n as u64;
        }
        out_data.set_len(dlen);
        out_headers.set_len(hlen);
        nnz
    }

    /// The full expand loop, shared by both rungs. Mirrors
    /// [`CompressedReader::read_vector`](crate::stream::CompressedReader::read_vector)
    /// exactly, including error offsets on malformed streams.
    ///
    /// # Safety
    ///
    /// The CPU must support `R`'s target features.
    #[inline(always)]
    unsafe fn expand_loop<R: Rung>(
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        dst: &mut [f32],
    ) -> Result<(), ZcompError> {
        let out = dst.as_mut_ptr();
        let mut data_pos = 0usize;
        let mut header_pos = 0usize;
        for v in 0..dst.len() / LANES {
            let (region, pos) = match mode {
                HeaderMode::Interleaved => (data, &mut data_pos),
                HeaderMode::Separate => (headers, &mut header_pos),
            };
            if *pos + HB > region.len() {
                return Err(ZcompError::Truncated { offset: *pos });
            }
            let mask = u16::from_le_bytes([region[*pos], region[*pos + 1]]);
            *pos += HB;
            let payload = mask.count_ones() as usize * ES;
            if data_pos + payload > data.len() {
                return Err(ZcompError::Truncated { offset: data_pos });
            }
            // Full-register loads read up to 64 bytes; fall back to a
            // zero-padded copy when the payload sits too close to the
            // end of the data region.
            let mut tail = [0u8; VECTOR_BYTES];
            let src = if data_pos + VECTOR_BYTES <= data.len() {
                data.as_ptr().add(data_pos)
            } else {
                ptr::copy_nonoverlapping(data.as_ptr().add(data_pos), tail.as_mut_ptr(), payload);
                tail.as_ptr()
            };
            R::expand(src, mask, out.add(v * LANES));
            data_pos += payload;
        }
        Ok(())
    }

    // -- AVX-512 -------------------------------------------------------

    struct Avx512;

    impl Rung for Avx512 {
        #[inline(always)]
        unsafe fn compress(src: *const f32, cond: CompareCond, dst: *mut u8) -> u16 {
            let v = _mm512_loadu_ps(src);
            let z = _mm512_setzero_ps();
            let mask = match cond {
                // NEQ_UQ: unordered (NaN) compares true, +/-0 false.
                CompareCond::Eqz => _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, z),
                // NLE_UQ: !(x <= 0), NaN true — keep positives + NaN.
                CompareCond::Ltez => _mm512_cmp_ps_mask::<_CMP_NLE_UQ>(v, z),
            };
            _mm512_storeu_ps(dst as *mut f32, _mm512_maskz_compress_ps(mask, v));
            mask
        }

        #[inline(always)]
        unsafe fn expand(src: *const u8, mask: u16, dst: *mut f32) {
            let packed = _mm512_loadu_ps(src as *const f32);
            _mm512_storeu_ps(dst, _mm512_maskz_expand_ps(mask, packed));
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn compress_512(
        data: &[f32],
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        compress_loop::<Avx512>(data, cond, mode, out_data, out_headers)
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn expand_512(
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        dst: &mut [f32],
    ) -> Result<(), ZcompError> {
        expand_loop::<Avx512>(mode, data, headers, dst)
    }

    // -- AVX2 ----------------------------------------------------------

    /// `vpermps` index LUT: entry `m` lists the set-bit positions of the
    /// 8-bit mask `m` in ascending order (compaction shuffle).
    static COMPRESS_IDX: [[u32; 8]; 256] = build_compress_idx();

    /// Inverse LUT: entry `m` maps lane `i` to the prefix popcount of
    /// `m` below bit `i` (expansion shuffle; unset lanes are zeroed by a
    /// mask AND afterwards).
    static EXPAND_IDX: [[u32; 8]; 256] = build_expand_idx();

    const fn build_compress_idx() -> [[u32; 8]; 256] {
        let mut t = [[0u32; 8]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut k = 0usize;
            let mut i = 0usize;
            while i < 8 {
                if m & (1 << i) != 0 {
                    t[m][k] = i as u32;
                    k += 1;
                }
                i += 1;
            }
            m += 1;
        }
        t
    }

    const fn build_expand_idx() -> [[u32; 8]; 256] {
        let mut t = [[0u32; 8]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut pc = 0u32;
            let mut i = 0usize;
            while i < 8 {
                if m & (1 << i) != 0 {
                    t[m][i] = pc;
                    pc += 1;
                }
                i += 1;
            }
            m += 1;
        }
        t
    }

    struct Avx2;

    impl Rung for Avx2 {
        /// 256-bit compares + movemask for the header, then LUT-driven
        /// `vpermps` compaction, one 8-lane half at a time. Stores write
        /// full 32-byte registers into the reserved slack.
        #[inline(always)]
        unsafe fn compress(src: *const f32, cond: CompareCond, dst: *mut u8) -> u16 {
            let z = _mm256_setzero_ps();
            let mut mask = 0u16;
            let mut off = 0usize;
            for h in 0..2 {
                let half = _mm256_loadu_ps(src.add(8 * h));
                let c = match cond {
                    CompareCond::Eqz => _mm256_cmp_ps::<_CMP_NEQ_UQ>(half, z),
                    CompareCond::Ltez => _mm256_cmp_ps::<_CMP_NLE_UQ>(half, z),
                };
                let m8 = (_mm256_movemask_ps(c) & 0xFF) as usize;
                mask |= (m8 as u16) << (8 * h);
                let idx = _mm256_loadu_si256(COMPRESS_IDX[m8].as_ptr() as *const __m256i);
                let packed = _mm256_permutevar8x32_ps(half, idx);
                _mm256_storeu_ps(dst.add(off) as *mut f32, packed);
                off += m8.count_ones() as usize * ES;
            }
            mask
        }

        #[inline(always)]
        unsafe fn expand(src: *const u8, mask: u16, dst: *mut f32) {
            let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let mut off = 0usize;
            for h in 0..2 {
                let m8 = ((mask >> (8 * h)) & 0xFF) as usize;
                let packed = _mm256_loadu_ps(src.add(off) as *const f32);
                let idx = _mm256_loadu_si256(EXPAND_IDX[m8].as_ptr() as *const __m256i);
                let perm = _mm256_permutevar8x32_ps(packed, idx);
                let sel = _mm256_cmpeq_epi32(
                    _mm256_and_si256(_mm256_set1_epi32(m8 as i32), lane_bits),
                    lane_bits,
                );
                _mm256_storeu_ps(
                    dst.add(8 * h),
                    _mm256_and_ps(perm, _mm256_castsi256_ps(sel)),
                );
                off += m8.count_ones() as usize * ES;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn compress_avx2(
        data: &[f32],
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        compress_loop::<Avx2>(data, cond, mode, out_data, out_headers)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn expand_avx2(
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        dst: &mut [f32],
    ) -> Result<(), ZcompError> {
        expand_loop::<Avx2>(mode, data, headers, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_memoized_and_consistent() {
        let first = CodecBackend::detect();
        for _ in 0..3 {
            assert_eq!(CodecBackend::detect(), first);
        }
        // Native is only reported when a ladder rung exists.
        if first == CodecBackend::Native {
            assert!(!available_levels().is_empty());
            assert!(native_isa().is_some());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CodecBackend::Scalar.label(), "scalar");
        assert_eq!(CodecBackend::Native.to_string(), "native");
        assert_eq!(NativeLevel::Avx512.label(), "avx512");
        assert_eq!(NativeLevel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn ladder_is_avx512_then_avx2_best_first() {
        let levels = available_levels();
        assert!(levels.len() <= 2, "{levels:?}");
        let expected: Vec<NativeLevel> = [NativeLevel::Avx512, NativeLevel::Avx2]
            .into_iter()
            .filter(|l| levels.contains(l))
            .collect();
        assert_eq!(levels, &expected[..]);
        assert_eq!(best_level(), levels.first().copied());
        assert_eq!(native_isa(), best_level().map(NativeLevel::label));
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_is_scalar_only() {
        // The scalar-only build must compile and dispatch cleanly with
        // no native rungs — the portable-fallback guarantee.
        assert!(available_levels().is_empty());
        assert_eq!(CodecBackend::detect(), CodecBackend::Scalar);
        assert_eq!(native_isa(), None);
    }
}
