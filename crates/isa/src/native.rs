//! Runtime-dispatched native SIMD backend for the stream codec.
//!
//! The scalar codec in [`stream`](crate::stream) is the *specification*:
//! lane-at-a-time, portable, and the differential oracle every other path
//! is tested against. This module is the *implementation for speed*: the
//! same byte-exact stream layout produced with real `std::arch`
//! intrinsics — the software realization of what `zcomps`/`zcompl` do in
//! hardware (§3 of the paper):
//!
//! * **compress** — one vector compare produces the keep-mask header
//!   (`vcmpps`/`vptestmb` → `k` register), one compress-store packs the
//!   surviving lanes (`vcompressps` and friends).
//! * **expand** — the header drives a mask expand-load
//!   (`vexpandps`), zero-filling compressed lanes.
//!
//! # Dispatch ladder
//!
//! Capability is probed once per process with
//! [`is_x86_feature_detected!`] and memoized in a [`OnceLock`], so the
//! hot path pays a single atomic load:
//!
//! 1. **AVX-512 + VBMI2** — native `vpcompressw`/`vpcompressb` for
//!    F16/I8; mask compares for every dtype.
//! 2. **AVX-512 (F+BW)** — F16/I8 compaction emulated by widening
//!    16-lane groups to 32-bit (`vpmovzx`), compressing with
//!    `vpcompressd`, and narrowing back (`vpmov`).
//! 3. **AVX2** — movemask compares; F32 compaction/expansion via an
//!    8-bit-mask `vpermps` LUT; narrower dtypes keep SIMD mask
//!    computation and fall back to run-based byte copies for packing.
//! 4. **Scalar** — the reference writer/reader (always available; the
//!    only path on non-x86 targets).
//!
//! The `ZCOMP_CODEC_BACKEND` environment variable overrides the choice
//! for A/B runs and CI: `scalar`, `native`, or a specific ladder rung
//! (`avx2`, `avx512`, `avx512vbmi2`). Unsupported requests fall back
//! down the ladder with a logged warning, never an abort.
//!
//! # Oracle policy
//!
//! Every native path must be **byte-identical** to the scalar codec:
//! same stream bytes, same headers, same `total_nnz`, same expansion,
//! same error offsets on malformed streams. This is enforced two ways:
//! differential proptests and directed tests
//! (`tests/differential_native.rs`) across all dtypes and every ladder
//! rung the host supports, and debug assertions in the dispatch layer.

use std::sync::OnceLock;

use crate::ccf::CompareCond;
use crate::dtype::ElemType;
use crate::error::ZcompError;
use crate::stream::{CompressedStream, HeaderMode};
use crate::VECTOR_BYTES;

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
    /// `native`, `avx2`, `avx512`, `avx512vbmi2`).
    ///
    /// Detection and the environment lookup run once; subsequent calls
    /// are a single memoized load.
    #[inline]
    pub fn detect() -> CodecBackend {
        dispatch().backend
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

/// Memoized process-wide backend choice — see [`CodecBackend::detect`].
#[inline]
pub fn detect_backend() -> CodecBackend {
    CodecBackend::detect()
}

/// The instruction-set rung the native backend would use on this host
/// (`"avx512vbmi2"`, `"avx512"`, `"avx2"`), or `None` when only the
/// scalar path exists. Ignores the environment override.
pub fn native_isa() -> Option<&'static str> {
    best_level().map(NativeLevel::label)
}

/// One rung of the native dispatch ladder.
///
/// Exposed (hidden) so differential tests and the codec benchmark can
/// exercise every rung the host supports, not just the best one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeLevel {
    /// 256-bit: movemask compares + `vpermps` LUT compaction for F32.
    Avx2,
    /// 512-bit F+BW: mask compares, `vcompressps/d/q`, widening
    /// emulation for F16/I8 byte compaction.
    Avx512,
    /// 512-bit F+BW+VBMI2: adds native `vpcompressw`/`vpcompressb`.
    Avx512Vbmi2,
}

impl NativeLevel {
    /// Short stable name used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            NativeLevel::Avx2 => "avx2",
            NativeLevel::Avx512 => "avx512",
            NativeLevel::Avx512Vbmi2 => "avx512vbmi2",
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

/// The best supported rung, ignoring the environment override.
fn best_level() -> Option<NativeLevel> {
    available_levels().first().copied()
}

/// The memoized (backend, forced-level) decision.
struct Dispatch {
    backend: CodecBackend,
    /// `Some` only when `ZCOMP_CODEC_BACKEND` names a specific rung.
    forced_level: Option<NativeLevel>,
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        let native_default = || Dispatch {
            backend: if best_level().is_some() {
                CodecBackend::Native
            } else {
                CodecBackend::Scalar
            },
            forced_level: None,
        };
        let request = std::env::var("ZCOMP_CODEC_BACKEND").ok();
        match request.as_deref() {
            None | Some("") | Some("auto") | Some("native") => native_default(),
            Some("scalar") => Dispatch {
                backend: CodecBackend::Scalar,
                forced_level: None,
            },
            Some(rung @ ("avx2" | "avx512" | "avx512vbmi2")) => {
                let want = match rung {
                    "avx2" => NativeLevel::Avx2,
                    "avx512" => NativeLevel::Avx512,
                    _ => NativeLevel::Avx512Vbmi2,
                };
                if available_levels().contains(&want) {
                    Dispatch {
                        backend: CodecBackend::Native,
                        forced_level: Some(want),
                    }
                } else {
                    zcomp_trace::log_warn!(
                        "ZCOMP_CODEC_BACKEND={rung} is not supported on this host; \
                         falling back to auto detection"
                    );
                    native_default()
                }
            }
            Some(other) => {
                zcomp_trace::log_warn!(
                    "unknown ZCOMP_CODEC_BACKEND value `{other}` \
                     (expected scalar|native|avx2|avx512|avx512vbmi2); using auto"
                );
                native_default()
            }
        }
    })
}

/// The rung a [`CodecBackend::Native`] call should run at: the forced
/// rung when the environment pinned one, else the best available.
fn level_for_native() -> Option<NativeLevel> {
    dispatch().forced_level.or_else(best_level)
}

// ---------------------------------------------------------------------
// crate-internal entry points (used by `compress` and `buffer`)
// ---------------------------------------------------------------------

/// Compresses whole-vector `data` natively, or returns `None` when no
/// native rung exists (caller falls back to the scalar writer).
///
/// `data.len()` must be a multiple of [`VECTOR_BYTES`] (callers have
/// already rejected partial vectors).
pub(crate) fn compress_to_stream(
    data: &[u8],
    ty: ElemType,
    cond: CompareCond,
    mode: HeaderMode,
) -> Option<CompressedStream> {
    let level = level_for_native()?;
    Some(compress_at_level(level, data, ty, cond, mode))
}

/// Expands `stream` into `dst` natively, or returns `None` when no
/// native rung exists. `dst` must be exactly
/// `stream.vectors() * VECTOR_BYTES` long.
pub(crate) fn expand_into(
    stream: &CompressedStream,
    dst: &mut [u8],
) -> Option<Result<(), ZcompError>> {
    let level = level_for_native()?;
    Some(expand_at_level(level, stream, dst))
}

/// Reinterprets an `f32` slice as little-endian bytes (zero-copy).
pub(crate) fn f32_as_bytes(data: &[f32]) -> &[u8] {
    // Sound: f32 has no padding and every byte pattern is observable.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Reinterprets a mutable `f32` slice as bytes (zero-copy).
pub(crate) fn f32_as_bytes_mut(data: &mut [f32]) -> &mut [u8] {
    // Sound: both views are plain-old-data; the callee only writes.
    unsafe {
        std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(data))
    }
}

// ---------------------------------------------------------------------
// per-rung entry points (hidden: for the differential tests)
// ---------------------------------------------------------------------

/// Compresses at a specific ladder rung.
///
/// # Panics
///
/// Panics if `level` is not in [`available_levels`] or `data` is not a
/// whole number of vectors — both indicate test-harness bugs, not user
/// input.
#[doc(hidden)]
pub fn compress_at_level(
    level: NativeLevel,
    data: &[u8],
    ty: ElemType,
    cond: CompareCond,
    mode: HeaderMode,
) -> CompressedStream {
    assert!(
        available_levels().contains(&level),
        "native level {level} not supported on this host"
    );
    assert!(
        data.len().is_multiple_of(VECTOR_BYTES),
        "native compress requires whole vectors"
    );
    let vectors = data.len() / VECTOR_BYTES;
    let mut out_data = Vec::new();
    let mut out_headers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    let nnz = x86::compress(level, data, ty, cond, mode, &mut out_data, &mut out_headers);
    #[cfg(not(target_arch = "x86_64"))]
    let nnz = unreachable!("no native levels exist off x86_64");
    CompressedStream::from_raw_parts(ty, mode, out_data, out_headers, vectors, nnz)
}

/// Expands at a specific ladder rung into an exactly-sized byte buffer.
///
/// # Panics
///
/// Panics if `level` is unsupported or `dst` is not exactly the
/// stream's uncompressed size.
#[doc(hidden)]
pub fn expand_at_level(
    level: NativeLevel,
    stream: &CompressedStream,
    dst: &mut [u8],
) -> Result<(), ZcompError> {
    assert!(
        available_levels().contains(&level),
        "native level {level} not supported on this host"
    );
    assert_eq!(
        dst.len(),
        stream.vectors() * VECTOR_BYTES,
        "native expand requires an exactly-sized destination"
    );
    #[cfg(target_arch = "x86_64")]
    {
        x86::expand(
            level,
            stream.elem_type(),
            stream.header_mode(),
            stream.data(),
            stream.headers(),
            stream.vectors(),
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
    use crate::dtype::ElemType;
    use crate::error::ZcompError;
    use crate::stream::HeaderMode;
    use crate::VECTOR_BYTES;

    pub(super) fn all_supported() -> Vec<NativeLevel> {
        let mut levels = Vec::new();
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            if is_x86_feature_detected!("avx512vbmi2") {
                levels.push(NativeLevel::Avx512Vbmi2);
            }
            levels.push(NativeLevel::Avx512);
        }
        if is_x86_feature_detected!("avx2") {
            levels.push(NativeLevel::Avx2);
        }
        levels
    }

    /// Dispatches one bulk compress. Caller guarantees `level` is
    /// supported (checked in [`super::compress_at_level`]).
    pub(super) fn compress(
        level: NativeLevel,
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        unsafe {
            match level {
                NativeLevel::Avx512Vbmi2 => {
                    compress_bulk_512_vbmi2(data, ty, cond, mode, out_data, out_headers)
                }
                NativeLevel::Avx512 => {
                    compress_bulk_512(data, ty, cond, mode, out_data, out_headers)
                }
                NativeLevel::Avx2 => {
                    compress_bulk_avx2(data, ty, cond, mode, out_data, out_headers)
                }
            }
        }
    }

    /// Dispatches one bulk expand. Caller guarantees `level` support and
    /// an exactly-sized `dst`.
    pub(super) fn expand(
        level: NativeLevel,
        ty: ElemType,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        vectors: usize,
        dst: &mut [u8],
    ) -> Result<(), ZcompError> {
        unsafe {
            match level {
                NativeLevel::Avx512Vbmi2 => {
                    expand_bulk_512_vbmi2(ty, mode, data, headers, vectors, dst)
                }
                NativeLevel::Avx512 => expand_bulk_512(ty, mode, data, headers, vectors, dst),
                NativeLevel::Avx2 => expand_bulk_avx2(ty, mode, data, headers, vectors, dst),
            }
        }
    }

    // -- shared helpers ------------------------------------------------

    /// Reserves worst-case output capacity: every full-width packed
    /// store needs up to `VECTOR_BYTES` of slack beyond the bytes it
    /// logically appends, and the incompressible upper bound per vector
    /// is exactly `header + VECTOR_BYTES`, so the worst-case reserve
    /// also covers the store slack of the final vector.
    fn reserve_outputs(
        vectors: usize,
        hb: usize,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) {
        match mode {
            HeaderMode::Interleaved => out_data.reserve(vectors * (hb + VECTOR_BYTES)),
            HeaderMode::Separate => {
                out_data.reserve(vectors * VECTOR_BYTES);
                out_headers.reserve(vectors * hb);
            }
        }
    }

    /// Little-endian header load (headers are `lanes / 8` bytes, so the
    /// mask always fits the lane count exactly).
    #[inline(always)]
    fn read_mask_le(src: &[u8]) -> u64 {
        let mut raw = [0u8; 8];
        raw[..src.len()].copy_from_slice(src);
        u64::from_le_bytes(raw)
    }

    /// Writer-identical run-based compaction (AVX2 path for non-F32
    /// dtypes): each run of set mask bits is one contiguous copy.
    ///
    /// # Safety
    ///
    /// `src` must be readable for 64 bytes and `dst` writable for the
    /// packed size.
    #[inline(always)]
    unsafe fn pack_runs(src: *const u8, mut bits: u64, es: usize, dst: *mut u8) {
        let mut off = 0usize;
        while bits != 0 {
            let start = bits.trailing_zeros() as usize;
            let run = (bits >> start).trailing_ones() as usize;
            let nb = run * es;
            ptr::copy_nonoverlapping(src.add(start * es), dst.add(off), nb);
            off += nb;
            if start + run >= 64 {
                break;
            }
            bits &= !(((1u64 << run) - 1) << start);
        }
    }

    /// Reader-identical run-based scatter into a pre-zeroed 64-byte
    /// vector slot.
    ///
    /// # Safety
    ///
    /// `src` must be readable for the packed size and `dst` writable
    /// for 64 bytes.
    #[inline(always)]
    unsafe fn scatter_runs(src: *const u8, mut bits: u64, es: usize, dst: *mut u8) {
        let mut off = 0usize;
        while bits != 0 {
            let start = bits.trailing_zeros() as usize;
            let run = (bits >> start).trailing_ones() as usize;
            let nb = run * es;
            ptr::copy_nonoverlapping(src.add(off), dst.add(start * es), nb);
            off += nb;
            if start + run >= 64 {
                break;
            }
            bits &= !(((1u64 << run) - 1) << start);
        }
    }

    /// Extracts the even bits of `x` (AVX2 `movemask_epi8` yields two
    /// identical bits per 16-bit lane; this folds them to one per lane).
    #[inline(always)]
    fn pack_even_bits(x: u32) -> u64 {
        let mut x = (x & 0x5555_5555) as u64;
        x = (x | (x >> 1)) & 0x3333_3333;
        x = (x | (x >> 2)) & 0x0F0F_0F0F;
        x = (x | (x >> 4)) & 0x00FF_00FF;
        x = (x | (x >> 8)) & 0x0000_FFFF;
        x
    }

    // -- AVX-512 kernels ----------------------------------------------

    #[inline(always)]
    unsafe fn load512(ptr: *const u8) -> __m512i {
        _mm512_loadu_si512(ptr as *const __m512i)
    }

    #[inline(always)]
    unsafe fn store512(ptr: *mut u8, v: __m512i) {
        _mm512_storeu_si512(ptr as *mut __m512i, v)
    }

    /// Keep-mask of one 64-byte vector — the `vcmpps`/`vptestm` half of
    /// `zcomps`. Bit `i` set = lane `i` kept, matching
    /// [`CompareCond::keep_mask`] exactly (NaN kept, `-0.0` compressed,
    /// F16 judged by bit pattern).
    #[inline(always)]
    unsafe fn mask512(src: *const u8, ty: ElemType, cond: CompareCond) -> u64 {
        match ty {
            ElemType::F32 => {
                let v = _mm512_loadu_ps(src as *const f32);
                let z = _mm512_setzero_ps();
                let m = match cond {
                    // NEQ_UQ: unordered (NaN) compares true, +/-0 false.
                    CompareCond::Eqz => _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, z),
                    // NLE_UQ: !(x <= 0), NaN true — keep positives + NaN.
                    CompareCond::Ltez => _mm512_cmp_ps_mask::<_CMP_NLE_UQ>(v, z),
                };
                u64::from(m)
            }
            ElemType::F64 => {
                let v = _mm512_loadu_pd(src as *const f64);
                let z = _mm512_setzero_pd();
                let m = match cond {
                    CompareCond::Eqz => _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, z),
                    CompareCond::Ltez => _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(v, z),
                };
                u64::from(m)
            }
            ElemType::F16 => {
                // Bit-pattern semantics (no fp16 arithmetic): zero iff
                // magnitude bits clear; NaN iff exponent all-ones and
                // mantissa nonzero; sign bit decides <= 0.
                let v = load512(src);
                let mag = _mm512_and_si512(v, _mm512_set1_epi16(0x7FFF));
                let nonzero = _mm512_test_epi16_mask(mag, mag);
                match cond {
                    CompareCond::Eqz => u64::from(nonzero),
                    CompareCond::Ltez => {
                        let exp = _mm512_and_si512(v, _mm512_set1_epi16(0x7C00));
                        let man = _mm512_and_si512(v, _mm512_set1_epi16(0x03FF));
                        let nan = _mm512_cmpeq_epi16_mask(exp, _mm512_set1_epi16(0x7C00))
                            & _mm512_test_epi16_mask(man, man);
                        let neg = _mm512_test_epi16_mask(v, _mm512_set1_epi16(i16::MIN));
                        u64::from(nan | (nonzero & !neg))
                    }
                }
            }
            ElemType::I32 => {
                let v = load512(src);
                let m = match cond {
                    CompareCond::Eqz => _mm512_test_epi32_mask(v, v),
                    CompareCond::Ltez => _mm512_cmpgt_epi32_mask(v, _mm512_setzero_si512()),
                };
                u64::from(m)
            }
            ElemType::I8 => {
                let v = load512(src);
                match cond {
                    CompareCond::Eqz => _mm512_test_epi8_mask(v, v),
                    CompareCond::Ltez => _mm512_cmpgt_epi8_mask(v, _mm512_setzero_si512()),
                }
            }
        }
    }

    /// Compress-store of one vector's kept lanes at `dst` — the
    /// `vcompressps` half of `zcomps`. Writes full registers (callers
    /// reserve `VECTOR_BYTES` of slack); logically appends
    /// `popcount * es` bytes.
    #[inline(always)]
    unsafe fn pack512<const VBMI2: bool>(src: *const u8, mask: u64, ty: ElemType, dst: *mut u8) {
        match ty {
            ElemType::F32 => {
                let v = _mm512_loadu_ps(src as *const f32);
                let c = _mm512_maskz_compress_ps(mask as __mmask16, v);
                _mm512_storeu_ps(dst as *mut f32, c);
            }
            ElemType::F64 => {
                let v = _mm512_loadu_pd(src as *const f64);
                let c = _mm512_maskz_compress_pd(mask as __mmask8, v);
                _mm512_storeu_pd(dst as *mut f64, c);
            }
            ElemType::I32 => {
                let v = load512(src);
                let c = _mm512_maskz_compress_epi32(mask as __mmask16, v);
                store512(dst, c);
            }
            ElemType::F16 => {
                if VBMI2 {
                    let v = load512(src);
                    let c = _mm512_maskz_compress_epi16(mask as __mmask32, v);
                    store512(dst, c);
                } else {
                    // No vpcompressw: widen each 16-lane half to 32-bit,
                    // compress as dwords, narrow back.
                    let mut off = 0usize;
                    for h in 0..2 {
                        let m16 = ((mask >> (16 * h)) & 0xFFFF) as __mmask16;
                        let half = _mm256_loadu_si256(src.add(32 * h) as *const __m256i);
                        let wide = _mm512_cvtepu16_epi32(half);
                        let comp = _mm512_maskz_compress_epi32(m16, wide);
                        let narrow = _mm512_cvtepi32_epi16(comp);
                        _mm256_storeu_si256(dst.add(off) as *mut __m256i, narrow);
                        off += m16.count_ones() as usize * 2;
                    }
                }
            }
            ElemType::I8 => {
                if VBMI2 {
                    let v = load512(src);
                    let c = _mm512_maskz_compress_epi8(mask, v);
                    store512(dst, c);
                } else {
                    // No vpcompressb: widen each 16-lane quarter to
                    // 32-bit, compress as dwords, narrow back.
                    let mut off = 0usize;
                    for q in 0..4 {
                        let m16 = ((mask >> (16 * q)) & 0xFFFF) as __mmask16;
                        let quarter = _mm_loadu_si128(src.add(16 * q) as *const __m128i);
                        let wide = _mm512_cvtepu8_epi32(quarter);
                        let comp = _mm512_maskz_compress_epi32(m16, wide);
                        let narrow = _mm512_cvtepi32_epi8(comp);
                        _mm_storeu_si128(dst.add(off) as *mut __m128i, narrow);
                        off += m16.count_ones() as usize;
                    }
                }
            }
        }
    }

    /// Mask expand of one vector — the `vexpandps` half of `zcompl`.
    /// Reads up to 64 bytes from `src` (callers guarantee the slack) and
    /// writes the full 64-byte vector at `dst`, zero-filling compressed
    /// lanes.
    #[inline(always)]
    unsafe fn scatter512<const VBMI2: bool>(src: *const u8, mask: u64, ty: ElemType, dst: *mut u8) {
        match ty {
            ElemType::F32 => {
                let packed = _mm512_loadu_ps(src as *const f32);
                let e = _mm512_maskz_expand_ps(mask as __mmask16, packed);
                _mm512_storeu_ps(dst as *mut f32, e);
            }
            ElemType::F64 => {
                let packed = _mm512_loadu_pd(src as *const f64);
                let e = _mm512_maskz_expand_pd(mask as __mmask8, packed);
                _mm512_storeu_pd(dst as *mut f64, e);
            }
            ElemType::I32 => {
                let packed = load512(src);
                let e = _mm512_maskz_expand_epi32(mask as __mmask16, packed);
                store512(dst, e);
            }
            ElemType::F16 => {
                if VBMI2 {
                    let packed = load512(src);
                    let e = _mm512_maskz_expand_epi16(mask as __mmask32, packed);
                    store512(dst, e);
                } else {
                    let mut off = 0usize;
                    for h in 0..2 {
                        let m16 = ((mask >> (16 * h)) & 0xFFFF) as __mmask16;
                        let packed = _mm256_loadu_si256(src.add(off) as *const __m256i);
                        let wide = _mm512_cvtepu16_epi32(packed);
                        let e = _mm512_maskz_expand_epi32(m16, wide);
                        let narrow = _mm512_cvtepi32_epi16(e);
                        _mm256_storeu_si256(dst.add(32 * h) as *mut __m256i, narrow);
                        off += m16.count_ones() as usize * 2;
                    }
                }
            }
            ElemType::I8 => {
                if VBMI2 {
                    let packed = load512(src);
                    let e = _mm512_maskz_expand_epi8(mask, packed);
                    store512(dst, e);
                } else {
                    let mut off = 0usize;
                    for q in 0..4 {
                        let m16 = ((mask >> (16 * q)) & 0xFFFF) as __mmask16;
                        let packed = _mm_loadu_si128(src.add(off) as *const __m128i);
                        let wide = _mm512_cvtepu8_epi32(packed);
                        let e = _mm512_maskz_expand_epi32(m16, wide);
                        let narrow = _mm512_cvtepi32_epi8(e);
                        _mm_storeu_si128(dst.add(16 * q) as *mut __m128i, narrow);
                        off += m16.count_ones() as usize;
                    }
                }
            }
        }
    }

    /// The full compress loop, shared by both AVX-512 rungs.
    #[inline(always)]
    unsafe fn compress_bulk_512_impl<const VBMI2: bool>(
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        let vectors = data.len() / VECTOR_BYTES;
        let hb = ty.header_bytes();
        let es = ty.size_bytes();
        reserve_outputs(vectors, hb, mode, out_data, out_headers);
        let dbase = out_data.as_mut_ptr();
        let hbase = out_headers.as_mut_ptr();
        let mut dlen = out_data.len();
        let mut hlen = out_headers.len();
        let mut nnz = 0u64;
        for v in 0..vectors {
            let src = data.as_ptr().add(v * VECTOR_BYTES);
            let mask = mask512(src, ty, cond);
            let hdr = mask.to_le_bytes();
            match mode {
                HeaderMode::Interleaved => {
                    ptr::copy_nonoverlapping(hdr.as_ptr(), dbase.add(dlen), hb);
                    dlen += hb;
                }
                HeaderMode::Separate => {
                    ptr::copy_nonoverlapping(hdr.as_ptr(), hbase.add(hlen), hb);
                    hlen += hb;
                }
            }
            pack512::<VBMI2>(src, mask, ty, dbase.add(dlen));
            let n = mask.count_ones() as usize;
            dlen += n * es;
            nnz += n as u64;
        }
        out_data.set_len(dlen);
        out_headers.set_len(hlen);
        nnz
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn compress_bulk_512(
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        compress_bulk_512_impl::<false>(data, ty, cond, mode, out_data, out_headers)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
    unsafe fn compress_bulk_512_vbmi2(
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        compress_bulk_512_impl::<true>(data, ty, cond, mode, out_data, out_headers)
    }

    /// The full expand loop, shared by both AVX-512 rungs. Mirrors
    /// [`CompressedReader::read_vector`] exactly, including error
    /// offsets on malformed streams.
    #[inline(always)]
    unsafe fn expand_bulk_512_impl<const VBMI2: bool>(
        ty: ElemType,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        vectors: usize,
        dst: &mut [u8],
    ) -> Result<(), ZcompError> {
        let hb = ty.header_bytes();
        let es = ty.size_bytes();
        let out = dst.as_mut_ptr();
        let mut data_pos = 0usize;
        let mut header_pos = 0usize;
        for v in 0..vectors {
            let mask = match mode {
                HeaderMode::Interleaved => {
                    if data_pos + hb > data.len() {
                        return Err(ZcompError::Truncated { offset: data_pos });
                    }
                    let m = read_mask_le(&data[data_pos..data_pos + hb]);
                    data_pos += hb;
                    m
                }
                HeaderMode::Separate => {
                    if header_pos + hb > headers.len() {
                        return Err(ZcompError::Truncated { offset: header_pos });
                    }
                    let m = read_mask_le(&headers[header_pos..header_pos + hb]);
                    header_pos += hb;
                    m
                }
            };
            let payload = mask.count_ones() as usize * es;
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
            scatter512::<VBMI2>(src, mask, ty, out.add(v * VECTOR_BYTES));
            data_pos += payload;
        }
        Ok(())
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn expand_bulk_512(
        ty: ElemType,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        vectors: usize,
        dst: &mut [u8],
    ) -> Result<(), ZcompError> {
        expand_bulk_512_impl::<false>(ty, mode, data, headers, vectors, dst)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
    unsafe fn expand_bulk_512_vbmi2(
        ty: ElemType,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        vectors: usize,
        dst: &mut [u8],
    ) -> Result<(), ZcompError> {
        expand_bulk_512_impl::<true>(ty, mode, data, headers, vectors, dst)
    }

    // -- AVX2 kernels --------------------------------------------------

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

    /// Keep-mask of one 64-byte vector using 256-bit compares +
    /// movemask. Bit-identical to [`mask512`].
    #[inline(always)]
    unsafe fn mask256(src: *const u8, ty: ElemType, cond: CompareCond) -> u64 {
        let mut mask = 0u64;
        match ty {
            ElemType::F32 => {
                let z = _mm256_setzero_ps();
                for h in 0..2 {
                    let v = _mm256_loadu_ps(src.add(32 * h) as *const f32);
                    let c = match cond {
                        CompareCond::Eqz => _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, z),
                        CompareCond::Ltez => _mm256_cmp_ps::<_CMP_NLE_UQ>(v, z),
                    };
                    mask |= ((_mm256_movemask_ps(c) as u64) & 0xFF) << (8 * h);
                }
            }
            ElemType::F64 => {
                let z = _mm256_setzero_pd();
                for h in 0..2 {
                    let v = _mm256_loadu_pd(src.add(32 * h) as *const f64);
                    let c = match cond {
                        CompareCond::Eqz => _mm256_cmp_pd::<_CMP_NEQ_UQ>(v, z),
                        CompareCond::Ltez => _mm256_cmp_pd::<_CMP_NLE_UQ>(v, z),
                    };
                    mask |= ((_mm256_movemask_pd(c) as u64) & 0xF) << (4 * h);
                }
            }
            ElemType::F16 => {
                let z = _mm256_setzero_si256();
                for h in 0..2 {
                    let v = _mm256_loadu_si256(src.add(32 * h) as *const __m256i);
                    let mag = _mm256_and_si256(v, _mm256_set1_epi16(0x7FFF));
                    let zero_m = _mm256_cmpeq_epi16(mag, z);
                    let bits = match cond {
                        CompareCond::Eqz => !(_mm256_movemask_epi8(zero_m) as u32),
                        CompareCond::Ltez => {
                            let exp_eq = _mm256_cmpeq_epi16(
                                _mm256_and_si256(v, _mm256_set1_epi16(0x7C00)),
                                _mm256_set1_epi16(0x7C00),
                            );
                            let man_zero = _mm256_cmpeq_epi16(
                                _mm256_and_si256(v, _mm256_set1_epi16(0x03FF)),
                                z,
                            );
                            let nan_v = _mm256_andnot_si256(man_zero, exp_eq);
                            let nonneg = _mm256_cmpeq_epi16(
                                _mm256_and_si256(v, _mm256_set1_epi16(i16::MIN)),
                                z,
                            );
                            let pos_v = _mm256_andnot_si256(zero_m, nonneg);
                            _mm256_movemask_epi8(_mm256_or_si256(nan_v, pos_v)) as u32
                        }
                    };
                    mask |= pack_even_bits(bits) << (16 * h);
                }
            }
            ElemType::I32 => {
                let z = _mm256_setzero_si256();
                for h in 0..2 {
                    let v = _mm256_loadu_si256(src.add(32 * h) as *const __m256i);
                    let bits = match cond {
                        CompareCond::Eqz => {
                            let eq = _mm256_cmpeq_epi32(v, z);
                            !(_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u64) & 0xFF
                        }
                        CompareCond::Ltez => {
                            let gt = _mm256_cmpgt_epi32(v, z);
                            (_mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u64) & 0xFF
                        }
                    };
                    mask |= bits << (8 * h);
                }
            }
            ElemType::I8 => {
                let z = _mm256_setzero_si256();
                for h in 0..2 {
                    let v = _mm256_loadu_si256(src.add(32 * h) as *const __m256i);
                    let bits = match cond {
                        CompareCond::Eqz => !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, z)) as u32),
                        CompareCond::Ltez => _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, z)) as u32,
                    };
                    mask |= u64::from(bits) << (32 * h);
                }
            }
        }
        mask
    }

    #[target_feature(enable = "avx,avx2")]
    unsafe fn compress_bulk_avx2(
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
        out_data: &mut Vec<u8>,
        out_headers: &mut Vec<u8>,
    ) -> u64 {
        let vectors = data.len() / VECTOR_BYTES;
        let hb = ty.header_bytes();
        let es = ty.size_bytes();
        reserve_outputs(vectors, hb, mode, out_data, out_headers);
        let dbase = out_data.as_mut_ptr();
        let hbase = out_headers.as_mut_ptr();
        let mut dlen = out_data.len();
        let mut hlen = out_headers.len();
        let mut nnz = 0u64;
        for v in 0..vectors {
            let src = data.as_ptr().add(v * VECTOR_BYTES);
            let mask = mask256(src, ty, cond);
            let hdr = mask.to_le_bytes();
            match mode {
                HeaderMode::Interleaved => {
                    ptr::copy_nonoverlapping(hdr.as_ptr(), dbase.add(dlen), hb);
                    dlen += hb;
                }
                HeaderMode::Separate => {
                    ptr::copy_nonoverlapping(hdr.as_ptr(), hbase.add(hlen), hb);
                    hlen += hb;
                }
            }
            match ty {
                ElemType::F32 => {
                    // LUT-driven vpermps compaction, one 8-lane half at
                    // a time. Stores write full 32-byte registers into
                    // the reserved slack.
                    let mut off = 0usize;
                    for h in 0..2 {
                        let m8 = ((mask >> (8 * h)) & 0xFF) as usize;
                        let half = _mm256_loadu_ps(src.add(32 * h) as *const f32);
                        let idx = _mm256_loadu_si256(COMPRESS_IDX[m8].as_ptr() as *const __m256i);
                        let packed = _mm256_permutevar8x32_ps(half, idx);
                        _mm256_storeu_ps(dbase.add(dlen + off) as *mut f32, packed);
                        off += (m8.count_ones() as usize) * 4;
                    }
                }
                _ => pack_runs(src, mask, es, dbase.add(dlen)),
            }
            let n = mask.count_ones() as usize;
            dlen += n * es;
            nnz += n as u64;
        }
        out_data.set_len(dlen);
        out_headers.set_len(hlen);
        nnz
    }

    #[target_feature(enable = "avx,avx2")]
    unsafe fn expand_bulk_avx2(
        ty: ElemType,
        mode: HeaderMode,
        data: &[u8],
        headers: &[u8],
        vectors: usize,
        dst: &mut [u8],
    ) -> Result<(), ZcompError> {
        let hb = ty.header_bytes();
        let es = ty.size_bytes();
        let out = dst.as_mut_ptr();
        let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let mut data_pos = 0usize;
        let mut header_pos = 0usize;
        for v in 0..vectors {
            let mask = match mode {
                HeaderMode::Interleaved => {
                    if data_pos + hb > data.len() {
                        return Err(ZcompError::Truncated { offset: data_pos });
                    }
                    let m = read_mask_le(&data[data_pos..data_pos + hb]);
                    data_pos += hb;
                    m
                }
                HeaderMode::Separate => {
                    if header_pos + hb > headers.len() {
                        return Err(ZcompError::Truncated { offset: header_pos });
                    }
                    let m = read_mask_le(&headers[header_pos..header_pos + hb]);
                    header_pos += hb;
                    m
                }
            };
            let payload = mask.count_ones() as usize * es;
            if data_pos + payload > data.len() {
                return Err(ZcompError::Truncated { offset: data_pos });
            }
            let chunk = out.add(v * VECTOR_BYTES);
            match ty {
                ElemType::F32 => {
                    let mut tail = [0u8; VECTOR_BYTES];
                    let src = if data_pos + VECTOR_BYTES <= data.len() {
                        data.as_ptr().add(data_pos)
                    } else {
                        ptr::copy_nonoverlapping(
                            data.as_ptr().add(data_pos),
                            tail.as_mut_ptr(),
                            payload,
                        );
                        tail.as_ptr()
                    };
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
                        let res = _mm256_and_ps(perm, _mm256_castsi256_ps(sel));
                        _mm256_storeu_ps(chunk.add(32 * h) as *mut f32, res);
                        off += (m8.count_ones() as usize) * 4;
                    }
                }
                _ => {
                    // Zero the slot, then run-scatter the payload.
                    let z = _mm256_setzero_si256();
                    _mm256_storeu_si256(chunk as *mut __m256i, z);
                    _mm256_storeu_si256(chunk.add(32) as *mut __m256i, z);
                    scatter_runs(data.as_ptr().add(data_pos), mask, es, chunk);
                }
            }
            data_pos += payload;
        }
        Ok(())
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
    }

    #[test]
    fn best_level_is_first_listed() {
        assert_eq!(best_level(), available_levels().first().copied());
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
