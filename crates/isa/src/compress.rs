//! High-level compress / expand helpers over `f32` slices.
//!
//! These wrap [`CompressedWriter`] / [`CompressedReader`](crate::stream::CompressedReader) for the crate's
//! default element type (fp32, as in the paper's evaluation) and collect the
//! summary statistics the experiments need.

use serde::{Deserialize, Serialize};

use crate::ccf::CompareCond;
use crate::dtype::ElemType;
use crate::error::ZcompError;
use crate::native::{self, CodecBackend};
use crate::stream::{CompressedStream, CompressedWriter, HeaderMode};
use crate::vec512::Vec512;

/// Summary statistics of a compressed stream.
///
/// # Example
///
/// ```
/// use zcomp_isa::compress::{compress_f32, CompressedStats};
/// use zcomp_isa::ccf::CompareCond;
///
/// let data = vec![0.0f32; 64]; // four all-zero vectors
/// let stream = compress_f32(&data, CompareCond::Eqz)?;
/// let stats = CompressedStats::of(&stream);
/// assert_eq!(stats.vectors, 4);
/// assert_eq!(stats.compressed_bytes, 8); // four 2-byte headers
/// assert!((stats.sparsity - 1.0).abs() < 1e-12);
/// # Ok::<(), zcomp_isa::error::ZcompError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressedStats {
    /// Number of 512-bit vectors in the stream.
    pub vectors: usize,
    /// Bytes of the uncompressed representation.
    pub uncompressed_bytes: usize,
    /// Bytes stored (data region plus any separate header store).
    pub compressed_bytes: usize,
    /// Fraction of lanes that were compressed away (0.0–1.0).
    pub sparsity: f64,
    /// Compression ratio `uncompressed / compressed`.
    pub ratio: f64,
    /// Whether an interleaved stream fits the original allocation (§4.1).
    pub fits_original: bool,
}

impl CompressedStats {
    /// Computes the statistics of a finished stream.
    pub fn of(stream: &CompressedStream) -> Self {
        let lanes_total = stream.elements() as u64;
        let sparsity = if lanes_total == 0 {
            0.0
        } else {
            1.0 - stream.total_nnz() as f64 / lanes_total as f64
        };
        CompressedStats {
            vectors: stream.vectors(),
            uncompressed_bytes: stream.uncompressed_bytes(),
            compressed_bytes: stream.compressed_bytes(),
            sparsity,
            ratio: stream.compression_ratio(),
            fits_original: stream.fits_original_allocation(),
        }
    }
}

/// Compresses an `f32` slice with an interleaved header.
///
/// # Errors
///
/// Returns [`ZcompError::PartialVector`] if `data.len()` is not a multiple
/// of 16 — ZCOMP operates on whole vectors and the evaluated DNN frameworks
/// allocate feature maps in full vectors; pad the tail if needed.
pub fn compress_f32(data: &[f32], cond: CompareCond) -> Result<CompressedStream, ZcompError> {
    compress_f32_with(data, cond, HeaderMode::Interleaved)
}

/// Compresses an `f32` slice with the chosen header mode, using the
/// process-default [`CodecBackend`].
///
/// # Errors
///
/// Returns [`ZcompError::PartialVector`] if `data.len()` is not a multiple
/// of 16.
pub fn compress_f32_with(
    data: &[f32],
    cond: CompareCond,
    mode: HeaderMode,
) -> Result<CompressedStream, ZcompError> {
    compress_f32_with_backend(data, cond, mode, CodecBackend::detect())
}

/// Compresses an `f32` slice through an explicitly chosen backend.
///
/// [`CodecBackend::Native`] silently degrades to the scalar path on hosts
/// with no supported vector extension; both backends produce byte-identical
/// streams.
///
/// # Errors
///
/// Returns [`ZcompError::PartialVector`] if `data.len()` is not a multiple
/// of 16.
pub fn compress_f32_with_backend(
    data: &[f32],
    cond: CompareCond,
    mode: HeaderMode,
    backend: CodecBackend,
) -> Result<CompressedStream, ZcompError> {
    let _span = zcomp_trace::tracer::span("isa", "compress_f32");
    let lanes = ElemType::F32.lanes();
    if !data.len().is_multiple_of(lanes) {
        return Err(ZcompError::PartialVector {
            len: data.len(),
            lanes,
        });
    }
    let stream = match backend {
        CodecBackend::Native => {
            match native::compress_to_stream(native::f32_as_bytes(data), ElemType::F32, cond, mode)
            {
                Some(stream) => stream,
                None => compress_f32_scalar(data, cond, mode)?,
            }
        }
        CodecBackend::Scalar => compress_f32_scalar(data, cond, mode)?,
    };
    if zcomp_trace::tracer::enabled() {
        zcomp_trace::tracer::counter("isa.compression_ratio", stream.compression_ratio());
        zcomp_trace::tracer::counter("isa.compressed_bytes", stream.compressed_bytes() as f64);
    }
    Ok(stream)
}

/// The reference lane-at-a-time writer loop (the oracle path).
fn compress_f32_scalar(
    data: &[f32],
    cond: CompareCond,
    mode: HeaderMode,
) -> Result<CompressedStream, ZcompError> {
    let lanes = ElemType::F32.lanes();
    let mut w = CompressedWriter::new(ElemType::F32, mode);
    // No sparsity estimate is available here, so reserve the
    // incompressible upper bound — one allocation instead of log2(n)
    // growth doublings.
    w.reserve_vectors(data.len() / lanes, 1.0);
    for chunk in data.chunks_exact(lanes) {
        let v = Vec512::from_f32_lanes(chunk);
        // The writer is unbounded so this cannot overflow, but forward the
        // typed error rather than panicking on a fallible stream operation.
        w.write_vector(&v, cond)?;
    }
    Ok(w.finish())
}

/// Expands a compressed stream back into an `f32` vector.
///
/// Compressed lanes expand to `0.0`. If the stream was written with
/// [`CompareCond::Ltez`], the result is the ReLU of the original input.
///
/// # Errors
///
/// Returns [`ZcompError::Truncated`] if the stream is malformed.
pub fn expand_f32(stream: &CompressedStream) -> Result<Vec<f32>, ZcompError> {
    let _span = zcomp_trace::tracer::span("isa", "expand_f32");
    let mut out = vec![0.0f32; stream.elements()];
    let written = expand_f32_into(stream, &mut out)?;
    debug_assert_eq!(written, out.len());
    Ok(out)
}

/// Expands a stream into a caller-provided buffer, returning the element
/// count written.
///
/// # Errors
///
/// Returns [`ZcompError::DestinationTooSmall`] if `dst` cannot hold the
/// stream's elements, or [`ZcompError::Truncated`] for a malformed stream.
pub fn expand_f32_into(stream: &CompressedStream, dst: &mut [f32]) -> Result<usize, ZcompError> {
    expand_f32_into_with_backend(stream, dst, CodecBackend::detect())
}

/// Expands a stream into a caller-provided buffer through an explicitly
/// chosen backend, returning the element count written.
///
/// # Errors
///
/// Returns [`ZcompError::DestinationTooSmall`] if `dst` cannot hold the
/// stream's elements, or [`ZcompError::Truncated`] for a malformed stream.
pub fn expand_f32_into_with_backend(
    stream: &CompressedStream,
    dst: &mut [f32],
    backend: CodecBackend,
) -> Result<usize, ZcompError> {
    let _span = zcomp_trace::tracer::span("isa", "expand_f32_into");
    let needed = stream.elements();
    if dst.len() < needed {
        return Err(ZcompError::DestinationTooSmall {
            needed,
            available: dst.len(),
        });
    }
    if backend == CodecBackend::Native {
        let bytes = native::f32_as_bytes_mut(&mut dst[..needed]);
        if let Some(result) = native::expand_into(stream, bytes) {
            result?;
            return Ok(needed);
        }
    }
    let mut r = stream.reader();
    let mut pos = 0;
    while let Some(v) = r.read_vector()? {
        dst[pos..pos + 16].copy_from_slice(&v.to_f32_lanes());
        pos += 16;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_eqz_is_lossless() {
        let data: Vec<f32> = (0..64)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let stream = compress_f32(&data, CompareCond::Eqz).unwrap();
        assert_eq!(expand_f32(&stream).unwrap(), data);
    }

    #[test]
    fn roundtrip_ltez_applies_relu() {
        let data: Vec<f32> = (0..32).map(|i| i as f32 - 16.0).collect();
        let stream = compress_f32(&data, CompareCond::Ltez).unwrap();
        let relu: Vec<f32> = data.iter().map(|&x| x.max(0.0)).collect();
        assert_eq!(expand_f32(&stream).unwrap(), relu);
    }

    #[test]
    fn partial_vector_is_rejected() {
        let err = compress_f32(&[1.0; 17], CompareCond::Eqz).unwrap_err();
        assert_eq!(err, ZcompError::PartialVector { len: 17, lanes: 16 });
    }

    #[test]
    fn stats_track_sparsity() {
        let mut data = vec![0.0f32; 32];
        data[0] = 1.0; // 1 kept lane out of 32
        let stream = compress_f32(&data, CompareCond::Eqz).unwrap();
        let stats = CompressedStats::of(&stream);
        assert!((stats.sparsity - 31.0 / 32.0).abs() < 1e-12);
        assert!(stats.fits_original);
        assert_eq!(stats.compressed_bytes, 2 * 2 + 4);
    }

    #[test]
    fn expand_into_smaller_buffer_fails() {
        let stream = compress_f32(&[0.0; 32], CompareCond::Eqz).unwrap();
        let mut dst = [0.0f32; 16];
        let err = expand_f32_into(&stream, &mut dst).unwrap_err();
        assert_eq!(
            err,
            ZcompError::DestinationTooSmall {
                needed: 32,
                available: 16
            }
        );
    }

    #[test]
    fn expand_into_exact_buffer() {
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let stream = compress_f32(&data, CompareCond::Eqz).unwrap();
        let mut dst = [0.0f32; 16];
        assert_eq!(expand_f32_into(&stream, &mut dst).unwrap(), 16);
        assert_eq!(&dst[..], &data[..]);
    }

    #[test]
    fn separate_and_interleaved_store_same_total_bytes() {
        let data: Vec<f32> = (0..256)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.5 })
            .collect();
        let inter = compress_f32_with(&data, CompareCond::Eqz, HeaderMode::Interleaved).unwrap();
        let sep = compress_f32_with(&data, CompareCond::Eqz, HeaderMode::Separate).unwrap();
        assert_eq!(inter.compressed_bytes(), sep.compressed_bytes());
        assert_eq!(expand_f32(&inter).unwrap(), expand_f32(&sep).unwrap());
    }

    #[test]
    fn empty_input_compresses_to_empty_stream() {
        let stream = compress_f32(&[], CompareCond::Eqz).unwrap();
        assert_eq!(stream.vectors(), 0);
        assert_eq!(stream.compressed_bytes(), 0);
        assert_eq!(expand_f32(&stream).unwrap(), Vec::<f32>::new());
        assert_eq!(stream.compression_ratio(), 1.0);
    }
}
