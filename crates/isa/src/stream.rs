//! Byte-exact compressed stream layout: writer and reader.
//!
//! A ZCOMP stream is the sequence of bytes `zcomps` produces in memory. In
//! *interleaved* mode every vector contributes `header ++ packed lanes`; in
//! *separate* mode the headers go to an independent header store (§3.2) and
//! the data region holds only packed lanes.

use serde::{Deserialize, Serialize};

use crate::ccf::CompareCond;
use crate::dtype::ElemType;
use crate::error::ZcompError;
use crate::header::Header;
use crate::vec512::Vec512;
use crate::VECTOR_BYTES;

/// Where compression headers are stored (§3.1 vs §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeaderMode {
    /// Header precedes each vector's packed data in the same region.
    Interleaved,
    /// Headers live in a separately allocated, separately pointed store.
    Separate,
}

impl std::fmt::Display for HeaderMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HeaderMode::Interleaved => "interleaved",
            HeaderMode::Separate => "separate",
        })
    }
}

/// An owned, finished compressed stream.
///
/// Produced by [`CompressedWriter::finish`]; consumed by
/// [`CompressedReader`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedStream {
    ty: ElemType,
    mode: HeaderMode,
    data: Vec<u8>,
    headers: Vec<u8>,
    vectors: usize,
    total_nnz: u64,
}

impl CompressedStream {
    /// Assembles a stream directly from its parts — the native SIMD
    /// backend's exit point, bypassing [`CompressedWriter`].
    ///
    /// The caller is responsible for layout correctness (the native
    /// backend is differentially tested against the writer for
    /// byte-identity; see [`native`](crate::native)).
    pub(crate) fn from_raw_parts(
        ty: ElemType,
        mode: HeaderMode,
        data: Vec<u8>,
        headers: Vec<u8>,
        vectors: usize,
        total_nnz: u64,
    ) -> Self {
        CompressedStream {
            ty,
            mode,
            data,
            headers,
            vectors,
            total_nnz,
        }
    }

    /// Element type of the stream.
    pub fn elem_type(&self) -> ElemType {
        self.ty
    }

    /// Header placement mode of the stream.
    pub fn header_mode(&self) -> HeaderMode {
        self.mode
    }

    /// Number of vectors in the stream.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Number of elements the stream expands to.
    pub fn elements(&self) -> usize {
        self.vectors * self.ty.lanes()
    }

    /// Total kept (uncompressed) elements across the stream.
    pub fn total_nnz(&self) -> u64 {
        self.total_nnz
    }

    /// Bytes in the data region (includes headers when interleaved).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes in the separate header store (zero when interleaved).
    pub fn header_bytes(&self) -> usize {
        self.headers.len()
    }

    /// Total stored bytes: data region plus separate header store.
    pub fn compressed_bytes(&self) -> usize {
        self.data.len() + self.headers.len()
    }

    /// Bytes the uncompressed representation occupies.
    pub fn uncompressed_bytes(&self) -> usize {
        self.vectors * VECTOR_BYTES
    }

    /// Compression ratio `uncompressed / compressed` (higher is better).
    ///
    /// Returns 1.0 for an empty stream.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            1.0
        } else {
            self.uncompressed_bytes() as f64 / self.compressed_bytes() as f64
        }
    }

    /// Whether the interleaved stream fits inside the original
    /// (uncompressed) allocation — the §4.1 condition for reusing the
    /// original virtual memory allocation unchanged.
    pub fn fits_original_allocation(&self) -> bool {
        match self.mode {
            HeaderMode::Interleaved => self.data.len() <= self.uncompressed_bytes(),
            // Separate mode keeps the data region within the original
            // allocation by construction; headers are a new allocation.
            HeaderMode::Separate => true,
        }
    }

    /// Raw data-region bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Raw separate-header bytes.
    pub fn headers(&self) -> &[u8] {
        &self.headers
    }

    /// Creates a reader positioned at the start of the stream.
    pub fn reader(&self) -> CompressedReader<'_> {
        CompressedReader {
            stream: self,
            data_pos: 0,
            header_pos: 0,
            vectors_read: 0,
        }
    }

    /// Validates the structural integrity of the stream without decoding
    /// lane data: every header must be readable, every declared payload
    /// must lie inside the data region, and at the end of the walk the
    /// regions and the header-popcount sum must reconcile exactly with the
    /// recorded geometry (`vectors`, `total_nnz`, region lengths).
    ///
    /// This is the software analogue of the integrity check a hardware
    /// `zcompl` prefetcher could perform: it costs a header walk, not a
    /// full expansion. It detects every corruption that changes the
    /// stream's length chain — in particular, every single-bit header flip
    /// in [`HeaderMode::Separate`] mode, where header positions are fixed
    /// and a popcount change always breaks length reconciliation. In
    /// [`HeaderMode::Interleaved`] mode a flipped header shifts where
    /// subsequent headers are read from, and the garbage walk can in rare
    /// cases re-reconcile coincidentally; pair with a
    /// [`StreamChecksum`](crate::integrity::StreamChecksum) sidecar for
    /// guaranteed detection.
    ///
    /// # Errors
    ///
    /// * [`ZcompError::Truncated`] — a header read would cross the end of
    ///   its region (the stream ends inside a vector).
    /// * [`ZcompError::CorruptHeader`] — a header declares a packed
    ///   payload that runs past the end of the data region.
    /// * [`ZcompError::Desynchronized`] — the walk completes but leaves
    ///   trailing bytes, consumes a region short, or produces a popcount
    ///   sum that disagrees with the recorded element count.
    pub fn validate(&self) -> Result<(), ZcompError> {
        let ty = self.ty;
        let hb = ty.header_bytes();
        let es = ty.size_bytes();
        let mut data_pos = 0usize;
        let mut header_pos = 0usize;
        let mut nnz_sum = 0u64;
        for vector in 0..self.vectors {
            let header = match self.mode {
                HeaderMode::Interleaved => {
                    if data_pos + hb > self.data.len() {
                        return Err(ZcompError::Truncated { offset: data_pos });
                    }
                    let h = Header::read_from(ty, &self.data[data_pos..data_pos + hb]);
                    data_pos += hb;
                    h
                }
                HeaderMode::Separate => {
                    if header_pos + hb > self.headers.len() {
                        return Err(ZcompError::Truncated { offset: header_pos });
                    }
                    let h = Header::read_from(ty, &self.headers[header_pos..header_pos + hb]);
                    header_pos += hb;
                    h
                }
            };
            let payload = header.nnz() as usize * es;
            if data_pos + payload > self.data.len() {
                let header_start = match self.mode {
                    HeaderMode::Interleaved => data_pos - hb,
                    HeaderMode::Separate => header_pos - hb,
                };
                return Err(ZcompError::CorruptHeader {
                    vector,
                    offset: header_start,
                });
            }
            nnz_sum += u64::from(header.nnz());
            data_pos += payload;
        }
        if data_pos != self.data.len() {
            return Err(ZcompError::Desynchronized {
                vector: self.vectors,
                offset: data_pos,
            });
        }
        if header_pos != self.headers.len() {
            return Err(ZcompError::Desynchronized {
                vector: self.vectors,
                offset: header_pos,
            });
        }
        if nnz_sum != self.total_nnz {
            return Err(ZcompError::Desynchronized {
                vector: self.vectors,
                offset: data_pos,
            });
        }
        Ok(())
    }

    /// Flips one bit of the stream in place: `region`/`byte` select the
    /// byte, `bit` (taken modulo 8) selects the bit within it.
    ///
    /// This is the fault-injection entry point: the simulator reports
    /// corruption events as (region, byte, bit) triples and the kernel
    /// layer applies them here so that faults land in the actual modeled
    /// stream bytes. Returns `false` (stream unchanged) when `byte` is out
    /// of range for the region.
    pub fn flip_bit(
        &mut self,
        region: crate::integrity::StreamRegion,
        byte: usize,
        bit: u8,
    ) -> bool {
        let target = match region {
            crate::integrity::StreamRegion::Data => self.data.get_mut(byte),
            crate::integrity::StreamRegion::Headers => self.headers.get_mut(byte),
        };
        match target {
            Some(b) => {
                *b ^= 1 << (bit & 7);
                true
            }
            None => false,
        }
    }
}

/// Incremental stream writer — the software-visible effect of executing
/// `zcomps` in a loop with an auto-incrementing compressed-data pointer.
///
/// # Example
///
/// ```
/// use zcomp_isa::stream::{CompressedWriter, HeaderMode};
/// use zcomp_isa::ccf::CompareCond;
/// use zcomp_isa::dtype::ElemType;
/// use zcomp_isa::vec512::Vec512;
///
/// let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
/// let mut v = Vec512::new();
/// v.set_f32_lane(0, 1.0);
/// let header = w.write_vector(&v, CompareCond::Eqz)?;
/// assert_eq!(header.nnz(), 1);
/// let stream = w.finish();
/// assert_eq!(stream.compressed_bytes(), 2 + 4); // header + one fp32
/// # Ok::<(), zcomp_isa::error::ZcompError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompressedWriter {
    ty: ElemType,
    mode: HeaderMode,
    data: Vec<u8>,
    headers: Vec<u8>,
    vectors: usize,
    total_nnz: u64,
    data_limit: Option<usize>,
    header_limit: Option<usize>,
}

impl CompressedWriter {
    /// Creates a writer with unbounded destination buffers.
    pub fn new(ty: ElemType, mode: HeaderMode) -> Self {
        CompressedWriter {
            ty,
            mode,
            data: Vec::new(),
            headers: Vec::new(),
            vectors: 0,
            total_nnz: 0,
            data_limit: None,
            header_limit: None,
        }
    }

    /// Creates a writer that enforces destination capacities, modelling the
    /// §4.1 memory-violation hazard: a write that would exceed `data_limit`
    /// bytes (or `header_limit` bytes for the separate store) fails.
    pub fn with_limits(
        ty: ElemType,
        mode: HeaderMode,
        data_limit: Option<usize>,
        header_limit: Option<usize>,
    ) -> Self {
        CompressedWriter {
            data_limit,
            header_limit,
            ..CompressedWriter::new(ty, mode)
        }
    }

    /// Element type being written.
    pub fn elem_type(&self) -> ElemType {
        self.ty
    }

    /// Preallocates the destination buffers for `vectors` more vectors
    /// whose expected kept-lane fraction is `density` (1.0 =
    /// incompressible).
    ///
    /// Purely an allocation hint — stream contents and error behaviour are
    /// unaffected. An inaccurate hint costs at most one extra growth
    /// doubling, so callers round `density` up rather than down.
    pub fn reserve_vectors(&mut self, vectors: usize, density: f64) {
        let hb = self.ty.header_bytes();
        let lane_bytes = self.ty.lanes() * self.ty.size_bytes();
        let payload = (lane_bytes as f64 * density.clamp(0.0, 1.0)).ceil() as usize;
        match self.mode {
            HeaderMode::Interleaved => self.data.reserve(vectors * (hb + payload)),
            HeaderMode::Separate => {
                self.data.reserve(vectors * payload);
                self.headers.reserve(vectors * hb);
            }
        }
    }

    /// Current data-region write offset — the value the auto-incremented
    /// `reg2` pointer would hold.
    pub fn data_offset(&self) -> usize {
        self.data.len()
    }

    /// Current header-store write offset (`reg3` in separate mode).
    pub fn header_offset(&self) -> usize {
        self.headers.len()
    }

    /// Compresses and appends one vector; returns the header it produced.
    ///
    /// This is the functional semantics of one `zcomps` execution: compare
    /// lanes against `cond`, emit the keep-mask header, append packed kept
    /// lanes, advance the pointer(s).
    ///
    /// # Errors
    ///
    /// Returns [`ZcompError::BufferOverflow`] / [`ZcompError::HeaderOverflow`]
    /// when a capacity limit configured via [`with_limits`](Self::with_limits)
    /// would be exceeded. The stream is left unchanged on error.
    pub fn write_vector(&mut self, v: &Vec512, cond: CompareCond) -> Result<Header, ZcompError> {
        let mask = cond.keep_mask(v, self.ty);
        let header = Header::new(mask);
        let data_bytes = match self.mode {
            HeaderMode::Interleaved => header.total_bytes(self.ty),
            HeaderMode::Separate => header.compressed_data_bytes(self.ty),
        };
        if let Some(limit) = self.data_limit {
            if self.data.len() + data_bytes > limit {
                return Err(ZcompError::BufferOverflow {
                    needed: data_bytes,
                    available: limit - self.data.len(),
                });
            }
        }
        if self.mode == HeaderMode::Separate {
            if let Some(limit) = self.header_limit {
                if self.headers.len() + self.ty.header_bytes() > limit {
                    return Err(ZcompError::HeaderOverflow {
                        needed: self.ty.header_bytes(),
                        available: limit - self.headers.len(),
                    });
                }
            }
        }

        let mut header_buf = [0u8; 8];
        let hb = self.ty.header_bytes();
        header.write_to(self.ty, &mut header_buf[..hb]);
        match self.mode {
            HeaderMode::Interleaved => self.data.extend_from_slice(&header_buf[..hb]),
            HeaderMode::Separate => self.headers.extend_from_slice(&header_buf[..hb]),
        }
        // Word-level compaction: kept lanes are contiguous in the source
        // register wherever the mask has a run of set bits, so each run
        // becomes one bulk copy instead of a per-lane append. Packed order
        // is identical to the lane-at-a-time loop (runs are visited low
        // lane first).
        let es = self.ty.size_bytes();
        let src = v.as_bytes();
        let mut bits = mask.bits();
        while bits != 0 {
            let start = bits.trailing_zeros() as usize;
            let run = (bits >> start).trailing_ones() as usize;
            self.data
                .extend_from_slice(&src[start * es..(start + run) * es]);
            if start + run >= 64 {
                break; // run reached the top bit; nothing left to clear
            }
            bits &= !(((1u64 << run) - 1) << start);
        }
        self.vectors += 1;
        self.total_nnz += u64::from(header.nnz());
        Ok(header)
    }

    /// Finalizes the writer into an immutable [`CompressedStream`].
    pub fn finish(self) -> CompressedStream {
        CompressedStream {
            ty: self.ty,
            mode: self.mode,
            data: self.data,
            headers: self.headers,
            vectors: self.vectors,
            total_nnz: self.total_nnz,
        }
    }
}

/// Sequential stream reader — the functional semantics of `zcompl` in a
/// loop.
///
/// Reads are strictly sequential: the size of vector *n+1* is only known
/// after vector *n*'s header has been decoded. This is the property that
/// motivates the paper's partitioned parallelization (§4.3): random element
/// retrieval is traded away.
#[derive(Debug, Clone)]
pub struct CompressedReader<'a> {
    stream: &'a CompressedStream,
    data_pos: usize,
    header_pos: usize,
    vectors_read: usize,
}

impl<'a> CompressedReader<'a> {
    /// Number of vectors decoded so far.
    pub fn vectors_read(&self) -> usize {
        self.vectors_read
    }

    /// Current data-region read offset (auto-incremented `reg2`).
    pub fn data_offset(&self) -> usize {
        self.data_pos
    }

    /// Decodes the next vector, or returns `Ok(None)` at end of stream.
    ///
    /// Compressed lanes expand to zero; kept lanes are scattered back to the
    /// lane positions recorded in the header (Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns [`ZcompError::Truncated`] if the stream ends inside a header
    /// or packed-lane group.
    pub fn read_vector(&mut self) -> Result<Option<Vec512>, ZcompError> {
        if self.vectors_read == self.stream.vectors {
            return Ok(None);
        }
        let ty = self.stream.ty;
        let hb = ty.header_bytes();
        let header = match self.stream.mode {
            HeaderMode::Interleaved => {
                if self.data_pos + hb > self.stream.data.len() {
                    return Err(ZcompError::Truncated {
                        offset: self.data_pos,
                    });
                }
                let h = Header::read_from(ty, &self.stream.data[self.data_pos..self.data_pos + hb]);
                self.data_pos += hb;
                h
            }
            HeaderMode::Separate => {
                if self.header_pos + hb > self.stream.headers.len() {
                    return Err(ZcompError::Truncated {
                        offset: self.header_pos,
                    });
                }
                let h = Header::read_from(
                    ty,
                    &self.stream.headers[self.header_pos..self.header_pos + hb],
                );
                self.header_pos += hb;
                h
            }
        };
        let payload = header.compressed_data_bytes(ty);
        if self.data_pos + payload > self.stream.data.len() {
            return Err(ZcompError::Truncated {
                offset: self.data_pos,
            });
        }
        let mut v = Vec512::ZERO;
        let es = ty.size_bytes();
        // Run-based scatter, mirroring the writer's compaction: each run
        // of set header bits is one contiguous copy from the packed
        // payload into the destination lanes.
        let out = v.as_bytes_mut();
        let mut bits = header.mask().bits();
        let mut src = self.data_pos;
        while bits != 0 {
            let start = bits.trailing_zeros() as usize;
            let run = (bits >> start).trailing_ones() as usize;
            let n = run * es;
            out[start * es..start * es + n].copy_from_slice(&self.stream.data[src..src + n]);
            src += n;
            if start + run >= 64 {
                break;
            }
            bits &= !(((1u64 << run) - 1) << start);
        }
        self.data_pos += payload;
        self.vectors_read += 1;
        Ok(Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_with(lanes: &[(usize, f32)]) -> Vec512 {
        let mut v = Vec512::ZERO;
        for &(i, x) in lanes {
            v.set_f32_lane(i, x);
        }
        v
    }

    #[test]
    fn interleaved_roundtrip() {
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
        let v0 = vec_with(&[(0, 1.0), (5, -2.0), (15, 3.0)]);
        let v1 = Vec512::ZERO;
        let v2 = vec_with(&[(7, 9.0)]);
        for v in [&v0, &v1, &v2] {
            w.write_vector(v, CompareCond::Eqz).unwrap();
        }
        let s = w.finish();
        assert_eq!(s.vectors(), 3);
        assert_eq!(s.total_nnz(), 4);
        // 3 headers (2B each) + 4 elements (4B each) = 22 bytes.
        assert_eq!(s.compressed_bytes(), 22);
        let mut r = s.reader();
        assert_eq!(r.read_vector().unwrap(), Some(v0));
        assert_eq!(r.read_vector().unwrap(), Some(v1));
        assert_eq!(r.read_vector().unwrap(), Some(v2));
        assert_eq!(r.read_vector().unwrap(), None);
    }

    #[test]
    fn separate_header_roundtrip() {
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Separate);
        let v0 = vec_with(&[(2, 4.0)]);
        w.write_vector(&v0, CompareCond::Eqz).unwrap();
        let s = w.finish();
        assert_eq!(s.data_bytes(), 4);
        assert_eq!(s.header_bytes(), 2);
        let mut r = s.reader();
        assert_eq!(r.read_vector().unwrap(), Some(v0));
    }

    #[test]
    fn ltez_applies_relu_on_expand() {
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
        let v = vec_with(&[(0, -5.0), (1, 5.0)]);
        w.write_vector(&v, CompareCond::Ltez).unwrap();
        let s = w.finish();
        let got = s.reader().read_vector().unwrap().unwrap();
        assert_eq!(got.f32_lane(0), 0.0, "negative lane becomes 0 (ReLU)");
        assert_eq!(got.f32_lane(1), 5.0);
    }

    #[test]
    fn data_limit_models_memory_violation() {
        // One full vector (all lanes kept) needs 66 bytes interleaved; a
        // 64-byte original allocation overflows (§4.1).
        let mut w =
            CompressedWriter::with_limits(ElemType::F32, HeaderMode::Interleaved, Some(64), None);
        let v = Vec512::from_f32_lanes(&[1.0; 16]);
        let err = w.write_vector(&v, CompareCond::Eqz).unwrap_err();
        assert_eq!(
            err,
            ZcompError::BufferOverflow {
                needed: 66,
                available: 64
            }
        );
        // The stream must be unchanged after the failed write.
        assert_eq!(w.data_offset(), 0);
    }

    #[test]
    fn header_limit_in_separate_mode() {
        let mut w =
            CompressedWriter::with_limits(ElemType::F32, HeaderMode::Separate, None, Some(1));
        let err = w.write_vector(&Vec512::ZERO, CompareCond::Eqz).unwrap_err();
        assert!(matches!(err, ZcompError::HeaderOverflow { .. }));
    }

    #[test]
    fn separate_mode_never_overflows_original_data_allocation() {
        let mut w = CompressedWriter::with_limits(
            ElemType::F32,
            HeaderMode::Separate,
            Some(VECTOR_BYTES),
            None,
        );
        let v = Vec512::from_f32_lanes(&[1.0; 16]);
        w.write_vector(&v, CompareCond::Eqz).unwrap();
        let s = w.finish();
        assert!(s.fits_original_allocation());
        assert_eq!(s.data_bytes(), VECTOR_BYTES);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
        let v = vec_with(&[(0, 1.0)]);
        w.write_vector(&v, CompareCond::Eqz).unwrap();
        let mut s = w.finish();
        s.data.truncate(3); // header (2) + 1 byte of a 4-byte element
        let err = s.reader().read_vector().unwrap_err();
        assert!(matches!(err, ZcompError::Truncated { .. }));
    }

    #[test]
    fn compression_ratio_all_zero_is_32x() {
        // All-zero fp32 vector: 64 bytes compress to a 2-byte header.
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
        for _ in 0..100 {
            w.write_vector(&Vec512::ZERO, CompareCond::Eqz).unwrap();
        }
        let s = w.finish();
        assert!((s.compression_ratio() - 32.0).abs() < 1e-9);
        assert!(s.fits_original_allocation());
    }

    #[test]
    fn incompressible_interleaved_stream_does_not_fit_original() {
        let mut w = CompressedWriter::new(ElemType::F32, HeaderMode::Interleaved);
        let v = Vec512::from_f32_lanes(&[1.0; 16]);
        w.write_vector(&v, CompareCond::Eqz).unwrap();
        let s = w.finish();
        assert!(!s.fits_original_allocation());
        assert!(s.compression_ratio() < 1.0);
    }

    /// Writes raw little-endian `ty` lanes through the writer.
    fn write_raw(
        data: &[u8],
        ty: ElemType,
        cond: CompareCond,
        mode: HeaderMode,
    ) -> CompressedStream {
        let mut w = CompressedWriter::new(ty, mode);
        for chunk in data.chunks_exact(VECTOR_BYTES) {
            let mut v = Vec512::ZERO;
            v.as_bytes_mut().copy_from_slice(chunk);
            w.write_vector(&v, cond).unwrap();
        }
        w.finish()
    }

    /// Reads every vector of `s` back as raw bytes.
    fn read_raw(s: &CompressedStream) -> Vec<u8> {
        let mut r = s.reader();
        let mut out = Vec::new();
        while let Some(v) = r.read_vector().unwrap() {
            out.extend_from_slice(v.as_bytes());
        }
        out
    }

    #[test]
    fn every_dtype_cond_and_mode_round_trips() {
        // Four vectors per type: every third lane zero, the others
        // nonzero in every byte view, with the sign bit set on odd lanes.
        for ty in ElemType::ALL {
            let es = ty.size_bytes();
            let mut data = vec![0u8; 4 * VECTOR_BYTES];
            for (k, lane) in data.chunks_mut(es).enumerate() {
                if k % 3 != 0 {
                    lane.fill((k * 7 % 251) as u8 | 1);
                    lane[es - 1] = (lane[es - 1] & 0x7F) | (((k % 2) as u8) << 7);
                }
            }
            for mode in [HeaderMode::Interleaved, HeaderMode::Separate] {
                let eqz = write_raw(&data, ty, CompareCond::Eqz, mode);
                assert_eq!(read_raw(&eqz), data, "{ty}/Eqz/{mode} is lossless");
                assert_eq!(eqz.vectors(), 4);
                assert_eq!(
                    eqz.compressed_bytes(),
                    4 * ty.header_bytes() + eqz.total_nnz() as usize * es,
                    "{ty}/{mode}"
                );

                let ltez = write_raw(&data, ty, CompareCond::Ltez, mode);
                assert!(ltez.total_nnz() < eqz.total_nnz(), "{ty}/{mode}");
                let mut expected = data.clone();
                for chunk in expected.chunks_mut(VECTOR_BYTES) {
                    let mut v = Vec512::ZERO;
                    v.as_bytes_mut().copy_from_slice(chunk);
                    let keep = CompareCond::Ltez.keep_mask(&v, ty);
                    for (i, lane) in chunk.chunks_mut(es).enumerate() {
                        if !keep.is_set(i) {
                            lane.fill(0);
                        }
                    }
                }
                assert_eq!(read_raw(&ltez), expected, "{ty}/Ltez/{mode}");
            }
        }
    }

    #[test]
    fn header_overhead_ranks_by_lane_count() {
        // Incompressible data: narrower types pay bigger headers.
        let ratio = |data: &[u8], ty| {
            write_raw(data, ty, CompareCond::Eqz, HeaderMode::Interleaved).compression_ratio()
        };
        let dense = [0x7Fu8; 2 * VECTOR_BYTES];
        assert!(ratio(&dense, ElemType::F64) > ratio(&dense, ElemType::F32));
        assert!(ratio(&dense, ElemType::F32) > ratio(&dense, ElemType::I8));
        // All-zero data: each vector stores only its header.
        let zeros = [0u8; 2 * VECTOR_BYTES];
        for ty in ElemType::ALL {
            let expected = (VECTOR_BYTES / ty.header_bytes()) as f64;
            assert!((ratio(&zeros, ty) - expected).abs() < 1e-12, "{ty}");
        }
    }

    #[test]
    fn i8_roundtrip() {
        let mut w = CompressedWriter::new(ElemType::I8, HeaderMode::Interleaved);
        let mut v = Vec512::ZERO;
        v.set_lane_bytes(ElemType::I8, 0, &[5]);
        v.set_lane_bytes(ElemType::I8, 63, &[0xFB]); // -5
        w.write_vector(&v, CompareCond::Eqz).unwrap();
        let s = w.finish();
        // 8-byte header + 2 bytes of data.
        assert_eq!(s.compressed_bytes(), 10);
        let got = s.reader().read_vector().unwrap().unwrap();
        assert_eq!(got, v);
    }
}
