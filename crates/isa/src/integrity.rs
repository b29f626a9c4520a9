//! Stream integrity: checksum sidecar and desynchronization analysis.
//!
//! ZCOMP keeps its only length metadata *in-band* — the per-vector bitmask
//! header whose popcount determines how many packed lanes follow. That
//! makes the format uniquely fragile under memory corruption: a single
//! flipped header bit changes the payload length and shifts the read
//! position of **every** subsequent vector (§3.2 of the paper fixes header
//! placement, not header trust). This module provides the two tools the
//! robustness layer builds on:
//!
//! * [`StreamChecksum`] — an optional CRC32 sidecar computed over the
//!   stream's regions and geometry. CRC32 detects *all* single-bit flips
//!   and all burst errors shorter than 32 bits, covering the corruptions
//!   that length reconciliation ([`CompressedStream::validate`]) cannot
//!   see (payload flips, compensating multi-bit header flips).
//! * [`desync_impact`] — static analysis of how far a corrupted byte
//!   propagates: a payload byte poisons one vector, a header byte poisons
//!   every vector after it. The fault-campaign experiment reports this
//!   distribution.

use serde::{Deserialize, Serialize};

use zcomp_trace::hash::Crc32;

use crate::error::ZcompError;
use crate::stream::{CompressedStream, HeaderMode};

/// Which backing region of a [`CompressedStream`] a byte offset refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamRegion {
    /// The data region (packed lanes; also headers when interleaved).
    Data,
    /// The separate header store (empty for interleaved streams).
    Headers,
}

/// What kind of stream byte a corruption landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionSite {
    /// A per-vector bitmask header byte.
    Header,
    /// A packed-lane payload byte.
    Payload,
}

/// Result of [`desync_impact`]: the blast radius of one corrupted byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesyncImpact {
    /// Vector that owns the corrupted byte.
    pub vector: usize,
    /// Whether the byte is part of a header or a packed payload.
    pub site: CorruptionSite,
    /// Number of vectors whose decoded value can change: 1 for a payload
    /// byte (lanes stay aligned), `vectors - vector` for a header byte
    /// (the length chain breaks and everything downstream shifts).
    pub poisoned_vectors: usize,
}

/// CRC32 (IEEE 802.3, reflected) checksum sidecar for a stream.
///
/// Stored *outside* the stream — alongside the feature-map allocation in
/// the layer executor — so corruption of the stream bytes cannot also
/// corrupt the check value. Computed over both regions plus the stream
/// geometry (element type, header mode, vector and element counts), so
/// metadata tampering is caught as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamChecksum {
    /// The CRC32 value.
    pub crc32: u32,
}

impl StreamChecksum {
    /// Computes the sidecar checksum of a stream.
    pub fn of(stream: &CompressedStream) -> StreamChecksum {
        let mut crc = Crc32::new();
        crc.update(&[stream.elem_type() as u8]);
        crc.update(&[match stream.header_mode() {
            HeaderMode::Interleaved => 0u8,
            HeaderMode::Separate => 1u8,
        }]);
        crc.update(&(stream.vectors() as u64).to_le_bytes());
        crc.update(&stream.total_nnz().to_le_bytes());
        crc.update(&(stream.data().len() as u64).to_le_bytes());
        crc.update(stream.data());
        crc.update(&(stream.headers().len() as u64).to_le_bytes());
        crc.update(stream.headers());
        StreamChecksum {
            crc32: crc.finish(),
        }
    }

    /// Verifies a stream against this sidecar.
    ///
    /// # Errors
    ///
    /// Returns [`ZcompError::ChecksumMismatch`] when the stream's current
    /// contents hash to a different value than the sidecar records.
    pub fn verify(&self, stream: &CompressedStream) -> Result<(), ZcompError> {
        let actual = StreamChecksum::of(stream).crc32;
        if actual == self.crc32 {
            Ok(())
        } else {
            Err(ZcompError::ChecksumMismatch {
                expected: self.crc32,
                actual,
            })
        }
    }
}

/// Computes the blast radius of a corrupted byte at `offset` within
/// `region` of `stream`.
///
/// The analysis walks the *current* headers, so it is meaningful on the
/// clean stream (e.g. "what would a flip here poison?") — after the flip
/// the length chain it describes is exactly the one that breaks. Returns
/// `None` when `offset` lies outside the region or the walk cannot reach
/// it (the stream itself is malformed).
pub fn desync_impact(
    stream: &CompressedStream,
    region: StreamRegion,
    offset: usize,
) -> Option<DesyncImpact> {
    let ty = stream.elem_type();
    let hb = ty.header_bytes();
    let es = ty.size_bytes();
    let vectors = stream.vectors();
    match (stream.header_mode(), region) {
        (HeaderMode::Interleaved, StreamRegion::Headers) => None,
        (HeaderMode::Separate, StreamRegion::Headers) => {
            if offset >= stream.headers().len() {
                return None;
            }
            let vector = offset / hb;
            Some(DesyncImpact {
                vector,
                site: CorruptionSite::Header,
                poisoned_vectors: vectors - vector,
            })
        }
        (mode, StreamRegion::Data) => {
            let mut data_pos = 0usize;
            let mut header_pos = 0usize;
            for vector in 0..vectors {
                let header = match mode {
                    HeaderMode::Interleaved => {
                        if offset < data_pos + hb {
                            // A header byte: the length chain breaks here.
                            return Some(DesyncImpact {
                                vector,
                                site: CorruptionSite::Header,
                                poisoned_vectors: vectors - vector,
                            });
                        }
                        let h = crate::header::Header::read_from(
                            ty,
                            stream.data().get(data_pos..data_pos + hb)?,
                        );
                        data_pos += hb;
                        h
                    }
                    HeaderMode::Separate => {
                        let h = crate::header::Header::read_from(
                            ty,
                            stream.headers().get(header_pos..header_pos + hb)?,
                        );
                        header_pos += hb;
                        h
                    }
                };
                let payload = header.nnz() as usize * es;
                if offset < data_pos + payload {
                    return Some(DesyncImpact {
                        vector,
                        site: CorruptionSite::Payload,
                        poisoned_vectors: 1,
                    });
                }
                data_pos += payload;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccf::CompareCond;
    use crate::compress::compress_f32_with;

    fn mixed_data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 * 0.5 })
            .collect()
    }

    #[test]
    fn checksum_roundtrip_and_single_bit_detection() {
        let stream = compress_f32_with(&mixed_data(256), CompareCond::Eqz, HeaderMode::Interleaved)
            .expect("whole vectors");
        let sidecar = StreamChecksum::of(&stream);
        sidecar.verify(&stream).expect("clean stream verifies");
        // Every single-bit flip in the data region must be detected.
        for byte in 0..stream.data().len() {
            for bit in 0..8 {
                let mut corrupted = stream.clone();
                assert!(corrupted.flip_bit(StreamRegion::Data, byte, bit));
                let err = sidecar.verify(&corrupted).expect_err("flip detected");
                assert!(matches!(err, ZcompError::ChecksumMismatch { .. }));
            }
        }
    }

    #[test]
    fn checksum_covers_separate_header_store() {
        let stream = compress_f32_with(&mixed_data(128), CompareCond::Eqz, HeaderMode::Separate)
            .expect("whole vectors");
        let sidecar = StreamChecksum::of(&stream);
        let mut corrupted = stream.clone();
        assert!(corrupted.flip_bit(StreamRegion::Headers, 0, 3));
        assert!(sidecar.verify(&corrupted).is_err());
    }

    #[test]
    fn header_bytes_poison_the_remainder() {
        let stream = compress_f32_with(&mixed_data(160), CompareCond::Eqz, HeaderMode::Interleaved)
            .expect("whole vectors");
        // Offset 0 is the first vector's header.
        let impact = desync_impact(&stream, StreamRegion::Data, 0).expect("in range");
        assert_eq!(impact.vector, 0);
        assert_eq!(impact.site, CorruptionSite::Header);
        assert_eq!(impact.poisoned_vectors, stream.vectors());
    }

    #[test]
    fn payload_bytes_poison_one_vector() {
        let data = vec![1.0f32; 16]; // one fully dense vector
        let stream = compress_f32_with(&data, CompareCond::Eqz, HeaderMode::Interleaved)
            .expect("whole vectors");
        // Bytes 0-1 are the header; byte 2 starts the payload.
        let impact = desync_impact(&stream, StreamRegion::Data, 2).expect("in range");
        assert_eq!(impact.site, CorruptionSite::Payload);
        assert_eq!(impact.poisoned_vectors, 1);
    }

    #[test]
    fn separate_mode_header_store_analysis() {
        let stream = compress_f32_with(&mixed_data(160), CompareCond::Eqz, HeaderMode::Separate)
            .expect("whole vectors");
        let vectors = stream.vectors();
        // Header store byte for the 3rd vector (2 bytes per fp32 header).
        let impact = desync_impact(&stream, StreamRegion::Headers, 2 * 2).expect("in range");
        assert_eq!(impact.vector, 2);
        assert_eq!(impact.site, CorruptionSite::Header);
        assert_eq!(impact.poisoned_vectors, vectors - 2);
        // Data-region bytes in separate mode are always payload.
        if !stream.data().is_empty() {
            let impact = desync_impact(&stream, StreamRegion::Data, 0).expect("in range");
            assert_eq!(impact.site, CorruptionSite::Payload);
            assert_eq!(impact.poisoned_vectors, 1);
        }
    }

    #[test]
    fn out_of_range_offsets_yield_none() {
        let stream = compress_f32_with(&mixed_data(64), CompareCond::Eqz, HeaderMode::Interleaved)
            .expect("whole vectors");
        assert_eq!(
            desync_impact(&stream, StreamRegion::Data, stream.data().len()),
            None
        );
        assert_eq!(desync_impact(&stream, StreamRegion::Headers, 0), None);
    }
}
