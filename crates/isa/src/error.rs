//! Error type for functional ZCOMP stream operations.

use crate::dtype::ElemType;

/// Errors produced by compressing to or expanding from a ZCOMP stream.
///
/// In hardware these conditions surface as memory protection violations
/// (§4.1 discusses when an interleaved stream can overflow its original
/// allocation); the functional model reports them as typed errors instead.
///
/// The enum is `#[non_exhaustive]`: corruption-detection variants were added
/// after the initial API and more may follow, so downstream matches must
/// carry a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZcompError {
    /// Writing the compressed stream would exceed the destination buffer.
    ///
    /// §4.1: "a memory violation can happen without enough compressibility."
    BufferOverflow {
        /// Bytes the write needed.
        needed: usize,
        /// Bytes remaining in the destination.
        available: usize,
    },
    /// Writing a header would exceed the separate header store.
    HeaderOverflow {
        /// Bytes the header write needed.
        needed: usize,
        /// Bytes remaining in the header store.
        available: usize,
    },
    /// The stream ended in the middle of a header or packed-lane group.
    Truncated {
        /// Byte offset at which the reader ran out of data.
        offset: usize,
    },
    /// The input length is not a whole number of vectors.
    ///
    /// ZCOMP operates vector-by-vector; callers must pad partial tails (the
    /// DNN frameworks in the paper allocate feature maps in full vectors).
    PartialVector {
        /// Number of elements supplied.
        len: usize,
        /// Lane count of the element type.
        lanes: usize,
    },
    /// The expanded destination is smaller than the stream's element count.
    DestinationTooSmall {
        /// Elements the stream expands to.
        needed: usize,
        /// Elements the destination can hold.
        available: usize,
    },
    /// The stream's element type is not the one the caller decodes it as
    /// (for example an fp16 stream handed to an fp32 expand).
    ElemTypeMismatch {
        /// Element type the operation decodes.
        expected: ElemType,
        /// Element type the stream was written with.
        found: ElemType,
    },
    /// A per-vector header is inconsistent with the stream bounds: its
    /// keep-mask declares a packed payload that runs past the end of the
    /// data region. The in-band header is ZCOMP's only length metadata, so
    /// this is the signature of a corrupted (bit-flipped) header.
    CorruptHeader {
        /// Index of the vector whose header failed the bounds check.
        vector: usize,
        /// Byte offset of that header within its region (the data region
        /// for interleaved streams, the header store for separate ones).
        offset: usize,
    },
    /// The stream walk completed but does not reconcile with the stream's
    /// recorded geometry: leftover or missing region bytes, or a
    /// header-popcount sum that disagrees with the element count. A single
    /// flipped header bit desynchronizes every subsequent vector; this
    /// variant reports that the desynchronization was detected.
    Desynchronized {
        /// Number of vectors decoded before the mismatch was established.
        vector: usize,
        /// Region byte offset at which the walk ended.
        offset: usize,
    },
    /// The stream's contents no longer match its checksum sidecar
    /// ([`StreamChecksum`](crate::integrity::StreamChecksum)) — corruption
    /// that length reconciliation alone cannot see (for example a payload
    /// bit flip, or compensating multi-bit header flips).
    ChecksumMismatch {
        /// Checksum recorded when the stream was written.
        expected: u32,
        /// Checksum of the stream as it is now.
        actual: u32,
    },
    /// A persisted trace file declares a format version this build does
    /// not speak. Versions are bumped on any wire-layout change; readers
    /// never guess.
    TraceVersion {
        /// Version recorded in the file header.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// A persisted trace file is structurally malformed: a field is out
    /// of range, a varint overruns, an opcode is unknown, or a chunk's
    /// record count does not reconcile. Distinct from
    /// [`ZcompError::ChecksumMismatch`], which covers bit-level damage to
    /// an otherwise well-formed chunk.
    TraceCorrupt {
        /// Byte offset (within the file or current chunk) of the defect.
        offset: u64,
        /// Static description of what failed to parse.
        reason: &'static str,
    },
    /// A trace was captured on a differently-configured machine than the
    /// one replaying it; replaying would produce silently wrong stats.
    TraceConfigMismatch {
        /// Configuration fingerprint recorded at capture time.
        expected: u32,
        /// Fingerprint of the replaying machine's configuration.
        found: u32,
    },
}

impl std::fmt::Display for ZcompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZcompError::BufferOverflow { needed, available } => write!(
                f,
                "compressed stream overflows destination: needed {needed} bytes, {available} available"
            ),
            ZcompError::HeaderOverflow { needed, available } => write!(
                f,
                "header store overflow: needed {needed} bytes, {available} available"
            ),
            ZcompError::Truncated { offset } => {
                write!(f, "compressed stream truncated at byte offset {offset}")
            }
            ZcompError::PartialVector { len, lanes } => write!(
                f,
                "input length {len} is not a multiple of the {lanes}-lane vector width"
            ),
            ZcompError::DestinationTooSmall { needed, available } => write!(
                f,
                "expansion destination too small: needed {needed} elements, {available} available"
            ),
            ZcompError::ElemTypeMismatch { expected, found } => write!(
                f,
                "element type mismatch: expected an {expected} stream, found {found}"
            ),
            ZcompError::CorruptHeader { vector, offset } => write!(
                f,
                "corrupt header for vector {vector} at region offset {offset}: declared payload exceeds the data region"
            ),
            ZcompError::Desynchronized { vector, offset } => write!(
                f,
                "stream desynchronized after {vector} vectors: walk ended at region offset {offset} but does not reconcile with the stream geometry"
            ),
            ZcompError::ChecksumMismatch { expected, actual } => write!(
                f,
                "stream checksum mismatch: sidecar records {expected:#010x}, contents hash to {actual:#010x}"
            ),
            ZcompError::TraceVersion { found, supported } => write!(
                f,
                "trace format version {found} is not supported (this build speaks version {supported})"
            ),
            ZcompError::TraceCorrupt { offset, reason } => {
                write!(f, "trace corrupt at byte offset {offset}: {reason}")
            }
            ZcompError::TraceConfigMismatch { expected, found } => write!(
                f,
                "trace was captured under machine configuration {expected:#010x} but the replaying machine fingerprints as {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for ZcompError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ZcompError::BufferOverflow {
            needed: 66,
            available: 64,
        };
        let msg = e.to_string();
        assert!(msg.contains("66"));
        assert!(msg.contains("64"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error + Send + Sync>(_e: E) {}
        takes_error(ZcompError::Truncated { offset: 3 });
    }
}
