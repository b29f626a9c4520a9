//! Persistent memory-trace capture and replay for the ZCOMP reproduction.
//!
//! The experiment binaries drive the cycle-approximate simulator through
//! the [`Machine`](zcomp_sim::Machine) façade; every observable operation —
//! instructions, micro-op batches, compute charges, raw accesses, phase
//! barriers — flows through that one interface. This crate exploits that
//! property to split experiments Sniper-style into *capture* and *replay*:
//!
//! * [`codec`] — the versioned `.ztrc` wire format: chunked framing with
//!   per-chunk CRC32, zigzag-varint delta-encoded addresses, and
//!   run-length encoding for the kernels' dense strided regions.
//! * [`recorder`] — a [`MachineObserver`](zcomp_sim::MachineObserver)
//!   that streams the op sequence to disk while an experiment runs, with
//!   write-failures degrading to a discarded capture rather than an
//!   aborted run.
//! * [`driver`] — feeds a captured trace back through a freshly-built
//!   machine, reproducing the original run's statistics exactly (same op
//!   stream, same f64 accumulation order, bit-equal results).
//! * [`cache`] — a content-addressed trace store under `results/traces/`
//!   keyed by experiment cell and machine-config fingerprint.
//!
//! Traces are a debugging and differential-test artifact: the sweeps
//! themselves reuse finished cells from their completion journal, not
//! from traces.
//!
//! # Example
//!
//! ```
//! use zcomp_isa::uops::UopTable;
//! use zcomp_replay::codec::{decode_all, encode_all, TraceMeta};
//! use zcomp_replay::op::TraceOp;
//! use zcomp_isa::instr::Instr;
//!
//! let ops: Vec<TraceOp> = (0..1000)
//!     .map(|i| TraceOp::Exec { thread: 0, instr: Instr::VLoad { addr: i * 64 } })
//!     .collect();
//! let bytes = encode_all(&ops, TraceMeta::new(16, 0xabcd), "{}").unwrap();
//! assert!(bytes.len() < 100); // strided run collapses under RLE
//! let (_, decoded, _) = decode_all(&bytes).unwrap();
//! assert_eq!(decoded, ops);
//! ```

pub mod cache;
pub mod codec;
pub mod driver;
pub mod op;
pub mod recorder;

pub use cache::{TraceCache, TraceKey};
pub use codec::{config_fingerprint, TraceMeta, TraceReader, TraceWriter, FORMAT_VERSION};
pub use driver::{replay, replay_file, MeasuredWindow, ReplayOutcome};
pub use op::TraceOp;
pub use recorder::CaptureSession;

use zcomp_isa::error::ZcompError;

/// Error type of every trace file operation.
///
/// Structural and integrity defects in the trace bytes are [`ZcompError`]
/// values (typed, comparable, `Display`-able); operating-system failures
/// stay as [`std::io::Error`]. End-of-file inside a read is deliberately a
/// *codec* error ([`ZcompError::Truncated`]) because a cut-short file is a
/// data-integrity condition, not an environmental one.
#[derive(Debug)]
pub enum TraceError {
    /// The trace bytes are malformed, corrupted, truncated, or from an
    /// incompatible version/configuration.
    Codec(ZcompError),
    /// The underlying reader or writer failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Codec(e) => write!(f, "trace codec error: {e}"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Codec(e) => Some(e),
            TraceError::Io(e) => Some(e),
        }
    }
}

impl From<ZcompError> for TraceError {
    fn from(e: ZcompError) -> Self {
        TraceError::Codec(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_carries_the_cause() {
        let e = TraceError::Codec(ZcompError::Truncated { offset: 42 });
        assert!(e.to_string().contains("42"));
        let e = TraceError::Io(std::io::Error::other("disk fell off"));
        assert!(e.to_string().contains("disk fell off"));
    }

    #[test]
    fn error_trait_with_source() {
        let e = TraceError::Codec(ZcompError::Truncated { offset: 1 });
        assert!(std::error::Error::source(&e).is_some());
    }
}
