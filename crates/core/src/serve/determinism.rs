//! Non-panicking byte-level determinism self-checks.
//!
//! Chaos sweeps lean hard on "same seed ⇒ byte-identical report": the
//! supervised journal and its restore path compare serialized cell
//! payloads. The self-checks that guard this
//! invariant (in tests, in `serve_run --smoke`, and anywhere a cell wants
//! to double-run itself) used to be `serde_json::to_string(..).unwrap()`
//! comparisons — a serialization failure would *panic*, and inside a
//! supervised cell a panic reads as a quarantinable workload failure
//! rather than what it is: a harness bug. This module does the same
//! comparison without the panic, reporting a typed error either way.

use std::fmt;

use serde::Serialize;

/// Why a determinism self-check failed.
#[derive(Debug)]
pub enum DeterminismError {
    /// One of the two values failed to serialize at all.
    Serialize(serde_json::Error),
    /// The serialized byte streams differ.
    Mismatch {
        /// Length of the first serialization, bytes.
        len_a: usize,
        /// Length of the second serialization, bytes.
        len_b: usize,
        /// Offset of the first differing byte (the shorter length when
        /// one stream is a prefix of the other).
        first_diff: usize,
    },
}

impl fmt::Display for DeterminismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeterminismError::Serialize(e) => {
                write!(f, "determinism check could not serialize: {e:?}")
            }
            DeterminismError::Mismatch {
                len_a,
                len_b,
                first_diff,
            } => write!(
                f,
                "serialized replays differ: {len_a} vs {len_b} bytes, first divergence at byte {first_diff}"
            ),
        }
    }
}

impl std::error::Error for DeterminismError {}

/// Compares the serialized bytes of two replays of the same computation.
///
/// Returns `Ok(())` when the two values serialize to identical bytes.
///
/// # Errors
///
/// [`DeterminismError::Serialize`] if either value fails to serialize;
/// [`DeterminismError::Mismatch`] (with the first divergent offset) if
/// the byte streams differ.
pub fn require_byte_identical<T: Serialize>(a: &T, b: &T) -> Result<(), DeterminismError> {
    let a = serde_json::to_string(a).map_err(DeterminismError::Serialize)?;
    let b = serde_json::to_string(b).map_err(DeterminismError::Serialize)?;
    if a == b {
        return Ok(());
    }
    let first_diff = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    Err(DeterminismError::Mismatch {
        len_a: a.len(),
        len_b: b.len(),
        first_diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_pass() {
        require_byte_identical(&vec![1u64, 2, 3], &vec![1u64, 2, 3]).unwrap();
    }

    #[test]
    fn mismatch_reports_offset_without_panicking() {
        let err = require_byte_identical(&vec![1u64, 2, 3], &vec![1u64, 9, 3]).unwrap_err();
        match err {
            DeterminismError::Mismatch { first_diff, .. } => assert_eq!(first_diff, 3),
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn prefix_mismatch_points_at_the_shorter_length() {
        let err = require_byte_identical(&vec![1u64, 2], &vec![1u64, 2, 3]).unwrap_err();
        match err {
            DeterminismError::Mismatch {
                len_a,
                len_b,
                first_diff,
            } => {
                assert!(len_a < len_b);
                assert_eq!(first_diff, len_a - 1, "diverges at the closing bracket");
            }
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn error_formats_and_is_std_error() {
        let err: Box<dyn std::error::Error> =
            Box::new(require_byte_identical(&1u64, &2u64).unwrap_err());
        assert!(err.to_string().contains("first divergence"));
    }
}
