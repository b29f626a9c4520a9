//! Base-Delta-Immediate (BDI) compression — Pekhimenko et al., PACT 2012
//! (reference \[43\] of the ZCOMP paper).
//!
//! BDI stores a cache line as one base value plus small per-word deltas.
//! It excels on pointer-rich and slowly-varying integer data; on fp32
//! activation maps the mantissa entropy defeats small deltas, which is
//! why the ZCOMP paper's cache-compression comparison builds on FPC-D
//! instead. BDI is provided as an additional baseline so that claim can
//! be checked rather than assumed.

use crate::line::{lines_of, words_of, LINE_BYTES};

/// A BDI encoding option: base size and delta size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BdiOption {
    base_bytes: usize,
    delta_bytes: usize,
}

/// The canonical BDI encoding set (base8/Δ1..4, base4/Δ1..2, base2/Δ1).
const OPTIONS: [BdiOption; 6] = [
    BdiOption {
        base_bytes: 8,
        delta_bytes: 1,
    },
    BdiOption {
        base_bytes: 8,
        delta_bytes: 2,
    },
    BdiOption {
        base_bytes: 8,
        delta_bytes: 4,
    },
    BdiOption {
        base_bytes: 4,
        delta_bytes: 1,
    },
    BdiOption {
        base_bytes: 4,
        delta_bytes: 2,
    },
    BdiOption {
        base_bytes: 2,
        delta_bytes: 1,
    },
];

/// BDI metadata per line: encoding selector plus the zero-word bitmap.
const BDI_LINE_PREFIX_BYTES: usize = 2;

/// Compressed size of one cache line under BDI, in bytes (capped at the
/// raw line size). A zero line compresses to the prefix plus one base.
pub fn bdi_line_bytes(line: &[u8; LINE_BYTES]) -> usize {
    // Zero line special case.
    if line.iter().all(|&b| b == 0) {
        return BDI_LINE_PREFIX_BYTES + 1;
    }
    // Repeated-value special case (any granule).
    let words = words_of(line);
    if words.iter().all(|&w| w == words[0]) {
        return BDI_LINE_PREFIX_BYTES + 4;
    }
    let mut best = LINE_BYTES;
    for opt in OPTIONS {
        if let Some(size) = try_option(line, opt) {
            best = best.min(size);
        }
    }
    best
}

/// Attempts one base+delta encoding; BDI uses the first value as the base
/// (with a second implicit base of zero, which covers zero-interleaved
/// data).
fn try_option(line: &[u8; LINE_BYTES], opt: BdiOption) -> Option<usize> {
    let values: Vec<i128> = line
        .chunks_exact(opt.base_bytes)
        .map(|chunk| {
            let mut raw = [0u8; 16];
            raw[..chunk.len()].copy_from_slice(chunk);
            i128::from_le_bytes(raw)
        })
        .collect();
    let base = values[0];
    let delta_max = 1i128 << (opt.delta_bytes * 8 - 1);
    let fits = values.iter().all(|&v| {
        let from_base = v.wrapping_sub(base);
        let from_zero = v;
        (-delta_max..delta_max).contains(&from_base) || (-delta_max..delta_max).contains(&from_zero)
    });
    if !fits {
        return None;
    }
    let n = values.len();
    // Prefix + base + one delta per granule + one bit per granule for the
    // base selector (rounded to bytes).
    Some(BDI_LINE_PREFIX_BYTES + opt.base_bytes + n * opt.delta_bytes + n.div_ceil(8))
}

/// BDI compression ratio over a buffer (uncompressed / compressed).
///
/// Returns 1.0 for an empty buffer.
pub fn bdi_ratio(data: &[f32]) -> f64 {
    let _span = zcomp_trace::tracer::span("cachecomp", "bdi_ratio");
    let mut compressed = 0usize;
    let mut lines = 0usize;
    for line in lines_of(data) {
        compressed += bdi_line_bytes(&line);
        lines += 1;
    }
    if lines == 0 {
        1.0
    } else {
        let ratio = (lines * LINE_BYTES) as f64 / compressed as f64;
        if zcomp_trace::tracer::enabled() {
            zcomp_trace::tracer::counter("cachecomp.bdi_ratio", ratio);
        }
        ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpc::fpcd_line_bytes;

    #[test]
    fn zero_line_is_tiny() {
        assert_eq!(bdi_line_bytes(&[0u8; LINE_BYTES]), 3);
    }

    #[test]
    fn repeated_word_line_compresses() {
        let mut line = [0u8; LINE_BYTES];
        for chunk in line.chunks_exact_mut(4) {
            chunk.copy_from_slice(&0x3F80_0000u32.to_le_bytes()); // 1.0f32
        }
        assert!(bdi_line_bytes(&line) < 8);
    }

    #[test]
    fn small_integer_sequence_compresses() {
        // 8-byte granules holding 0..8: deltas fit one byte from base 0.
        let mut line = [0u8; LINE_BYTES];
        for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(i as u64).to_le_bytes());
        }
        let size = bdi_line_bytes(&line);
        assert!(size < LINE_BYTES / 2, "got {size}");
    }

    #[test]
    fn random_floats_defeat_bdi() {
        // Distinct fp32 activations: high-entropy mantissas, no small
        // deltas — BDI stores the line raw. This is why the paper's
        // comparison uses FPC-D.
        let mut line = [0u8; LINE_BYTES];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            let v = 1.234f32 + 0.731 * i as f32;
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bdi_line_bytes(&line), LINE_BYTES);
    }

    #[test]
    fn fpcd_beats_bdi_on_sparse_activations() {
        // Half-sparse activation data: FPC-D's per-word zero pattern wins
        // over BDI's whole-line delta requirement.
        let data: Vec<f32> = (0..4096)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.5 + i as f32 })
            .collect();
        let mut fpcd_total = 0usize;
        let mut bdi_total = 0usize;
        for line in crate::line::lines_of(&data) {
            fpcd_total += fpcd_line_bytes(&line);
            bdi_total += bdi_line_bytes(&line);
        }
        assert!(
            fpcd_total < bdi_total,
            "fpcd {fpcd_total} vs bdi {bdi_total}"
        );
    }

    #[test]
    fn ratio_bounds() {
        assert_eq!(bdi_ratio(&[]), 1.0);
        let zeros = vec![0.0f32; 1024];
        assert!(bdi_ratio(&zeros) > 10.0);
        let dense: Vec<f32> = (0..1024).map(|i| 1.0 + i as f32 * 0.997).collect();
        assert!(bdi_ratio(&dense) <= 1.05);
    }
}
