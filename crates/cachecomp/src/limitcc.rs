//! LimitCC — the upper-bound cache-compression architecture of §5.4.
//!
//! "We also show the upper bound cache compression ratio (LimitCC)
//! assuming we can compress cache lines to arbitrary sizes (at a byte
//! granularity), and compress as many lines as possible in a cache set
//! regardless of physical cache line boundaries." Lines are compressed
//! with FPC-D.

use crate::cache_ratios;

/// Compression ratio achieved by LimitCC on a buffer: uncompressed bytes
/// over the byte-granularity sum of FPC-D line sizes.
///
/// Returns 1.0 for an empty buffer.
///
/// # Example
///
/// ```
/// use zcomp_cachecomp::limitcc::limitcc_ratio;
///
/// let zeros = vec![0.0f32; 1024];
/// assert!(limitcc_ratio(&zeros) > 2.0);
/// ```
pub fn limitcc_ratio(data: &[f32]) -> f64 {
    cache_ratios(data).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LINE_BYTES;

    #[test]
    fn all_zero_ratio_is_line_over_prefix_plus_zero_codes() {
        let zeros = vec![0.0f32; 4096];
        // 64 / (8 prefix + 12 zero-coded payload) = 3.2
        let r = limitcc_ratio(&zeros);
        assert!((r - 3.2).abs() < 0.01, "got {r}");
    }

    #[test]
    fn dense_random_data_barely_compresses() {
        let data: Vec<f32> = (0..4096).map(|i| 1.0 + (i as f32) * 0.731).collect();
        let r = limitcc_ratio(&data);
        assert!(r <= 1.05, "got {r}");
    }

    #[test]
    fn empty_buffer_ratio_is_one() {
        assert_eq!(limitcc_ratio(&[]), 1.0);
    }

    #[test]
    fn ratio_grows_with_sparsity() {
        let make = |sparsity_num: usize| -> Vec<f32> {
            (0..8192)
                .map(|i| {
                    if i % 10 < sparsity_num {
                        0.0
                    } else {
                        1.0 + i as f32
                    }
                })
                .collect()
        };
        assert!(limitcc_ratio(&make(8)) > limitcc_ratio(&make(4)));
        assert!(limitcc_ratio(&make(4)) > limitcc_ratio(&make(1)));
    }

    #[test]
    fn half_sparse_activations_give_middling_ratio() {
        // 50% zero words, 50% arbitrary floats: the zero words shrink, the
        // floats stay raw. Expect a ratio well below ZCOMP's on the same
        // data (Fig. 15's finding).
        let data: Vec<f32> = (0..4096)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.234 + i as f32 })
            .collect();
        let ratio = limitcc_ratio(&data);
        assert!((1.0..2.0).contains(&ratio), "ratio {ratio}");
        // 8 raw words (35 bits) and 8 zero words (6 bits) per line.
        let line_bytes = 8 + (8 * 35 + 8 * 6usize).div_ceil(8);
        assert_eq!(ratio, LINE_BYTES as f64 / line_bytes as f64);
    }
}
