//! TwoTagCC — a practical two-tag cache-compression architecture (§5.4).
//!
//! "A more practical Two Tag architecture (TwoTagCC) where we can combine
//! at most two logical lines into one physical line" (Gaur et al., 2016,
//! Base-Victim compression). A pair of logical lines shares one physical
//! 64-byte line only when both compressed images fit together; §5.4 notes
//! that this "requires lines in the same set to have complementary
//! compressed lengths", which is rarely the case when the average
//! compressed size exceeds half a line.

use crate::cache_ratios;
use crate::line::LINE_BYTES;

/// Set-associativity assumed when pairing candidate lines (lines mapping
/// to the same set are pairing candidates, as in the referenced design).
pub(crate) const PAIR_WINDOW: usize = 16;

/// Compression ratio achieved by TwoTagCC on a buffer: logical lines over
/// physical lines after greedy complementary pairing within each
/// `PAIR_WINDOW`-line window.
///
/// Returns 1.0 for an empty buffer.
///
/// # Example
///
/// ```
/// use zcomp_cachecomp::twotag::twotag_ratio;
///
/// let zeros = vec![0.0f32; 4096];
/// // Every pair of all-zero lines shares a physical line: ratio 2.
/// assert!((twotag_ratio(&zeros) - 2.0).abs() < 0.05);
/// ```
pub fn twotag_ratio(data: &[f32]) -> f64 {
    cache_ratios(data).1
}

/// Greedy complementary pairing inside one set-window: sort the sizes in
/// place, then repeatedly match the smallest with the largest that still
/// fits.
pub(crate) fn physical_lines_for_window(sizes: &mut [usize]) -> usize {
    sizes.sort_unstable();
    let (mut lo, mut hi) = (0usize, sizes.len());
    let mut physical = 0usize;
    while lo < hi {
        if hi - lo >= 2 && sizes[lo] + sizes[hi - 1] <= LINE_BYTES {
            // The smallest and the largest-fitting share a physical line.
            lo += 1;
            hi -= 1;
        } else {
            // The largest line cannot pair with anything: stored alone.
            hi -= 1;
        }
        physical += 1;
    }
    physical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incompressible_data_gets_ratio_one() {
        let data: Vec<f32> = (0..4096).map(|i| 1.0 + (i as f32) * 0.917).collect();
        let r = twotag_ratio(&data);
        assert!((r - 1.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn at_most_two_to_one() {
        let zeros = vec![0.0f32; 65536];
        assert!(twotag_ratio(&zeros) <= 2.0 + 1e-9);
    }

    #[test]
    fn half_compressible_pairs_partially() {
        // Alternate all-zero lines (20 B compressed) with raw lines (64 B):
        // zero lines cannot pair with raw ones, and raw lines stand alone;
        // pairs form only among the zero lines.
        let mut data = Vec::new();
        for i in 0..256 {
            for w in 0..16 {
                data.push(if i % 2 == 0 {
                    0.0
                } else {
                    1.0 + (i * 16 + w) as f32
                });
            }
        }
        let r = twotag_ratio(&data);
        // 128 raw lines + 64 physical lines for the 128 zero lines =
        // 192 physical for 256 logical = ratio 1.33.
        assert!((1.25..1.45).contains(&r), "got {r}");
    }

    #[test]
    fn empty_buffer_ratio_is_one() {
        assert_eq!(twotag_ratio(&[]), 1.0);
    }

    #[test]
    fn window_pairing_is_greedy_best_fit() {
        // Sizes 10 and 54 fit together (64); 40 and 40 do not.
        assert_eq!(physical_lines_for_window(&mut [10, 54]), 1);
        assert_eq!(physical_lines_for_window(&mut [40, 40]), 2);
        assert_eq!(physical_lines_for_window(&mut [64, 30, 10, 20]), 3);
    }
}
