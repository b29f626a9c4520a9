//! Cache-compression baselines for the ZCOMP comparison (Fig. 15).
//!
//! The paper compares ZCOMP's effective compression ratio against cache
//! compression built on the FPC-D algorithm, in two architectures:
//!
//! * [`limitcc::limitcc_ratio`] — an upper bound that packs compressed
//!   lines at byte granularity with no physical-line boundaries;
//! * [`twotag::twotag_ratio`] — a practical design that can merge at most
//!   two logical lines into one physical line.
//!
//! [`cache_ratios`] gives both from one FPC-D pass over the buffer.
//!
//! Fig. 15's finding: ZCOMP reaches a geometric-mean ratio of 1.8 while
//! LimitCC reaches 1.54 and TwoTagCC only 1.1 — FPC-D's 8-byte per-line
//! prefix and the pairing constraint eat the head-room that ZCOMP's 2-byte
//! headers preserve.
//!
//! # Example
//!
//! ```
//! use zcomp_cachecomp::cache_ratios;
//!
//! // A half-sparse activation buffer.
//! let data: Vec<f32> = (0..4096)
//!     .map(|i| if i % 2 == 0 { 0.0 } else { 1.5 + i as f32 })
//!     .collect();
//! let (limit, twotag) = cache_ratios(&data);
//! assert!(limit >= twotag, "LimitCC bounds TwoTagCC from above");
//! ```

pub mod bdi;
pub mod fpc;
pub mod limitcc;
pub mod line;
pub mod twotag;

pub use bdi::{bdi_line_bytes, bdi_ratio};
pub use fpc::{fpc_line_bits, fpcd_line_bytes};
pub use limitcc::limitcc_ratio;
pub use twotag::twotag_ratio;

use line::{LINE_BYTES, WORDS_PER_LINE};
use twotag::{physical_lines_for_window, PAIR_WINDOW};

/// LimitCC and TwoTagCC ratios of one buffer from one FPC-D pass;
/// [`limitcc_ratio`] and [`twotag_ratio`] return its two halves.
///
/// Lines are sized from their `f32` bits a `PAIR_WINDOW`-line window at a
/// time, on the stack; each window feeds both LimitCC's byte sum and
/// TwoTagCC's pairing, so nothing is allocated. Returns `(1.0, 1.0)` for an
/// empty buffer.
pub fn cache_ratios(data: &[f32]) -> (f64, f64) {
    let (mut lines, mut compressed, mut physical) = (0usize, 0usize, 0usize);
    for window in data.chunks(PAIR_WINDOW * WORDS_PER_LINE) {
        let mut sizes = [0usize; PAIR_WINDOW];
        let mut n = 0;
        for (size, line) in sizes.iter_mut().zip(window.chunks(WORDS_PER_LINE)) {
            // The final partial line is zero-padded, as in `lines_of`.
            let mut padded = [0.0f32; WORDS_PER_LINE];
            let line: &[f32; WORDS_PER_LINE] = match line.try_into() {
                Ok(full) => full,
                Err(_) => {
                    padded[..line.len()].copy_from_slice(line);
                    &padded
                }
            };
            *size = fpc::fpcd_bytes(&line.map(f32::to_bits));
            n += 1;
        }
        compressed += sizes.iter().sum::<usize>();
        physical += physical_lines_for_window(&mut sizes[..n]);
        lines += n;
    }
    if lines == 0 {
        return (1.0, 1.0);
    }
    (
        (lines * LINE_BYTES) as f64 / compressed as f64,
        lines as f64 / physical as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpc::tests::oracle_fpcd_line_bytes;
    use crate::line::lines_of;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Both ratios the way LimitCC and TwoTagCC first computed them: one
    /// oracle-sized, zero-padded line at a time, the sizes collected, and
    /// each window copied before it is sorted and paired.
    fn oracle_ratios(data: &[f32]) -> (f64, f64) {
        let sizes: Vec<usize> = lines_of(data).map(|l| oracle_fpcd_line_bytes(&l)).collect();
        if sizes.is_empty() {
            return (1.0, 1.0);
        }
        let compressed: usize = sizes.iter().sum();
        let physical: usize = sizes
            .chunks(PAIR_WINDOW)
            .map(|w| physical_lines_for_window(&mut w.to_vec()))
            .sum();
        (
            (sizes.len() * LINE_BYTES) as f64 / compressed as f64,
            sizes.len() as f64 / physical as f64,
        )
    }

    /// Activation-like data: zeros, small integers, a few repeated raw
    /// words and arbitrary bit patterns.
    fn mixed_buffer(rng: &mut SmallRng, len: usize) -> Vec<f32> {
        let pool: Vec<u32> = (0..5)
            .map(|_| rng.gen_range(0x3000_0000u32..0x5000_0000))
            .collect();
        (0..len)
            .map(|_| match rng.gen_range(0..5u32) {
                0 | 1 => 0.0,
                2 => rng.gen_range(-200i32..200) as f32,
                3 => f32::from_bits(pool[rng.gen_range(0..pool.len())]),
                _ => f32::from_bits(rng.gen_range(0..=u32::MAX)),
            })
            .collect()
    }

    fn assert_bit_identical(data: &[f32]) {
        let (limit, twotag) = cache_ratios(data);
        let (want_limit, want_twotag) = oracle_ratios(data);
        let len = data.len();
        assert_eq!(limit.to_bits(), want_limit.to_bits(), "limitcc at {len}");
        assert_eq!(twotag.to_bits(), want_twotag.to_bits(), "twotag at {len}");
        assert_eq!(limit.to_bits(), limitcc_ratio(data).to_bits());
        assert_eq!(twotag.to_bits(), twotag_ratio(data).to_bits());
    }

    #[test]
    fn cache_ratios_match_the_per_line_oracle_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xCAC4E);
        // Empty, sub-line, line and window edges, with zero-padded tail
        // lines and partial windows.
        for len in [0, 1, 15, 16, 17, 255, 256, 257] {
            assert_bit_identical(&mixed_buffer(&mut rng, len));
        }
        for _ in 0..200 {
            let len = rng.gen_range(0..3000usize);
            assert_bit_identical(&mixed_buffer(&mut rng, len));
        }
    }

    #[test]
    fn limitcc_upper_bounds_twotag() {
        for density in 1..10usize {
            let data: Vec<f32> = (0..8192)
                .map(|i| {
                    if i % 10 < density {
                        1.0 + i as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            assert!(
                limitcc_ratio(&data) + 1e-9 >= twotag_ratio(&data) * 0.99,
                "density {density}"
            );
        }
    }
}
