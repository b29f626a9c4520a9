//! Frequent Pattern Compression (FPC) and FPC with a limited dictionary
//! (FPC-D).
//!
//! FPC (Alameldeen & Wood, 2004) encodes each 32-bit word with a 3-bit
//! prefix selecting one of eight patterns. FPC-D (Alameldeen & Agarwal,
//! 2018) extends it with a small dictionary of recently seen words,
//! "achieving higher compression ratios at lower latency and complexity";
//! its line format carries an 8-byte prefix per cache line (§5.4 of the
//! ZCOMP paper attributes LimitCC's modest ratios to that overhead,
//! compared with ZCOMP's two bytes per line).

use crate::line::{words_of, LINE_BYTES, WORDS_PER_LINE};

/// Bits of the per-word FPC pattern prefix.
const PREFIX_BITS: u32 = 3;

/// FPC-D per-line metadata prefix in bytes (compression encoding, segment
/// count and dictionary seed information).
pub const FPCD_LINE_PREFIX_BYTES: usize = 8;

/// Payload bits FPC assigns to one 32-bit word (excluding the prefix).
///
/// The pattern ladder is evaluated bottom-up as selects, not branches: in
/// sparse activations zero and raw words alternate unpredictably.
fn fpc_payload_bits(word: u32) -> u32 {
    // `word` is an n-bit sign-extended value exactly when `mag < 2^(n-1)`.
    let mag = word ^ ((word as i32) >> 31) as u32;
    let half_is_byte = |h: u32| h.wrapping_add(0x80) & 0xFFFF < 0x100;
    // Uncompressed, or a word of repeated bytes.
    let mut bits = if word == word.rotate_left(8) { 8 } else { 32 };
    // 16-bit sign-extended, a halfword padded with a zero halfword, or two
    // halfwords that are each a sign-extended byte.
    let half = (word & 0xFFFF == 0) | (half_is_byte(word) & half_is_byte(word >> 16));
    bits = if (mag < 1 << 15) | half { 16 } else { bits };
    // 8-bit and 4-bit sign-extended.
    bits = if mag < 1 << 7 { 8 } else { bits };
    bits = if mag < 1 << 3 { 4 } else { bits };
    // Zero word (runs are encoded in the payload; one word per entry in
    // this per-word model).
    if word == 0 {
        3
    } else {
        bits
    }
}

/// Compressed size of one cache line under plain FPC, in bits.
pub fn fpc_line_bits(line: &[u8; LINE_BYTES]) -> usize {
    words_of(line)
        .iter()
        .map(|&w| (PREFIX_BITS + fpc_payload_bits(w)) as usize)
        .sum()
}

/// Compressed size of one cache line under FPC-D, in bytes, including the
/// 8-byte line prefix. The result is capped at the uncompressed line size
/// (an incompressible line is stored raw).
pub fn fpcd_line_bytes(line: &[u8; LINE_BYTES]) -> usize {
    fpcd_bytes(&words_of(line))
}

/// [`fpcd_line_bytes`] of a line given as its words.
///
/// Each word is classified once. Only uncompressible words (32-bit
/// payload) enter the 4-entry FIFO dictionary, so only they can hit it:
/// the dictionary is searched for those words alone, in line order.
pub(crate) fn fpcd_bytes(words: &[u32; WORDS_PER_LINE]) -> usize {
    let (mut bits, mut raw) = (0u32, 0u32);
    for (i, &w) in words.iter().enumerate() {
        let payload = fpc_payload_bits(w);
        bits += PREFIX_BITS + payload;
        raw |= u32::from(payload == 32) << i;
    }
    // Raw words are never zero, so the zeroed entries never match.
    let mut dict = [0u32; 4];
    while raw != 0 {
        let w = words[raw.trailing_zeros() as usize];
        raw &= raw - 1;
        if dict.contains(&w) {
            // A hit stores a 2-bit index in place of the 32-bit word.
            bits -= 30;
        } else {
            dict = [dict[1], dict[2], dict[3], w];
        }
    }
    (FPCD_LINE_PREFIX_BYTES + bits.div_ceil(8) as usize).min(LINE_BYTES)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::line::lines_of;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The FPC pattern ladder in its original branch form: the kernel's
    /// oracle.
    pub(crate) fn oracle_payload_bits(word: u32) -> u32 {
        let as_i32 = word as i32;
        let lo = (word & 0xFFFF) as i16 as i32;
        let hi = (word >> 16) as i16 as i32;
        if word == 0 {
            3
        } else if (-8..8).contains(&as_i32) {
            4
        } else if (-128..128).contains(&as_i32) {
            8
        } else if (-32768..32768).contains(&as_i32)
            || word & 0xFFFF == 0
            || ((-128..128).contains(&lo) && (-128..128).contains(&hi))
        {
            16
        } else if word.to_le_bytes().windows(2).all(|w| w[0] == w[1]) {
            8
        } else {
            32
        }
    }

    /// The per-line FPC-D loop as first written: a FIFO dictionary that
    /// is searched for every word and rotated in memory on eviction.
    pub(crate) fn oracle_fpcd_line_bytes(line: &[u8; LINE_BYTES]) -> usize {
        let mut dict = [0u32; 4];
        let mut dict_len = 0usize;
        let mut bits = 0u32;
        for &w in &words_of(line) {
            if dict[..dict_len].contains(&w) && w != 0 {
                bits += PREFIX_BITS + 2;
                continue;
            }
            bits += PREFIX_BITS + oracle_payload_bits(w);
            if w != 0 && oracle_payload_bits(w) == 32 {
                if dict_len < 4 {
                    dict[dict_len] = w;
                    dict_len += 1;
                } else {
                    dict.rotate_left(1);
                    dict[3] = w;
                }
            }
        }
        (FPCD_LINE_PREFIX_BYTES + bits.div_ceil(8) as usize).min(LINE_BYTES)
    }

    fn line_from(words: &[u32]) -> [u8; LINE_BYTES] {
        let mut line = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            line[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        line
    }

    /// Checks the kernel against the oracle on the line holding `words`
    /// (at most 16) and zero padding.
    fn assert_matches_oracle(words: &[u32]) -> usize {
        let line = line_from(words);
        let want = oracle_fpcd_line_bytes(&line);
        assert_eq!(fpcd_line_bytes(&line), want, "line {words:08x?}");
        want
    }

    /// Words on and beside every edge of the FPC pattern ladder.
    fn pattern_edges() -> Vec<u32> {
        let mut edges = vec![0u32];
        for edge in [8i64, 128, 32768] {
            for v in [edge - 1, edge, edge + 1] {
                edges.extend([v as u32, (-v) as u32, (-v - 1) as u32]);
            }
        }
        let halves = [
            0u32, 1, 0x7F, 0x80, 0xFF, 0x100, 0x1234, 0xFF7F, 0xFF80, 0xFFFF,
        ];
        for hi in halves {
            for lo in halves {
                edges.push(hi << 16 | lo);
            }
        }
        for b in [0x01u32, 0x7F, 0x80, 0xAB, 0xFE, 0xFF] {
            edges.extend([
                b * 0x0101_0101,
                (b * 0x0101_0101) ^ 1,
                (b * 0x0101_0101) ^ 0x100,
            ]);
        }
        edges.extend([
            0x3F80_0000,
            0x4049_0FDB,
            0xBF80_0001,
            0x8000_0000,
            0x7FFF_FFFF,
        ]);
        edges
    }

    #[test]
    fn kernel_classifies_every_pattern_edge_like_the_ladder() {
        for w in pattern_edges() {
            assert_eq!(
                fpc_payload_bits(w),
                oracle_payload_bits(w),
                "word {w:#010x}"
            );
            assert_matches_oracle(&[w; WORDS_PER_LINE]);
            assert_matches_oracle(&[w]);
        }
        for window in pattern_edges().windows(WORDS_PER_LINE) {
            assert_matches_oracle(window);
        }
    }

    #[test]
    fn dictionary_is_a_four_entry_fifo() {
        let [a, b, c, d, e] = [
            0x3F8C_5A31u32,
            0x4049_0FDB,
            0x4120_0001,
            0xC2F6_E979,
            0x3DCC_CCCD,
        ];
        // Four misses, then a hit: 4 * 35 + 5 + 11 zero words * 6 = 211 bits.
        assert_eq!(assert_matches_oracle(&[a, b, c, d, a]), 8 + 27);
        // The fifth distinct word evicts the first, so its repeat misses:
        // 6 * 35 + 10 * 6 = 270 bits.
        assert_eq!(assert_matches_oracle(&[a, b, c, d, e, a]), 8 + 34);
        // A hit does not refresh an entry: `a` is still evicted first,
        // 4 * 35 + 5 + 35 + 35 + 9 * 6 = 269 bits.
        assert_eq!(assert_matches_oracle(&[a, b, c, d, a, e, a]), 8 + 34);
        // One raw word repeated: 35 + 15 * 5 = 110 bits.
        assert_eq!(assert_matches_oracle(&[a; WORDS_PER_LINE]), 8 + 14);
        // Zero never hits, even before anything was inserted: 15 * 6 + 35
        // = 125 bits.
        let mut sparse = [0u32; WORDS_PER_LINE];
        sparse[1] = a;
        assert_eq!(assert_matches_oracle(&sparse), 8 + 16);
    }

    #[test]
    fn kernel_matches_oracle_on_random_lines() {
        let mut rng = SmallRng::seed_from_u64(0xF9CD);
        let edges = pattern_edges();
        for _ in 0..20_000 {
            // A small pool of raw words makes hits and evictions common.
            let pool: Vec<u32> = (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(0x3000_0000u32..0x5000_0000))
                .collect();
            let len = rng.gen_range(1..=WORDS_PER_LINE);
            let words: Vec<u32> = (0..len)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => edges[rng.gen_range(0..edges.len())],
                    2 => pool[rng.gen_range(0..pool.len())],
                    _ => rng.gen_range(0..=u32::MAX),
                })
                .collect();
            assert_matches_oracle(&words);
            let line = line_from(&words);
            let oracle_fpc: u32 = words_of(&line)
                .iter()
                .map(|&w| PREFIX_BITS + oracle_payload_bits(w))
                .sum();
            assert_eq!(fpc_line_bits(&line), oracle_fpc as usize);
        }
    }

    #[test]
    fn zero_line_compresses_hard() {
        let line = [0u8; LINE_BYTES];
        // 16 words * (3 prefix + 3 payload) = 96 bits = 12 bytes.
        assert_eq!(fpc_line_bits(&line), 96);
        assert_eq!(fpcd_line_bytes(&line), FPCD_LINE_PREFIX_BYTES + 12);
    }

    #[test]
    fn random_float_line_is_nearly_incompressible() {
        let words = [0x3F8C_5A31u32; WORDS_PER_LINE].map(|w| w ^ 0xDEAD);
        let line = line_from(&words);
        // Every word identical: the first is uncompressed, the rest hit
        // the FPC-D dictionary.
        let bytes = fpcd_line_bytes(&line);
        assert!(
            bytes < LINE_BYTES / 2,
            "dictionary must catch repeats: {bytes}"
        );
    }

    #[test]
    fn distinct_random_floats_stay_raw() {
        let mut words = [0u32; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            *w = 0x3F80_0000 + 0x1357 * (i as u32 + 1); // distinct fp32 patterns
        }
        let line = line_from(&words);
        assert_eq!(fpcd_line_bytes(&line), LINE_BYTES, "capped at raw size");
    }

    #[test]
    fn small_integers_use_short_patterns() {
        assert_eq!(fpc_payload_bits(0), 3);
        assert_eq!(fpc_payload_bits(5), 4);
        assert_eq!(fpc_payload_bits((-3i32) as u32), 4);
        assert_eq!(fpc_payload_bits(100), 8);
        assert_eq!(fpc_payload_bits(30_000), 16);
        assert_eq!(fpc_payload_bits(0xABAB_ABAB), 8); // repeated bytes
        assert_eq!(fpc_payload_bits(0x1234_0000), 16); // low half zero... high half used
    }

    #[test]
    fn fpcd_never_exceeds_line_size() {
        let data: Vec<f32> = (0..1024).map(|i| (i as f32).sin() * 1e7).collect();
        for line in lines_of(&data) {
            assert!(fpcd_line_bytes(&line) <= LINE_BYTES);
        }
    }
}
