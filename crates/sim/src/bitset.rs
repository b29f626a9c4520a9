//! Packed per-line boolean cache state.
//!
//! [`CacheArray`](crate::cache::CacheArray) keeps a dirty and a prefetched
//! bit per cache line. Storing them as `Vec<bool>` costs a byte per flag
//! and scatters the hot access path across host cache lines; packing them
//! as bit pairs keeps a whole set's flag state in one or two machine
//! words.

use serde::{Deserialize, Serialize};

/// The dirty and prefetched bits of cache lines, packed as adjacent bit
/// pairs (32 lines per `u64` word).
///
/// [`CacheArray`](crate::cache::CacheArray) reads and writes both flags of
/// the same line on its hot paths (a fill assigns both, an invalidation
/// clears both). Keeping the pair in one word means each of those is a
/// single load-modify-store on a single host cache line, where one
/// bitset per flag would touch two.
///
/// # Example
///
/// ```
/// use zcomp_sim::bitset::LineFlags;
///
/// let mut f = LineFlags::new(100);
/// f.assign(7, true, true);
/// assert!(f.dirty(7));
/// assert!(f.take_prefetched(7), "first demand consumes the bit");
/// assert!(!f.take_prefetched(7));
/// assert!(f.dirty(7), "dirty survives the take");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineFlags {
    words: Vec<u64>,
    len: usize,
}

impl LineFlags {
    const DIRTY: u64 = 1;
    const PREFETCHED: u64 = 2;

    /// Creates all-clear flags for `len` lines.
    pub fn new(len: usize) -> Self {
        LineFlags {
            words: vec![0; len.div_ceil(32)],
            len,
        }
    }

    /// Number of lines the flags cover.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether zero lines are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn shift(i: usize) -> u32 {
        ((i & 31) * 2) as u32
    }

    /// Reads line `i`'s dirty bit.
    #[inline(always)]
    pub fn dirty(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 5] >> Self::shift(i)) & Self::DIRTY != 0
    }

    /// Sets line `i`'s dirty bit.
    #[inline(always)]
    pub fn set_dirty(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 5] |= Self::DIRTY << Self::shift(i);
    }

    /// Reads line `i`'s prefetched bit and clears it in the same word
    /// access (the first demand of a prefetched line consumes it).
    #[inline(always)]
    pub fn take_prefetched(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i >> 5];
        let bit = Self::PREFETCHED << Self::shift(i);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    /// Writes both of line `i`'s flags in one word access (line fill).
    #[inline(always)]
    pub fn assign(&mut self, i: usize, dirty: bool, prefetched: bool) {
        debug_assert!(i < self.len);
        let word = &mut self.words[i >> 5];
        let shift = Self::shift(i);
        let pair = u64::from(dirty) | u64::from(prefetched) << 1;
        *word = (*word & !(3u64 << shift)) | (pair << shift);
    }

    /// Clears both of line `i`'s flags (invalidation).
    #[inline(always)]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 5] &= !(3u64 << Self::shift(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_flags_start_clear() {
        let f = LineFlags::new(100);
        assert_eq!(f.len(), 100);
        assert!(!f.is_empty());
        for i in 0..100 {
            assert!(!f.dirty(i), "line {i}");
        }
        assert!(LineFlags::new(0).is_empty());
    }

    #[test]
    fn line_flags_assign_and_clear() {
        let mut f = LineFlags::new(70);
        // Word-boundary neighbours: 31/32 straddle the first word edge.
        f.assign(31, true, false);
        f.assign(32, false, true);
        assert!(f.dirty(31) && !f.dirty(32));
        assert!(!f.take_prefetched(31));
        assert!(f.take_prefetched(32));
        f.clear(31);
        assert!(!f.dirty(31));
        f.set_dirty(69);
        assert!(f.dirty(69));
        // Re-assign overwrites both flags.
        f.assign(69, false, false);
        assert!(!f.dirty(69) && !f.take_prefetched(69));
    }

    #[test]
    fn line_flags_take_consumes_only_prefetched() {
        let mut f = LineFlags::new(40);
        f.assign(5, true, true);
        assert!(f.take_prefetched(5));
        assert!(!f.take_prefetched(5), "take clears the bit");
        assert!(f.dirty(5), "dirty bit untouched by take");
    }

    #[test]
    fn line_flags_match_two_bool_vecs() {
        let n = 517;
        let mut f = LineFlags::new(n);
        let mut dirty = vec![false; n];
        let mut pref = vec![false; n];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % n;
            match (x >> 32) % 4 {
                0 => {
                    let (d, p) = ((x >> 48) & 1 != 0, (x >> 49) & 1 != 0);
                    f.assign(i, d, p);
                    dirty[i] = d;
                    pref[i] = p;
                }
                1 => {
                    f.set_dirty(i);
                    dirty[i] = true;
                }
                2 => {
                    assert_eq!(f.take_prefetched(i), pref[i], "take at {i}");
                    pref[i] = false;
                }
                _ => {
                    f.clear(i);
                    dirty[i] = false;
                    pref[i] = false;
                }
            }
            assert_eq!(f.dirty(i), dirty[i], "dirty at {i}");
        }
        for i in 0..n {
            assert_eq!(f.dirty(i), dirty[i], "final dirty {i}");
            assert_eq!(f.take_prefetched(i), pref[i], "final prefetched {i}");
        }
    }
}
