//! The 256-bit set of candidate values of one input byte.

use crate::expr::Lanes;

/// 256-bit set of candidate byte values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSet {
    words: [u64; 4],
}

impl ByteSet {
    /// The full set (all 256 values).
    pub fn full() -> Self {
        ByteSet {
            words: [u64::MAX; 4],
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        ByteSet { words: [0; 4] }
    }

    /// Membership test.
    #[expect(
        clippy::indexing_slicing,
        reason = "v >> 6 < 4 indexes the fixed [u64; 4] word array"
    )]
    pub fn contains(&self, v: u8) -> bool {
        self.words[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    /// Insert a value.
    #[expect(
        clippy::indexing_slicing,
        reason = "v >> 6 < 4 indexes the fixed [u64; 4] word array"
    )]
    pub fn insert(&mut self, v: u8) {
        self.words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Remove a value.
    #[expect(
        clippy::indexing_slicing,
        reason = "v >> 6 < 4 indexes the fixed [u64; 4] word array"
    )]
    pub fn remove(&mut self, v: u8) {
        self.words[(v >> 6) as usize] &= !(1 << (v & 63));
    }

    /// Set intersection.
    #[expect(
        clippy::indexing_slicing,
        reason = "the 0..4 loop stays inside the fixed [u64; 4] word array"
    )]
    pub fn intersect(&mut self, other: &ByteSet) {
        for i in 0..4 {
            self.words[i] &= other.words[i];
        }
    }

    /// The values *not* in this set.
    pub fn complement(&self) -> ByteSet {
        ByteSet {
            words: self.words.map(|w| !w),
        }
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no value remains.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate members in ascending order (one `trailing_zeros` per
    /// member, not 256 membership tests).
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.words
            .iter()
            .zip([0u8, 64, 128, 192])
            .flat_map(|(&word, base)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as u8;
                        rest &= rest - 1;
                        base + bit
                    })
                })
            })
    }

    /// The smallest member.
    pub fn first(&self) -> Option<u8> {
        self.iter().next()
    }

    /// Set union.
    #[expect(
        clippy::indexing_slicing,
        reason = "the 0..4 loop stays inside the fixed [u64; 4] word array"
    )]
    pub(super) fn union(&mut self, other: &ByteSet) {
        for i in 0..4 {
            self.words[i] |= other.words[i];
        }
    }

    /// The values `lo..=hi` (none when `lo > hi`).
    pub(super) fn range(lo: u8, hi: u8) -> ByteSet {
        let mut words = [0u64; 4];
        for (word, base) in words.iter_mut().zip([0u32, 64, 128, 192]) {
            let (from, to) = ((lo as u32).max(base), (hi as u32).min(base + 63));
            if from <= to {
                *word = u64::MAX >> (63 - (to - from)) << (from - base);
            }
        }
        ByteSet { words }
    }

    /// The byte values whose lane is non-zero.
    pub(super) fn truthy(lanes: &Lanes) -> ByteSet {
        let mut words = [0u64; 4];
        for (word, chunk) in words.iter_mut().zip(lanes.chunks(64)) {
            for (bit, &lane) in chunk.iter().enumerate() {
                *word |= ((lane != 0) as u64) << bit;
            }
        }
        ByteSet { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteset_basics() {
        let mut s = ByteSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(255);
        s.insert(100);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(255) && s.contains(100));
        s.remove(100);
        assert!(!s.contains(100));
        let all = ByteSet::full();
        assert_eq!(all.len(), 256);
        let mut inter = all;
        inter.intersect(&s);
        assert_eq!(inter.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 255]);
    }

    #[test]
    fn byteset_iter_and_complement_agree_with_membership() {
        let mut s = ByteSet::empty();
        for v in [0u8, 1, 63, 64, 65, 127, 128, 191, 192, 254, 255] {
            s.insert(v);
        }
        let members =
            |set: &ByteSet| -> Vec<u8> { (0..=u8::MAX).filter(|&v| set.contains(v)).collect() };
        assert_eq!(s.iter().collect::<Vec<_>>(), members(&s));
        assert_eq!(s.first(), Some(0));
        let c = s.complement();
        assert_eq!(c.iter().collect::<Vec<_>>(), members(&c));
        assert_eq!(c.len() + s.len(), 256);
        assert!((0..=u8::MAX).all(|v| c.contains(v) != s.contains(v)));
        assert_eq!(c.first(), Some(2));
        assert_eq!(ByteSet::empty().first(), None);
        assert_eq!(ByteSet::full().complement(), ByteSet::empty());
    }

    #[test]
    fn range_and_union_agree_with_membership() {
        for (lo, hi) in [
            (0u8, 255u8),
            (0, 0),
            (255, 255),
            (63, 64),
            (1, 200),
            (130, 191),
            (9, 3),
        ] {
            let set = ByteSet::range(lo, hi);
            assert!((0..=u8::MAX).all(|v| set.contains(v) == (lo..=hi).contains(&v)));
        }
        let mut either = ByteSet::range(3, 70);
        either.union(&ByteSet::range(200, 201));
        assert_eq!(either.len(), 68 + 2);
        assert!(either.contains(70) && either.contains(200) && !either.contains(71));
    }
}
