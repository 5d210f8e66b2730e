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
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn contains(&self, v: u8) -> bool {
        self.words[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    /// Insert a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn insert(&mut self, v: u8) {
        self.words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Remove a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn remove(&mut self, v: u8) {
        self.words[(v >> 6) as usize] &= !(1 << (v & 63));
    }

    /// Set intersection.
    // dice-lint: allow(panic-freedom): the 0..4 loop stays inside the fixed [u64; 4] word array
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

    /// The values whose bit `bit` (0..8) is set.
    pub(super) fn with_bit(bit: u8) -> ByteSet {
        /// Bit `b` of a word's position index, for the six bits a word spans.
        const IN_WORD: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        let words = match IN_WORD.get(bit as usize) {
            Some(&pattern) => [pattern; 4],
            None if bit == 6 => [0, u64::MAX, 0, u64::MAX],
            None => [0, 0, u64::MAX, u64::MAX],
        };
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
    fn with_bit_agrees_with_membership() {
        for bit in 0..8u8 {
            let ones = ByteSet::with_bit(bit);
            assert!((0..=u8::MAX).all(|v| ones.contains(v) == (v >> bit & 1 == 1)));
        }
    }
}
