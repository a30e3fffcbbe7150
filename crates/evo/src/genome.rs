//! Arbitrary-width bit-string genomes.

use crate::rng::SmallRng;
use std::fmt;

/// A fixed-width string of bits, the genome representation used by every
/// searcher in this crate.
///
/// Bits are stored LSB-first in 64-bit words; unused bits of the last word
/// are kept at zero (an invariant enforced by all mutating operations and
/// checked by `debug_assert`s).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    width: usize,
}

impl BitString {
    /// The all-zeros string of `width` bits.
    pub fn zeros(width: usize) -> BitString {
        BitString {
            words: vec![0; width.div_ceil(64)],
            width,
        }
    }

    /// A uniformly random string of `width` bits.
    pub fn random(width: usize, rng: &mut SmallRng) -> BitString {
        let mut s = BitString::zeros(width);
        for w in &mut s.words {
            *w = rng.next_u64();
        }
        s.mask_tail();
        s
    }

    /// Build from the low `width` bits of `value`.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn from_u64(value: u64, width: usize) -> BitString {
        assert!(width <= 64, "from_u64 supports at most 64 bits");
        let mut s = BitString::zeros(width);
        if width > 0 {
            s.words[0] = if width == 64 {
                value
            } else {
                value & ((1u64 << width) - 1)
            };
        }
        s
    }

    /// The low 64 bits as a `u64` (exact when `width <= 64`).
    pub fn to_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Number of bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= width`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index out of range");
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Set bit `i` to `v`.
    ///
    /// # Panics
    /// Panics if `i >= width`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.width, "bit index out of range");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flip bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= width`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.width, "bit index out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn hamming_distance(&self, other: &BitString) -> u32 {
        assert_eq!(self.width, other.width, "width mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Single-point crossover at `point` (`1..width`): offspring A takes
    /// `self`'s bits below `point` and `other`'s from `point` up; offspring
    /// B is the complement.
    ///
    /// # Panics
    /// Panics unless `1 <= point < width` and widths match.
    pub fn crossover_at(&self, other: &BitString, point: usize) -> (BitString, BitString) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert!(
            (1..self.width).contains(&point),
            "crossover point out of range"
        );
        let mut a = self.clone();
        let mut b = other.clone();
        for i in point..self.width {
            a.set(i, other.get(i));
            b.set(i, self.get(i));
        }
        (a, b)
    }

    /// Two-point crossover exchanging the middle segment `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi < width` and widths match.
    pub fn crossover_two_point(
        &self,
        other: &BitString,
        lo: usize,
        hi: usize,
    ) -> (BitString, BitString) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert!(0 < lo && lo < hi && hi < self.width, "invalid segment");
        let mut a = self.clone();
        let mut b = other.clone();
        for i in lo..hi {
            a.set(i, other.get(i));
            b.set(i, self.get(i));
        }
        (a, b)
    }

    /// Uniform crossover: for each bit, swap between the offspring with
    /// probability `p_swap`.
    pub fn crossover_uniform(
        &self,
        other: &BitString,
        p_swap: f64,
        rng: &mut SmallRng,
    ) -> (BitString, BitString) {
        assert_eq!(self.width, other.width, "width mismatch");
        let mut a = self.clone();
        let mut b = other.clone();
        for i in 0..self.width {
            if rng.random_bool(p_swap) {
                a.set(i, other.get(i));
                b.set(i, self.get(i));
            }
        }
        (a, b)
    }

    /// Iterate over the bits, LSB-first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    fn mask_tail(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString[{}; ", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_width() {
        let s = BitString::zeros(100);
        assert_eq!(s.width(), 100);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn set_get_flip() {
        let mut s = BitString::zeros(70);
        s.set(65, true);
        assert!(s.get(65));
        s.flip(65);
        assert!(!s.get(65));
        s.flip(0);
        assert!(s.get(0));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitString::zeros(10).get(10);
    }

    #[test]
    fn from_u64_roundtrip() {
        let s = BitString::from_u64(0xABC, 12);
        assert_eq!(s.to_u64(), 0xABC);
        let t = BitString::from_u64(u64::MAX, 12);
        assert_eq!(t.to_u64(), 0xFFF);
        let full = BitString::from_u64(u64::MAX, 64);
        assert_eq!(full.to_u64(), u64::MAX);
    }

    #[test]
    fn random_respects_width() {
        let mut rng = SmallRng::seed_from_u64(1);
        for width in [1usize, 63, 64, 65, 129] {
            let s = BitString::random(width, &mut rng);
            assert_eq!(s.width(), width);
            // tail bits beyond width must be zero
            let total_bits: u32 = s.words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total_bits, s.count_ones());
            assert!(s.count_ones() as usize <= width);
        }
    }

    #[test]
    fn single_point_crossover_preserves_segments() {
        let a = BitString::from_u64(0, 16);
        let b = BitString::from_u64(0xFFFF, 16);
        let (x, y) = a.crossover_at(&b, 4);
        assert_eq!(x.to_u64(), 0xFFF0);
        assert_eq!(y.to_u64(), 0x000F);
    }

    #[test]
    fn two_point_crossover_swaps_middle() {
        let a = BitString::from_u64(0, 16);
        let b = BitString::from_u64(0xFFFF, 16);
        let (x, y) = a.crossover_two_point(&b, 4, 8);
        assert_eq!(x.to_u64(), 0x00F0);
        assert_eq!(y.to_u64(), 0xFF0F);
    }

    #[test]
    fn uniform_crossover_preserves_multiset() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = BitString::random(80, &mut rng);
        let b = BitString::random(80, &mut rng);
        let (x, y) = a.crossover_uniform(&b, 0.5, &mut rng);
        // per position, {x_i, y_i} == {a_i, b_i}
        for i in 0..80 {
            let mut got = [x.get(i), y.get(i)];
            let mut want = [a.get(i), b.get(i)];
            got.sort();
            want.sort();
            assert_eq!(got, want, "bit {i}");
        }
    }

    #[test]
    fn hamming_distance_symmetry() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = BitString::random(100, &mut rng);
        let b = BitString::random(100, &mut rng);
        assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn debug_format_msb_first() {
        let s = BitString::from_u64(0b101, 4);
        assert_eq!(format!("{s:?}"), "BitString[4; 0101]");
    }

    #[test]
    fn iter_matches_get() {
        let s = BitString::from_u64(0b1100_1010, 8);
        let v: Vec<bool> = s.iter().collect();
        assert_eq!(v, vec![false, true, false, true, false, false, true, true]);
    }
}
