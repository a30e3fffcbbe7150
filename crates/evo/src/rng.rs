//! The seeded generator behind every searcher in this crate.
//!
//! [`SmallRng`] is xoshiro256++ (the algorithm `rand` uses for its
//! `SmallRng` on 64-bit targets), seeded from a `u64` through SplitMix64.
//! Every operator takes `&mut SmallRng`, so a seed fixes a run's whole
//! draw sequence. The paper-faithful code paths run on the CA PRNG in
//! `discipulus::rng` and never touch this generator.

use core::ops::Range;

/// A small, fast, non-cryptographic PRNG: xoshiro256++.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// A generator whose state is the first four outputs of SplitMix64
    /// started at `state` (the standard `rand` seed expansion).
    /// SplitMix64's output mix is a bijection, so the four words are never
    /// all zero, the one state xoshiro cannot leave.
    pub fn seed_from_u64(state: u64) -> SmallRng {
        let mut sm = SplitMix64(state);
        SmallRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// The next 32 random bits: the high half of one 64-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draw one value uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn random_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }

    /// Return `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits of one output.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, bound)` by masking to the next power of two
    /// and rejecting out-of-range words (no modulo bias).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound == 1 {
            return 0;
        }
        let mask = u64::MAX >> (bound - 1).leading_zeros();
        loop {
            let draw = self.next_u64() & mask;
            if draw < bound {
                return draw;
            }
        }
    }
}

/// The value types [`SmallRng::random_range`] draws from a `Range` of.
pub trait SampleRange: Sized {
    /// Draw one value uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample(range: Range<Self>, rng: &mut SmallRng) -> Self;
}

impl SampleRange for usize {
    fn sample(range: Range<usize>, rng: &mut SmallRng) -> usize {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = (range.end as u64).wrapping_sub(range.start as u64);
        range.start + rng.below(span) as usize
    }
}

impl SampleRange for f64 {
    fn sample(range: Range<f64>, rng: &mut SmallRng) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + rng.unit_f64() * (range.end - range.start)
    }
}

/// SplitMix64, used only to expand `u64` seeds into generator state.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers recorded from the generator this module replaced
    // (the in-repo `rand` stand-in); every seeded `evo` run depends on
    // them staying fixed.
    #[test]
    fn known_answers_are_pinned() {
        let mut zero = SmallRng::seed_from_u64(0);
        assert_eq!(
            [0; 4].map(|_| zero.next_u64()),
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a
            ]
        );
        let mut answer = SmallRng::seed_from_u64(42);
        assert_eq!(
            [0; 4].map(|_| answer.next_u64()),
            [
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8
            ]
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            [0; 4].map(|_| rng.next_u32()),
            [0xcfc5d07f, 0xbf424132, 0x19a37d57, 0xbf08119f]
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            [0; 16].map(|_| rng.random_range(0..37)),
            [27, 13, 32, 22, 36, 5, 7, 33, 16, 22, 9, 22, 9, 34, 30, 10]
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            [0; 16].map(|_| rng.random_range(1..36)),
            [28, 14, 33, 23, 6, 8, 34, 17, 23, 10, 23, 10, 35, 31, 11, 12]
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            [0; 16].map(|_| rng.random_range(0.0..1.0)),
            [
                0.8116121588818848,
                0.7471047161582187,
                0.10015090353378375,
                0.7462168706168104,
                0.18467857211916938,
                0.5904788847320792,
                0.9868740786414067,
                0.5234168639903058,
                0.0966018259179694,
                0.13429378204468956,
                0.9203805313125595,
                0.34350102339469746,
                0.07243173322918839,
                0.39458050181411974,
                0.08949692520153907,
                0.15634695649001407
            ]
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            [0; 16].map(|_| rng.random_bool(0.3)),
            [
                false, false, true, false, true, false, false, false, true, true, false, false,
                true, false, true, true
            ]
        );
    }

    #[test]
    fn small_rng_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn random_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn random_range_covers_every_value() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.random_range(0usize..6)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform draw misses values: {seen:?}"
        );
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.5)));
    }

    #[test]
    fn splitmix_reference_values() {
        // first outputs of SplitMix64 seeded with 0 (published sequence)
        let mut sm = SplitMix64(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }
}
