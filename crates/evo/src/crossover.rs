//! Crossover operators.

use crate::genome::BitString;
use crate::rng::SmallRng;

/// A crossover operator producing two offspring from two parents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crossover {
    /// Single cut point (the hardware GAP's operator).
    SinglePoint,
    /// Two cut points; the middle segment is exchanged.
    TwoPoint,
    /// Per-bit exchange with probability `p_swap`.
    Uniform {
        /// Per-bit swap probability.
        p_swap: f64,
    },
}

impl Crossover {
    /// Apply the operator.
    ///
    /// # Panics
    /// Panics if parents have different widths or width < 2 (no interior
    /// cut point exists).
    pub fn apply(
        &self,
        a: &BitString,
        b: &BitString,
        rng: &mut SmallRng,
    ) -> (BitString, BitString) {
        assert_eq!(a.width(), b.width(), "parent width mismatch");
        let w = a.width();
        assert!(w >= 2, "crossover needs at least 2 bits");
        match *self {
            Crossover::SinglePoint => {
                let point = rng.random_range(1..w);
                a.crossover_at(b, point)
            }
            Crossover::TwoPoint => {
                let mut lo = rng.random_range(1..w);
                let mut hi = rng.random_range(1..w);
                if lo > hi {
                    std::mem::swap(&mut lo, &mut hi);
                }
                if lo == hi {
                    // degenerate: behave as a pass-through (empty segment)
                    return (a.clone(), b.clone());
                }
                a.crossover_two_point(b, lo, hi)
            }
            Crossover::Uniform { p_swap } => a.crossover_uniform(b, p_swap.clamp(0.0, 1.0), rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parents(w: usize, seed: u64) -> (BitString, BitString, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = BitString::random(w, &mut rng);
        let b = BitString::random(w, &mut rng);
        (a, b, rng)
    }

    /// Every crossover must conserve the per-position bit multiset.
    fn assert_multiset_preserved(a: &BitString, b: &BitString, x: &BitString, y: &BitString) {
        for i in 0..a.width() {
            let mut got = [x.get(i), y.get(i)];
            let mut want = [a.get(i), b.get(i)];
            got.sort();
            want.sort();
            assert_eq!(got, want, "bit {i} not conserved");
        }
    }

    #[test]
    fn single_point_conserves_bits() {
        let (a, b, mut rng) = parents(64, 1);
        for _ in 0..50 {
            let (x, y) = Crossover::SinglePoint.apply(&a, &b, &mut rng);
            assert_multiset_preserved(&a, &b, &x, &y);
        }
    }

    #[test]
    fn two_point_conserves_bits() {
        let (a, b, mut rng) = parents(64, 2);
        for _ in 0..50 {
            let (x, y) = Crossover::TwoPoint.apply(&a, &b, &mut rng);
            assert_multiset_preserved(&a, &b, &x, &y);
        }
    }

    #[test]
    fn uniform_conserves_bits() {
        let (a, b, mut rng) = parents(64, 3);
        for _ in 0..50 {
            let (x, y) = Crossover::Uniform { p_swap: 0.5 }.apply(&a, &b, &mut rng);
            assert_multiset_preserved(&a, &b, &x, &y);
        }
    }

    #[test]
    fn uniform_zero_probability_is_identity() {
        let (a, b, mut rng) = parents(32, 4);
        let (x, y) = Crossover::Uniform { p_swap: 0.0 }.apply(&a, &b, &mut rng);
        assert_eq!(x, a);
        assert_eq!(y, b);
    }

    #[test]
    fn single_point_offspring_differ_from_parents_generally() {
        let a = BitString::from_u64(0, 36);
        let b = BitString::from_u64((1 << 36) - 1, 36);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut changed = 0;
        for _ in 0..100 {
            let (x, _) = Crossover::SinglePoint.apply(&a, &b, &mut rng);
            if x != a && x != b {
                changed += 1;
            }
        }
        assert_eq!(changed, 100, "interior cut always mixes these parents");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = BitString::zeros(8);
        let b = BitString::zeros(9);
        Crossover::SinglePoint.apply(&a, &b, &mut rng);
    }
}
