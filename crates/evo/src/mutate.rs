//! Mutation operators.

use crate::genome::BitString;
use crate::rng::SmallRng;

/// A mutation operator over a whole population or a single genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Flip each bit independently with probability `rate`.
    PerBit {
        /// Per-bit flip probability.
        rate: f64,
    },
    /// Flip exactly `count` uniformly drawn bit positions across the whole
    /// population per generation (the hardware GAP's scheme; the same
    /// position may be drawn twice, un-flipping itself, exactly as in
    /// hardware).
    FixedCountPerPopulation {
        /// Number of flips per generation.
        count: usize,
    },
}

impl Mutation {
    /// The hardware GAP's operator for the paper's parameters: 15 flips
    /// over the whole population per generation.
    pub const fn gap() -> Mutation {
        Mutation::FixedCountPerPopulation { count: 15 }
    }

    /// Mutate a population in place.
    pub fn apply_population(&self, population: &mut [BitString], rng: &mut SmallRng) {
        if population.is_empty() {
            return;
        }
        match *self {
            Mutation::PerBit { rate } => {
                let rate = rate.clamp(0.0, 1.0);
                for genome in population.iter_mut() {
                    for i in 0..genome.width() {
                        if rng.random_bool(rate) {
                            genome.flip(i);
                        }
                    }
                }
            }
            Mutation::FixedCountPerPopulation { count } => {
                let width = population[0].width();
                let total = width * population.len();
                for _ in 0..count {
                    let pos = rng.random_range(0..total);
                    population[pos / width].flip(pos % width);
                }
            }
        }
    }

    /// Expected number of flipped bits per generation for a population of
    /// `n` genomes of `width` bits.
    pub fn expected_flips(&self, n: usize, width: usize) -> f64 {
        match *self {
            Mutation::PerBit { rate } => rate.clamp(0.0, 1.0) * (n * width) as f64,
            Mutation::FixedCountPerPopulation { count } => count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_count_flips_expected_number() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut pop = vec![BitString::zeros(36); 32];
        Mutation::gap().apply_population(&mut pop, &mut rng);
        let flipped: u32 = pop.iter().map(|g| g.count_ones()).sum();
        // each duplicate draw cancels a flip in pairs, so parity and bound
        assert!(flipped as usize <= 15);
        assert_eq!(flipped as usize % 2, 15 % 2);
        // collisions in 15 draws over 1152 bits are rare; usually all 15 land
        assert!(flipped >= 11);
    }

    #[test]
    fn per_bit_rate_statistics() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut pop = vec![BitString::zeros(100); 100];
        Mutation::PerBit { rate: 0.05 }.apply_population(&mut pop, &mut rng);
        let flipped: u32 = pop.iter().map(|g| g.count_ones()).sum();
        // expectation 500, sd ~21.8
        assert!((400..620).contains(&flipped), "{flipped}");
    }

    #[test]
    fn zero_rate_is_identity() {
        let mut rng = SmallRng::seed_from_u64(3);
        let orig = vec![BitString::random(50, &mut rng); 10];
        let mut pop = orig.clone();
        Mutation::PerBit { rate: 0.0 }.apply_population(&mut pop, &mut rng);
        assert_eq!(pop, orig);
        Mutation::FixedCountPerPopulation { count: 0 }.apply_population(&mut pop, &mut rng);
        assert_eq!(pop, orig);
    }

    #[test]
    fn empty_population_is_noop() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut pop: Vec<BitString> = Vec::new();
        Mutation::gap().apply_population(&mut pop, &mut rng);
    }

    #[test]
    fn expected_flips_formulae() {
        assert_eq!(Mutation::gap().expected_flips(32, 36), 15.0);
        assert!((Mutation::PerBit { rate: 0.01 }.expected_flips(32, 36) - 11.52).abs() < 1e-12);
    }

    #[test]
    fn gap_mutation_matches_paper_rate() {
        // 15 flips / 1152 bits ≈ 1.3% per-bit equivalent
        let m = Mutation::gap();
        let rate = m.expected_flips(32, 36) / (32.0 * 36.0);
        assert!((rate - 0.013).abs() < 0.001);
    }
}
