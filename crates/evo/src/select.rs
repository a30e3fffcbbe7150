//! Selection operators.
//!
//! All operators pick one parent index from a population given the fitness
//! vector. The hardware GAP uses [`Selection::Tournament`] with `k = 2`
//! ("because it does not use real numbers and divisions which are difficult
//! to implement in logic systems", paper §3.2); the alternatives exist for
//! the software ablations.

use crate::rng::SmallRng;

/// A selection operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// Draw `k` individuals uniformly; with probability `p` return the best
    /// of them, otherwise a uniformly random one of the remaining drawn.
    /// `k = 2, p = 0.8` matches the hardware GAP.
    Tournament {
        /// Tournament size.
        k: usize,
        /// Probability the tournament winner is selected.
        p: f64,
    },
    /// Fitness-proportional (roulette-wheel) selection. Requires
    /// non-negative fitness; a population of all-zero fitness degenerates
    /// to uniform selection.
    Roulette,
    /// Linear rank selection: individual of rank r (0 = worst) is drawn
    /// with weight `r + 1`.
    Rank,
    /// Truncation: uniform choice among the best `fraction` of the
    /// population (at least one individual).
    Truncation {
        /// Fraction of the population eligible, in `(0, 1]`.
        fraction: f64,
    },
}

impl Selection {
    /// The hardware GAP's operator: binary tournament, winner with p = 0.8.
    pub const fn gap() -> Selection {
        Selection::Tournament { k: 2, p: 0.8 }
    }

    /// Select one parent index.
    ///
    /// # Panics
    /// Panics on an empty population, a tournament with `k == 0`, or a
    /// truncation fraction outside `(0, 1]`.
    pub fn pick(&self, fitness: &[f64], rng: &mut SmallRng) -> usize {
        let n = fitness.len();
        assert!(n > 0, "cannot select from an empty population");
        match *self {
            Selection::Tournament { k, p } => {
                assert!(k > 0, "tournament size must be positive");
                let mut best = rng.random_range(0..n);
                let mut contenders = vec![best];
                for _ in 1..k {
                    let c = rng.random_range(0..n);
                    contenders.push(c);
                    if fitness[c] > fitness[best] {
                        best = c;
                    }
                }
                if rng.random_bool(p.clamp(0.0, 1.0)) {
                    best
                } else {
                    // a uniformly random loser (or the winner again if all
                    // contenders are the same index)
                    let losers: Vec<usize> =
                        contenders.iter().copied().filter(|&c| c != best).collect();
                    if losers.is_empty() {
                        best
                    } else {
                        losers[rng.random_range(0..losers.len())]
                    }
                }
            }
            Selection::Roulette => {
                let total: f64 = fitness.iter().sum();
                assert!(
                    fitness.iter().all(|&f| f >= 0.0),
                    "roulette requires non-negative fitness"
                );
                if total <= 0.0 {
                    return rng.random_range(0..n);
                }
                let mut ball = rng.random_range(0.0..total);
                for (i, &f) in fitness.iter().enumerate() {
                    if ball < f {
                        return i;
                    }
                    ball -= f;
                }
                n - 1 // numeric slack
            }
            Selection::Rank => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("NaN fitness"));
                // weight of rank r is r+1; total = n(n+1)/2
                let total = n * (n + 1) / 2;
                let mut ball = rng.random_range(0..total);
                for (r, &idx) in order.iter().enumerate() {
                    let w = r + 1;
                    if ball < w {
                        return idx;
                    }
                    ball -= w;
                }
                order[n - 1]
            }
            Selection::Truncation { fraction } => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "truncation fraction must be in (0, 1]"
                );
                let keep = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| fitness[b].partial_cmp(&fitness[a]).expect("NaN fitness"));
                order[rng.random_range(0..keep)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(sel: Selection, fitness: &[f64], trials: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..trials {
            counts[sel.pick(fitness, &mut rng)] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / trials as f64)
            .collect()
    }

    #[test]
    fn tournament_prefers_fitter() {
        let f = vec![1.0, 2.0, 3.0, 4.0];
        let freq = frequencies(Selection::gap(), &f, 40_000, 1);
        assert!(freq[3] > freq[2]);
        assert!(freq[2] > freq[1]);
        assert!(freq[1] > freq[0]);
        // everyone retains a nonzero chance (p < 1)
        assert!(freq[0] > 0.01);
    }

    #[test]
    fn tournament_p1_always_picks_winner_of_pair() {
        let f = vec![0.0, 10.0];
        let freq = frequencies(Selection::Tournament { k: 2, p: 1.0 }, &f, 10_000, 2);
        // index 1 wins every tournament it appears in; it is absent only
        // when both draws hit index 0 (probability 1/4)
        assert!((freq[1] - 0.75).abs() < 0.02, "{freq:?}");
    }

    #[test]
    fn roulette_proportional() {
        let f = vec![1.0, 3.0];
        let freq = frequencies(Selection::Roulette, &f, 40_000, 3);
        assert!((freq[1] - 0.75).abs() < 0.02, "{freq:?}");
    }

    #[test]
    fn roulette_degenerates_to_uniform_on_zero_fitness() {
        let f = vec![0.0, 0.0, 0.0];
        let freq = frequencies(Selection::Roulette, &f, 30_000, 4);
        for p in freq {
            assert!((p - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn rank_ignores_fitness_scale() {
        // rank selection must give identical frequencies for order-
        // equivalent fitness vectors
        let a = frequencies(Selection::Rank, &[1.0, 2.0, 3.0], 40_000, 5);
        let b = frequencies(Selection::Rank, &[1.0, 100.0, 10_000.0], 40_000, 5);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.02);
        }
        // best of 3 has weight 3/6
        assert!((a[2] - 0.5).abs() < 0.02, "{a:?}");
    }

    #[test]
    fn truncation_only_picks_top() {
        let f = vec![1.0, 5.0, 3.0, 4.0];
        let freq = frequencies(Selection::Truncation { fraction: 0.5 }, &f, 20_000, 6);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.02);
        assert!((freq[3] - 0.5).abs() < 0.02);
    }

    #[test]
    fn truncation_keeps_at_least_one() {
        let f = vec![1.0, 9.0];
        let freq = frequencies(Selection::Truncation { fraction: 0.01 }, &f, 1000, 7);
        assert_eq!(freq[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        Selection::gap().pick(&[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn roulette_rejects_negative_fitness() {
        let mut rng = SmallRng::seed_from_u64(1);
        Selection::Roulette.pick(&[1.0, -0.5], &mut rng);
    }
}
