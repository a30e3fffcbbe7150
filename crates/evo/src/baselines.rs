//! Baseline searchers the GA is compared against.
//!
//! The paper's own baseline is exhaustive enumeration ("if we had to test
//! all the 68 billion possibilities \[...\] about 19 hours at 1 MHz");
//! [`exhaustive_search`] reproduces it with per-evaluation accounting so
//! the harness can convert evaluations to hardware cycles. The remaining
//! searchers (random search, hill climbing, (1+1)-ES, simulated annealing)
//! are the standard black-box baselines for experiment E7/E9 context.

use crate::genome::BitString;
use crate::problem::Problem;
use crate::rng::SmallRng;

/// Evaluation budget for a baseline searcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of fitness evaluations.
    pub max_evaluations: u64,
}

impl SearchBudget {
    /// A budget of `n` evaluations.
    pub const fn evaluations(n: u64) -> SearchBudget {
        SearchBudget { max_evaluations: n }
    }
}

/// Result of a baseline search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best genome found.
    pub best_genome: BitString,
    /// Its fitness.
    pub best_fitness: f64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Whether the target fitness was reached within the budget.
    pub reached_target: bool,
}

fn target_of<P: Problem>(problem: &P, target: Option<f64>) -> Option<f64> {
    target.or_else(|| problem.max_fitness())
}

/// Uniform random search: sample genomes independently, keep the best.
pub fn random_search<P: Problem>(
    problem: &P,
    budget: SearchBudget,
    target: Option<f64>,
    seed: u64,
) -> SearchResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = target_of(problem, target);
    let mut best_genome = BitString::random(problem.width(), &mut rng);
    let mut best_fitness = problem.fitness(&best_genome);
    let mut evaluations = 1;
    while evaluations < budget.max_evaluations {
        if target.is_some_and(|t| best_fitness >= t) {
            break;
        }
        let g = BitString::random(problem.width(), &mut rng);
        let f = problem.fitness(&g);
        evaluations += 1;
        if f > best_fitness {
            best_fitness = f;
            best_genome = g;
        }
    }
    SearchResult {
        reached_target: target.is_some_and(|t| best_fitness >= t),
        best_genome,
        best_fitness,
        evaluations,
    }
}

/// Exhaustive enumeration of all `2^width` genomes in numeric order, with
/// early exit once the target is reached. Only feasible for small widths in
/// software; the experiment harness uses the evaluation count to project
/// hardware time (1 genome per cycle).
///
/// # Panics
/// Panics if `problem.width() > 40` (guard against runaway enumerations;
/// the paper's 36-bit space already takes minutes in software).
pub fn exhaustive_search<P: Problem>(
    problem: &P,
    budget: SearchBudget,
    target: Option<f64>,
) -> SearchResult {
    let width = problem.width();
    assert!(width <= 40, "exhaustive search capped at 40-bit spaces");
    let space: u64 = 1u64 << width;
    let target = target_of(problem, target);
    let mut best_genome = BitString::from_u64(0, width);
    let mut best_fitness = problem.fitness(&best_genome);
    let mut evaluations: u64 = 1;
    for value in 1..space {
        if evaluations >= budget.max_evaluations || target.is_some_and(|t| best_fitness >= t) {
            break;
        }
        let g = BitString::from_u64(value, width);
        let f = problem.fitness(&g);
        evaluations += 1;
        if f > best_fitness {
            best_fitness = f;
            best_genome = g;
        }
    }
    SearchResult {
        reached_target: target.is_some_and(|t| best_fitness >= t),
        best_genome,
        best_fitness,
        evaluations,
    }
}

/// First-improvement hill climber with random restarts: flips a random bit;
/// keeps the flip when fitness does not decrease; restarts from a random
/// genome after `stall_limit` consecutive non-improving moves.
pub fn hill_climber<P: Problem>(
    problem: &P,
    budget: SearchBudget,
    target: Option<f64>,
    stall_limit: u64,
    seed: u64,
) -> SearchResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = target_of(problem, target);
    let width = problem.width();
    let mut current = BitString::random(width, &mut rng);
    let mut current_f = problem.fitness(&current);
    let mut best_genome = current.clone();
    let mut best_fitness = current_f;
    let mut evaluations: u64 = 1;
    let mut stall: u64 = 0;
    while evaluations < budget.max_evaluations && !target.is_some_and(|t| best_fitness >= t) {
        if stall >= stall_limit {
            current = BitString::random(width, &mut rng);
            current_f = problem.fitness(&current);
            evaluations += 1;
            stall = 0;
        } else {
            let i = rng.random_range(0..width);
            current.flip(i);
            let f = problem.fitness(&current);
            evaluations += 1;
            if f >= current_f {
                stall = if f > current_f { 0 } else { stall + 1 };
                current_f = f;
            } else {
                current.flip(i); // revert
                stall += 1;
            }
        }
        if current_f > best_fitness {
            best_fitness = current_f;
            best_genome = current.clone();
        }
    }
    SearchResult {
        reached_target: target.is_some_and(|t| best_fitness >= t),
        best_genome,
        best_fitness,
        evaluations,
    }
}

/// (1+1)-ES: offspring by per-bit mutation at rate `1/width`; replaces the
/// parent when not worse.
pub fn one_plus_one_es<P: Problem>(
    problem: &P,
    budget: SearchBudget,
    target: Option<f64>,
    seed: u64,
) -> SearchResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = target_of(problem, target);
    let width = problem.width();
    let rate = 1.0 / width as f64;
    let mut parent = BitString::random(width, &mut rng);
    let mut parent_f = problem.fitness(&parent);
    let mut evaluations: u64 = 1;
    while evaluations < budget.max_evaluations && !target.is_some_and(|t| parent_f >= t) {
        let mut child = parent.clone();
        let mut changed = false;
        for i in 0..width {
            if rng.random_bool(rate) {
                child.flip(i);
                changed = true;
            }
        }
        if !changed {
            // force at least one flip so every step explores
            child.flip(rng.random_range(0..width));
        }
        let f = problem.fitness(&child);
        evaluations += 1;
        if f >= parent_f {
            parent = child;
            parent_f = f;
        }
    }
    SearchResult {
        reached_target: target.is_some_and(|t| parent_f >= t),
        best_genome: parent,
        best_fitness: parent_f,
        evaluations,
    }
}

/// Simulated annealing over single-bit flips with geometric cooling.
pub fn simulated_annealing<P: Problem>(
    problem: &P,
    budget: SearchBudget,
    target: Option<f64>,
    initial_temperature: f64,
    cooling: f64,
    seed: u64,
) -> SearchResult {
    assert!(initial_temperature > 0.0, "temperature must be positive");
    assert!(
        cooling > 0.0 && cooling < 1.0,
        "cooling factor must be in (0, 1)"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = target_of(problem, target);
    let width = problem.width();
    let mut current = BitString::random(width, &mut rng);
    let mut current_f = problem.fitness(&current);
    let mut best_genome = current.clone();
    let mut best_fitness = current_f;
    let mut evaluations: u64 = 1;
    let mut temperature = initial_temperature;
    while evaluations < budget.max_evaluations && !target.is_some_and(|t| best_fitness >= t) {
        let i = rng.random_range(0..width);
        current.flip(i);
        let f = problem.fitness(&current);
        evaluations += 1;
        let accept = f >= current_f
            || rng.random_bool(((f - current_f) / temperature).exp().clamp(0.0, 1.0));
        if accept {
            current_f = f;
            if f > best_fitness {
                best_fitness = f;
                best_genome = current.clone();
            }
        } else {
            current.flip(i); // revert
        }
        temperature = (temperature * cooling).max(1e-9);
    }
    SearchResult {
        reached_target: target.is_some_and(|t| best_fitness >= t),
        best_genome,
        best_fitness,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnProblem, OneMax};

    const BUDGET: SearchBudget = SearchBudget::evaluations(200_000);

    #[test]
    fn random_search_solves_tiny_problem() {
        let r = random_search(&OneMax(10), BUDGET, None, 1);
        assert!(r.reached_target);
        assert_eq!(r.best_fitness, 10.0);
    }

    #[test]
    fn random_search_respects_budget() {
        let r = random_search(&OneMax(60), SearchBudget::evaluations(100), None, 2);
        assert!(!r.reached_target);
        assert_eq!(r.evaluations, 100);
    }

    #[test]
    fn exhaustive_finds_global_optimum() {
        // a needle: only genome 0b1010110 scores 1
        let p = FnProblem::new(7, |g: &BitString| f64::from(g.to_u64() == 0b1010110)).with_max(1.0);
        let r = exhaustive_search(&p, SearchBudget::evaluations(u64::MAX), None);
        assert!(r.reached_target);
        assert_eq!(r.best_genome.to_u64(), 0b1010110);
        assert_eq!(r.evaluations, 0b1010110 + 1); // early exit right at the needle
    }

    #[test]
    fn exhaustive_scans_whole_space_without_target() {
        let p = FnProblem::new(8, |g: &BitString| f64::from(g.count_ones()));
        let r = exhaustive_search(&p, SearchBudget::evaluations(u64::MAX), None);
        assert_eq!(r.evaluations, 256);
        assert_eq!(r.best_fitness, 8.0);
        assert!(!r.reached_target); // no target was known
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn exhaustive_rejects_huge_spaces() {
        let p = OneMax(41);
        exhaustive_search(&p, BUDGET, None);
    }

    #[test]
    fn hill_climber_solves_onemax() {
        let r = hill_climber(&OneMax(36), BUDGET, None, 200, 3);
        assert!(r.reached_target, "hill climber failed on OneMax");
        assert_eq!(r.best_fitness, 36.0);
    }

    #[test]
    fn one_plus_one_solves_onemax() {
        let r = one_plus_one_es(&OneMax(36), BUDGET, None, 4);
        assert!(r.reached_target);
    }

    #[test]
    fn annealing_solves_onemax() {
        let r = simulated_annealing(&OneMax(36), BUDGET, None, 2.0, 0.9995, 5);
        assert!(r.reached_target, "SA failed on OneMax");
    }

    #[test]
    fn baselines_are_deterministic_per_seed() {
        let a = hill_climber(&OneMax(30), BUDGET, None, 100, 6);
        let b = hill_climber(&OneMax(30), BUDGET, None, 100, 6);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_genome, b.best_genome);
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn annealing_validates_cooling() {
        simulated_annealing(&OneMax(8), BUDGET, None, 1.0, 1.5, 1);
    }
}
