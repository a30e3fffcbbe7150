//! Steady-state GA: one reproduction event at a time.
//!
//! Where the generational engine ([`crate::ga::Ga`]) rebuilds the whole
//! population each generation (like the hardware GAP's double-buffered
//! design), the steady-state variant selects two parents, produces two
//! offspring, and immediately replaces the two worst individuals. This is
//! the classic low-memory alternative an FPGA design might have chosen to
//! avoid the second population buffer — at the cost of losing the clean
//! pipeline structure (a comparison the E9/E10 discussions draw on).

use crate::ga::GaConfig;
use crate::genome::BitString;
use crate::mutate::Mutation;
use crate::problem::Problem;
use crate::rng::SmallRng;

/// A steady-state genetic algorithm over [`BitString`] genomes.
pub struct SteadyStateGa<P: Problem> {
    config: GaConfig,
    problem: P,
    rng: SmallRng,
    population: Vec<BitString>,
    fitness: Vec<f64>,
    best_genome: BitString,
    best_fitness: f64,
    events: u64,
    evaluations: u64,
}

/// Result of a steady-state run.
#[derive(Debug, Clone)]
pub struct SteadyOutcome {
    /// Best genome observed.
    pub best_genome: BitString,
    /// Its fitness.
    pub best_fitness: f64,
    /// Reproduction events executed.
    pub events: u64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Whether the target was reached.
    pub reached_target: bool,
}

impl<P: Problem> SteadyStateGa<P> {
    /// Create with a random initial population. The `elitism` field of the
    /// configuration is ignored (steady state is implicitly elitist: the
    /// best individual is only ever displaced by a better offspring).
    ///
    /// # Panics
    /// Panics if the population holds fewer than 4 individuals (two
    /// parents plus two replacement slots).
    pub fn new(config: GaConfig, problem: P, seed: u64) -> SteadyStateGa<P> {
        assert!(
            config.population_size >= 4,
            "steady state needs at least 4 individuals"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = problem.width();
        let population: Vec<BitString> = (0..config.population_size)
            .map(|_| BitString::random(width, &mut rng))
            .collect();
        let fitness: Vec<f64> = population.iter().map(|g| problem.fitness(g)).collect();
        let evaluations = population.len() as u64;
        let (best_idx, &best_fitness) = fitness
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN fitness"))
            .expect("non-empty population");
        SteadyStateGa {
            best_genome: population[best_idx].clone(),
            best_fitness,
            config,
            problem,
            rng,
            population,
            fitness,
            events: 0,
            evaluations,
        }
    }

    /// Best genome and fitness observed so far.
    pub fn best(&self) -> (&BitString, f64) {
        (&self.best_genome, self.best_fitness)
    }

    /// Reproduction events executed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Fitness evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current population.
    pub fn population(&self) -> &[BitString] {
        &self.population
    }

    /// One reproduction event: select two parents, recombine, mutate the
    /// offspring, replace the two worst individuals.
    pub fn step(&mut self) {
        let a = self.config.selection.pick(&self.fitness, &mut self.rng);
        let b = self.config.selection.pick(&self.fitness, &mut self.rng);
        let (mut x, mut y) = if self
            .rng
            .random_bool(self.config.crossover_prob.clamp(0.0, 1.0))
        {
            self.config
                .crossover
                .apply(&self.population[a], &self.population[b], &mut self.rng)
        } else {
            (self.population[a].clone(), self.population[b].clone())
        };

        // offspring-local mutation at the configured population-equivalent
        // pressure: expected flips per event = expected flips per
        // generation × (2 / population)
        let per_event = match self.config.mutation {
            Mutation::PerBit { rate } => Mutation::PerBit { rate },
            Mutation::FixedCountPerPopulation { count } => {
                // flip each offspring bit with the equivalent probability
                let bits = (self.config.population_size * x.width()).max(1);
                Mutation::PerBit {
                    rate: count as f64 / bits as f64,
                }
            }
        };
        let mut pair = [std::mem::replace(&mut x, BitString::zeros(0)), {
            std::mem::replace(&mut y, BitString::zeros(0))
        }];
        per_event.apply_population(&mut pair, &mut self.rng);
        let [x, y] = pair;

        // replace the two worst
        let mut order: Vec<usize> = (0..self.population.len()).collect();
        order.sort_by(|&p, &q| {
            self.fitness[p]
                .partial_cmp(&self.fitness[q])
                .expect("NaN fitness")
        });
        for (slot, child) in order.into_iter().zip([x, y]) {
            let f = self.problem.fitness(&child);
            self.evaluations += 1;
            if f > self.best_fitness {
                self.best_fitness = f;
                self.best_genome = child.clone();
            }
            self.population[slot] = child;
            self.fitness[slot] = f;
        }
        self.events += 1;
    }

    /// Run until the target fitness (default: the problem's known
    /// maximum) is reached or `max_events` reproduction events pass.
    pub fn run(&mut self, max_events: u64, target: Option<f64>) -> SteadyOutcome {
        let target = target.or_else(|| self.problem.max_fitness());
        let reached = |best: f64| target.is_some_and(|t| best >= t);
        while !reached(self.best_fitness) && self.events < max_events {
            self.step();
        }
        SteadyOutcome {
            best_genome: self.best_genome.clone(),
            best_fitness: self.best_fitness,
            events: self.events,
            evaluations: self.evaluations,
            reached_target: reached(self.best_fitness),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{OneMax, Trap};

    #[test]
    fn solves_onemax() {
        let mut ga = SteadyStateGa::new(GaConfig::default(), OneMax(36), 1);
        let out = ga.run(100_000, None);
        assert!(out.reached_target, "steady state failed OneMax(36)");
        assert_eq!(out.best_fitness, 36.0);
    }

    #[test]
    fn implicitly_elitist() {
        // population best never regresses: offspring only replace the worst
        let mut ga = SteadyStateGa::new(GaConfig::default(), OneMax(40), 2);
        let mut last = ga.best().1;
        for _ in 0..2000 {
            ga.step();
            let pop_best = ga
                .population()
                .iter()
                .map(|g| f64::from(g.count_ones()))
                .fold(f64::MIN, f64::max);
            assert!(pop_best >= last.min(pop_best)); // never below prior best-ever
            assert!(ga.best().1 >= last);
            last = ga.best().1;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SteadyStateGa::new(GaConfig::default(), OneMax(30), 5).run(5000, None);
        let b = SteadyStateGa::new(GaConfig::default(), OneMax(30), 5).run(5000, None);
        assert_eq!(a.events, b.events);
        assert_eq!(a.best_genome, b.best_genome);
    }

    #[test]
    fn evaluation_accounting() {
        let mut ga = SteadyStateGa::new(GaConfig::default(), OneMax(10), 3);
        assert_eq!(ga.evaluations(), 32);
        ga.step();
        assert_eq!(ga.evaluations(), 34); // two offspring per event
        assert_eq!(ga.events(), 1);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut ga = SteadyStateGa::new(GaConfig::default(), Trap { blocks: 10, k: 5 }, 4);
        let out = ga.run(10, None);
        assert!(!out.reached_target);
        assert_eq!(out.events, 10);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let _ = SteadyStateGa::new(GaConfig::default().with_population_size(2), OneMax(8), 1);
    }

    #[test]
    fn comparable_to_generational_on_evaluations() {
        // both engines solve OneMax(30); evaluation counts within an order
        // of magnitude of each other
        let gen = crate::ga::Ga::new(GaConfig::default(), OneMax(30), 7).run(50_000, None);
        let steady = SteadyStateGa::new(GaConfig::default(), OneMax(30), 7).run(500_000, None);
        assert!(gen.reached_target && steady.reached_target);
        let ratio = gen.evaluations as f64 / steady.evaluations as f64;
        assert!((0.05..20.0).contains(&ratio), "evaluation ratio {ratio}");
    }
}
