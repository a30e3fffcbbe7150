//! The generational GA engine.

use crate::crossover::Crossover;
use crate::genome::BitString;
use crate::mutate::Mutation;
use crate::problem::Problem;
use crate::rng::SmallRng;
use crate::select::Selection;
use leonardo_telemetry as tele;

/// Configuration of a [`Ga`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Number of individuals (must be even and ≥ 2).
    pub population_size: usize,
    /// Parent selection operator.
    pub selection: Selection,
    /// Crossover operator.
    pub crossover: Crossover,
    /// Probability a selected pair undergoes crossover.
    pub crossover_prob: f64,
    /// Mutation operator.
    pub mutation: Mutation,
    /// Number of best individuals copied unchanged into the next
    /// generation (0 = none, the hardware GAP's behaviour).
    pub elitism: usize,
}

impl Default for GaConfig {
    /// The hardware GAP's configuration: population 32, binary tournament
    /// (p = 0.8), single-point crossover (p = 0.7), 15 population-level bit
    /// flips, no elitism.
    fn default() -> Self {
        GaConfig {
            population_size: 32,
            selection: Selection::gap(),
            crossover: Crossover::SinglePoint,
            crossover_prob: 0.7,
            mutation: Mutation::gap(),
            elitism: 0,
        }
    }
}

impl GaConfig {
    /// Builder-style population size override.
    #[must_use]
    pub fn with_population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Builder-style elitism override.
    #[must_use]
    pub fn with_elitism(mut self, k: usize) -> Self {
        self.elitism = k;
        self
    }

    /// Builder-style selection override.
    #[must_use]
    pub fn with_selection(mut self, s: Selection) -> Self {
        self.selection = s;
        self
    }

    /// Builder-style crossover override.
    #[must_use]
    pub fn with_crossover(mut self, c: Crossover, prob: f64) -> Self {
        self.crossover = c;
        self.crossover_prob = prob;
        self
    }

    /// Builder-style mutation override.
    #[must_use]
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = m;
        self
    }
}

/// Snapshot of one generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenSnapshot {
    /// Generation index.
    pub generation: u64,
    /// Best fitness in the population.
    pub best: f64,
    /// Mean fitness of the population.
    pub mean: f64,
}

/// Cumulative operator-invocation counters for one [`Ga`] instance.
///
/// Exposed both programmatically ([`Ga::operator_counts`]) and as fields
/// of the `evo.ga.generation` / `evo.ga.run` telemetry events, so runs
/// can report operator-level statistics the way the FSM-synthesis work in
/// PAPERS.md does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorCounts {
    /// Parent-selection draws performed.
    pub selections: u64,
    /// Pairs that underwent crossover.
    pub crossovers: u64,
    /// Pairs copied unchanged (crossover probability not met).
    pub clones: u64,
}

/// Result of a [`Ga::run`] call.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// Best genome ever observed.
    pub best_genome: BitString,
    /// Its fitness.
    pub best_fitness: f64,
    /// Generations executed.
    pub generations: u64,
    /// Total fitness evaluations performed.
    pub evaluations: u64,
    /// Whether the stopping target was reached.
    pub reached_target: bool,
    /// Per-generation history (downsampled to nothing — full trace).
    pub history: Vec<GenSnapshot>,
}

/// A generational genetic algorithm over [`BitString`] genomes.
pub struct Ga<P: Problem> {
    config: GaConfig,
    problem: P,
    rng: SmallRng,
    population: Vec<BitString>,
    fitness: Vec<f64>,
    best_genome: BitString,
    best_fitness: f64,
    generation: u64,
    evaluations: u64,
    counts: OperatorCounts,
}

impl<P: Problem> Ga<P> {
    /// Create a GA with a random initial population.
    ///
    /// # Panics
    /// Panics if the population size is odd or smaller than 2, or elitism
    /// exceeds the population size.
    pub fn new(config: GaConfig, problem: P, seed: u64) -> Ga<P> {
        assert!(
            config.population_size >= 2 && config.population_size.is_multiple_of(2),
            "population size must be even and >= 2"
        );
        assert!(
            config.elitism <= config.population_size,
            "elitism exceeds population size"
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
        Ga {
            best_genome: population[best_idx].clone(),
            best_fitness,
            config,
            problem,
            rng,
            population,
            fitness,
            generation: 0,
            evaluations,
            counts: OperatorCounts::default(),
        }
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Best genome and fitness observed so far.
    pub fn best(&self) -> (&BitString, f64) {
        (&self.best_genome, self.best_fitness)
    }

    /// Generations executed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fitness evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current population.
    pub fn population(&self) -> &[BitString] {
        &self.population
    }

    /// Cumulative operator-invocation counters since construction.
    pub fn operator_counts(&self) -> OperatorCounts {
        self.counts
    }

    /// Execute one generation; returns its snapshot.
    pub fn step(&mut self) -> GenSnapshot {
        let n = self.config.population_size;
        let mut next: Vec<BitString> = Vec::with_capacity(n);

        // elitism: copy the k best unchanged
        if self.config.elitism > 0 {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                self.fitness[b]
                    .partial_cmp(&self.fitness[a])
                    .expect("NaN fitness")
            });
            for &i in order.iter().take(self.config.elitism) {
                next.push(self.population[i].clone());
            }
        }

        // fill the rest pairwise by selection + crossover
        let mut step_counts = OperatorCounts::default();
        while next.len() < n {
            let a = self.config.selection.pick(&self.fitness, &mut self.rng);
            let b = self.config.selection.pick(&self.fitness, &mut self.rng);
            step_counts.selections += 2;
            let crossed = self
                .rng
                .random_bool(self.config.crossover_prob.clamp(0.0, 1.0));
            if crossed {
                step_counts.crossovers += 1;
            } else {
                step_counts.clones += 1;
            }
            let (mut x, y) = if crossed {
                self.config
                    .crossover
                    .apply(&self.population[a], &self.population[b], &mut self.rng)
            } else {
                (self.population[a].clone(), self.population[b].clone())
            };
            if next.len() + 1 < n {
                next.push(std::mem::replace(&mut x, BitString::zeros(0)));
                next.push(y);
            } else {
                next.push(x);
            }
        }

        // mutation (elite copies included only beyond the protected slice)
        let elite = self.config.elitism.min(next.len());
        self.config
            .mutation
            .apply_population(&mut next[elite..], &mut self.rng);

        self.population = next;
        self.fitness = self
            .population
            .iter()
            .map(|g| self.problem.fitness(g))
            .collect();
        self.evaluations += self.population.len() as u64;
        self.generation += 1;

        for (i, &f) in self.fitness.iter().enumerate() {
            if f > self.best_fitness {
                self.best_fitness = f;
                self.best_genome = self.population[i].clone();
            }
        }
        self.counts.selections += step_counts.selections;
        self.counts.crossovers += step_counts.crossovers;
        self.counts.clones += step_counts.clones;

        let snap = self.snapshot();
        if tele::enabled_at(tele::Level::Trace) {
            // best − mean is the selection-pressure proxy the trajectory
            // plots use; emitting both lets the sink derive it either way.
            tele::emit(
                tele::Level::Trace,
                "evo.ga.generation",
                &[
                    ("generation", snap.generation.into()),
                    ("best", snap.best.into()),
                    ("mean", snap.mean.into()),
                    ("best_ever", self.best_fitness.into()),
                    ("selections", step_counts.selections.into()),
                    ("crossovers", step_counts.crossovers.into()),
                    ("clones", step_counts.clones.into()),
                ],
            );
        }
        snap
    }

    /// Replace the worst individuals with `newcomers` (island-model
    /// migration support). Incoming genomes are evaluated immediately and
    /// update the best-ever register.
    ///
    /// # Panics
    /// Panics if more newcomers arrive than the population holds or a
    /// newcomer's width differs from the problem's.
    pub fn accept_migrants(&mut self, newcomers: &[BitString]) {
        assert!(
            newcomers.len() <= self.population.len(),
            "more migrants than population slots"
        );
        let mut order: Vec<usize> = (0..self.population.len()).collect();
        order.sort_by(|&a, &b| {
            self.fitness[a]
                .partial_cmp(&self.fitness[b])
                .expect("NaN fitness")
        });
        for (slot, genome) in order.iter().zip(newcomers) {
            assert_eq!(
                genome.width(),
                self.problem.width(),
                "migrant width mismatch"
            );
            let f = self.problem.fitness(genome);
            self.evaluations += 1;
            self.population[*slot] = genome.clone();
            self.fitness[*slot] = f;
            if f > self.best_fitness {
                self.best_fitness = f;
                self.best_genome = genome.clone();
            }
        }
    }

    /// Snapshot of the current population.
    pub fn snapshot(&self) -> GenSnapshot {
        let best = self
            .fitness
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mean = self.fitness.iter().sum::<f64>() / self.fitness.len() as f64;
        GenSnapshot {
            generation: self.generation,
            best,
            mean,
        }
    }

    /// Run until `target` fitness is reached (or the problem's known
    /// maximum, if `target` is `None` and one exists) or `max_generations`
    /// pass.
    pub fn run(&mut self, max_generations: u64, target: Option<f64>) -> GaOutcome {
        let target = target.or_else(|| self.problem.max_fitness());
        let reached = |best: f64| target.is_some_and(|t| best >= t);
        let mut history = vec![self.snapshot()];
        while !reached(self.best_fitness) && self.generation < max_generations {
            history.push(self.step());
        }
        if tele::enabled_at(tele::Level::Metric) {
            tele::emit(
                tele::Level::Metric,
                "evo.ga.run",
                &[
                    ("generations", self.generation.into()),
                    ("evaluations", self.evaluations.into()),
                    ("best", self.best_fitness.into()),
                    ("reached_target", reached(self.best_fitness).into()),
                    ("selections", self.counts.selections.into()),
                    ("crossovers", self.counts.crossovers.into()),
                    ("clones", self.counts.clones.into()),
                ],
            );
        }
        GaOutcome {
            best_genome: self.best_genome.clone(),
            best_fitness: self.best_fitness,
            generations: self.generation,
            evaluations: self.evaluations,
            reached_target: reached(self.best_fitness),
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{OneMax, Trap};

    #[test]
    fn solves_onemax() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(36), 1);
        let out = ga.run(5000, None);
        assert!(out.reached_target, "OneMax(36) unsolved in 5000 gens");
        assert_eq!(out.best_fitness, 36.0);
        assert_eq!(out.best_genome.count_ones(), 36);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Ga::new(GaConfig::default(), OneMax(36), 9).run(200, None);
        let b = Ga::new(GaConfig::default(), OneMax(36), 9).run(200, None);
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn elitism_never_loses_best() {
        let config = GaConfig::default().with_elitism(2);
        let mut ga = Ga::new(config, OneMax(50), 3);
        let mut last_best = ga.snapshot().best;
        for _ in 0..100 {
            let snap = ga.step();
            assert!(
                snap.best >= last_best,
                "population best regressed under elitism"
            );
            last_best = snap.best;
        }
    }

    #[test]
    fn best_ever_monotone_without_elitism() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(50), 4);
        let mut last = ga.best().1;
        for _ in 0..100 {
            ga.step();
            assert!(ga.best().1 >= last);
            last = ga.best().1;
        }
    }

    #[test]
    fn evaluation_count_accounting() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(20), 5);
        assert_eq!(ga.evaluations(), 32);
        ga.step();
        assert_eq!(ga.evaluations(), 64);
    }

    #[test]
    fn explicit_target_stops_early() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(36), 6);
        let out = ga.run(5000, Some(30.0));
        assert!(out.reached_target);
        assert!(out.best_fitness >= 30.0);
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        let mut ga = Ga::new(GaConfig::default(), Trap { blocks: 8, k: 5 }, 7);
        let out = ga.run(3, None);
        assert!(!out.reached_target);
        assert_eq!(out.generations, 3);
        assert_eq!(out.history.len(), 4);
    }

    #[test]
    fn history_records_every_generation() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(36), 8);
        let out = ga.run(50, Some(f64::INFINITY));
        assert_eq!(out.history.len() as u64, out.generations + 1);
        for (i, snap) in out.history.iter().enumerate() {
            assert_eq!(snap.generation as usize, i);
            assert!(snap.mean <= snap.best);
        }
    }

    #[test]
    fn operator_counts_accumulate() {
        let mut ga = Ga::new(GaConfig::default(), OneMax(36), 12);
        assert_eq!(ga.operator_counts(), OperatorCounts::default());
        for _ in 0..10 {
            ga.step();
        }
        let c = ga.operator_counts();
        // population 32, no elitism: 16 pairs per generation, 2 selection
        // draws per pair, and every pair either crosses or clones.
        assert_eq!(c.crossovers + c.clones, 160);
        assert_eq!(c.selections, 320);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_population_rejected() {
        let _ = Ga::new(GaConfig::default().with_population_size(5), OneMax(8), 1);
    }

    #[test]
    fn uniform_crossover_variant_solves_onemax() {
        let config = GaConfig::default().with_crossover(Crossover::Uniform { p_swap: 0.5 }, 0.9);
        let out = Ga::new(config, OneMax(36), 10).run(5000, None);
        assert!(out.reached_target);
    }

    #[test]
    fn roulette_variant_solves_onemax() {
        let config = GaConfig::default().with_selection(Selection::Roulette);
        let out = Ga::new(config, OneMax(24), 11).run(5000, None);
        assert!(out.reached_target);
    }
}
