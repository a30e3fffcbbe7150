//! The NSGA-II multi-objective GA driver.
//!
//! [`MultiObjectiveGa`] reuses the scalar engine's operator set
//! ([`GaConfig`]: crossover, mutation, population size) but replaces
//! fitness-proportionate parent selection with the binary
//! crowded-comparison tournament and generational replacement with
//! (μ+λ) survivor truncation by front rank then crowding distance — the
//! NSGA-II main loop (Deb et al. 2002).
//!
//! With a single objective the machinery degenerates exactly to
//! truncation selection on fitness: fronts become equal-fitness groups in
//! descending order, so the survivor set is the best `N` of the combined
//! parent+offspring pool — the differential property the test suite pins
//! against the scalar engine.

use crate::ga::GaConfig;
use crate::genome::BitString;
use crate::pareto::{FrontPoint, ParetoRank};
use crate::problem::Problem;
use crate::rng::SmallRng;
use leonardo_telemetry as tele;

/// A multi-objective optimization problem over [`BitString`] genomes.
/// Every objective is maximized; implementations must return finite
/// values only (the [`analysis` gate](crate::pareto) and the Pareto
/// machinery both reject NaN).
pub trait MultiObjective {
    /// Genome width in bits.
    fn width(&self) -> usize;

    /// Number of objectives (the length of every [`evaluate`]
    /// result). Must be at least 1.
    ///
    /// [`evaluate`]: MultiObjective::evaluate
    fn num_objectives(&self) -> usize;

    /// The objective vector of a genome, all components maximized.
    fn evaluate(&self, genome: &BitString) -> Vec<f64>;
}

impl<P: MultiObjective + ?Sized> MultiObjective for &P {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }

    fn evaluate(&self, genome: &BitString) -> Vec<f64> {
        (**self).evaluate(genome)
    }
}

/// A multi-objective problem defined by a closure.
pub struct FnMultiObjective<F> {
    width: usize,
    num_objectives: usize,
    f: F,
}

impl<F: Fn(&BitString) -> Vec<f64>> FnMultiObjective<F> {
    /// A problem of `width` bits scored by `f` into `num_objectives`
    /// maximized components.
    pub fn new(width: usize, num_objectives: usize, f: F) -> FnMultiObjective<F> {
        FnMultiObjective {
            width,
            num_objectives,
            f,
        }
    }
}

impl<F: Fn(&BitString) -> Vec<f64>> MultiObjective for FnMultiObjective<F> {
    fn width(&self) -> usize {
        self.width
    }

    fn num_objectives(&self) -> usize {
        self.num_objectives
    }

    fn evaluate(&self, genome: &BitString) -> Vec<f64> {
        (self.f)(genome)
    }
}

/// A scalar [`Problem`] viewed as a one-objective [`MultiObjective`] —
/// the adapter the differential test uses to pin NSGA-II's degenerate
/// behaviour to plain truncation selection.
pub struct ScalarObjective<P>(pub P);

impl<P: Problem> MultiObjective for ScalarObjective<P> {
    fn width(&self) -> usize {
        self.0.width()
    }

    fn num_objectives(&self) -> usize {
        1
    }

    fn evaluate(&self, genome: &BitString) -> Vec<f64> {
        vec![self.0.fitness(genome)]
    }
}

/// Result of a [`MultiObjectiveGa::run`] call.
#[derive(Debug, Clone)]
pub struct MoOutcome {
    /// The final population's Pareto front (front 0), duplicates removed,
    /// in population order.
    pub front: Vec<FrontPoint>,
    /// Generations executed.
    pub generations: u64,
    /// Total objective-vector evaluations performed.
    pub evaluations: u64,
}

/// An NSGA-II generational loop over [`BitString`] genomes.
pub struct MultiObjectiveGa<P: MultiObjective> {
    config: GaConfig,
    problem: P,
    rng: SmallRng,
    population: Vec<BitString>,
    objectives: Vec<Vec<f64>>,
    ranking: ParetoRank,
    generation: u64,
    evaluations: u64,
    last_pool: Vec<Vec<f64>>,
}

impl<P: MultiObjective> MultiObjectiveGa<P> {
    /// Create an NSGA-II run with a random initial population.
    ///
    /// # Panics
    /// Panics if the population size is odd or smaller than 2, or the
    /// problem declares zero objectives.
    pub fn new(config: GaConfig, problem: P, seed: u64) -> MultiObjectiveGa<P> {
        assert!(
            config.population_size >= 2 && config.population_size.is_multiple_of(2),
            "population size must be even and >= 2"
        );
        assert!(
            problem.num_objectives() >= 1,
            "a multi-objective problem needs at least one objective"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = problem.width();
        let population: Vec<BitString> = (0..config.population_size)
            .map(|_| BitString::random(width, &mut rng))
            .collect();
        let objectives: Vec<Vec<f64>> = population.iter().map(|g| problem.evaluate(g)).collect();
        let evaluations = population.len() as u64;
        let ranking = ParetoRank::of(&objectives);
        MultiObjectiveGa {
            config,
            problem,
            rng,
            population,
            objectives,
            ranking,
            generation: 0,
            evaluations,
            last_pool: Vec::new(),
        }
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Generations executed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Objective-vector evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current population.
    pub fn population(&self) -> &[BitString] {
        &self.population
    }

    /// The current population's objective vectors, index-aligned with
    /// [`population`](MultiObjectiveGa::population).
    pub fn objectives(&self) -> &[Vec<f64>] {
        &self.objectives
    }

    /// The current population's NSGA-II ranking.
    pub fn ranking(&self) -> &ParetoRank {
        &self.ranking
    }

    /// The objective vectors of the full 2N parent+offspring pool the
    /// last [`step`](MultiObjectiveGa::step) truncated (empty before the
    /// first step). The differential suite compares survivor selection
    /// against a plain sort of this pool.
    pub fn last_pool(&self) -> &[Vec<f64>] {
        &self.last_pool
    }

    /// Execute one NSGA-II generation: breed N offspring by crowded
    /// tournament + crossover + mutation, then keep the best N of the
    /// combined 2N pool by front rank and crowding distance.
    pub fn step(&mut self) {
        let n = self.config.population_size;

        // breed N offspring from the current ranking
        let mut offspring: Vec<BitString> = Vec::with_capacity(n);
        while offspring.len() < n {
            let a = self.ranking.tournament(&mut self.rng);
            let b = self.ranking.tournament(&mut self.rng);
            let crossed = self
                .rng
                .random_bool(self.config.crossover_prob.clamp(0.0, 1.0));
            let (mut x, y) = if crossed {
                self.config
                    .crossover
                    .apply(&self.population[a], &self.population[b], &mut self.rng)
            } else {
                (self.population[a].clone(), self.population[b].clone())
            };
            if offspring.len() + 1 < n {
                offspring.push(std::mem::replace(&mut x, BitString::zeros(0)));
                offspring.push(y);
            } else {
                offspring.push(x);
            }
        }
        self.config
            .mutation
            .apply_population(&mut offspring, &mut self.rng);

        // (μ+λ): rank the combined pool, keep the best N — parents keep
        // their cached objective vectors, only offspring are evaluated
        let mut pool = std::mem::take(&mut self.population);
        let mut pool_objs = std::mem::take(&mut self.objectives);
        pool_objs.extend(offspring.iter().map(|g| self.problem.evaluate(g)));
        pool.extend(offspring);
        self.evaluations += n as u64;
        let pool_rank = ParetoRank::of(&pool_objs);

        let mut survivors: Vec<usize> = Vec::with_capacity(n);
        for front in &pool_rank.fronts {
            if survivors.len() + front.len() <= n {
                survivors.extend_from_slice(front);
            } else {
                let d = crate::pareto::crowding_distance(&pool_objs, front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                // crowding descending, pool index ascending on ties —
                // fully deterministic truncation
                order.sort_by(|&a, &b| {
                    d[b].partial_cmp(&d[a])
                        .expect("crowding is never NaN")
                        .then_with(|| front[a].cmp(&front[b]))
                });
                survivors.extend(order.iter().take(n - survivors.len()).map(|&s| front[s]));
                break;
            }
        }

        self.population = survivors.iter().map(|&i| pool[i].clone()).collect();
        self.objectives = survivors.iter().map(|&i| pool_objs[i].clone()).collect();
        self.last_pool = pool_objs;
        self.ranking = ParetoRank::of(&self.objectives);
        self.generation += 1;

        if tele::enabled_at(tele::Level::Trace) {
            tele::emit(
                tele::Level::Trace,
                "evo.nsga2.generation",
                &[
                    ("generation", self.generation.into()),
                    ("front_size", (self.ranking.fronts[0].len() as u64).into()),
                    ("fronts", (self.ranking.fronts.len() as u64).into()),
                ],
            );
        }
    }

    /// The current population's Pareto front (front 0), duplicate genomes
    /// removed, in population order.
    pub fn pareto_front(&self) -> Vec<FrontPoint> {
        let mut seen: Vec<&BitString> = Vec::new();
        let mut front = Vec::new();
        for &i in &self.ranking.fronts[0] {
            let g = &self.population[i];
            if seen.contains(&g) {
                continue;
            }
            seen.push(g);
            front.push(FrontPoint {
                genome: g.clone(),
                objectives: self.objectives[i].clone(),
            });
        }
        front
    }

    /// Run `generations` generations and return the final Pareto front.
    pub fn run(&mut self, generations: u64) -> MoOutcome {
        for _ in 0..generations {
            self.step();
        }
        let front = self.pareto_front();
        if tele::enabled_at(tele::Level::Metric) {
            tele::emit(
                tele::Level::Metric,
                "evo.nsga2.run",
                &[
                    ("generations", self.generation.into()),
                    ("evaluations", self.evaluations.into()),
                    ("front_size", (front.len() as u64).into()),
                ],
            );
        }
        MoOutcome {
            front,
            generations: self.generation,
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OneMax;

    /// Two-objective toy: maximize ones in the low half and zeros in the
    /// high half — a genuine trade-off with a known front.
    fn halves() -> FnMultiObjective<impl Fn(&BitString) -> Vec<f64>> {
        FnMultiObjective::new(16, 2, |g: &BitString| {
            let ones_low = (0..8).filter(|&i| g.get(i)).count() as f64;
            let zeros_high = (8..16).filter(|&i| !g.get(i)).count() as f64;
            vec![ones_low, zeros_high]
        })
    }

    #[test]
    fn nsga2_finds_the_corner_of_a_cooperative_problem() {
        // both objectives agree: all-ones-low, all-zeros-high is optimal
        let mut mo = MultiObjectiveGa::new(GaConfig::default(), halves(), 11);
        let out = mo.run(60);
        let best = out
            .front
            .iter()
            .map(|p| p.objectives[0] + p.objectives[1])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best >= 15.0, "front never approached the optimum: {best}");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = MultiObjectiveGa::new(GaConfig::default(), halves(), 5).run(20);
        let b = MultiObjectiveGa::new(GaConfig::default(), halves(), 5).run(20);
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.genome, y.genome);
            assert_eq!(x.objectives, y.objectives);
        }
    }

    #[test]
    fn front_is_mutually_non_dominating() {
        use crate::pareto::dominates;
        let mut mo = MultiObjectiveGa::new(GaConfig::default(), halves(), 3);
        let out = mo.run(30);
        for a in &out.front {
            for b in &out.front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
    }

    #[test]
    fn single_objective_keeps_the_best_of_the_pool() {
        let mut mo = MultiObjectiveGa::new(
            GaConfig::default().with_population_size(16),
            ScalarObjective(OneMax(24)),
            7,
        );
        for _ in 0..50 {
            mo.step();
            let mut pool: Vec<f64> = mo.last_pool().iter().map(|o| o[0]).collect();
            pool.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let mut kept: Vec<f64> = mo.objectives().iter().map(|o| o[0]).collect();
            kept.sort_by(|a, b| b.partial_cmp(a).unwrap());
            assert_eq!(
                kept,
                pool[..16].to_vec(),
                "survivors are not the pool's best"
            );
        }
    }

    #[test]
    fn evaluation_accounting() {
        let mut mo = MultiObjectiveGa::new(GaConfig::default(), halves(), 1);
        assert_eq!(mo.evaluations(), 32);
        mo.step();
        assert_eq!(mo.evaluations(), 64);
        assert_eq!(mo.generation(), 1);
        assert_eq!(mo.last_pool().len(), 64);
    }
}
