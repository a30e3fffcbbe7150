//! A deterministic multi-threaded island model.
//!
//! This is the HPC extension of the reproduction (the paper's future-work
//! direction of "bigger genomes" motivates parallel evolution): `n` islands
//! each run an independent GA; every `migration_interval` generations the
//! islands synchronize at a barrier and each sends its best `migrants`
//! individuals to its ring neighbour, which replaces its worst individuals
//! with them.
//!
//! Rounds are fork-join (the islands pass through
//! [`leonardo_exec::ordered_map`], one worker per island, and come back in
//! order), so the result is **bit-for-bit deterministic** for a given
//! seed regardless of thread scheduling — a property the unit tests
//! assert.

use crate::ga::{Ga, GaConfig};
use crate::genome::BitString;
use crate::problem::Problem;
use leonardo_telemetry as tele;

/// Configuration of an [`IslandModel`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandConfig {
    /// Number of islands (each gets one thread per round).
    pub islands: usize,
    /// Per-island GA configuration.
    pub ga: GaConfig,
    /// Generations between migrations.
    pub migration_interval: u64,
    /// Number of best individuals each island sends per migration.
    pub migrants: usize,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            islands: 4,
            ga: GaConfig::default(),
            migration_interval: 10,
            migrants: 2,
        }
    }
}

/// Result of an island-model run.
#[derive(Debug, Clone)]
pub struct IslandOutcome {
    /// Best genome across all islands.
    pub best_genome: BitString,
    /// Its fitness.
    pub best_fitness: f64,
    /// Which island found it.
    pub island_of_best: usize,
    /// Migration rounds executed.
    pub rounds: u64,
    /// Sum of generations over all islands.
    pub total_generations: u64,
    /// Total fitness evaluations over all islands.
    pub total_evaluations: u64,
    /// Whether the target was reached.
    pub reached_target: bool,
    /// Best fitness per island at the end.
    pub island_bests: Vec<f64>,
}

/// The island model driver.
pub struct IslandModel<'p, P: Problem + Sync> {
    config: IslandConfig,
    islands: Vec<Ga<&'p P>>,
    rounds: u64,
}

impl<'p, P: Problem + Sync> IslandModel<'p, P> {
    /// Create `config.islands` islands over `problem`, seeded
    /// `seed, seed+1, …`.
    ///
    /// # Panics
    /// Panics if there are no islands or `migrants` exceeds the island
    /// population size.
    pub fn new(config: IslandConfig, problem: &'p P, seed: u64) -> Self {
        assert!(config.islands > 0, "need at least one island");
        assert!(
            config.migrants <= config.ga.population_size,
            "more migrants than population"
        );
        let islands = (0..config.islands)
            .map(|i| Ga::new(config.ga, problem, seed.wrapping_add(i as u64)))
            .collect();
        IslandModel {
            config,
            islands,
            rounds: 0,
        }
    }

    /// Current global best (genome cloned).
    pub fn best(&self) -> (BitString, f64, usize) {
        let (idx, ga) = self
            .islands
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.best()
                    .1
                    .partial_cmp(&b.1.best().1)
                    .expect("NaN fitness")
            })
            .expect("at least one island");
        let (g, f) = ga.best();
        (g.clone(), f, idx)
    }

    /// Run one round: every island advances `migration_interval`
    /// generations in parallel, then migrants move one step around the
    /// ring.
    pub fn round(&mut self) {
        let interval = self.config.migration_interval;
        let islands = std::mem::take(&mut self.islands);
        self.islands = leonardo_exec::ordered_map(islands.len(), islands, |_, mut ga| {
            for _ in 0..interval {
                ga.step();
            }
            ga
        });
        self.migrate();
        self.rounds += 1;
    }

    /// Ring migration: island i's best `migrants` genomes replace island
    /// (i+1)'s worst.
    fn migrate(&mut self) {
        let k = self.config.migrants;
        if k == 0 || self.islands.len() < 2 {
            return;
        }
        let outgoing: Vec<Vec<BitString>> = self
            .islands
            .iter()
            .map(|ga| {
                let pop = ga.population();
                let mut order: Vec<usize> = (0..pop.len()).collect();
                let fit: Vec<f64> = pop.iter().map(|g| ga.problem().fitness(g)).collect();
                order.sort_by(|&a, &b| fit[b].partial_cmp(&fit[a]).expect("NaN"));
                order.iter().take(k).map(|&i| pop[i].clone()).collect()
            })
            .collect();
        let n = self.islands.len();
        for (src, migrants) in outgoing.into_iter().enumerate() {
            let dst = (src + 1) % n;
            self.islands[dst].accept_migrants(&migrants);
        }
        if tele::enabled_at(tele::Level::Metric) {
            tele::emit(
                tele::Level::Metric,
                "evo.island.migration",
                &[
                    ("round", self.rounds.into()),
                    ("islands", n.into()),
                    ("migrants_per_island", k.into()),
                ],
            );
        }
    }

    /// Run rounds until the target fitness (or the problem's known
    /// maximum) is reached or `max_rounds` pass.
    pub fn run(&mut self, max_rounds: u64, target: Option<f64>) -> IslandOutcome {
        let target = target.or_else(|| {
            self.islands
                .first()
                .and_then(|ga| ga.problem().max_fitness())
        });
        let reached =
            |me: &Self| target.is_some_and(|t| me.islands.iter().any(|ga| ga.best().1 >= t));
        while !reached(self) && self.rounds < max_rounds {
            self.round();
        }
        let (best_genome, best_fitness, island_of_best) = self.best();
        if tele::enabled_at(tele::Level::Metric) {
            tele::emit(
                tele::Level::Metric,
                "evo.island.run",
                &[
                    ("rounds", self.rounds.into()),
                    ("islands", self.islands.len().into()),
                    ("best", best_fitness.into()),
                    ("island_of_best", island_of_best.into()),
                    ("reached_target", reached(self).into()),
                    (
                        "total_generations",
                        self.islands
                            .iter()
                            .map(|g| g.generation())
                            .sum::<u64>()
                            .into(),
                    ),
                    (
                        "total_evaluations",
                        self.islands
                            .iter()
                            .map(|g| g.evaluations())
                            .sum::<u64>()
                            .into(),
                    ),
                ],
            );
        }
        IslandOutcome {
            best_genome,
            best_fitness,
            island_of_best,
            rounds: self.rounds,
            total_generations: self.islands.iter().map(|g| g.generation()).sum(),
            total_evaluations: self.islands.iter().map(|g| g.evaluations()).sum(),
            reached_target: reached(self),
            island_bests: self.islands.iter().map(|g| g.best().1).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{OneMax, Trap};

    #[test]
    fn island_model_solves_onemax() {
        let problem = OneMax(48);
        let mut m = IslandModel::new(IslandConfig::default(), &problem, 1);
        let out = m.run(200, None);
        assert!(out.reached_target, "islands failed OneMax(48)");
        assert_eq!(out.best_fitness, 48.0);
        assert_eq!(out.island_bests.len(), 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let problem = Trap { blocks: 4, k: 4 };
        let run = |seed| {
            let mut m = IslandModel::new(IslandConfig::default(), &problem, seed);
            m.run(30, Some(f64::INFINITY))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.total_evaluations, b.total_evaluations);
        assert_eq!(a.island_bests, b.island_bests);
    }

    #[test]
    fn migration_spreads_good_genes() {
        // With migration, every island's final best should be decent even
        // though only some islands may have found the optimum themselves.
        let problem = OneMax(40);
        let config = IslandConfig {
            islands: 4,
            migration_interval: 5,
            migrants: 4,
            ga: GaConfig::default(),
        };
        let mut m = IslandModel::new(config, &problem, 3);
        let out = m.run(100, None);
        assert!(out.reached_target);
        for (i, &b) in out.island_bests.iter().enumerate() {
            assert!(b >= 30.0, "island {i} best {b} — migration not helping");
        }
    }

    #[test]
    fn generation_accounting() {
        let problem = OneMax(16);
        let config = IslandConfig {
            islands: 3,
            migration_interval: 7,
            migrants: 1,
            ga: GaConfig::default(),
        };
        let mut m = IslandModel::new(config, &problem, 9);
        m.round();
        m.round();
        let out = m.run(2, Some(f64::INFINITY)); // already at max_rounds
        assert_eq!(out.rounds, 2);
        assert_eq!(out.total_generations, 3 * 2 * 7);
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn zero_islands_rejected() {
        let problem = OneMax(8);
        let config = IslandConfig {
            islands: 0,
            ..IslandConfig::default()
        };
        let _ = IslandModel::new(config, &problem, 1);
    }

    #[test]
    fn single_island_equals_plain_ga_budget() {
        let problem = OneMax(24);
        let config = IslandConfig {
            islands: 1,
            migration_interval: 10,
            migrants: 2,
            ga: GaConfig::default(),
        };
        let mut m = IslandModel::new(config, &problem, 21);
        let out = m.run(50, None);
        assert!(out.reached_target);
        assert_eq!(out.island_of_best, 0);
    }
}
