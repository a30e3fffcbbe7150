//! NSGA-II walking campaigns and the max-set walk table (experiment E16).
//!
//! Two measurement paths onto the F9 question ("which of the 86 436
//! maximal genomes actually walks best?"):
//!
//! * [`nsga2_campaigns`] — seeded multi-objective evolution over the
//!   walker's scenario catalog: distance, worst-case stability margin and
//!   (negated) energy. Campaigns fan out over the order-preserving exec
//!   driver and are bit-identical at any thread count.
//! * [`max_set_walk_table`] — walk a seeded subsample of the analytic
//!   max-fitness set on flat ground and rank the genomes by what the rule
//!   fitness cannot see: the walk itself.
//!
//! [`rule_walk_front`] closes the loop: the 2-objective Pareto front of
//! rule fitness vs walked distance over a genome sample, quantifying how
//! far logic fitness and physical quality diverge.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::{Genome, GENOME_BITS};
use evo::ga::GaConfig;
use evo::genome::BitString;
use evo::mo::{MoOutcome, MultiObjective, MultiObjectiveGa};
use evo::pareto::fast_non_dominated_sort;
use leonardo_telemetry as tele;
use leonardo_walker::objectives::{objective_registry, WalkObjectives};

use crate::harness::parallel_map_threads;

/// The walker's three-objective surface expressed for the NSGA-II driver:
/// 36-bit genomes scored `[distance_mm, min_margin_mm, -energy_j]` over a
/// scenario set.
#[derive(Debug, Clone)]
pub struct GaitMoProblem {
    objectives: WalkObjectives,
}

impl GaitMoProblem {
    /// The standard five-scenario evaluator.
    pub fn standard() -> GaitMoProblem {
        GaitMoProblem {
            objectives: WalkObjectives::standard(),
        }
    }

    /// Flat ground only — the cheap evaluator for smoke tests.
    pub fn flat_only() -> GaitMoProblem {
        GaitMoProblem {
            objectives: WalkObjectives::flat_only(),
        }
    }

    /// The underlying evaluator.
    pub fn objectives(&self) -> &WalkObjectives {
        &self.objectives
    }
}

impl MultiObjective for GaitMoProblem {
    fn width(&self) -> usize {
        GENOME_BITS
    }

    fn num_objectives(&self) -> usize {
        objective_registry().len()
    }

    fn evaluate(&self, genome: &BitString) -> Vec<f64> {
        self.objectives
            .vector(Genome::from_bits(genome.to_u64()))
            .to_vec()
    }
}

/// One point of a campaign's final Pareto front, genome decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct MoFrontRow {
    /// The genome, as its 36 raw bits.
    pub genome_bits: u64,
    /// Mean net forward distance, mm.
    pub distance_mm: f64,
    /// Worst micro-phase stability margin, mm.
    pub min_margin_mm: f64,
    /// Mean energy spent, joules (positive; un-negated from the vector).
    pub energy_j: f64,
}

/// The outcome of one seeded NSGA-II walking campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MoCampaign {
    /// RNG seed of the run.
    pub seed: u64,
    /// Generations executed.
    pub generations: u64,
    /// Objective-vector evaluations performed.
    pub evaluations: u64,
    /// Final Pareto front, sorted by genome bits (deterministic order).
    pub front: Vec<MoFrontRow>,
}

/// Decode a driver outcome into a campaign record with a canonical,
/// schedule-independent front order.
fn campaign_of(seed: u64, out: MoOutcome) -> MoCampaign {
    let mut front: Vec<MoFrontRow> = out
        .front
        .iter()
        .map(|p| MoFrontRow {
            genome_bits: p.genome.to_u64(),
            distance_mm: p.objectives[0],
            min_margin_mm: p.objectives[1],
            energy_j: -p.objectives[2],
        })
        .collect();
    front.sort_by_key(|r| r.genome_bits);
    MoCampaign {
        seed,
        generations: out.generations,
        evaluations: out.evaluations,
        front,
    }
}

/// Run one seeded NSGA-II campaign over `problem`.
pub fn nsga2_campaign(
    problem: &GaitMoProblem,
    seed: u64,
    generations: u64,
    population: usize,
) -> MoCampaign {
    let config = GaConfig::default().with_population_size(population);
    let out = MultiObjectiveGa::new(config, problem, seed).run(generations);
    if tele::enabled_at(tele::Level::Metric) {
        tele::emit(
            tele::Level::Metric,
            "bench.mo_campaign",
            &[
                ("seed", seed.into()),
                ("generations", out.generations.into()),
                ("evaluations", out.evaluations.into()),
                ("front_size", (out.front.len() as u64).into()),
            ],
        );
    }
    campaign_of(seed, out)
}

/// Seeded NSGA-II campaigns spread over `threads` workers (0 = one per
/// core). Each campaign is a pure function of its seed, so
/// the result vector is bit-identical at any thread count.
pub fn nsga2_campaigns(
    problem: &GaitMoProblem,
    seeds: &[u64],
    generations: u64,
    population: usize,
    threads: usize,
) -> Vec<MoCampaign> {
    parallel_map_threads(threads, seeds, |&seed| {
        nsga2_campaign(problem, seed, generations, population)
    })
}

/// A deterministic `count`-element subsample of `0..len`: seeded LCG
/// draws, deduplicated, ascending. Returns all of `0..len` when
/// `count >= len`.
pub fn seeded_subsample_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    if count >= len {
        return (0..len).collect();
    }
    let mut picked = std::collections::BTreeSet::new();
    let mut state = seed;
    while picked.len() < count {
        // Numerical Recipes LCG — quality is irrelevant, determinism is not
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        picked.insert(((state >> 16) % len as u64) as usize);
    }
    picked.into_iter().collect()
}

/// One line of the max-set walk table: a maximal genome and its flat-walk
/// objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkTableRow {
    /// The genome, as its 36 raw bits.
    pub genome_bits: u64,
    /// Net forward distance on flat ground, mm.
    pub distance_mm: f64,
    /// Worst micro-phase stability margin, mm.
    pub min_margin_mm: f64,
    /// Energy spent, joules.
    pub energy_j: f64,
}

/// Walk a seeded `count`-genome subsample of the analytic max-fitness
/// set on flat ground and rank it best-walker-first (distance descending,
/// genome bits ascending on exact ties). Every row's genome scores
/// maximal rule fitness; the table is the ranking the rules cannot
/// express.
pub fn max_set_walk_table(count: usize, seed: u64, threads: usize) -> Vec<WalkTableRow> {
    let max_set: Vec<Genome> = discipulus::fitness::max_fitness_genomes().collect();
    let picks = seeded_subsample_indices(max_set.len(), count, seed);
    let genomes: Vec<Genome> = picks.into_iter().map(|i| max_set[i]).collect();
    let evaluator = WalkObjectives::flat_only();
    let mut rows = parallel_map_threads(threads, &genomes, |&g| {
        let o = evaluator.evaluate(g);
        WalkTableRow {
            genome_bits: g.bits(),
            distance_mm: o.distance_mm,
            min_margin_mm: o.min_margin_mm,
            energy_j: o.energy_j,
        }
    });
    rows.sort_by(|a, b| {
        b.distance_mm
            .partial_cmp(&a.distance_mm)
            .expect("walk objectives are finite")
            .then_with(|| a.genome_bits.cmp(&b.genome_bits))
    });
    rows
}

/// The 2-objective Pareto front of `(rule_fitness, walked distance)` over
/// a genome sample — front membership sorted by genome bits. A genome on
/// this front is unbeatable in the sample: nothing scores at least as
/// well on both axes and strictly better on one.
pub fn rule_walk_front(genomes: &[Genome], threads: usize) -> Vec<(Genome, u32, f64)> {
    let spec = FitnessSpec::paper();
    let evaluator = WalkObjectives::flat_only();
    let scored: Vec<(Genome, u32, f64)> = parallel_map_threads(threads, genomes, |&g| {
        (g, spec.evaluate(g), evaluator.evaluate(g).distance_mm)
    });
    let objectives: Vec<Vec<f64>> = scored
        .iter()
        .map(|&(_, rules, dist)| vec![f64::from(rules), dist])
        .collect();
    let fronts = fast_non_dominated_sort(&objectives);
    let mut front: Vec<(Genome, u32, f64)> = fronts[0].iter().map(|&i| scored[i]).collect();
    front.sort_by_key(|(g, _, _)| g.bits());
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_is_deterministic_sorted_and_deduplicated() {
        let a = seeded_subsample_indices(86_436, 64, 0xE16);
        let b = seeded_subsample_indices(86_436, 64, 0xE16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, no dupes");
        assert!(a.iter().all(|&i| i < 86_436));
        let c = seeded_subsample_indices(86_436, 64, 0xE17);
        assert_ne!(a, c, "different seeds pick different samples");
        assert_eq!(seeded_subsample_indices(5, 10, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn campaigns_are_thread_count_unobservable() {
        let problem = GaitMoProblem::flat_only();
        let seeds = [0x1000u64, 0x1007];
        let one = nsga2_campaigns(&problem, &seeds, 3, 8, 1);
        let many = nsga2_campaigns(&problem, &seeds, 3, 8, 4);
        assert_eq!(one, many);
        assert_eq!(one.len(), 2);
        for c in &one {
            assert!(!c.front.is_empty());
            assert_eq!(c.generations, 3);
            assert!(c
                .front
                .windows(2)
                .all(|w| w[0].genome_bits < w[1].genome_bits));
        }
    }

    #[test]
    fn walk_table_rows_are_maximal_and_ranked() {
        let rows = max_set_walk_table(16, 0xE16, 0);
        assert_eq!(rows.len(), 16);
        let spec = FitnessSpec::paper();
        for r in &rows {
            assert!(spec.is_max(Genome::from_bits(r.genome_bits)));
            assert!(r.distance_mm.is_finite() && r.energy_j.is_finite());
        }
        assert!(
            rows.windows(2)
                .all(|w| w[0].distance_mm >= w[1].distance_mm),
            "rows are not distance-ranked"
        );
        // maximal genomes genuinely differ in walking quality (claim F9)
        let best = rows.first().expect("non-empty").distance_mm;
        let worst = rows.last().expect("non-empty").distance_mm;
        assert!(best > worst, "the rule-maximal set walked identically");
    }

    #[test]
    fn rule_walk_front_contains_the_tripod() {
        // the tripod is rule-maximal and walks far; nothing in a small
        // sample dominates it on both axes
        let mut genomes = vec![Genome::tripod(), Genome::ZERO];
        genomes.extend([0x123u64, 0xFFFF, 0xABC_DEF0].map(Genome::from_bits));
        let front = rule_walk_front(&genomes, 1);
        assert!(front.iter().any(|&(g, _, _)| g == Genome::tripod()));
        let spec = FitnessSpec::paper();
        for &(g, rules, dist) in &front {
            assert_eq!(rules, spec.evaluate(g));
            assert!(dist.is_finite());
        }
    }
}
