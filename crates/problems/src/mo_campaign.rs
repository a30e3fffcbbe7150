//! NSGA-II walking campaigns (experiment E16).
//!
//! Seeded multi-objective evolution over the walker's scenario catalog:
//! distance, worst-case stability margin and (negated) energy.
//! Campaigns fan out over the order-preserving exec driver and are
//! bit-identical at any thread count.

use discipulus::genome::{Genome, GENOME_BITS};
use evo::ga::GaConfig;
use evo::genome::BitString;
use evo::mo::{MoOutcome, MultiObjective, MultiObjectiveGa};
use leonardo_telemetry as tele;
use leonardo_walker::objectives::{objective_registry, WalkObjectives};

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
    leonardo_exec::ordered_map_range(threads, seeds.len(), |i| {
        nsga2_campaign(problem, seeds[i], generations, population)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
