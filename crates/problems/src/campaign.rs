//! Registry-problem GA campaigns (experiment E17).
//!
//! The single-objective GA pointed at the problem registry: every
//! campaign is a seeded [`Ga`] run against one registered
//! [`EvolvableProblem`](evo::evolvable::EvolvableProblem), fanned out
//! over the order-preserving exec driver and bit-identical at any thread
//! count. Each trial's winner is cross-checked through the problem's
//! bit-parallel batch kernel at the caller's plane width, so a campaign
//! cannot report a fitness the sliced path disagrees with — the same
//! scalar-vs-kernel equality the conformance suite pins, enforced once
//! more on the genomes evolution actually finds.

use crate::ProblemSpec;
use evo::evolvable::Evolvable;
use evo::ga::{Ga, GaConfig};
use leonardo_rtl::bitslice::Plane;
use leonardo_telemetry as tele;

/// The outcome of one seeded GA run against a registered problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemTrial {
    /// RNG seed of the run.
    pub seed: u64,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Best fitness ever observed.
    pub best_fitness: u32,
    /// Best genome ever observed.
    pub best_genome: u64,
    /// Whether the run reached the problem's registered maximum.
    pub converged: bool,
}

/// Run one seeded GA campaign against `spec` with `config`.
pub fn problem_campaign(
    spec: &'static ProblemSpec,
    config: GaConfig,
    seed: u64,
    max_generations: u64,
) -> ProblemTrial {
    let out = Ga::new(config, Evolvable((spec.make)()), seed).run(max_generations, None);
    if tele::enabled_at(tele::Level::Metric) {
        tele::emit(
            tele::Level::Metric,
            "bench.problem_trial",
            &[
                ("problem", spec.name.into()),
                ("seed", seed.into()),
                ("generations", out.generations.into()),
                ("evaluations", out.evaluations.into()),
                ("best", out.best_fitness.into()),
                ("converged", out.reached_target.into()),
            ],
        );
    }
    ProblemTrial {
        seed,
        generations: out.generations,
        evaluations: out.evaluations,
        best_fitness: out.best_fitness as u32,
        best_genome: out.best_genome.to_u64(),
        converged: out.reached_target,
    }
}

/// Seeded GA campaigns against `spec` spread over `threads` workers (0 =
/// one per core), each winner cross-checked through the
/// problem's width-`P` batch kernel. Each campaign is a pure function of
/// its seed, so the result vector is bit-identical at any thread count
/// and plane width.
///
/// # Panics
/// Panics if the kernel scores a winner differently from the scalar path
/// — that is a kernel bug the conformance suite should have caught.
pub fn problem_campaigns<P: Plane>(
    spec: &'static ProblemSpec,
    seeds: &[u64],
    max_generations: u64,
    threads: usize,
) -> Vec<ProblemTrial> {
    leonardo_exec::ordered_map_range(threads, seeds.len(), |i| {
        let trial = problem_campaign(spec, GaConfig::default(), seeds[i], max_generations);
        let mut kernel = spec.kernel::<P>();
        let scores = kernel.score_batch(&vec![trial.best_genome; P::LANES]);
        for (lane, &score) in scores.iter().enumerate() {
            assert_eq!(
                score,
                trial.best_fitness,
                "{}: {} kernel lane {lane} disagrees with the scalar fitness \
                 of winner {:#x}",
                spec.name,
                P::NAME,
                trial.best_genome
            );
        }
        trial
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_rtl::bitslice::W256;

    fn spec(name: &str) -> &'static ProblemSpec {
        ProblemSpec::find(name).expect("registered")
    }

    #[test]
    fn campaigns_are_thread_and_width_unobservable() {
        let s = spec("fsm_traces");
        let seeds = [0x1000u64, 0x1007];
        let base = problem_campaigns::<u64>(s, &seeds, 50, 1);
        assert_eq!(base, problem_campaigns::<u64>(s, &seeds, 50, 2));
        assert_eq!(base, problem_campaigns::<W256>(s, &seeds, 50, 4));
        assert_eq!(base.len(), 2);
        for t in &base {
            assert!(t.best_fitness <= s.max_fitness);
            assert!(t.evaluations > 0);
        }
    }

    #[test]
    fn converged_means_registered_maximum() {
        // seed 0x1000 reaches the fsm_traces optimum in a few generations
        let s = spec("fsm_traces");
        let t = problem_campaign(s, GaConfig::default(), 0x1000, 200);
        assert!(t.converged);
        assert_eq!(t.best_fitness, s.max_fitness);
        let p = (s.make)();
        assert_eq!(
            evo::evolvable::EvolvableProblem::fitness(&p, t.best_genome),
            s.max_fitness
        );
    }
}
