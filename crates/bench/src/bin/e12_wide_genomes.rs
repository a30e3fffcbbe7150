//! E12 — bigger genomes (the paper's future work, §4).
//!
//! Paper §4: "In future work, we will take advantage of the computational
//! power provided by the GAP, and use the same kind of evolvable system in
//! order to solve problems which deal with bigger genomes (i.e., more
//! complex reconfigurable systems) and where the final solution is not
//! known."
//!
//! Evolves walks of 2, 4, 6 and 8 steps (36–144 bits) against the
//! generalized rule fitness, and walks each champion in the simulator.
//! The search space grows from 2³⁶ to 2¹⁴⁴ — exhaustive search is out of
//! the question at any clock rate, while the GA's cost grows steeply but
//! stays within reach of on-chip evolution when the population is scaled
//! with the genome.
//!
//! Usage: `e12_wide_genomes [--trials N] [--max-gens G]`

use discipulus::stats::SampleSummary;
use discipulus::wide::{WideFitness, WideGenome, BITS_PER_STEP};
use evo::ga::{Ga, GaConfig};
use evo::genome::BitString;
use evo::problem::Problem;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_exec::arg_or;
use leonardo_walker::metrics::score_report;
use leonardo_walker::world::WalkTrial;

/// The generalized rule landscape over `steps`-step genomes.
struct WideProblem {
    fitness: WideFitness,
}

impl WideProblem {
    fn new(steps: usize) -> WideProblem {
        WideProblem {
            fitness: WideFitness::new(steps),
        }
    }

    fn decode(&self, bits: &BitString) -> WideGenome {
        let raw: Vec<bool> = bits.iter().collect();
        WideGenome::from_bits(self.fitness.steps, &raw)
    }
}

impl Problem for WideProblem {
    fn width(&self) -> usize {
        self.fitness.steps * BITS_PER_STEP
    }

    fn fitness(&self, genome: &BitString) -> f64 {
        f64::from(self.fitness.evaluate(&self.decode(genome)))
    }

    fn max_fitness(&self) -> Option<f64> {
        Some(f64::from(self.fitness.max_fitness()))
    }
}

fn main() {
    let trials: usize = arg_or("--trials", 20);
    let max_gens: u64 = arg_or("--max-gens", 100_000);

    println!("E12: evolving bigger genomes (paper future work)\n");
    println!(
        "{:>6} {:>7} {:>14} {:>10} {:>10} {:>12} {:>12}",
        "steps", "bits", "search space", "success", "mean gens", "walk score", "falls-free"
    );
    println!("{:-<78}", "");

    for steps in [2usize, 4, 6, 8] {
        let results: Vec<(bool, u64, f64, bool)> = parallel_map(&trial_seeds(trials), |&seed| {
            let problem = WideProblem::new(steps);
            // scale the GA with the genome: population grows with width
            // (as the paper's parameterizable VHDL design would allow),
            // mutation keeps the paper's per-bit pressure, one elite
            // preserves the incumbent on the harder landscapes
            let config = GaConfig::default()
                .with_population_size(16 * steps)
                .with_elitism(1)
                .with_mutation(evo::mutate::Mutation::PerBit {
                    rate: 15.0 / 1152.0,
                });
            let mut ga = Ga::new(config, &problem, u64::from(seed));
            let out = ga.run(max_gens, None);
            let genome = problem.decode(&out.best_genome);
            // one walk cycle per table pass covers `steps` steps; keep the
            // total step count comparable across widths
            let cycles = (20 / steps).max(2);
            let report = WalkTrial::from_table(genome.expand()).cycles(cycles).run();
            let walk = score_report(&report);
            (
                out.reached_target,
                out.generations,
                walk.score,
                walk.falls == 0,
            )
        });
        let success = results.iter().filter(|r| r.0).count() as f64 / results.len() as f64 * 100.0;
        let gens: Vec<f64> = results.iter().filter(|r| r.0).map(|r| r.1 as f64).collect();
        let scores: Vec<f64> = results.iter().map(|r| r.2).collect();
        let fall_free =
            results.iter().filter(|r| r.3).count() as f64 / results.len() as f64 * 100.0;
        let bits = steps * BITS_PER_STEP;
        println!(
            "{:>6} {:>7} {:>14} {:>9.0}% {:>10} {:>12.0} {:>11.0}%",
            steps,
            bits,
            format!("2^{bits}"),
            success,
            SampleSummary::of(&gens).map_or("-".into(), |s| format!("{:.0}", s.mean)),
            SampleSummary::of(&scores).expect("scores").mean,
            fall_free,
        );
    }

    println!();
    println!("Reading: the search space explodes from 2^36 to 2^144, yet the GA's");
    println!("evaluation budget stays within reach of on-chip evolution (with the");
    println!("population scaled to the genome, as the paper's parameterizable VHDL");
    println!("design anticipates). Exhaustive enumeration is already impossible at");
    println!("2^72 on any clock — the quantitative case for the paper's future-work");
    println!("claim that the GAP architecture, not the 36-bit problem, is what scales.");
}
