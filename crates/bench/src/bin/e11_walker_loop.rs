//! E11 — walker-in-the-loop evolution (extension).
//!
//! The paper's central design constraint (§3.2): physical fitness trials
//! are too slow — "the robot has a dynamic constraint and needs to try a
//! genome for about five seconds to execute the walk. This time is too
//! long to be used in our case. Therefore, we had to define a fitness
//! function only in terms of logic computations."
//!
//! In simulation that constraint vanishes, so this experiment evolves
//! directly against measured walking quality and quantifies both sides of
//! the paper's trade-off:
//!
//! * what the logic-only rules *give up* — walking quality of rule-evolved
//!   champions vs walk-evolved champions;
//! * what they *buy* — projected robot-time cost of walk-in-the-loop
//!   evolution at 5 s per trial, vs the GAP's milliseconds.
//!
//! Usage: `e11_walker_loop [--trials N] [--gens G]`

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::genome::Genome;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;
use evo::ga::{Ga, GaConfig};
use evo::genome::BitString;
use evo::problem::Problem;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_bench::{Comparison, ComparisonTable, Verdict};
use leonardo_exec::arg_or;
use leonardo_walker::metrics::walking_fitness;

/// Fitness = measured walking score of a 10-cycle simulated trial.
struct WalkInTheLoop;

impl Problem for WalkInTheLoop {
    fn width(&self) -> usize {
        discipulus::genome::GENOME_BITS
    }

    fn fitness(&self, genome: &BitString) -> f64 {
        walking_fitness(Genome::from_bits(genome.to_u64())).score
    }
}

fn main() {
    let trials: usize = arg_or("--trials", 12);
    let gens: u64 = arg_or("--gens", 300);
    let tripod = walking_fitness(Genome::tripod()).score;

    println!("E11: rules-only vs walker-in-the-loop evolution (tripod = {tripod:.0})\n");

    // A. rule-evolved champions (the chip's approach)
    let rule_scores: Vec<f64> = parallel_map(&trial_seeds(trials), |&seed| {
        let mut gap = GeneticAlgorithmProcessor::new(GapParams::paper(), seed);
        walking_fitness(gap.run_to_convergence(200_000).best_genome).score
    });

    // B. walk-evolved champions (impossible on the 1999 hardware)
    let walk_results: Vec<(f64, u64)> = parallel_map(&trial_seeds(trials), |&seed| {
        let mut ga = Ga::new(
            GaConfig::default().with_elitism(1),
            WalkInTheLoop,
            u64::from(seed),
        );
        let out = ga.run(gens, Some(tripod));
        (out.best_fitness, out.evaluations)
    });
    let walk_scores: Vec<f64> = walk_results.iter().map(|r| r.0).collect();
    let mean_evals =
        walk_results.iter().map(|r| r.1 as f64).sum::<f64>() / walk_results.len() as f64;

    let rules = SampleSummary::of(&rule_scores).expect("rule scores");
    let walks = SampleSummary::of(&walk_scores).expect("walk scores");
    println!("  rule-evolved champions  : {rules}");
    println!("  walk-evolved champions  : {walks}");
    println!(
        "  walk-evolved reaching tripod-class: {}/{}",
        walk_scores.iter().filter(|&&s| s >= 0.5 * tripod).count(),
        trials
    );

    // the cost the paper avoided: 5 s of robot time per evaluation
    let robot_hours = mean_evals * 5.0 / 3600.0;
    println!(
        "\n  walk-in-the-loop cost: {mean_evals:.0} evaluations/run = {robot_hours:.1} h of robot time at 5 s/trial"
    );
    println!("  the GAP's logic-only fitness: microseconds per evaluation on-chip\n");

    let mut table = ComparisonTable::new("E11 — the paper's fitness trade-off, quantified");
    table.push(Comparison::new(
        "physical trials infeasible",
        "\"about five seconds ... too long\"",
        format!("{robot_hours:.1} h of robot time per evolution run"),
        Verdict::Reproduced,
    ));
    table.push(Comparison::new(
        "walk-evolved beats rule-evolved",
        "(the price of logic-only fitness)",
        format!("{:.0} vs {:.0} mean walk score", walks.mean, rules.mean),
        if walks.mean > rules.mean {
            Verdict::Informational
        } else {
            Verdict::ShapeHolds
        },
    ));
    println!("{table}");
}
