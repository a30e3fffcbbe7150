//! E10 — island-model scaling (extension, the paper's future work).
//!
//! Paper §4: "In future work, we will take advantage of the computational
//! power provided by the GAP, and use the same kind of evolvable system in
//! order to solve problems which deal with bigger genomes." The natural
//! scale-out of the GAP is parallel evolution; this experiment measures
//! how a multi-threaded island model behaves on the gait landscape and on
//! a deliberately harder deceptive landscape.
//!
//! Usage: `e10_islands [--trials N]`

use discipulus::stats::SampleSummary;
use evo::ga::GaConfig;
use evo::island::{IslandConfig, IslandModel};
use evo::problem::Trap;
use leonardo_bench::harness::trial_seeds;
use leonardo_bench::GaitRuleProblem;
use leonardo_exec::arg_or;

fn scaling_on<P: evo::problem::Problem + Sync>(
    name: &str,
    problem: &P,
    trials: usize,
    max_rounds: u64,
) {
    println!("-- {name} --");
    println!(
        "{:<10} {:>9} {:>14} {:>12} {:>10}",
        "islands", "success", "mean evals", "mean rounds", "wall ms"
    );
    for islands in [1usize, 2, 4, 8] {
        let config = IslandConfig {
            islands,
            ga: GaConfig::default(),
            migration_interval: 10,
            migrants: 2,
        };
        let mut evals = Vec::new();
        let mut rounds = Vec::new();
        let mut successes = 0usize;
        let start = std::time::Instant::now();
        for &seed in &trial_seeds(trials) {
            let mut m = IslandModel::new(config, problem, u64::from(seed));
            let out = m.run(max_rounds, None);
            if out.reached_target {
                successes += 1;
                evals.push(out.total_evaluations as f64);
                rounds.push(out.rounds as f64);
            }
        }
        let wall = start.elapsed().as_millis() as f64 / trials as f64;
        let ev = SampleSummary::of(&evals);
        let rd = SampleSummary::of(&rounds);
        println!(
            "{:<10} {:>8.0}% {:>14} {:>12} {:>10.1}",
            islands,
            successes as f64 / trials as f64 * 100.0,
            ev.map_or("-".into(), |s| format!("{:.0}", s.mean)),
            rd.map_or("-".into(), |s| format!("{:.1}", s.mean)),
            wall
        );
    }
    println!();
}

fn main() {
    let trials: usize = arg_or("--trials", 20);

    println!("E10: island-model scaling (paper future-work direction)\n");

    scaling_on(
        "gait rule landscape (36 bits, the chip's problem)",
        &GaitRuleProblem::paper(),
        trials,
        2_000,
    );

    scaling_on(
        "deceptive trap landscape (10 blocks x 5 bits — a 'bigger genome')",
        &Trap { blocks: 10, k: 5 },
        trials,
        2_000,
    );

    println!("Reading: on the chip's own 36-bit landscape one island already");
    println!("suffices; the island model pays off on the harder deceptive");
    println!("landscape, where migration preserves diversity — supporting the");
    println!("paper's view that the GAP architecture is what scales, not the");
    println!("specific gait problem.");
}
