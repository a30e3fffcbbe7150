//! E9 — parameter sensitivity sweep (extension).
//!
//! The paper fixed its parameters (pop 32, selection 0.8, crossover 0.7,
//! 15 mutations) without reporting a sensitivity study; "it is possible to
//! parameterize the entire logic system" (§3.3). This sweep quantifies how
//! each knob moves the convergence speed, one axis at a time around the
//! paper's operating point.
//!
//! Usage: `e9_sweep [--trials N] [--max-gens G]`

use discipulus::params::GapParams;
use leonardo_bench::harness::{convergence_sample, trial_seeds};
use leonardo_exec::arg_or;

fn run_axis(name: &str, variants: Vec<(String, GapParams)>, trials: usize, max_gens: u64) {
    println!("-- sweep: {name} --");
    println!(
        "{:<22} {:>10} {:>8} {:>10} {:>10}",
        "setting", "mean gens", "sd", "median", "evals/run"
    );
    for (label, params) in variants {
        let stats = convergence_sample(params, &trial_seeds(trials), max_gens);
        match stats.summary {
            Some(s) => println!(
                "{:<22} {:>10.0} {:>8.0} {:>10.0} {:>10.0}",
                label,
                s.mean,
                s.stddev,
                s.median,
                s.mean * params.population_size as f64
            ),
            None => println!("{label:<22} {:>10}", "never"),
        }
    }
    println!();
}

fn main() {
    let trials: usize = arg_or("--trials", 40);
    let max_gens: u64 = arg_or("--max-gens", 200_000);
    let paper = GapParams::paper();

    println!("E9: parameter sensitivity around the paper's operating point\n");

    run_axis(
        "population size (paper: 32)",
        [8usize, 16, 32, 64, 128]
            .into_iter()
            .map(|n| {
                (
                    format!("pop={n}"),
                    paper.with_population_size(n).with_mutations(15 * n / 32),
                )
            })
            .collect(),
        trials,
        max_gens,
    );

    run_axis(
        "mutations per generation (paper: 15)",
        [1usize, 4, 15, 40, 100]
            .into_iter()
            .map(|m| (format!("mutations={m}"), paper.with_mutations(m)))
            .collect(),
        trials,
        max_gens,
    );

    run_axis(
        "selection threshold (paper: 0.8)",
        [0.5, 0.6, 0.8, 0.9, 1.0]
            .into_iter()
            .map(|p| (format!("selection={p}"), paper.with_selection_threshold(p)))
            .collect(),
        trials,
        max_gens,
    );

    run_axis(
        "crossover threshold (paper: 0.7)",
        [0.0, 0.3, 0.7, 1.0]
            .into_iter()
            .map(|p| (format!("crossover={p}"), paper.with_crossover_threshold(p)))
            .collect(),
        trials,
        max_gens,
    );

    println!("Reading: the paper's operating point sits on the efficient plateau —");
    println!("moderate mutation pressure and strong-but-not-deterministic selection.");
    println!("Selection at 0.5 (random tournaments) and mutation at 1 flip/generation");
    println!("slow convergence sharply; crossover mainly buys robustness.");
}
