//! E7 — fitness-rule ablation (paper fact F2/F3).
//!
//! Paper §3.2 motivates each of the three rules physically. This ablation
//! quantifies what each contributes: for every rule subset, evolve to that
//! subset's maximum and then measure how well the champion actually walks
//! in the simulator.
//!
//! Usage: `e7_ablation [--trials N] [--max-gens G]`

use discipulus::fitness::{FitnessSpec, Rule};
use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_exec::arg_or;
use leonardo_walker::metrics::walking_fitness;

struct Variant {
    name: &'static str,
    spec: FitnessSpec,
}

fn main() {
    let trials: usize = arg_or("--trials", 30);
    let max_gens: u64 = arg_or("--max-gens", 100_000);

    let variants = vec![
        Variant {
            name: "all three rules (paper)",
            spec: FitnessSpec::paper(),
        },
        Variant {
            name: "without equilibrium",
            spec: FitnessSpec::without(Rule::Equilibrium),
        },
        Variant {
            name: "without symmetry",
            spec: FitnessSpec::without(Rule::Symmetry),
        },
        Variant {
            name: "without coherence",
            spec: FitnessSpec::without(Rule::Coherence),
        },
        Variant {
            name: "only equilibrium",
            spec: FitnessSpec::only(Rule::Equilibrium),
        },
        Variant {
            name: "only symmetry",
            spec: FitnessSpec::only(Rule::Symmetry),
        },
        Variant {
            name: "only coherence",
            spec: FitnessSpec::only(Rule::Coherence),
        },
    ];

    println!("E7: fitness-rule ablation, {trials} trials per variant\n");
    println!(
        "{:<26} {:>6} {:>10} {:>10} {:>9} {:>10} {:>8}",
        "variant", "max", "mean gens", "dist mm", "forward%", "fallfree%", "score"
    );
    println!("{:-<86}", "");

    let mut forward_rates: Vec<(&str, f64, f64)> = Vec::new();
    for v in &variants {
        let params = GapParams::paper().with_fitness(v.spec);
        let results: Vec<(u64, f64, f64, bool)> = parallel_map(&trial_seeds(trials), |&seed| {
            let mut gap = GeneticAlgorithmProcessor::new(params, seed);
            let outcome = gap.run_to_convergence(max_gens);
            let walk = walking_fitness(outcome.best_genome);
            (
                outcome.generations,
                walk.distance_mm,
                walk.score,
                walk.falls == 0,
            )
        });
        let gens: Vec<f64> = results.iter().map(|r| r.0 as f64).collect();
        let dists: Vec<f64> = results.iter().map(|r| r.1).collect();
        let scores: Vec<f64> = results.iter().map(|r| r.2).collect();
        let forward =
            results.iter().filter(|r| r.1 > 50.0).count() as f64 / results.len() as f64 * 100.0;
        let fall_free =
            results.iter().filter(|r| r.3).count() as f64 / results.len() as f64 * 100.0;
        let gsum = SampleSummary::of(&gens).expect("gens");
        let dsum = SampleSummary::of(&dists).expect("dists");
        let ssum = SampleSummary::of(&scores).expect("scores");
        println!(
            "{:<26} {:>6} {:>10.0} {:>10.0} {:>8.0}% {:>9.0}% {:>8.0}",
            v.name,
            v.spec.max_fitness(),
            gsum.mean,
            dsum.mean,
            forward,
            fall_free,
            ssum.mean,
        );
        forward_rates.push((v.name, forward, dsum.mean));
    }

    println!();
    let best_forward = forward_rates
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("rates"))
        .expect("variants");
    println!("Reading: weaker rule sets reach their (lower) maxima in fewer");
    println!("generations because far more genomes satisfy them, but no subset of");
    println!("the rules — and not even the full set — guarantees a stable walk");
    println!("(the rules are necessary-condition filters, E5). Forward progress is");
    println!(
        "most frequent for '{}' ({:.0}% of champions, mean {:.0} mm);",
        best_forward.0, best_forward.1, best_forward.2
    );
    println!("the per-variant distance/fall columns above show what each rule's");
    println!("absence costs, which is the measurable trace of the paper's physical");
    println!("motivation for including it.");
}
