//! E15 — exhaustive 2³⁶ genome-landscape sweep (paper facts F7, F9).
//!
//! Paper §3.3: enumerating the full 36-bit search space takes the 1 MHz
//! chip about 19 hours; the GA finds one of the maximal genomes in
//! minutes. This experiment sweeps the entire landscape (or a
//! `--subspace-bits` prefix of it) through the bit-parallel block kernel
//! — 512 consecutive genomes per step (`SweepPlane`) — and reports the
//! exact fitness histogram, the exact cardinality of the maximum-fitness
//! set, and a canonical sample of it.
//!
//! Cross-checks wired in:
//! * the exhaustive max set must match the analytic
//!   `max_fitness_genomes()` construction (36 x 49² = 86 436 on a full
//!   sweep) restricted to the swept subspace: the exact count, and the
//!   sample as its ascending capped prefix;
//! * every shard's tally, and the merged landscape, must equal the
//!   closed form of its block range (`closed_form_tally`: two side folds
//!   and a convolution per aligned subcube). This checks the sweep's
//!   sharding, wide-block masking and merge; it does not check the
//!   kernel, which both paths run;
//! * seeded e1-style GA winners must be members of the exhaustive max
//!   set — evolution may only find needles the enumeration also found.
//!
//! The run is sharded and multi-threaded; its output is the same for
//! every shard and thread count.
//!
//! Usage: `e15_landscape [--subspace-bits N] [--shards N] [--threads N]
//! [--sample-cap N] [--ga-trials N] [--ga-max-gens N]`

use discipulus::fitness::max_fitness_genomes;
use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::genome::GENOME_BITS;
use discipulus::params::GapParams;
use leonardo_bench::harness::trial_seeds;
use leonardo_bench::{Comparison, ComparisonTable, ExperimentSession, Verdict};
use leonardo_exec::arg_or;
use leonardo_landscape::{
    closed_form_tally, BlockKernelW, LandscapeResult, StopToken, Sweep, SweepConfig, SweepPlane,
    SweepStatus, FULL_SWEEP_MAX_SET,
};
use leonardo_telemetry::json::Json;
use std::time::Instant;

/// Paper fact F7: full enumeration takes ~19 h on the 1 MHz chip.
const PAPER_ENUMERATION_HOURS: f64 = 19.0;

/// Render the exact landscape histogram with proportional bars.
fn render_histogram(result: &LandscapeResult) {
    let peak = result.histogram.counts().iter().copied().max().unwrap_or(1);
    for (v, &count) in result.histogram.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count as f64 / peak as f64) * 48.0).ceil() as usize);
        println!("  {v:>3} {count:>16}  {bar}");
    }
}

/// Seeded e1-style GA trials; every winner must be in the exhaustive max
/// set. Returns `(converged, checked-against-sweep)` counts.
fn ga_cross_check(result: &LandscapeResult, trials: usize, max_gens: u64) -> (usize, usize) {
    let params = GapParams::paper();
    let full = result.complete && result.subspace_bits == GENOME_BITS as u32;
    let exhaustive_holds_all = result.max_samples.len() as u64 == result.max_count;
    let mut converged = 0;
    let mut checked = 0;
    for seed in trial_seeds(trials) {
        let mut gap = GeneticAlgorithmProcessor::new(params, seed);
        if !gap.run_to_convergence(max_gens).converged {
            continue;
        }
        converged += 1;
        let (best, fitness) = gap.best();
        assert_eq!(
            fitness,
            result.spec.max_fitness(),
            "converged GA trial (seed {seed}) best genome is not maximal"
        );
        if full && exhaustive_holds_all {
            assert!(
                result.max_samples.binary_search(&best.bits()).is_ok(),
                "GA winner {:#011x} (seed {seed}) missing from the exhaustive max set",
                best.bits()
            );
            checked += 1;
        }
    }
    (converged, checked)
}

fn main() {
    let subspace_bits: u32 = arg_or("--subspace-bits", GENOME_BITS as u32);
    let mut config = SweepConfig::subspace(subspace_bits);
    config.num_shards = arg_or("--shards", config.num_shards);
    config.threads = arg_or("--threads", 0usize);
    config.sample_cap = arg_or("--sample-cap", config.sample_cap);
    let ga_trials: usize = arg_or("--ga-trials", 8);
    let ga_max_gens: u64 = arg_or("--ga-max-gens", 50_000);

    let mut session = ExperimentSession::begin("e15_landscape");
    session.set_param("subspace_bits", subspace_bits as f64);
    session.set_param("shards", config.num_shards as f64);
    session.set_param("sample_cap", config.sample_cap as f64);
    session.set_param("ga_trials", ga_trials as f64);
    session.set_seeds(&trial_seeds(ga_trials));

    let mut sweep = Sweep::new(config.clone());
    let threads = leonardo_exec::resolve_threads(config.threads);
    session.set_threads(threads);
    session.set_plane_width(BlockKernelW::<SweepPlane>::GENOMES_PER_BLOCK as usize);

    println!(
        "E15: exhaustive landscape sweep of 2^{subspace_bits} genomes \
         ({} shards, {threads} threads)\n",
        config.num_shards
    );
    let start = Instant::now();
    let status = sweep.run(&StopToken::never());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(status, SweepStatus::Complete, "uninterrupted run completed");
    let result = sweep.result();
    assert!(result.complete);
    assert_eq!(result.genomes_swept, 1u64 << subspace_bits);

    let rate = result.genomes_swept as f64 / wall / 1e6;
    println!(
        "swept {} genomes in {wall:.2}s ({rate:.0} M genomes/s)\n",
        result.genomes_swept
    );
    println!("exact fitness histogram:");
    render_histogram(&result);
    let attained = result.attained_max().expect("at least one genome scored");
    println!(
        "\n  max fitness attained: {attained} / {} ({} genome(s))",
        result.max_fitness,
        result.count_at(attained)
    );

    session.add_row(
        "landscape",
        Json::Obj(vec![
            ("subspace_bits".into(), u64::from(subspace_bits).into()),
            ("shards".into(), result.shards.into()),
            ("threads".into(), threads.into()),
            ("genomes_swept".into(), result.genomes_swept.into()),
            ("max_fitness".into(), u64::from(result.max_fitness).into()),
            ("max_count".into(), result.max_count.into()),
            (
                "histogram".into(),
                result.histogram.counts().to_vec().into(),
            ),
        ]),
    );

    // the analytic construction pins the max set of every subspace: its
    // exact size and the canonical (ascending, capped) sample prefix
    let full = subspace_bits == GENOME_BITS as u32;
    let mut analytic: Vec<u64> = max_fitness_genomes()
        .map(|g| g.bits())
        .filter(|&g| g < 1 << subspace_bits)
        .collect();
    analytic.sort_unstable();
    assert_eq!(
        result.max_count,
        analytic.len() as u64,
        "exhaustive max-set cardinality disagrees with the analytic construction"
    );
    if full {
        assert_eq!(result.max_count, FULL_SWEEP_MAX_SET);
    }
    analytic.truncate(config.sample_cap);
    assert_eq!(
        result.max_samples, analytic,
        "max-set samples are not the analytic construction's ascending prefix"
    );
    println!(
        "  max set verified against the analytic 36 x 49^2 construction: \
         {} genome(s), the lowest {} compared genome-for-genome",
        result.max_count,
        result.max_samples.len()
    );

    // the closed form re-derives every shard's tally, and the merged one,
    // from two side folds and a convolution per aligned subcube: this
    // checks the sweep's sharding, wide-block masking and merge, but not
    // the kernel, which both paths run
    let started = Instant::now();
    for (shard, got) in sweep.plan().shards().iter().zip(sweep.shard_tallies()) {
        let want = closed_form_tally(
            config.spec,
            shard.start_block..shard.end_block,
            config.sample_cap,
        );
        assert!(
            *got == want,
            "shard {} (blocks {}..{}) disagrees with the closed form",
            shard.index,
            shard.start_block,
            shard.end_block
        );
    }
    let merged = closed_form_tally(config.spec, 0..1 << (subspace_bits - 6), config.sample_cap);
    assert!(
        (
            result.histogram.counts(),
            result.max_count,
            &result.max_samples
        ) == (&merged.hist[..], merged.max_count, &merged.samples),
        "the merged landscape disagrees with the closed form"
    );
    println!(
        "  every shard ({}) and the merged landscape equal the closed form \
         (side folds + convolution, {:.1} ms)",
        sweep.plan().len(),
        started.elapsed().as_secs_f64() * 1e3
    );

    let (converged, checked) = ga_cross_check(&result, ga_trials, ga_max_gens);
    println!(
        "\nGA-vs-oracle: {converged}/{ga_trials} seeded trials converged; \
         {checked} winner(s) membership-checked against the exhaustive max set"
    );

    let paper_secs = PAPER_ENUMERATION_HOURS * 3600.0;
    let mut table = ComparisonTable::new("E15 — exhaustive landscape enumeration (F7, F9)");
    table.push(Comparison::new(
        "search space swept",
        "2^36 = 68 billion",
        format!("2^{subspace_bits} = {}", result.genomes_swept),
        if full {
            Verdict::Reproduced
        } else {
            Verdict::Informational
        },
    ));
    table.push(Comparison::new(
        "enumeration wall-clock",
        format!("~{PAPER_ENUMERATION_HOURS:.0} h at 1 MHz"),
        format!("{wall:.1} s ({:.0}x faster)", paper_secs / wall.max(1e-9)),
        if full {
            Verdict::ShapeHolds
        } else {
            Verdict::Informational
        },
    ));
    table.push(Comparison::new(
        "maximum-fitness genomes",
        "(not reported)",
        format!("{} exact", result.max_count),
        Verdict::Informational,
    ));
    if full {
        table.push(Comparison::new(
            "max set vs analytic 36 x 49^2",
            "(not reported)",
            format!(
                "{} = {FULL_SWEEP_MAX_SET}, genome-for-genome",
                result.max_count
            ),
            Verdict::Informational,
        ));
    }
    println!("{table}");

    let manifest_path = session.manifest_path();
    session.finish();
    println!("run manifest: {}", manifest_path.display());
}
