//! E8 — the cellular-automaton RNG (paper fact F3).
//!
//! Paper §3.2: the generator "is implemented as a one-dimensional cellular
//! machine (XOR system) \[and\] does not depend on the execution of the
//! genetic algorithm, in order to render the evolutionary process less
//! data-dependent."
//!
//! Compares the on-chip CA generator against a 32-bit LFSR and a
//! library RNG (`evo`'s xoshiro256++ `SmallRng`): bit statistics, period
//! certification, and — what actually matters — whether the GA converges
//! equally well on all three.
//!
//! Usage: `e8_rng [--trials N]`

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use discipulus::rng::analysis::{is_maximal_rule, ones_fraction};
use discipulus::rng::{CellularRng, Lfsr32, RngSource, MAXIMAL_RULE_90_150};
use discipulus::stats::SampleSummary;
use evo::rng::SmallRng;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_bench::ExperimentSession;
use leonardo_exec::arg_or;
use leonardo_rtl::bitslice::CaRngX64;
use leonardo_rtl::rng_rtl::CaRngRtl;
use leonardo_telemetry as tele;
use leonardo_telemetry::sink::Aggregator;
use std::hint::black_box;
use std::time::Instant;

/// The library generator as a GAP draw source: one `next_u32` per word.
struct SmallRngSource(SmallRng);

impl RngSource for SmallRngSource {
    fn next_word(&mut self) -> u32 {
        self.0.next_u32()
    }
}

/// Run one GA trial per seed under `make`'s generator, publishing each
/// trial as a `bench.trial` event tagged with the generator's name.
fn convergence_with<R: RngSource, F: Fn(u32) -> R + Sync>(
    rng_name: &'static str,
    make: F,
    seeds: &[u32],
    max_gens: u64,
) {
    parallel_map(seeds, |&seed| {
        let mut gap = GeneticAlgorithmProcessor::with_rng(GapParams::paper(), make(seed));
        let out = gap.run_to_convergence(max_gens);
        tele::emit(
            tele::Level::Metric,
            "bench.trial",
            &[
                ("engine", "behavioural".into()),
                ("rng", rng_name.into()),
                ("seed", seed.into()),
                ("converged", out.converged.into()),
                ("generations", out.generations.into()),
            ],
        );
    });
}

/// Summarize the converged `bench.trial` events of one generator off the
/// telemetry stream.
fn summary_for(aggregator: &Aggregator, rng_name: &str) -> SampleSummary {
    let gens: Vec<f64> = aggregator
        .events("bench.trial")
        .iter()
        .filter(|t| t.str_field("rng") == Some(rng_name))
        .filter(|t| t.bool_field("converged") == Some(true))
        .filter_map(|t| t.f64_field("generations"))
        .collect();
    SampleSummary::of(&gens).expect("trials")
}

fn main() {
    let trials: usize = arg_or("--trials", 60);
    let seeds = trial_seeds(trials);

    let mut session = ExperimentSession::begin("e8_rng");
    session.set_param("trials", trials as f64);
    session.set_param("max_generations", 200_000.0);
    session.set_seeds(&seeds);

    println!("E8: RNG comparison\n");

    // 1. structural quality
    let mut ca = CellularRng::new(12345);
    let mut lfsr = Lfsr32::new(12345);
    println!(
        "  CA rule vector 0x{MAXIMAL_RULE_90_150:08x}: maximal period = {}",
        is_maximal_rule(MAXIMAL_RULE_90_150)
    );
    println!("  homogeneous rule-90 maximal?   : {}", is_maximal_rule(0));
    println!(
        "  CA ones fraction (1M words)    : {:.4}",
        ones_fraction(&mut ca, 1_000_000)
    );
    println!(
        "  LFSR ones fraction (1M words)  : {:.4}\n",
        ones_fraction(&mut lfsr, 1_000_000)
    );

    // 2. word throughput of the RTL generator, scalar vs bit-sliced: one
    //    scalar clock yields one 32-bit word, one sliced clock yields 64
    const STEPS: u64 = 1_000_000;
    let mut scalar_ca = CaRngRtl::new(12345);
    let t0 = Instant::now();
    for _ in 0..STEPS {
        scalar_ca.clock();
        black_box(scalar_ca.word());
    }
    let scalar_rate = STEPS as f64 / t0.elapsed().as_secs_f64();
    let mut sliced_ca = CaRngX64::new(&trial_seeds(64));
    let t0 = Instant::now();
    for _ in 0..STEPS {
        sliced_ca.clock_free();
        black_box(sliced_ca.lane_word(0));
    }
    let sliced_rate = 64.0 * STEPS as f64 / t0.elapsed().as_secs_f64();
    println!("  RTL CA word throughput ({STEPS} clocks):");
    println!(
        "    scalar CaRngRtl      : {:>8.1} Mwords/s",
        scalar_rate / 1e6
    );
    println!(
        "    CaRngX64 (64 lanes)  : {:>8.1} Mwords/s  ({:.1}x)\n",
        sliced_rate / 1e6,
        sliced_rate / scalar_rate
    );

    // 3. what matters: GA convergence under each generator. Trials are
    //    published as telemetry events; the summaries are read back off
    //    the session's aggregated stream.
    convergence_with("ca90_150", CellularRng::new, &seeds, 200_000);
    convergence_with("lfsr32", Lfsr32::new, &seeds, 200_000);
    convergence_with(
        "smallrng",
        |seed| SmallRngSource(SmallRng::seed_from_u64(u64::from(seed))),
        &seeds,
        200_000,
    );
    let ca_sum = summary_for(session.aggregator(), "ca90_150");
    let lfsr_sum = summary_for(session.aggregator(), "lfsr32");
    let lib_sum = summary_for(session.aggregator(), "smallrng");

    println!("  generations to converge, {trials} trials each:");
    println!("    CA 90/150 (on-chip)  : {ca_sum}");
    println!("    LFSR x^32+x^22+x^2+x+1: {lfsr_sum}");
    println!("    SmallRng (library)   : {lib_sum}\n");

    let worst = ca_sum.mean.max(lfsr_sum.mean).max(lib_sum.mean);
    let best = ca_sum.mean.min(lfsr_sum.mean).min(lib_sum.mean);
    let spread = worst / best;
    println!(
        "  spread between generators: {spread:.2}x — {}",
        if spread < 2.0 {
            "the cheap XOR-system generator is statistically adequate for the GAP,\n  vindicating the paper's hardware choice"
        } else {
            "generator choice matters on this landscape"
        }
    );

    let manifest_path = session.manifest_path();
    session.finish();
    println!("\nrun manifest: {}", manifest_path.display());
}
