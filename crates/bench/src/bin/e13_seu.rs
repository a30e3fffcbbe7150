//! E13 — single-event-upset resilience (extension).
//!
//! The chip stores both populations in flip-flops (the dominant CLB cost,
//! E4), so every stored genome bit is exposed to electrical or radiation
//! upsets for the whole run. The classic evolvable-hardware argument says
//! a GA does not care: an upset is indistinguishable from one extra
//! mutation. This experiment bombards the RTL GAP's population RAM at
//! increasing per-generation rates and measures the convergence cost.
//!
//! The injection machinery lives in `leonardo-faults`: this binary is a
//! thin client that sweeps [`Campaign`] rates on the 64-lane batch
//! engine, verifies every report against the differential recovery
//! oracle (each rate also runs a fault-free twin from the same seeds,
//! which is where the `Δ gens` column comes from), and derives its
//! statistics from the `fault.recovery` telemetry stream it records.
//!
//! Usage: `e13_seu [--trials N] [--max-gens G]`

use discipulus::stats::SampleSummary;
use leonardo_bench::harness::{arg_or, parallel_map, trial_seeds};
use leonardo_bench::ExperimentSession;
use leonardo_faults::{Campaign, FaultModel};
use leonardo_rtl::bitslice::LANES;

/// Per-trial generations for one upset rate, read back off the recorded
/// telemetry stream (`None` per failed trial, preserving the success-rate
/// denominator).
fn gens_at_rate(session: &ExperimentSession, upsets: f64) -> Vec<Option<f64>> {
    session
        .aggregator()
        .events("fault.recovery")
        .iter()
        .filter(|t| t.f64_field("rate") == Some(upsets))
        .map(|t| {
            (t.bool_field("converged") == Some(true))
                .then(|| t.f64_field("generations"))
                .flatten()
        })
        .collect()
}

fn main() {
    let trials: usize = arg_or("--trials", 16);
    let max_gens: u64 = arg_or("--max-gens", 100_000);

    let mut session = ExperimentSession::begin("e13_seu");
    session.set_param("trials", trials as f64);
    session.set_param("max_generations", max_gens as f64);
    session.set_seeds(&trial_seeds(trials));

    println!("E13: GAP convergence under population-RAM upsets\n");
    println!("(baseline mutation pressure: 15 flips/generation over 1152 bits)\n");
    println!(
        "{:>18} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "upsets/generation", "success", "mean gens", "sd", "vs clean", "Δ gens"
    );
    println!("{:-<71}", "");

    let mut clean_mean = None;
    let seeds = trial_seeds(trials);
    let chunks: Vec<&[u32]> = seeds.chunks(LANES).collect();
    for upsets in [0.0f64, 0.1, 1.0, 5.0, 15.0, 50.0] {
        let campaign =
            Campaign::new(FaultModel::PopulationFlip, upsets).with_max_generations(max_gens);
        // run the campaign for its telemetry events (and manifest rows),
        // then read the rate's per-trial outcomes back off the stream
        let reports = parallel_map(&chunks, |chunk| campaign.run_x64(chunk));
        let mut deltas = Vec::new();
        for report in reports {
            report
                .verify()
                .unwrap_or_else(|e| panic!("recovery oracle failed at rate {upsets}: {e}"));
            deltas.extend(report.lanes.iter().filter_map(|l| l.cost_delta));
            session.add_row("campaigns", report.manifest_row());
        }
        let results = gens_at_rate(&session, upsets);
        let gens: Vec<f64> = results.iter().flatten().copied().collect();
        let success = gens.len() as f64 / trials as f64 * 100.0;
        let mean_delta = (!deltas.is_empty())
            .then(|| deltas.iter().sum::<i64>() as f64 / deltas.len() as f64)
            .map(|d| format!("{d:+.0}"))
            .unwrap_or_else(|| "-".into());
        match SampleSummary::of(&gens) {
            Some(s) => {
                if upsets == 0.0 {
                    clean_mean = Some(s.mean);
                }
                let slowdown = clean_mean
                    .map(|c| format!("{:.2}x", s.mean / c))
                    .unwrap_or_else(|| "-".into());
                println!(
                    "{:>18} {:>9.0}% {:>10.0} {:>8.0} {:>10} {:>8}",
                    upsets, success, s.mean, s.stddev, slowdown, mean_delta
                );
            }
            None => println!("{upsets:>18} {:>9.0}% {:>10}", success, "never"),
        }
    }

    println!();
    println!("Reading: the evolutionary loop turns storage faults into search noise.");
    println!("Upset rates up to the intrinsic mutation pressure (15 flips/generation)");
    println!("do not hurt — moderate rates even help, acting as extra exploratory");
    println!("mutation — and convergence only degrades once upsets dominate the");
    println!("mutation budget severalfold. This is the quantitative form of the");
    println!("evolvable-hardware robustness argument.");

    let manifest_path = session.manifest_path();
    session.finish();
    println!("\nrun manifest: {}", manifest_path.display());
}
