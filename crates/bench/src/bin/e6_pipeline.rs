//! E6 — the selection/crossover pipeline (paper fact F4).
//!
//! Paper §3.2: "To decrease computation time by a factor of about two, we
//! ran the selection and crossover operators in a pipeline."
//!
//! Runs the RTL GAP in both configurations and measures the reproduction-
//! phase cycle counts.
//!
//! Usage: `e6_pipeline [--gens G] [--seeds N]`

use discipulus::stats::SampleSummary;
use leonardo_bench::harness::{parallel_map, trial_seeds};
use leonardo_bench::{Comparison, ComparisonTable, Verdict};
use leonardo_exec::arg_or;
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};

fn main() {
    let gens: u64 = arg_or("--gens", 200);
    let seeds: usize = arg_or("--seeds", 8);

    let measurements: Vec<(f64, f64, f64, f64)> = parallel_map(&trial_seeds(seeds), |&seed| {
        let mut pipe = GapRtl::new(GapRtlConfig::paper(seed));
        let mut seq = GapRtl::new(GapRtlConfig::unpipelined(seed));
        for _ in 0..gens {
            pipe.step_generation();
            seq.step_generation();
        }
        (
            pipe.breakdown().reproduce as f64 / gens as f64,
            seq.breakdown().reproduce as f64 / gens as f64,
            pipe.breakdown().total() as f64 / gens as f64,
            seq.breakdown().total() as f64 / gens as f64,
        )
    });

    let pipe_repro: Vec<f64> = measurements.iter().map(|m| m.0).collect();
    let seq_repro: Vec<f64> = measurements.iter().map(|m| m.1).collect();
    let pipe_total: Vec<f64> = measurements.iter().map(|m| m.2).collect();
    let seq_total: Vec<f64> = measurements.iter().map(|m| m.3).collect();

    let pr = SampleSummary::of(&pipe_repro).expect("data");
    let sr = SampleSummary::of(&seq_repro).expect("data");
    let pt = SampleSummary::of(&pipe_total).expect("data");
    let st = SampleSummary::of(&seq_total).expect("data");
    let phase_speedup = sr.mean / pr.mean;
    let total_speedup = st.mean / pt.mean;

    println!("E6: pipelined vs sequential reproduction, {gens} generations x {seeds} seeds\n");
    println!("  reproduce phase, pipelined : {:.0} cycles/gen", pr.mean);
    println!("  reproduce phase, sequential: {:.0} cycles/gen", sr.mean);
    println!("  phase speed-up             : {phase_speedup:.2}x");
    println!("  whole generation, pipelined : {:.0} cycles/gen", pt.mean);
    println!("  whole generation, sequential: {:.0} cycles/gen", st.mean);
    println!("  end-to-end speed-up        : {total_speedup:.2}x\n");

    let mut table = ComparisonTable::new("E6 — selection/crossover pipeline (F4)");
    table.push(Comparison::new(
        "reproduction-phase speed-up",
        "a factor of about two",
        format!("{phase_speedup:.2}x"),
        if (1.4..=2.2).contains(&phase_speedup) {
            Verdict::Reproduced
        } else {
            Verdict::ShapeHolds
        },
    ));
    table.push(Comparison::new(
        "whole-generation speed-up",
        "(not reported)",
        format!("{total_speedup:.2}x"),
        Verdict::Informational,
    ));
    println!("{table}");
}
