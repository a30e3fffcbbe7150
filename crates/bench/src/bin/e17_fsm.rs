//! E17 — evolvable FSM synthesis through the problem registry.
//!
//! The generalization experiment: the same GA machinery the paper runs
//! on the gait landscape, pointed at every problem in the registry —
//! the gait itself, Mealy-machine recovery from recorded I/O traces
//! (a 1101 sequence detector) and a 1-bit serial adder. Two instruments
//! per problem:
//!
//! * seeded single-objective GA campaigns (the hardware GAP
//!   configuration), each winner cross-checked through the problem's
//!   bit-parallel batch kernel, fanned out over the order-preserving exec
//!   driver and bit-identical at any thread count and plane width;
//! * an exhaustive subspace landscape sweep through the same kernel —
//!   the full 2^16 space for the serial adder, the low 2^16 corner for
//!   the wider genomes.
//!
//! Campaigns land in the run manifest's `problems` section (telemetry
//! schema v7), sweeps in its `landscape` section.
//!
//! Usage: `e17_fsm [--generations N] [--seeds N] [--threads N]
//! [--sweep-bits N] [--shards N]`

use leonardo_bench::harness::arg_or;
use leonardo_bench::{
    problem_campaigns, problem_row, problem_table, Comparison, ComparisonTable, ExperimentSession,
    Verdict,
};
use leonardo_problems::{problem_registry, subspace_sweep};
use leonardo_rtl::bitslice::W256;
use leonardo_telemetry::json::Json;
use std::time::Instant;

/// Campaign seeds: the e1-style trial space, as 64-bit values.
fn campaign_seeds(n: usize) -> Vec<u64> {
    leonardo_bench::trial_seeds(n)
        .into_iter()
        .map(u64::from)
        .collect()
}

fn main() {
    let generations: u64 = arg_or("--generations", 4000);
    let num_seeds: usize = arg_or("--seeds", 4);
    let threads: usize = arg_or("--threads", 0);
    let sweep_bits: u32 = arg_or("--sweep-bits", 16);
    let shards: usize = arg_or("--shards", 8);

    let mut session = ExperimentSession::begin("e17_fsm");
    session.set_param("generations", generations as f64);
    session.set_param("campaigns", num_seeds as f64);
    session.set_param("sweep_bits", f64::from(sweep_bits));
    session.set_param("shards", shards as f64);
    session.set_seeds(&leonardo_bench::trial_seeds(num_seeds));
    session.set_threads(threads);
    session.set_plane_width(256);

    let seeds = campaign_seeds(num_seeds);
    let worker_count = leonardo_exec::resolve_threads(threads);
    println!(
        "E17: {} registered problem(s), {num_seeds} GA campaign(s) each, \
         {generations} generation budget, {worker_count} thread(s)\n",
        problem_registry().len()
    );

    let mut convergence = Vec::new();
    for spec in problem_registry() {
        let start = Instant::now();
        let trials = problem_campaigns::<W256>(spec, &seeds, generations, threads);
        let wall = start.elapsed().as_secs_f64();
        print!("{}", problem_table(spec, &trials));
        println!("  ({wall:.1}s)\n");
        let converged = trials.iter().filter(|t| t.converged).count();
        convergence.push((spec.name, converged, trials.len()));
        for t in &trials {
            session.add_row("problems", problem_row(spec, t));
        }

        let bits = sweep_bits.min(spec.width as u32);
        let sweep_start = Instant::now();
        let sweep = subspace_sweep::<W256>(spec, bits, shards, threads);
        let sweep_wall = sweep_start.elapsed().as_secs_f64();
        println!(
            "  sweep of the low 2^{bits} genomes ({sweep_wall:.1}s): best fitness \
             {} held by {} genome(s), first {:#x}",
            sweep.best_fitness,
            sweep.best_count(),
            sweep.best_genome
        );
        println!(
            "  histogram mass {} across {} level(s)\n",
            sweep.genomes(),
            sweep.histogram.len()
        );
        let max_count = if sweep.best_fitness == spec.max_fitness {
            sweep.best_count()
        } else {
            0
        };
        session.add_row(
            "landscape",
            Json::Obj(vec![
                ("subspace_bits".into(), u64::from(bits).into()),
                ("shards".into(), shards.into()),
                ("threads".into(), worker_count.into()),
                ("genomes_swept".into(), sweep.genomes().into()),
                ("max_fitness".into(), u64::from(spec.max_fitness).into()),
                ("max_count".into(), max_count.into()),
                ("histogram".into(), sweep.histogram.clone().into()),
            ]),
        );
    }

    let mut t = ComparisonTable::new("E17 — FSM synthesis through the problem registry");
    let fsm = convergence
        .iter()
        .find(|(n, _, _)| *n == "fsm_traces")
        .expect("fsm_traces is registered");
    t.push(Comparison::new(
        "FSM recovery from recorded traces",
        "GA finds the hidden machine (PAPERS.md, FSM synthesis)",
        format!(
            "{} of {} seed(s) reached 100% trace agreement",
            fsm.1, fsm.2
        ),
        if fsm.1 * 4 >= fsm.2 * 3 {
            Verdict::ShapeHolds
        } else {
            Verdict::Informational
        },
    ));
    t.push(Comparison::new(
        "substrate generality",
        "gait-only GAP hardware",
        format!(
            "{} problems share one GA, one kernel contract, one registry",
            problem_registry().len()
        ),
        Verdict::Informational,
    ));
    t.push(Comparison::new(
        "campaign determinism",
        "(not reported)",
        "bit-identical at any thread count and plane width",
        Verdict::Informational,
    ));
    println!("{t}");

    let manifest_path = session.manifest_path();
    let manifest = session.finish();
    assert_eq!(
        manifest.rows("problems").len(),
        problem_registry().len() * num_seeds
    );
    assert_eq!(manifest.rows("landscape").len(), problem_registry().len());
    println!("run manifest: {}", manifest_path.display());
}
