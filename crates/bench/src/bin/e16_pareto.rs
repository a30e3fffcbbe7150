//! E16 — multi-objective gait evolution and the max-set walk ranking
//! (paper claim F9).
//!
//! Paper §3.3: "the walking behavior found with the maximum fitness
//! respecting all these rules is nonetheless good" — a claim the logic
//! fitness cannot itself settle, because 86 436 genomes share the
//! maximal score. This experiment settles it with two instruments:
//!
//! * seeded NSGA-II campaigns over the walker's scenario catalog
//!   (distance / worst-case stability margin / energy), fanned out over
//!   the order-preserving exec driver and bit-identical at any thread
//!   count;
//! * the max-set walk table: a seeded subsample of the analytic
//!   max-fitness set walked on flat ground and ranked by distance — the
//!   ranking the three rules cannot express — plus the 2-objective
//!   Pareto front of rule fitness vs walked distance.
//!
//! Every campaign lands in the run manifest's `pareto` section
//! (telemetry schema v6).
//!
//! Usage: `e16_pareto [--seeds N] [--generations N] [--population N]
//! [--threads N] [--table N] [--table-seed S] [--flat-only]`

use discipulus::genome::Genome;
use leonardo_bench::{
    max_set_walk_table, rule_walk_front, Comparison, ComparisonTable, ExperimentSession, Verdict,
};
use leonardo_exec::arg_or;
use leonardo_problems::{nsga2_campaigns, GaitMoProblem};
use leonardo_telemetry::json::Json;
use leonardo_walker::objectives::objective_registry;
use std::time::Instant;

/// Campaign seeds, disjoint from the e1-style `trial_seeds` space.
fn campaign_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 0xE16_0000 + 13 * i).collect()
}

fn main() {
    let num_seeds: usize = arg_or("--seeds", 4);
    let generations: u64 = arg_or("--generations", 12);
    let population: usize = arg_or("--population", 16);
    let threads: usize = arg_or("--threads", 0);
    let table_size: usize = arg_or("--table", 512);
    let table_seed: u64 = arg_or("--table-seed", 0xE16);
    let flat_only = std::env::args().any(|a| a == "--flat-only");

    let mut session = ExperimentSession::begin("e16_pareto");
    session.set_param("campaigns", num_seeds as f64);
    session.set_param("generations", generations as f64);
    session.set_param("population", population as f64);
    session.set_param("table", table_size as f64);
    session.set_seeds(
        &campaign_seeds(num_seeds)
            .iter()
            .map(|&s| s as u32)
            .collect::<Vec<_>>(),
    );
    let worker_count = leonardo_exec::resolve_threads(threads);
    session.set_threads(worker_count);

    let problem = if flat_only {
        GaitMoProblem::flat_only()
    } else {
        GaitMoProblem::standard()
    };
    let scenario_count = problem.objectives().scenarios().len();
    let names: Vec<String> = objective_registry()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    println!(
        "E16: {num_seeds} NSGA-II campaign(s), population {population}, \
         {generations} generations, {scenario_count} scenario(s), \
         {worker_count} thread(s)\n"
    );

    let start = Instant::now();
    let seeds = campaign_seeds(num_seeds);
    let campaigns = nsga2_campaigns(&problem, &seeds, generations, population, threads);
    let evolve_wall = start.elapsed().as_secs_f64();

    println!("campaign fronts ({evolve_wall:.1}s):");
    for c in &campaigns {
        let best_distance = c
            .front
            .iter()
            .map(|r| r.distance_mm)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_margin = c
            .front
            .iter()
            .map(|r| r.min_margin_mm)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_energy = c
            .front
            .iter()
            .map(|r| r.energy_j)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  seed {:#09x}: front {:>2}, best distance {:>6.1} mm, \
             best margin {:>5.2} mm, least energy {:>6.2} J",
            c.seed,
            c.front.len(),
            best_distance,
            best_margin,
            best_energy
        );
        session.add_row(
            "pareto",
            Json::Obj(vec![
                ("campaign".into(), "nsga2_walk".into()),
                ("seed".into(), c.seed.into()),
                ("population".into(), population.into()),
                ("generations".into(), c.generations.into()),
                ("evaluations".into(), c.evaluations.into()),
                ("front_size".into(), c.front.len().into()),
                ("objectives".into(), names.clone().into()),
                (
                    "best".into(),
                    vec![best_distance, best_margin, -best_energy].into(),
                ),
            ]),
        );
    }

    let table_start = Instant::now();
    let table = max_set_walk_table(table_size, table_seed, threads);
    let table_wall = table_start.elapsed().as_secs_f64();
    println!(
        "\nmax-set walk table: {} of 86 436 maximal genomes walked flat \
         ({table_wall:.1}s); top 10 by distance:",
        table.len()
    );
    println!(
        "  {:>12} {:>12} {:>11} {:>9}",
        "genome", "distance_mm", "margin_mm", "energy_j"
    );
    for r in table.iter().take(10) {
        println!(
            "  {:#012x} {:>12.1} {:>11.2} {:>9.2}",
            r.genome_bits, r.distance_mm, r.min_margin_mm, r.energy_j
        );
    }
    let best = table.first().expect("table is non-empty");
    let worst = table.last().expect("table is non-empty");
    println!(
        "  ... spread: best walks {:.1} mm, worst {:.1} mm — same rule fitness",
        best.distance_mm, worst.distance_mm
    );

    // rule-vs-walk front over the walked max-set sample plus the tripod
    // and a low-fitness contrast point
    let mut sample: Vec<Genome> = table
        .iter()
        .map(|r| Genome::from_bits(r.genome_bits))
        .collect();
    sample.push(Genome::tripod());
    sample.push(Genome::ZERO);
    sample.dedup();
    let front = rule_walk_front(&sample, threads);
    println!(
        "\nrule-fitness vs walked-distance Pareto front: {} genome(s)",
        front.len()
    );
    for &(g, rules, dist) in front.iter().take(5) {
        println!(
            "  {:#012x}  rules {rules:>2}  distance {dist:>7.1} mm",
            g.bits()
        );
    }

    let mut t = ComparisonTable::new("E16 — multi-objective gait evolution (F9)");
    t.push(Comparison::new(
        "walking quality of max-fitness genomes",
        "\"nonetheless good\" (judged by eye)",
        format!(
            "{:.0}-{:.0} mm walked across {} maximal genomes",
            worst.distance_mm,
            best.distance_mm,
            table.len()
        ),
        Verdict::ShapeHolds,
    ));
    t.push(Comparison::new(
        "gait selection instrument",
        "3 logic rules, single scalar",
        format!(
            "{} objectives, front of {} per campaign (mean)",
            names.len(),
            campaigns.iter().map(|c| c.front.len()).sum::<usize>() / campaigns.len().max(1)
        ),
        Verdict::Informational,
    ));
    t.push(Comparison::new(
        "campaign determinism",
        "(not reported)",
        "bit-identical at any thread count",
        Verdict::Informational,
    ));
    println!("{t}");

    let manifest_path = session.manifest_path();
    let manifest = session.finish();
    assert_eq!(manifest.rows("pareto").len(), num_seeds);
    println!("run manifest: {}", manifest_path.display());
}
