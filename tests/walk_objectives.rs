//! The max-set walk table, pinned golden (experiment E16, paper claim
//! F9).
//!
//! The rule fitness cannot separate the 86 436 maximal genomes; the walk
//! table ranks a seeded 512-genome subsample of them by what the rules
//! cannot see — executed flat-ground distance, worst-case stability
//! margin and energy. This suite pins the full table byte-for-byte, so
//! any drift in the walker's physics, the energy model or the objective
//! definitions (`distance_mm`, `min_margin_mm`, `neg_energy_j`) fails
//! loudly. Regenerate after an intentional model change with
//! `UPDATE_GOLDEN=1 cargo test --test walk_objectives`.
//!
//! The companion tests hold the two contracts the table's provenance
//! rests on: thread count must be unobservable in every e16 product, and
//! the table's numbers must re-derive from the objective registry.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::Genome;
use leonardo_bench::{max_set_walk_table, WalkTableRow};
use leonardo_problems::{nsga2_campaigns, GaitMoProblem};
use leonardo_walker::objectives::{objective_registry, WalkObjectives};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/max_set_walk_table.txt"
);

/// The pinned subsample: 512 genomes drawn with the e16 table seed.
const TABLE_SIZE: usize = 512;
const TABLE_SEED: u64 = 0xE16;

/// Render the table exactly: one row per genome, shortest-round-trip
/// floats, distance-ranked. The column names are the registered
/// objective names: distance_mm, min_margin_mm, neg_energy_j.
fn render_table(rows: &[WalkTableRow]) -> String {
    let mut out = format!(
        "# max-set walk table: {TABLE_SIZE}-genome seeded subsample \
         (seed {TABLE_SEED:#x}), flat ground, 6 cycles\n\
         # columns: genome distance_mm min_margin_mm neg_energy_j\n"
    );
    for r in rows {
        writeln!(
            out,
            "{:09x} {} {} {}",
            r.genome_bits, r.distance_mm, r.min_margin_mm, -r.energy_j
        )
        .unwrap();
    }
    out
}

#[test]
fn max_set_walk_table_matches_the_golden_pin() {
    let rows = max_set_walk_table(TABLE_SIZE, TABLE_SEED, 0);
    assert_eq!(rows.len(), TABLE_SIZE);
    let spec = FitnessSpec::paper();
    for r in &rows {
        assert!(spec.is_max(Genome::from_bits(r.genome_bits)));
    }
    let rendered = render_table(&rows);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with UPDATE_GOLDEN=1 cargo test --test walk_objectives",
    );
    assert_eq!(
        rendered, golden,
        "the max-set walk table drifted from the golden pin; if the \
         walker physics or the objective definitions changed \
         intentionally, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn walk_table_is_thread_count_unobservable() {
    let one = max_set_walk_table(48, TABLE_SEED, 1);
    let three = max_set_walk_table(48, TABLE_SEED, 3);
    assert_eq!(one, three, "table bytes vary with thread count");
}

#[test]
fn campaigns_are_thread_count_unobservable() {
    let problem = GaitMoProblem::flat_only();
    let seeds = [0xE16_0000u64, 0xE16_000D];
    let one = nsga2_campaigns(&problem, &seeds, 2, 8, 1);
    let two = nsga2_campaigns(&problem, &seeds, 2, 8, 2);
    assert_eq!(one, two, "campaign results vary with thread count");
}

#[test]
fn table_rows_re_derive_from_the_objective_registry() {
    let rows = max_set_walk_table(8, TABLE_SEED, 0);
    let evaluator = WalkObjectives::flat_only();
    let registry = objective_registry();
    assert_eq!(registry.len(), 3);
    for r in &rows {
        let g = Genome::from_bits(r.genome_bits);
        let o = evaluator.evaluate(g);
        assert_eq!(o.distance_mm, r.distance_mm);
        assert_eq!(o.min_margin_mm, r.min_margin_mm);
        assert_eq!(o.energy_j, r.energy_j);
        // and through the registry's probes, objective by objective
        let by_name: Vec<f64> = registry.iter().map(|s| (s.probe)(g)).collect();
        assert_eq!(by_name, vec![r.distance_mm, r.min_margin_mm, -r.energy_j]);
    }
}
