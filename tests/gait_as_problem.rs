//! The differential pin behind the `EvolvableProblem` refactor: the gait
//! problem driven through the generic registry path is byte-identical to
//! the legacy hard-coded path.
//!
//! The legacy path is `leonardo_bench::GaitRuleProblem` feeding `Ga`
//! directly; the generic path is the registry's `"gait"` entry wrapped
//! in the [`Evolvable`] adapter. A 1000-generation run under the
//! hardware GAP configuration must agree on every byte of provenance:
//! the per-generation history, the winner, the evaluation count — and
//! the campaign driver on top must be unobservable to plane width and
//! thread count, down to the manifest rows it emits.

use evo::evolvable::Evolvable;
use evo::ga::{Ga, GaConfig};
use leonardo_bench::{problem_row, GaitRuleProblem};
use leonardo_problems::{problem_campaigns, GaitProblem, ProblemSpec, ProblemTrial};
use leonardo_rtl::bitslice::W256;
use leonardo_telemetry::json::Json;
use leonardo_telemetry::RunManifest;

/// One full GAP-configured run per path, same seed, compared field by
/// field. 1000 generations with no target so neither path stops early.
fn run_both(seed: u64) -> (evo::ga::GaOutcome, evo::ga::GaOutcome) {
    let legacy =
        Ga::new(GaConfig::default(), GaitRuleProblem::paper(), seed).run(1000, Some(f64::INFINITY));
    let generic = Ga::new(GaConfig::default(), Evolvable(GaitProblem::paper()), seed)
        .run(1000, Some(f64::INFINITY));
    (legacy, generic)
}

#[test]
fn generic_path_is_byte_identical_to_the_legacy_path_over_1000_generations() {
    for seed in [0x1000u64, 0x1007, 0xDEAD] {
        let (legacy, generic) = run_both(seed);
        assert_eq!(legacy.generations, 1000, "seed {seed:#x}");
        assert_eq!(legacy.best_genome, generic.best_genome, "seed {seed:#x}");
        assert_eq!(legacy.best_fitness, generic.best_fitness, "seed {seed:#x}");
        assert_eq!(legacy.evaluations, generic.evaluations, "seed {seed:#x}");
        assert_eq!(legacy.generations, generic.generations, "seed {seed:#x}");
        assert_eq!(
            legacy.history.len(),
            generic.history.len(),
            "seed {seed:#x}"
        );
        for (g, (l, r)) in legacy.history.iter().zip(&generic.history).enumerate() {
            assert_eq!(l.generation, r.generation, "seed {seed:#x} gen {g}");
            assert_eq!(l.best.to_bits(), r.best.to_bits(), "seed {seed:#x} gen {g}");
            assert_eq!(l.mean.to_bits(), r.mean.to_bits(), "seed {seed:#x} gen {g}");
        }
    }
}

#[test]
fn early_stopping_agrees_too() {
    // with the default target both paths stop at the tripod-fitness
    // optimum on the same generation
    let seed = 0x100E;
    let legacy = Ga::new(GaConfig::default(), GaitRuleProblem::paper(), seed).run(20_000, None);
    let generic =
        Ga::new(GaConfig::default(), Evolvable(GaitProblem::paper()), seed).run(20_000, None);
    assert!(legacy.reached_target && generic.reached_target);
    assert_eq!(legacy.generations, generic.generations);
    assert_eq!(legacy.best_genome, generic.best_genome);
    assert_eq!(legacy.evaluations, generic.evaluations);
}

#[test]
fn gait_campaigns_are_width_and_thread_unobservable() {
    let spec = ProblemSpec::find("gait").expect("registered");
    let seeds = [0x1000u64, 0x1007];
    let base = problem_campaigns::<u64>(spec, &seeds, 300, 1);
    assert_eq!(base, problem_campaigns::<u64>(spec, &seeds, 300, 2));
    assert_eq!(base, problem_campaigns::<W256>(spec, &seeds, 300, 1));
    assert_eq!(base, problem_campaigns::<W256>(spec, &seeds, 300, 2));
    // and the campaign trials agree with a direct legacy run seed by seed
    for (t, &seed) in base.iter().zip(&seeds) {
        let legacy = Ga::new(GaConfig::default(), GaitRuleProblem::paper(), seed).run(300, None);
        assert_eq!(t.best_genome, legacy.best_genome.to_u64());
        assert_eq!(f64::from(t.best_fitness), legacy.best_fitness);
        assert_eq!(t.generations, legacy.generations);
        assert_eq!(t.evaluations, legacy.evaluations);
        assert_eq!(t.converged, legacy.reached_target);
    }
}

#[test]
fn manifest_problem_rows_are_identical_across_configurations() {
    let spec = ProblemSpec::find("gait").expect("registered");
    let seeds = [0x1015u64];
    let rows_of = |trials: &[ProblemTrial]| -> Vec<Json> {
        trials.iter().map(|t| problem_row(spec, t)).collect()
    };
    let narrow = rows_of(&problem_campaigns::<u64>(spec, &seeds, 200, 1));
    let wide = rows_of(&problem_campaigns::<W256>(spec, &seeds, 200, 2));
    assert_eq!(narrow, wide);

    // and the rows survive a manifest round-trip byte-for-byte
    let mut manifest = RunManifest::new("gait_as_problem_pin");
    for row in &narrow {
        manifest.push_row("problems", row.clone());
    }
    let back = RunManifest::from_json_str(&manifest.to_json().to_string()).expect("parse back");
    assert_eq!(back.rows("problems"), narrow);
    let first = &back.rows("problems")[0];
    assert_eq!(first.get("problem").and_then(Json::as_str), Some("gait"));
    assert_eq!(first.get("width").and_then(Json::as_u64), Some(36));
}
