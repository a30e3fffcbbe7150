//! Registry-problem campaign reporting (experiment E17): the manifest
//! row and the fixed-width table of the `problems` campaigns that
//! [`leonardo_problems::problem_campaigns`] runs.

use leonardo_problems::{ProblemSpec, ProblemTrial};
use leonardo_telemetry::json::Json;
use std::fmt::Write as _;

/// A manifest `problems` row for one trial.
pub fn problem_row(spec: &ProblemSpec, trial: &ProblemTrial) -> Json {
    Json::Obj(vec![
        ("problem".into(), spec.name.into()),
        ("width".into(), spec.width.into()),
        ("seed".into(), trial.seed.into()),
        ("generations".into(), trial.generations.into()),
        ("evaluations".into(), trial.evaluations.into()),
        ("best_fitness".into(), u64::from(trial.best_fitness).into()),
        (
            "best_genome".into(),
            format!("{:#x}", trial.best_genome).into(),
        ),
        ("converged".into(), trial.converged.into()),
    ])
}

/// Render one problem's campaign results as the fixed-width table the
/// `e17_fsm` golden file pins. Deterministic: no wall times, no host
/// shape — only what the seeds fully determine.
pub fn problem_table(spec: &ProblemSpec, trials: &[ProblemTrial]) -> String {
    let mut out = format!(
        "problem {} ({}-bit genome, max fitness {})\n",
        spec.name, spec.width, spec.max_fitness
    );
    writeln!(
        out,
        "  {:>8} {:>6} {:>8} {:>4} {:>12}  converged",
        "seed", "gens", "evals", "best", "genome"
    )
    .unwrap();
    for t in trials {
        writeln!(
            out,
            "  {:#08x} {:>6} {:>8} {:>4} {:#012x}  {}",
            t.seed,
            t.generations,
            t.evaluations,
            t.best_fitness,
            t.best_genome,
            if t.converged { "yes" } else { "no" }
        )
        .unwrap();
    }
    let converged = trials.iter().filter(|t| t.converged).count();
    writeln!(out, "  {} of {} seed(s) converged", converged, trials.len()).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_problems::problem_campaigns;

    fn spec(name: &str) -> &'static ProblemSpec {
        ProblemSpec::find(name).expect("registered")
    }

    #[test]
    fn rows_and_table_render_the_trials() {
        let s = spec("serial_adder");
        let trials = problem_campaigns::<u64>(s, &[0x1000], 5, 1);
        let row = problem_row(s, &trials[0]);
        assert_eq!(
            row.get("problem").and_then(Json::as_str),
            Some("serial_adder")
        );
        assert_eq!(row.get("width").and_then(Json::as_u64), Some(16));
        assert_eq!(row.get("seed").and_then(Json::as_u64), Some(0x1000));
        let genome = format!("{:#x}", trials[0].best_genome);
        assert_eq!(
            row.get("best_genome").and_then(Json::as_str),
            Some(genome.as_str())
        );
        // the row matches the `problems` declaration (push_row panics otherwise)
        leonardo_telemetry::RunManifest::new("problem_test").push_row("problems", row.clone());
        let table = problem_table(s, &trials);
        assert!(table.contains("problem serial_adder (16-bit genome, max fitness 48)"));
        assert!(table.contains("0 of 1 seed(s) converged") || table.contains("1 of 1 seed(s)"));
    }
}
