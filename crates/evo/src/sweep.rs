//! Parallel parameter-sweep driver (experiment E9).
//!
//! Runs a grid of GA configurations × seeds over a problem, distributing
//! trials across worker threads ([`leonardo_exec::ordered_map`]),
//! and aggregates success rate / generations-to-solution / evaluation
//! counts per configuration. Results are **bit-identical for any thread
//! count**: each trial is deterministic, and the executor hands trial
//! results back in (point, seed) input order, so the floating-point
//! aggregation always folds in the same sequence. (The earlier channel
//! version collected in completion order, whose per-point float sums
//! could drift in the last ulp between thread counts.)

use crate::ga::{Ga, GaConfig};
use crate::problem::Problem;
use crate::stats::{success_rate, Summary};
use core::fmt;
use leonardo_telemetry as tele;

/// One configuration in a sweep, with a human-readable label.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Label shown in the report (e.g. `pop=64`).
    pub label: String,
    /// Configuration to run.
    pub config: GaConfig,
}

impl SweepPoint {
    /// Create a labelled configuration.
    pub fn new(label: impl Into<String>, config: GaConfig) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            config,
        }
    }
}

/// Aggregated result for one sweep point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The point's label.
    pub label: String,
    /// Fraction of trials that reached the target.
    pub success_rate: f64,
    /// Generations-to-solution over *successful* trials (`None` when no
    /// trial succeeded).
    pub generations: Option<Summary>,
    /// Evaluations over all trials.
    pub evaluations: Summary,
}

impl fmt::Display for SweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} success {:>5.1}%  gens {}  evals mean {:.0}",
            self.label,
            self.success_rate * 100.0,
            self.generations.map_or("-".to_string(), |s| format!(
                "{:.0}±{:.0}",
                s.mean, s.stddev
            )),
            self.evaluations.mean,
        )
    }
}

/// The full sweep report, one row per point in input order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Aggregated rows, in the order the points were given.
    pub rows: Vec<SweepRow>,
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

/// Sweep execution settings.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Seeds; each (point, seed) pair is one trial.
    pub seeds: Vec<u64>,
    /// Per-trial generation budget.
    pub max_generations: u64,
    /// Worker threads (0 ⇒ available parallelism).
    pub threads: usize,
}

impl SweepRunner {
    /// A runner over seeds `0..trials` with the given budget.
    pub fn new(trials: u64, max_generations: u64) -> SweepRunner {
        SweepRunner {
            seeds: (0..trials).collect(),
            max_generations,
            threads: 0,
        }
    }

    /// Execute the sweep. `target` defaults to the problem's known maximum.
    ///
    /// # Panics
    /// Panics if `points` or `seeds` is empty.
    pub fn run<P: Problem + Sync>(
        &self,
        problem: &P,
        points: &[SweepPoint],
        target: Option<f64>,
    ) -> SweepReport {
        assert!(!points.is_empty(), "no sweep points");
        assert!(!self.seeds.is_empty(), "no seeds");
        // job = (point index, seed); results come back in job order, so
        // the per-point aggregation below is scheduling-independent
        let jobs: Vec<(usize, u64)> = points
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| self.seeds.iter().map(move |&seed| (pi, seed)))
            .collect();
        type Trial = (usize, bool, u64, u64); // point, success, gens, evals
        let all: Vec<Trial> = leonardo_exec::ordered_map(self.threads, jobs, |_, (pi, seed)| {
            let mut ga = Ga::new(points[pi].config, problem, seed);
            let out = ga.run(self.max_generations, target);
            if tele::enabled_at(tele::Level::Metric) {
                tele::emit(
                    tele::Level::Metric,
                    "evo.sweep.trial",
                    &[
                        ("point", pi.into()),
                        ("seed", seed.into()),
                        ("success", out.reached_target.into()),
                        ("generations", out.generations.into()),
                        ("evaluations", out.evaluations.into()),
                    ],
                );
            }
            (pi, out.reached_target, out.generations, out.evaluations)
        });

        let rows = points
            .iter()
            .enumerate()
            .map(|(pi, point)| {
                let trials: Vec<&Trial> = all.iter().filter(|t| t.0 == pi).collect();
                let successes: Vec<bool> = trials.iter().map(|t| t.1).collect();
                let gens: Vec<f64> = trials.iter().filter(|t| t.1).map(|t| t.2 as f64).collect();
                let evals: Vec<f64> = trials.iter().map(|t| t.3 as f64).collect();
                SweepRow {
                    label: point.label.clone(),
                    success_rate: success_rate(&successes),
                    generations: Summary::of(&gens),
                    evaluations: Summary::of(&evals).expect("at least one trial"),
                }
            })
            .collect();
        SweepReport { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OneMax;

    #[test]
    fn sweep_runs_all_points() {
        let points = vec![
            SweepPoint::new("pop=16", GaConfig::default().with_population_size(16)),
            SweepPoint::new("pop=32", GaConfig::default()),
        ];
        let runner = SweepRunner::new(8, 2000);
        let report = runner.run(&OneMax(24), &points, None);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.evaluations.n, 8);
            assert!(row.success_rate > 0.5, "{row}");
        }
        assert_eq!(report.rows[0].label, "pop=16");
    }

    #[test]
    fn sweep_bit_identical_for_any_thread_count() {
        let points = vec![
            SweepPoint::new("d", GaConfig::default()),
            SweepPoint::new("p16", GaConfig::default().with_population_size(16)),
        ];
        let p = OneMax(20);
        let mut one = SweepRunner::new(6, 500);
        one.threads = 1;
        let a = one.run(&p, &points, None);
        for threads in [2, 4, 8] {
            let mut many = SweepRunner::new(6, 500);
            many.threads = threads;
            let b = many.run(&p, &points, None);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                // bit-exact, not approximately equal: the merge order is
                // canonical, so even the float folds must agree to the ulp
                assert_eq!(
                    ra.success_rate.to_bits(),
                    rb.success_rate.to_bits(),
                    "{threads} threads"
                );
                assert_eq!(ra.evaluations.mean.to_bits(), rb.evaluations.mean.to_bits());
                assert_eq!(
                    ra.evaluations.stddev.to_bits(),
                    rb.evaluations.stddev.to_bits()
                );
                assert_eq!(
                    ra.generations.map(|s| s.mean.to_bits()),
                    rb.generations.map(|s| s.mean.to_bits())
                );
                assert_eq!(
                    ra.generations.map(|s| s.stddev.to_bits()),
                    rb.generations.map(|s| s.stddev.to_bits())
                );
            }
        }
    }

    #[test]
    fn failed_points_report_none_generations() {
        // unreachable target
        let points = vec![SweepPoint::new("x", GaConfig::default())];
        let runner = SweepRunner::new(3, 5);
        let report = runner.run(&OneMax(64), &points, Some(64.0));
        assert_eq!(report.rows[0].success_rate, 0.0);
        assert!(report.rows[0].generations.is_none());
    }

    #[test]
    #[should_panic(expected = "no sweep points")]
    fn empty_points_rejected() {
        SweepRunner::new(1, 1).run(&OneMax(4), &[], None);
    }

    #[test]
    fn report_display_renders_rows() {
        let points = vec![SweepPoint::new("label-a", GaConfig::default())];
        let report = SweepRunner::new(2, 200).run(&OneMax(12), &points, None);
        let text = report.to_string();
        assert!(text.contains("label-a"));
        assert!(text.contains("success"));
    }
}
