//! Common measurement machinery for the experiment binaries.
//!
//! The GA drivers live with the engines they drive
//! ([`leonardo_rtl::driver`], the campaign drivers in
//! `leonardo_problems`); flag parsing lives in `leonardo_exec`.

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;

/// The GA driver's former home, re-exported so that the benchmark
/// package's (`perfbench/`) imports of these names from this path keep
/// compiling, like `leonardo_landscape::checkpoint`. They go once the
/// benchmark imports them from [`leonardo_rtl::driver`], where every
/// other caller does.
pub use leonardo_rtl::driver::{
    engine_label, rtl_convergence_scalar, rtl_evolve_batch_w, EvolvedTrial, RtlTrial,
};

/// Deterministic seed list for multi-trial experiments.
pub fn trial_seeds(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| 0x1000 + 7 * i).collect()
}

/// Generations-to-convergence statistics over many seeded GAP runs.
#[derive(Debug, Clone)]
pub struct ConvergenceStats {
    /// Per-trial generations for trials that converged.
    pub generations: Vec<f64>,
    /// Number of trials that failed to converge within the budget.
    pub failures: usize,
    /// Summary of the converged trials (`None` if all failed).
    pub summary: Option<SampleSummary>,
}

/// Run `seeds.len()` behavioural GAP trials in parallel and collect
/// generations-to-maximum-fitness.
pub fn convergence_sample(
    params: GapParams,
    seeds: &[u32],
    max_generations: u64,
) -> ConvergenceStats {
    let results = parallel_map(seeds, |&seed| {
        let mut gap = GeneticAlgorithmProcessor::new(params, seed);
        let outcome = gap.run_to_convergence(max_generations);
        leonardo_rtl::driver::emit_trial(
            "behavioural",
            seed,
            RtlTrial {
                converged: outcome.converged,
                generations: outcome.generations,
                cycles: 0,
            },
        );
        (outcome.converged, outcome.generations)
    });
    let generations: Vec<f64> = results
        .iter()
        .filter(|(ok, _)| *ok)
        .map(|(_, g)| *g as f64)
        .collect();
    let failures = results.iter().filter(|(ok, _)| !ok).count();
    ConvergenceStats {
        summary: SampleSummary::of(&generations),
        generations,
        failures,
    }
}

/// Summarize RTL trials the same way [`convergence_sample`] does.
pub fn rtl_stats(trials: &[RtlTrial]) -> ConvergenceStats {
    let generations: Vec<f64> = trials
        .iter()
        .filter(|t| t.converged)
        .map(|t| t.generations as f64)
        .collect();
    ConvergenceStats {
        summary: SampleSummary::of(&generations),
        failures: trials.iter().filter(|t| !t.converged).count(),
        generations,
    }
}

/// Map `f` over `items` on `threads` workers, preserving input order.
/// Results are independent of thread scheduling. `threads` of 0 means
/// one per available core.
pub fn parallel_map_threads<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    leonardo_exec::ordered_map_range(threads, items.len(), |i| f(&items[i]))
}

/// [`parallel_map_threads`] on all available cores.
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    parallel_map_threads(0, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct() {
        let s = trial_seeds(50);
        let set: std::collections::HashSet<u32> = s.iter().copied().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn convergence_sample_small() {
        let stats = convergence_sample(GapParams::paper(), &trial_seeds(8), 50_000);
        assert_eq!(stats.failures, 0, "paper params should always converge");
        let sum = stats.summary.expect("summary");
        assert_eq!(sum.n, 8);
        assert!(sum.mean > 10.0, "convergence cannot be instant");
        assert!(sum.mean < 50_000.0);
    }

    #[test]
    fn rtl_stats_splits_converged_from_failures() {
        let trials = [
            RtlTrial {
                converged: true,
                generations: 100,
                cycles: 1,
            },
            RtlTrial {
                converged: false,
                generations: 700,
                cycles: 2,
            },
            RtlTrial {
                converged: true,
                generations: 300,
                cycles: 3,
            },
        ];
        let stats = rtl_stats(&trials);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.generations, vec![100.0, 300.0]);
        let sum = stats.summary.expect("summary");
        assert_eq!(sum.n, 2);
        assert!((sum.mean - 200.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_results_match_serial() {
        let params = GapParams::paper();
        let seeds = trial_seeds(4);
        let par = convergence_sample(params, &seeds, 50_000);
        let ser: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let mut gap = GeneticAlgorithmProcessor::new(params, s);
                gap.run_to_convergence(50_000).generations as f64
            })
            .collect();
        assert_eq!(par.generations, ser);
    }
}
