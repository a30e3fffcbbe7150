//! Common measurement machinery for the experiment binaries.

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;
use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane};
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};
use leonardo_telemetry as tele;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Emit the per-trial `bench.trial` telemetry event every sampling path
/// shares; `cycles` is 0 for the behavioural engine (no clock).
fn emit_trial(engine: &'static str, seed: u32, trial: RtlTrial) {
    if tele::enabled_at(tele::Level::Metric) {
        tele::emit(
            tele::Level::Metric,
            "bench.trial",
            &[
                ("engine", engine.into()),
                ("seed", seed.into()),
                ("converged", trial.converged.into()),
                ("generations", trial.generations.into()),
                ("cycles", trial.cycles.into()),
            ],
        );
    }
}

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
        emit_trial(
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

/// Outcome of one seeded RTL GAP trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtlTrial {
    /// Whether the run reached a maximal-fitness best genome in budget.
    pub converged: bool,
    /// Generations executed when the run stopped.
    pub generations: u64,
    /// System cycles elapsed when the run stopped.
    pub cycles: u64,
}

/// [`RtlTrial`] plus the evolved artefact itself — what a caller that
/// wants the *result* of the evolution (the `leonardo-server` `/evolve`
/// endpoint), not just its statistics, gets back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvolvedTrial {
    /// Convergence statistics of the trial.
    pub trial: RtlTrial,
    /// Best genome held by the lane when the trial stopped.
    pub best_genome: discipulus::genome::Genome,
    /// Fitness of that best genome as the chip recorded it.
    pub best_fitness: u32,
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

/// Multi-seed RTL convergence sampling, one scalar [`GapRtl`] per trial,
/// trials spread over all cores. The reference path the batch engine is
/// measured against.
pub fn rtl_convergence_scalar(seeds: &[u32], max_generations: u64) -> Vec<RtlTrial> {
    parallel_map(seeds, |&seed| {
        let mut gap = GapRtl::new(GapRtlConfig::paper(seed));
        let converged = gap.run_to_convergence(max_generations);
        let trial = RtlTrial {
            converged,
            generations: gap.generation(),
            cycles: gap.clock().cycles(),
        };
        emit_trial("rtl_scalar", seed, trial);
        trial
    })
}

/// The telemetry engine label of a plane width (the historical `rtl_x64`
/// for the 64-lane engine — pinned by the golden JSONL suites).
pub fn engine_label<P: Plane>() -> &'static str {
    match P::NAME {
        "u64" => "rtl_x64",
        "w128" => "rtl_w128",
        "w256" => "rtl_w256",
        "w512" => "rtl_w512",
        _ => "rtl_wide",
    }
}

/// Multi-seed RTL convergence sampling on the bit-sliced batch engine:
/// each worker thread owns a [`GapRtlXW`] and pulls seeds from a shared
/// queue into lanes as they free up, so all `P::LANES` lanes of every
/// engine stay busy until the queue drains. No more engines run than
/// the seed list can fill. Per-seed results are bit-identical to [`rtl_convergence_scalar`] — and to any other width
/// or thread count — and come back in seed order; which *engine* runs a
/// given seed varies with scheduling, but every lane is bit-exact with a
/// fresh scalar chip on that seed, so the per-seed outcome cannot.
pub fn rtl_convergence_batch_w<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    threads: usize,
) -> Vec<RtlTrial> {
    rtl_evolve_batch_w::<P>(seeds, max_generations, threads)
        .into_iter()
        .map(|t| t.trial)
        .collect()
}

/// [`rtl_convergence_batch_w`] keeping the evolved best genome and its
/// fitness per trial. Same driver, same determinism contract: per-seed
/// results are bit-identical for any plane width and thread count.
pub fn rtl_evolve_batch_w<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    threads: usize,
) -> Vec<EvolvedTrial> {
    // one item per engine the seed list can fill; every engine drains the
    // shared seed queue, so an item that starts after it emptied is a
    // no-op and min(threads, engines) engines do all the work
    let next = AtomicUsize::new(0);
    let engines = seeds.len().div_ceil(P::LANES);
    let mut collected: Vec<(usize, EvolvedTrial)> =
        leonardo_exec::ordered_map_range(threads, engines, |_| {
            batch_worker::<P>(seeds, max_generations, &next)
        })
        .into_iter()
        .flatten()
        .collect();
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// [`rtl_convergence_batch_w`] at the historical width and thread count:
/// 64 lanes, one engine per available core.
pub fn rtl_convergence_batch(seeds: &[u32], max_generations: u64) -> Vec<RtlTrial> {
    rtl_convergence_batch_w::<u64>(seeds, max_generations, 0)
}

/// One refilling batch engine: claim up to `P::LANES` seeds, run the
/// converged-or-out-of-budget lanes dry, and reseed each freed lane from
/// the queue. Returns the trials it ran, tagged with their seed index.
fn batch_worker<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    next: &AtomicUsize,
) -> Vec<(usize, EvolvedTrial)> {
    let claim = |cap: usize| -> Vec<usize> {
        (0..cap)
            .map_while(|_| {
                let i = next.fetch_add(1, Relaxed);
                (i < seeds.len()).then_some(i)
            })
            .collect()
    };

    // a reset costs one whole-width initiator + fitness pass however many
    // lanes it reseeds, so freed lanes pool up and refill as a group
    const REFILL_GROUP: usize = 8;

    let mut results = Vec::new();
    let first = claim(P::LANES);
    if first.is_empty() {
        return results;
    }
    let lane_seeds: Vec<u32> = first.iter().map(|&i| seeds[i]).collect();
    let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &lane_seeds);
    // which queued trial each enabled lane is currently running
    let mut trial: Vec<Option<usize>> = vec![None; P::LANES];
    for (l, &i) in first.iter().enumerate() {
        trial[l] = Some(i);
    }
    let mut free: Vec<usize> = Vec::new();

    loop {
        let running = gap.running_mask(max_generations);
        // harvest finished lanes into the free pool
        (gap.enabled() & !running).for_each_set_lane(|l| {
            let Some(i) = trial[l].take() else { return };
            let done = RtlTrial {
                converged: gap.converged(l),
                generations: gap.generation(l),
                cycles: gap.cycles(l),
            };
            let (best_genome, best_fitness) = gap.best(l);
            emit_trial(engine_label::<P>(), seeds[i], done);
            results.push((
                i,
                EvolvedTrial {
                    trial: done,
                    best_genome,
                    best_fitness,
                },
            ));
            free.push(l);
        });
        let mut active = P::ZERO;
        gap.enabled().for_each_set_lane(|l| {
            if trial[l].is_some() {
                active.set_bit(l, true);
            }
        });
        active &= running;
        if free.len() >= REFILL_GROUP || active.is_zero() {
            let claimed = claim(free.len());
            if !claimed.is_empty() {
                let resets: Vec<(usize, u32)> = claimed
                    .iter()
                    .map(|&i| {
                        let l = free.pop().expect("one free lane per claimed seed");
                        trial[l] = Some(i);
                        (l, seeds[i])
                    })
                    .collect();
                gap.reset_lanes(&resets);
                // re-derive the running set so fresh lanes join cleanly
                continue;
            }
        }
        if active.is_zero() {
            return results;
        }
        gap.step_generation_masked(active);
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

/// Parse a `--flag value` style argument from the command line, with a
/// default.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
    fn rtl_batch_matches_scalar_per_seed() {
        let seeds = trial_seeds(6);
        let scalar = rtl_convergence_scalar(&seeds, 30_000);
        let batch = rtl_convergence_batch(&seeds, 30_000);
        assert_eq!(scalar, batch);
        assert!(scalar.iter().all(|t| t.converged));
    }

    #[test]
    fn rtl_batch_refills_lanes_past_sixty_four_trials() {
        // more trials than lanes forces reset_lane refills; a tight
        // generation budget keeps the test fast and exercises both
        // converged and out-of-budget harvests
        let seeds = trial_seeds(70);
        let scalar = rtl_convergence_scalar(&seeds, 40);
        let batch = rtl_convergence_batch(&seeds, 40);
        assert_eq!(scalar, batch);
        assert!(
            batch.iter().any(|t| t.converged) && batch.iter().any(|t| !t.converged),
            "budget should split the trials into both outcomes"
        );
    }

    #[test]
    fn evolve_batch_returns_maximal_best_genomes() {
        let seeds = trial_seeds(4);
        let out = rtl_evolve_batch_w::<u64>(&seeds, 30_000, 1);
        let spec = discipulus::fitness::FitnessSpec::paper();
        for t in &out {
            assert!(t.trial.converged);
            assert_eq!(t.best_fitness, spec.max_fitness());
            // the artefact is genuine: the stored genome re-scores maximal
            assert_eq!(spec.evaluate(t.best_genome), spec.max_fitness());
        }
        // and the statistics view is exactly the convergence driver's
        let stats = rtl_convergence_batch_w::<u64>(&seeds, 30_000, 1);
        assert_eq!(stats, out.iter().map(|t| t.trial).collect::<Vec<_>>());
    }

    #[test]
    fn rtl_batch_bit_identical_across_widths_and_threads() {
        use leonardo_rtl::bitslice::{W128, W256};
        let seeds = trial_seeds(70);
        let base = rtl_convergence_batch_w::<u64>(&seeds, 40, 1);
        assert_eq!(base, rtl_convergence_batch_w::<u64>(&seeds, 40, 2));
        // 70 trials in one W128 engine crosses the limb boundary
        assert_eq!(base, rtl_convergence_batch_w::<W128>(&seeds, 40, 1));
        assert_eq!(base, rtl_convergence_batch_w::<W256>(&seeds, 40, 8));
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
