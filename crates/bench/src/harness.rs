//! Common measurement machinery for the experiment binaries.

use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::params::GapParams;
use discipulus::stats::SampleSummary;
use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W128, W256};
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig, LaneState};
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
/// measured against. The chips keep no draw log.
pub fn rtl_convergence_scalar(seeds: &[u32], max_generations: u64) -> Vec<RtlTrial> {
    parallel_map(seeds, |&seed| {
        let mut gap = GapRtl::new(GapRtlConfig::paper(seed).unrecorded());
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

/// Multi-seed RTL convergence sampling on the bit-sliced batch engine.
/// Per-seed results are bit-identical to [`rtl_convergence_scalar`] — and
/// to any other width or thread count — and come back in seed order. See
/// [`rtl_evolve_batch_w`] for how the driver places trials.
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

/// The running-lane count at or below which one scalar [`GapRtl`] per
/// lane costs less than a step of the 64-lane engine, so the batch driver
/// finishes those lanes on scalar chips and a request this small starts
/// on them. Measured, not tuned: `perf_report`'s `handoff` row times a
/// `u64` step at 1 and 64 active lanes and an unrecorded scalar
/// generation, and prints the break-even count beside this value.
pub const HANDOFF_LANES: usize = 18;

/// [`rtl_convergence_batch_w`] keeping the evolved best genome and its
/// fitness per trial.
///
/// Each worker thread owns a [`GapRtlXW`] and pulls seeds from a shared
/// queue into lanes as they free up. Once the queue is drained, an
/// engine's running lanes move to the narrowest engine that holds them as
/// soon as they fit in half its width (W512 → W256 → W128 → u64), and at
/// or below [`HANDOFF_LANES`] they finish on scalar chips. A request of
/// at most [`HANDOFF_LANES`] seeds runs on scalar chips from the start.
/// Every move is exact ([`GapRtlXW::lane_state`], [`GapRtlXW::from_lanes`],
/// [`GapRtl::from_lane_state`]), so where a trial ran cannot be observed:
/// each `bench.trial` event carries the requested width's label. Every
/// engine and chip runs the paper's configuration, which keeps no draw
/// log (a million-generation trial would otherwise log ~600 MB).
pub fn rtl_evolve_batch_w<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    threads: usize,
) -> Vec<EvolvedTrial> {
    let queue = Queue {
        seeds,
        next: AtomicUsize::new(0),
        max_generations,
        label: engine_label::<P>(),
    };
    if seeds.len() <= HANDOFF_LANES {
        return leonardo_exec::ordered_map_range(threads, seeds.len(), |i| {
            queue.run_chip(i, GapRtl::new(GapRtlXWConfig::paper().chip(seeds[i])))
        });
    }
    // one item per engine the seed list can fill; every engine drains the
    // shared seed queue, so an item that starts after it emptied is a
    // no-op and min(threads, engines) engines do all the work
    let engines = seeds.len().div_ceil(P::LANES);
    let mut collected: Vec<(usize, EvolvedTrial)> =
        leonardo_exec::ordered_map_range(threads, engines, |_| batch_worker::<P>(&queue))
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

/// What the engines of one driver call share: the seed queue, the budget
/// and the label of their `bench.trial` events.
struct Queue<'a> {
    seeds: &'a [u32],
    next: AtomicUsize,
    max_generations: u64,
    label: &'static str,
}

/// Trials finished by one worker, tagged with their seed index.
type Finished = Vec<(usize, EvolvedTrial)>;

impl Queue<'_> {
    /// Claim up to `cap` seed indices.
    fn claim(&self, cap: usize) -> Vec<usize> {
        (0..cap)
            .map_while(|_| {
                let i = self.next.fetch_add(1, Relaxed);
                (i < self.seeds.len()).then_some(i)
            })
            .collect()
    }

    /// Whether every seed has been claimed.
    fn drained(&self) -> bool {
        self.next.load(Relaxed) >= self.seeds.len()
    }

    /// Run seed `i` on one scalar chip to convergence or the budget.
    fn run_chip(&self, i: usize, mut chip: GapRtl) -> EvolvedTrial {
        while !chip.converged() && chip.generation() < self.max_generations {
            chip.step_generation();
        }
        let (best_genome, best_fitness) = chip.best();
        let trial = RtlTrial {
            converged: chip.converged(),
            generations: chip.generation(),
            cycles: chip.clock().cycles(),
        };
        emit_trial(self.label, self.seeds[i], trial);
        EvolvedTrial {
            trial,
            best_genome,
            best_fitness,
        }
    }
}

/// One worker: claim up to `P::LANES` seeds into a fresh engine and run
/// it (and whatever its survivors move to) dry.
fn batch_worker<P: Plane>(queue: &Queue<'_>) -> Finished {
    let mut done = Vec::new();
    let first = queue.claim(P::LANES);
    if !first.is_empty() {
        let lane_seeds: Vec<u32> = first.iter().map(|&i| queue.seeds[i]).collect();
        let gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &lane_seeds);
        run_engine(gap, &first, queue, &mut done);
    }
    done
}

/// Run one engine whose lane `l` carries seed index `trials[l]`: harvest
/// converged-or-out-of-budget lanes, reseed freed lanes from the queue
/// while it lasts, then hand the running lanes down (see
/// [`rtl_evolve_batch_w`]).
fn run_engine<P: Plane>(
    mut gap: GapRtlXW<P>,
    trials: &[usize],
    queue: &Queue<'_>,
    done: &mut Finished,
) {
    // a reset costs one whole-width initiator + fitness pass however many
    // lanes it reseeds, so freed lanes pool up and refill as a group
    const REFILL_GROUP: usize = 8;

    // which queued trial each enabled lane is currently running
    let mut trial: Vec<Option<usize>> = vec![None; P::LANES];
    for (l, &i) in trials.iter().enumerate() {
        trial[l] = Some(i);
    }
    let mut free: Vec<usize> = Vec::new();

    loop {
        let running = gap.running_mask(queue.max_generations);
        // harvest finished lanes into the free pool
        (gap.enabled() & !running).for_each_set_lane(|l| {
            let Some(i) = trial[l].take() else { return };
            let done_trial = RtlTrial {
                converged: gap.converged(l),
                generations: gap.generation(l),
                cycles: gap.cycles(l),
            };
            let (best_genome, best_fitness) = gap.best(l);
            emit_trial(queue.label, queue.seeds[i], done_trial);
            done.push((
                i,
                EvolvedTrial {
                    trial: done_trial,
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
            let claimed = queue.claim(free.len());
            if !claimed.is_empty() {
                let resets: Vec<(usize, u32)> = claimed
                    .iter()
                    .map(|&i| {
                        let l = free.pop().expect("one free lane per claimed seed");
                        trial[l] = Some(i);
                        (l, queue.seeds[i])
                    })
                    .collect();
                gap.reset_lanes(&resets);
                // re-derive the running set so fresh lanes join cleanly
                continue;
            }
        }
        if active.is_zero() {
            return;
        }
        let n = active.count_ones() as usize;
        if queue.drained() && (n <= HANDOFF_LANES || (P::LANES > 64 && n <= P::LANES / 2)) {
            let mut lanes = Vec::with_capacity(n);
            active.for_each_set_lane(|l| {
                lanes.push((
                    trial[l].expect("active lanes run a trial"),
                    gap.lane_state(l),
                ));
            });
            return hand_off(lanes, queue, done);
        }
        gap.step_generation_masked(active);
    }
}

/// Move running trials, as `(seed index, state)`, onto scalar chips when
/// there are at most [`HANDOFF_LANES`] of them, else into the narrowest
/// engine that holds them.
fn hand_off(lanes: Vec<(usize, LaneState)>, queue: &Queue<'_>, done: &mut Finished) {
    let config = GapRtlXWConfig::paper();
    if lanes.len() <= HANDOFF_LANES {
        for (i, state) in &lanes {
            let chip = GapRtl::from_lane_state(config.chip(queue.seeds[*i]), state);
            done.push((*i, queue.run_chip(*i, chip)));
        }
        return;
    }
    let (trials, states): (Vec<usize>, Vec<LaneState>) = lanes.into_iter().unzip();
    if states.len() <= 64 {
        run_engine(
            GapRtlXW::<u64>::from_lanes(config, &states),
            &trials,
            queue,
            done,
        );
    } else if states.len() <= 128 {
        run_engine(
            GapRtlXW::<W128>::from_lanes(config, &states),
            &trials,
            queue,
            done,
        );
    } else {
        run_engine(
            GapRtlXW::<W256>::from_lanes(config, &states),
            &trials,
            queue,
            done,
        );
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
/// default when the flag is absent. A value that does not parse (or a
/// flag without one) ends the process with exit code 2 and a message
/// naming the flag and the value, instead of running on the default.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match flag_value(&args, flag) {
        Ok(value) => value.unwrap_or(default),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The value of `--flag value` in `args`: `Ok(None)` when the flag is
/// absent, an error naming the flag and the value when the value is
/// missing or does not parse as `T`.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_values_parse_or_fail_naming_the_flag() {
        let args: Vec<String> = ["e15", "--shards", "7", "--threads", "x7", "--out"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(flag_value::<usize>(&args, "--shards"), Ok(Some(7)));
        assert_eq!(flag_value::<usize>(&args, "--ga-trials"), Ok(None));
        assert_eq!(
            flag_value::<usize>(&args, "--threads"),
            Err("--threads: cannot parse \"x7\"".to_string())
        );
        assert_eq!(
            flag_value::<String>(&args, "--out"),
            Err("--out needs a value".to_string())
        );
    }

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
    fn hand_off_is_unobservable_at_every_size_width_and_thread_count() {
        use leonardo_rtl::bitslice::W512;
        // a 40-generation budget splits the trials into converged and
        // capped; 600 seeds on W512 walk the whole W512 → W256 → W128 →
        // u64 → scalar chain
        let seeds = trial_seeds(600);
        let reference = rtl_convergence_scalar(&seeds, 40);
        assert!(reference.iter().any(|t| t.converged) && reference.iter().any(|t| !t.converged));
        for n in [1, HANDOFF_LANES, HANDOFF_LANES + 1, 64, 65, 600] {
            for threads in [1, 2, 8] {
                let narrow = rtl_evolve_batch_w::<u64>(&seeds[..n], 40, threads);
                let wide = rtl_evolve_batch_w::<W512>(&seeds[..n], 40, threads);
                assert_eq!(narrow, wide, "{n} seeds, {threads} threads");
                let trials: Vec<RtlTrial> = wide.iter().map(|t| t.trial).collect();
                assert_eq!(trials, reference[..n], "{n} seeds, {threads} threads");
            }
        }
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
