//! Multi-seed GA drivers over the RTL engines.
//!
//! [`rtl_evolve_batch_w`] runs one seeded paper-configuration GAP trial
//! per seed on the bit-sliced batch engines, handing thinning lanes down
//! to narrower engines and finally to scalar [`GapRtl`] chips;
//! [`rtl_convergence_scalar`] is the one-chip-per-trial reference it is
//! measured against. Both return per-seed results in seed order,
//! bit-identical at every plane width and thread count, and publish each
//! finished trial as one `bench.trial` telemetry event ([`emit_trial`]).
//! The experiment binaries, the job server's `/evolve` route and the
//! benchmark all run these drivers.

use crate::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W128, W256};
use crate::gap_rtl::{GapRtl, GapRtlConfig, LaneState};
use leonardo_telemetry as tele;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Emit the per-trial `bench.trial` telemetry event every sampling path
/// shares; `cycles` is 0 for the behavioural engine (no clock).
pub fn emit_trial(engine: &'static str, seed: u32, trial: RtlTrial) {
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

/// Multi-seed RTL convergence sampling, one scalar [`GapRtl`] per trial,
/// trials spread over all cores. The reference path the batch engine is
/// measured against. The chips keep no draw log.
pub fn rtl_convergence_scalar(seeds: &[u32], max_generations: u64) -> Vec<RtlTrial> {
    leonardo_exec::ordered_map_range(0, seeds.len(), |i| {
        let seed = seeds[i];
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
        // every running lane runs a trial: a lane gets one whenever `new`,
        // `from_lanes` or `reset_lanes` enables it, and a harvested lane
        // stays converged or out of budget until it is reset
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
        if free.len() >= REFILL_GROUP || running.is_zero() {
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
        if running.is_zero() {
            return;
        }
        let n = running.count_ones() as usize;
        if queue.drained() && (n <= HANDOFF_LANES || (P::LANES > 64 && n <= P::LANES / 2)) {
            let mut lanes = Vec::with_capacity(n);
            running.for_each_set_lane(|l| {
                lanes.push((
                    trial[l].expect("running lanes run a trial"),
                    gap.lane_state(l),
                ));
            });
            return hand_off(lanes, queue, done);
        }
        gap.step_generation_masked(running);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments' seed list (`leonardo_bench::trial_seeds`).
    fn trial_seeds(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| 0x1000 + 7 * i).collect()
    }

    #[test]
    fn rtl_batch_matches_scalar_per_seed() {
        let seeds = trial_seeds(6);
        let scalar = rtl_convergence_scalar(&seeds, 30_000);
        let batch = rtl_convergence_batch_w::<u64>(&seeds, 30_000, 0);
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
        let batch = rtl_convergence_batch_w::<u64>(&seeds, 40, 0);
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
        let seeds = trial_seeds(70);
        let base = rtl_convergence_batch_w::<u64>(&seeds, 40, 1);
        assert_eq!(base, rtl_convergence_batch_w::<u64>(&seeds, 40, 2));
        // 70 trials in one W128 engine crosses the limb boundary
        assert_eq!(base, rtl_convergence_batch_w::<W128>(&seeds, 40, 1));
        assert_eq!(base, rtl_convergence_batch_w::<W256>(&seeds, 40, 8));
    }

    #[test]
    fn hand_off_is_unobservable_at_every_size_width_and_thread_count() {
        use crate::bitslice::W512;
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
}
