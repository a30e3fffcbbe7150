//! `ga_x64` and `ga_w512`: 1024-seed GA batches through
//! `harness::rtl_evolve_batch_w` on 2 threads.
//!
//! One op evolves 1024 seeds derived from the workload seed and the op
//! index, so both widths see the same inputs and must give the same
//! per-seed results. On the 64-lane engine the two workers start 128
//! trials and refill 896 lanes through `reset_lanes`; on the 512-lane
//! engine the seeds fill two engines exactly and each op lasts as long
//! as its slowest lane.

use crate::stats::{derive, median, secs_since};
use crate::trace::{median_idle, median_per_op, Acc, Span, Totals, Tracer};
use crate::{tail_reading, Args, Cell, Outcome, Reading, Setups, Size};
use discipulus::fitness::FitnessSpec;
use leonardo_bench::harness::{
    engine_label, rtl_convergence_scalar, rtl_evolve_batch_w, EvolvedTrial, RtlTrial,
};
use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W512};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of every GA op.
pub const THREADS: usize = 2;

/// Input stream of the GA seeds.
const STREAM: u64 = 0x6761;

/// The harness's refill loop pools freed lanes into groups of this
/// size before reseeding them; the traced replica does the same.
const REFILL_GROUP: usize = 8;

/// The seeds of op `op`: the same for every plane width.
pub fn op_seeds(seed: u64, op: u64, n: usize) -> Vec<u32> {
    (0..n as u64)
        .map(|j| (derive(seed, STREAM, op * n as u64 + j) >> 32) as u32)
        .collect()
}

/// Σ simulated cycles and Σ generations of an op's trials.
pub fn totals(trials: &[EvolvedTrial]) -> (u64, u64) {
    trials.iter().fold((0, 0), |(c, g), t| {
        (c + t.trial.cycles, g + t.trial.generations)
    })
}

/// One untraced op through the harness.
fn evolve<P: Plane>(seeds: &[u32], max_generations: u64) -> (Vec<EvolvedTrial>, f64) {
    let t = Instant::now();
    let trials = rtl_evolve_batch_w::<P>(black_box(seeds), max_generations, THREADS);
    (black_box(trials), secs_since(t))
}

/// Every trial is well formed and its best genome re-scores to the
/// fitness the chip recorded.
pub fn check(seeds: &[u32], trials: &[EvolvedTrial], max_generations: u64) -> Result<(), String> {
    if trials.len() != seeds.len() {
        return Err(format!("{} trials for {} seeds", trials.len(), seeds.len()));
    }
    let spec = FitnessSpec::paper();
    for (&seed, t) in seeds.iter().zip(trials) {
        let rescored = spec.evaluate(t.best_genome);
        if rescored != t.best_fitness {
            return Err(format!(
                "seed {seed}: best genome {:#011x} re-scores {rescored}, chip recorded {}",
                t.best_genome.bits(),
                t.best_fitness
            ));
        }
        let done = if t.trial.converged {
            t.best_fitness == spec.max_fitness() && t.trial.generations <= max_generations
        } else {
            t.best_fitness < spec.max_fitness() && t.trial.generations == max_generations
        };
        if !done || t.trial.cycles == 0 {
            return Err(format!("seed {seed}: inconsistent trial {:?}", t.trial));
        }
    }
    Ok(())
}

/// The checks made before timing: op 0 is well formed, identical on the
/// other plane width, and a few of its seeds match the scalar chip.
/// Returns op 0's trials.
fn precheck<P: Plane>(args: &Args, size: &Size) -> Result<Vec<EvolvedTrial>, String> {
    let max = size.ga_max_generations;
    let seeds = op_seeds(args.seed, 0, size.ga_seeds);
    let (mine, _) = evolve::<P>(&seeds, max);
    check(&seeds, &mine, max)?;
    let (other, other_name) = if P::LANES == 64 {
        (rtl_evolve_batch_w::<W512>(&seeds, max, THREADS), "ga_w512")
    } else {
        (rtl_evolve_batch_w::<u64>(&seeds, max, THREADS), "ga_x64")
    };
    if let Some(i) = (0..seeds.len()).find(|&i| mine[i] != other[i]) {
        return Err(format!(
            "seed {}: {:?} here, {:?} on {other_name}",
            seeds[i], mine[i], other[i]
        ));
    }
    let k = size.ga_scalar_checks;
    let picks: Vec<usize> = (0..k).map(|i| i * seeds.len() / k).collect();
    let picked: Vec<u32> = picks.iter().map(|&i| seeds[i]).collect();
    let scalar: Vec<RtlTrial> = rtl_convergence_scalar(&picked, max);
    for (&i, s) in picks.iter().zip(&scalar) {
        if mine[i].trial != *s {
            return Err(format!(
                "seed {}: batch {:?}, scalar chip {s:?}",
                seeds[i], mine[i].trial
            ));
        }
    }
    Ok(mine)
}

/// Cold construction of the engines one op starts with.
fn setup_once<P: Plane>(seeds: &[u32]) -> f64 {
    let engines = seeds.len().div_ceil(P::LANES).min(THREADS);
    let t = Instant::now();
    let built: Vec<GapRtlXW<P>> = (0..engines)
        .map(|e| {
            let lanes = &seeds[e * P::LANES..((e + 1) * P::LANES).min(seeds.len())];
            GapRtlXW::<P>::new(GapRtlXWConfig::paper(), lanes)
        })
        .collect();
    let secs = secs_since(t);
    drop(black_box(built));
    secs
}

/// Run `ga_x64` (`P = u64`) or `ga_w512` (`P = W512`).
pub fn run<P: Plane>(args: &Args, size: &Size) -> Outcome {
    let mut out = Outcome::new(Cell {
        engine: engine_label::<P>(),
        plane_width: P::LANES,
        threads: THREADS,
        connections: 0,
    });
    let reference = match precheck::<P>(args, size) {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("before timing: {e}"));
            return out;
        }
    };
    let (cycles0, gens0) = totals(&reference);
    if args.trace {
        traced::<P>(args, size, &reference, &mut out);
    } else {
        untraced::<P>(args, size, &reference, &mut out);
    }
    out.readings.push(Reading::alias(
        "op0_sim_cycles",
        "rtl.sim_cycles_op0",
        "count",
        cycles0 as f64,
        1,
    ));
    out.readings.push(Reading::alias(
        "op0_generations",
        "rtl.generations_op0",
        "count",
        gens0 as f64,
        1,
    ));
    out
}

/// The timed loop: ops until the run's seconds are spent.
fn untraced<P: Plane>(args: &Args, size: &Size, reference: &[EvolvedTrial], out: &mut Outcome) {
    let max = size.ga_max_generations;
    let seeds0 = op_seeds(args.seed, 0, size.ga_seeds);
    let mut setups = Setups::new(size.reps(args.workload));
    let mut rates = Vec::new();
    let mut op_secs = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || secs_since(start) < args.seconds {
        setups.keep_pace(secs_since(start) / args.seconds, || {
            setup_once::<P>(&seeds0)
        });
        let seeds = op_seeds(args.seed, op, size.ga_seeds);
        let (trials, secs) = evolve::<P>(&seeds, max);
        let checked = check(&seeds, &trials, max).and_then(|()| {
            if op == 0 && trials != reference {
                Err("op 0 differs from its pre-timing run".to_string())
            } else {
                Ok(())
            }
        });
        if out.op(checked) {
            rates.push(totals(&trials).0 as f64 / secs);
            op_secs.push(secs);
        } else {
            rates.push(0.0);
            op_secs.push(f64::INFINITY);
        }
        op += 1;
    }
    setups.keep_pace(1.0, || setup_once::<P>(&seeds0));
    out.readings.extend([
        setups.reading(),
        Reading::alias(
            "sim_cycles_per_s",
            "work_per_s",
            "1/s",
            median(&rates),
            rates.len(),
        ),
        Reading::info("op_p50_s", "s", median(&op_secs), op_secs.len()),
    ]);
    out.readings.extend(tail_reading(&op_secs));
}

/// The traced run: each op runs once untraced through the harness
/// and once through the traced replica, whose per-seed results must be
/// identical.
fn traced<P: Plane>(args: &Args, size: &Size, reference: &[EvolvedTrial], out: &mut Outcome) {
    let max = size.ga_max_generations;
    let tracer = Tracer::new();
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || secs_since(start) < args.seconds {
        let seeds = op_seeds(args.seed, op, size.ga_seeds);
        // alternate which side runs first, so neither always finds the
        // caches warm
        let (real, replica) = if op.is_multiple_of(2) {
            let real = evolve::<P>(&seeds, max);
            (real, replica_timed::<P>(&seeds, max, &tracer, op as u32))
        } else {
            let replica = replica_timed::<P>(&seeds, max, &tracer, op as u32);
            (evolve::<P>(&seeds, max), replica)
        };
        let checked = check(&seeds, &real.0, max).and_then(|()| {
            if real.0 != replica.0 {
                Err(format!("op {op}: traced replica differs from the harness"))
            } else if op == 0 && real.0 != reference {
                Err("op 0 differs from its pre-timing run".to_string())
            } else {
                Ok(())
            }
        });
        out.op(checked);
        plain_secs.push(real.1);
        traced_secs.push(replica.1);
        op += 1;
    }
    let spans = tracer.spans();
    let n = plain_secs.len();
    let lanes = P::LANES as f64;
    let busy = |t: Totals| t.0;
    out.readings.extend(
        [
            ("rtl.new_s", median_per_op(&spans, "rtl.new", busy)),
            ("rtl.step_s", median_per_op(&spans, "rtl.step", busy)),
            (
                "rtl.step_calls",
                median_per_op(&spans, "rtl.step", |t| t.1 as f64),
            ),
            (
                "rtl.ns_per_lane_gen",
                median_per_op(&spans, "rtl.step", |t| t.0 * 1e9 / t.2 as f64),
            ),
            (
                "rtl.lane_occupancy",
                median_per_op(&spans, "rtl.step", |t| t.2 as f64 / (lanes * t.1 as f64)),
            ),
            ("rtl.reset_s", median_per_op(&spans, "rtl.reset", busy)),
            (
                "rtl.lanes_reset",
                median_per_op(&spans, "rtl.reset", |t| t.2 as f64),
            ),
            (
                "harness.harvest_s",
                median_per_op(&spans, "harness.harvest", busy),
            ),
            (
                "harness.worker_busy_s",
                median_per_op(&spans, "harness.worker", busy),
            ),
            (
                "harness.worker_idle_s",
                median_idle(&spans, "ga.op", "harness.worker"),
            ),
            (
                "trace.overhead_ratio",
                median(&traced_secs) / median(&plain_secs),
            ),
        ]
        .map(|(name, value)| Reading::layer(name, value, n)),
    );
    out.readings.extend([
        Reading::info("untraced_op_p50_s", "s", median(&plain_secs), n),
        Reading::info("traced_op_p50_s", "s", median(&traced_secs), n),
    ]);
    out.spans = spans;
}

fn replica_timed<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    tracer: &Tracer,
    op: u32,
) -> (Vec<EvolvedTrial>, f64) {
    let t = Instant::now();
    let trials = replica::<P>(black_box(seeds), max_generations, tracer, op);
    (black_box(trials), secs_since(t))
}

/// `harness::rtl_evolve_batch_w` re-driven over the engine's public API
/// with spans around every call: `ga.op` ⊃ `harness.worker` ⊃
/// {`rtl.new`, `harness.harvest`, `rtl.reset`, `rtl.step`}.
pub fn replica<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    tracer: &Tracer,
    op: u32,
) -> Vec<EvolvedTrial> {
    let n = seeds.len();
    let threads = THREADS.min(n.div_ceil(P::LANES).max(1));
    let op_id = tracer.id();
    let start = tracer.now();
    let results = Mutex::new(Vec::with_capacity(n));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                replica_worker::<P>(seeds, max_generations, &next, &results, tracer, op, op_id)
            });
        }
    });
    let mut collected = results.into_inner().expect("a replica worker panicked");
    collected.sort_by_key(|(i, _)| *i);
    tracer.push(Span::plain(
        op_id,
        0,
        op,
        "ga.op",
        (start, tracer.now()),
        n as u64,
    ));
    collected.into_iter().map(|(_, t)| t).collect()
}

#[allow(clippy::too_many_arguments)]
fn replica_worker<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    next: &AtomicUsize,
    results: &Mutex<Vec<(usize, EvolvedTrial)>>,
    tracer: &Tracer,
    op: u32,
    parent: u32,
) {
    let claim = |cap: usize| -> Vec<usize> {
        (0..cap)
            .map_while(|_| {
                let i = next.fetch_add(1, Ordering::Relaxed);
                (i < seeds.len()).then_some(i)
            })
            .collect()
    };
    let id = tracer.id();
    let start = tracer.now();
    let mut local = Vec::new();
    let mut harvest = Acc::new("harness.harvest");
    let mut reset = Acc::new("rtl.reset");
    let mut step = Acc::new("rtl.step");
    let first = claim(P::LANES);
    if !first.is_empty() {
        let lane_seeds: Vec<u32> = first.iter().map(|&i| seeds[i]).collect();
        let t0 = tracer.now();
        let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &lane_seeds);
        let mut t = tracer.now();
        local.push(Span::plain(
            tracer.id(),
            id,
            op,
            "rtl.new",
            (t0, t),
            first.len() as u64,
        ));
        let mut trial: Vec<Option<usize>> = vec![None; P::LANES];
        for (l, &i) in first.iter().enumerate() {
            trial[l] = Some(i);
        }
        let mut free: Vec<usize> = Vec::new();
        loop {
            let running = gap.running_mask(max_generations);
            (gap.enabled() & !running).for_each_set_lane(|l| {
                let Some(i) = trial[l].take() else { return };
                let (best_genome, best_fitness) = gap.best(l);
                let done = EvolvedTrial {
                    trial: RtlTrial {
                        converged: gap.converged(l),
                        generations: gap.generation(l),
                        cycles: gap.cycles(l),
                    },
                    best_genome,
                    best_fitness,
                };
                results
                    .lock()
                    .expect("a replica worker panicked")
                    .push((i, done));
                free.push(l);
            });
            let mut active = P::ZERO;
            gap.enabled().for_each_set_lane(|l| {
                if trial[l].is_some() {
                    active.set_bit(l, true);
                }
            });
            active &= running;
            let t1 = tracer.now();
            harvest.add(t, t1, 0);
            t = t1;
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
                    let t2 = tracer.now();
                    reset.add(t, t2, resets.len() as u64);
                    t = t2;
                    continue;
                }
            }
            if active.is_zero() {
                break;
            }
            gap.step_generation_masked(active);
            let t2 = tracer.now();
            step.add(t, t2, u64::from(active.count_ones()));
            t = t2;
        }
    }
    for acc in [harvest, reset, step] {
        acc.flush(tracer, op, id, &mut local);
    }
    local.push(Span::plain(
        id,
        parent,
        op,
        "harness.worker",
        (start, tracer.now()),
        0,
    ));
    tracer.absorb(&mut local);
}
