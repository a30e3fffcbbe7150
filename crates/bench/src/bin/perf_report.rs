//! Machine-readable throughput report for the bit-sliced batch engines.
//!
//! Runs the same multi-seed RTL convergence sample across the full
//! **plane-width × thread-count matrix** — scalar `GapRtl` as the
//! reference, then the width-generic batch engine at 64/128/256/512
//! lanes under every thread count in the sweep — asserts every cell's
//! per-seed results are bit-identical to the scalar reference, and
//! writes the measured simulated-cycle throughput of every cell as JSON
//! (`cycles_per_sec` and `cycles_per_sec_per_core`).
//!
//! The scalar reference runs its trials over every core (the `scalar`
//! cell records that thread count), so "speedup vs scalar" compares
//! like thread counts only where the matrix cell's `threads` matches.
//!
//! The GA engine interleaves plane arithmetic with per-lane work (draw
//! extraction, score gathers), so the report also times the *pure*
//! plane kernel — the landscape block scorer, which is bit-slice
//! arithmetic end to end — at every width. That row is where wider
//! planes show their raw autovectorized speedup. Beside it, the fold
//! row times what the exhaustive sweep actually runs per shard —
//! `Tally::fold_blocks` in the sweep's chunks, kernel plus subset
//! popcounts — at every width, after asserting every width's tally
//! equals the `u64` one. The sweep's width (`SweepPlane`) is chosen from
//! that row.
//!
//! The hand-off row measures the batch driver's one threshold: a `u64`
//! engine step with 1 and with 64 active lanes and an unrecorded scalar
//! generation, the break-even running-lane count they imply, and the
//! driver's `HANDOFF_LANES` beside it.
//!
//! The plane-op row times, at every width, the GA engine's hottest plane
//! loops one call at a time: a CA clock of every lane, a masked clock
//! (a retry round's), a stride-37 jump (the crossover copy's 36 dead
//! cycles plus the next draw), one score gather over a 32-individual
//! population, and the two lane↔plane conversions the engine runs most:
//! one lane-major column into 36 genome planes (a fitness evaluation's
//! input) and 11 planes back to per-lane `u16`s (a mutation-position
//! read-back). It is where a codegen change to those loops shows up
//! before it reaches the matrix.
//!
//! Every timing is the median over `--reps` runs.
//!
//! Alongside the JSON it writes a versioned run manifest
//! (`<out>.manifest.json`, schema v4 with `host_cores`/`plane_width`/
//! `threads`) so perf trajectories across commits stay reproducible. No
//! telemetry sink is installed during the timed region — the report
//! measures the engines, not the instrumentation.
//!
//! Usage: `perf_report [--trials N] [--max-gens G] [--reps R] [--out FILE]`

use discipulus::fitness::FitnessSpec;
use discipulus::genome::GENOME_BITS;
use leonardo_bench::harness::trial_seeds;
use leonardo_exec::arg_or;
use leonardo_landscape::kernel::BLOCK_GENOMES;
use leonardo_landscape::{BlockKernelW, SweepConfig, SweepPlane, Tally};
use leonardo_rtl::bitslice::transpose::{planes_to_u16, transposed_planes};
use leonardo_rtl::bitslice::{
    gather_scores, CaRngXW, GapRtlXW, GapRtlXWConfig, Plane, SCORE_PLANES, W128, W256, W512,
};
use leonardo_rtl::driver::{
    engine_label, rtl_convergence_batch_w, rtl_convergence_scalar, RtlTrial, HANDOFF_LANES,
};
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};
use leonardo_telemetry::{host_cores, RunManifest};
use std::time::Instant;

/// Wall-time `reps` runs of `f` and return the median time with the last
/// result. The median, not the best: a best-of-N reading follows the
/// host's fastest moment and does not compare across runs.
fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut walls = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        walls.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    let median = if walls.len() % 2 == 1 {
        walls[mid]
    } else {
        (walls[mid - 1] + walls[mid]) / 2.0
    };
    (median, last.expect("reps >= 1"))
}

/// One measured cell of the width × threads matrix.
struct Cell {
    engine: &'static str,
    plane_width: usize,
    threads: usize,
    wall_seconds: f64,
    cycles_per_sec: f64,
    per_core: f64,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{ \"engine\": \"{}\", \"plane_width\": {}, \"threads\": {}, \
             \"wall_seconds\": {:.6}, \"cycles_per_sec\": {:.0}, \
             \"cycles_per_sec_per_core\": {:.0} }}",
            self.engine,
            self.plane_width,
            self.threads,
            self.wall_seconds,
            self.cycles_per_sec,
            self.per_core
        )
    }
}

/// Shared context for the width × threads sweep: the workload, the thread
/// sweep, and the scalar reference every cell must reproduce bit-for-bit.
struct SweepCtx<'a> {
    seeds: &'a [u32],
    max_gens: u64,
    reps: usize,
    thread_sweep: &'a [usize],
    cores: usize,
    cycles: u64,
    reference: &'a [RtlTrial],
}

/// Measure one plane width across the thread sweep, asserting every cell
/// reproduces the scalar reference bit-for-bit.
fn measure_width<P: Plane>(ctx: &SweepCtx<'_>, matrix: &mut Vec<Cell>) {
    for &threads in ctx.thread_sweep {
        let (wall, got) = median_of(ctx.reps, || {
            rtl_convergence_batch_w::<P>(ctx.seeds, ctx.max_gens, threads)
        });
        assert_eq!(
            got,
            ctx.reference,
            "{} @ {threads} threads diverged from scalar per-seed results",
            engine_label::<P>()
        );
        let rate = ctx.cycles as f64 / wall;
        matrix.push(Cell {
            engine: engine_label::<P>(),
            plane_width: P::LANES,
            threads,
            wall_seconds: wall,
            cycles_per_sec: rate,
            per_core: rate / threads.min(ctx.cores) as f64,
        });
        eprintln!(
            "  {:>8} x{threads:<2} {wall:>9.3}s  {:>6.3}G cycles/s",
            engine_label::<P>(),
            rate / 1e9
        );
    }
}

/// Steps timed per reading of the hand-off row.
const HANDOFF_STEPS: u32 = 200;

/// What the batch driver's hand-off rule trades, in µs: one `u64` engine
/// step with 1 and with 64 of 64 lanes active, and one generation of an
/// unrecorded scalar chip.
struct Handoff {
    step_us_1: f64,
    step_us_64: f64,
    scalar_us: f64,
}

impl Handoff {
    fn measure(reps: usize) -> Handoff {
        let seeds = trial_seeds(64);
        let step_us = |mask: u64| {
            let mut gap = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
            let (wall, _) = median_of(reps, || {
                for _ in 0..HANDOFF_STEPS {
                    gap.step_generation_masked(mask);
                }
            });
            wall * 1e6 / f64::from(HANDOFF_STEPS)
        };
        let step_us_1 = step_us(1);
        let step_us_64 = step_us(u64::MAX);
        let mut chip = GapRtl::new(GapRtlConfig::paper(seeds[0]).unrecorded());
        let (wall, _) = median_of(reps, || {
            for _ in 0..HANDOFF_STEPS {
                chip.step_generation();
            }
        });
        Handoff {
            step_us_1,
            step_us_64,
            scalar_us: wall * 1e6 / f64::from(HANDOFF_STEPS),
        }
    }

    /// The largest running-lane count `n` at which `n` scalar chips cost
    /// no more than one `u64` step, with the step modelled as `a + b·n`
    /// through the two measured points.
    fn break_even(&self) -> usize {
        let b = (self.step_us_64 - self.step_us_1) / 63.0;
        let a = self.step_us_1 - b;
        if self.scalar_us <= b {
            return 64;
        }
        (a / (self.scalar_us - b)).clamp(0.0, 64.0) as usize
    }
}

/// Calls timed per reading of a plane-op row (jumps: a tenth of it).
const PLANE_OP_CALLS: u32 = 20_000;

/// Median ns per call of the GA engine's hot plane loops at one width.
struct PlaneOps {
    lanes: usize,
    clock_ns: f64,
    masked_clock_ns: f64,
    jump37_ns: f64,
    gather_ns: f64,
    to_planes_ns: f64,
    to_u16_ns: f64,
}

impl PlaneOps {
    fn measure<P: Plane>(reps: usize) -> PlaneOps {
        use std::hint::black_box;
        let ns = |wall: f64, calls: u32| wall * 1e9 / f64::from(calls);
        let mut rng = CaRngXW::<P>::new(&trial_seeds(P::LANES));
        let (wall, _) = median_of(reps, || {
            for _ in 0..PLANE_OP_CALLS {
                rng.clock(black_box(P::ONES));
            }
        });
        let clock_ns = ns(wall, PLANE_OP_CALLS);
        // every third lane, as after a retry round's rejections
        let mask = P::from_words(|w| 0x9249_2492_4924_9249u64.rotate_left(w as u32));
        let (wall, _) = median_of(reps, || {
            for _ in 0..PLANE_OP_CALLS {
                rng.clock(black_box(mask));
            }
        });
        let masked_clock_ns = ns(wall, PLANE_OP_CALLS);
        let jumps = PLANE_OP_CALLS / 10;
        rng.advance(P::ONES, 37); // build the stride's table untimed
        let (wall, _) = median_of(reps, || {
            for _ in 0..jumps {
                rng.advance(black_box(P::ONES), 37);
            }
        });
        let jump37_ns = ns(wall, jumps);
        // 32 individuals' score planes and two 5-plane indices off the
        // generator, gathered alternately
        let mux: Vec<[P; SCORE_PLANES]> = (0..32)
            .map(|_| {
                rng.advance(P::ONES, 37);
                let mut planes = [P::ZERO; SCORE_PLANES];
                planes.copy_from_slice(rng.low_cells(SCORE_PLANES));
                planes
            })
            .collect();
        let mut stack = vec![[P::ZERO; SCORE_PLANES]; 6];
        let idx: Vec<P> = rng.low_cells(10).to_vec();
        let (wall, _) = median_of(reps, || {
            for c in 0..PLANE_OP_CALLS as usize {
                let planes = &idx[5 * (c % 2)..5 * (c % 2) + 5];
                black_box(gather_scores(black_box(&mux), &mut stack, planes));
            }
        });
        let gather_ns = ns(wall, PLANE_OP_CALLS);
        // a lane-major column of 36-bit genomes into its 36 planes, then
        // 11 of those planes back to one u16 per lane
        let column: Vec<u64> = (0..P::LANES as u64)
            .map(|l| (l + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 28)
            .collect();
        let mut planes = [P::ZERO; GENOME_BITS];
        let (wall, _) = median_of(reps, || {
            for _ in 0..PLANE_OP_CALLS {
                transposed_planes(black_box(&column), &mut planes);
                black_box(&planes);
            }
        });
        let to_planes_ns = ns(wall, PLANE_OP_CALLS);
        let mut words = vec![0u16; P::LANES];
        let (wall, _) = median_of(reps, || {
            for _ in 0..PLANE_OP_CALLS {
                planes_to_u16(black_box(&planes[..11]), &mut words);
                black_box(&words);
            }
        });
        PlaneOps {
            lanes: P::LANES,
            clock_ns,
            masked_clock_ns,
            jump37_ns,
            gather_ns,
            to_planes_ns,
            to_u16_ns: ns(wall, PLANE_OP_CALLS),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"plane_width\": {}, \"clock_ns\": {:.2}, \"masked_clock_ns\": {:.2}, \
             \"jump37_ns\": {:.2}, \"gather_ns\": {:.2}, \"to_planes_ns\": {:.2}, \
             \"to_u16_ns\": {:.2} }}",
            self.lanes,
            self.clock_ns,
            self.masked_clock_ns,
            self.jump37_ns,
            self.gather_ns,
            self.to_planes_ns,
            self.to_u16_ns
        )
    }
}

/// Genomes scored per second by the pure plane kernel (the landscape
/// block scorer) at one width, over the same genome count per width.
/// `black_box` on the block index and the accumulated popcounts keeps
/// the compiler from folding the sweep away.
fn measure_kernel<P: Plane>(reps: usize, genomes: u64) -> (f64, f64) {
    use std::hint::black_box;
    let blocks = genomes / P::LANES as u64;
    let (wall, _) = median_of(reps, || {
        let mut kernel = BlockKernelW::<P>::new(FitnessSpec::paper());
        let mut acc = 0u64;
        for b in 0..blocks {
            let planes = kernel.score_block(black_box(b));
            for p in &planes {
                acc = acc.wrapping_add(u64::from(p.count_ones()));
            }
        }
        black_box(acc)
    });
    (wall, (blocks * P::LANES as u64) as f64 / wall)
}

/// The first genome of the fold row's window: `3·2²⁷` lies just below
/// the lowest maximal genome (`0x180db0d8`), so the bit-identity check
/// covers the max-set samples as well as the histogram.
const FOLD_FIRST_GENOME: u64 = 0x1800_0000;

/// The sweep's fold (`Tally::fold_blocks`) over `genomes` consecutive
/// genomes from [`FOLD_FIRST_GENOME`], walked in the sweep's chunks on
/// one thread through one reused kernel, the way a sweep shard walks its
/// range.
fn fold_window<P: Plane>(genomes: u64) -> Tally {
    let config = SweepConfig::full();
    let first = FOLD_FIRST_GENOME / BLOCK_GENOMES;
    let end = first + genomes / BLOCK_GENOMES;
    let mut kernel = BlockKernelW::<P>::new(config.spec);
    let mut tally = Tally::new(config.spec);
    let mut start = first;
    while start < end {
        let chunk_end = (start + config.chunk_blocks).min(end);
        tally.fold_blocks(&mut kernel, start..chunk_end, config.sample_cap);
        start = chunk_end;
    }
    tally
}

/// `(lanes, wall, genomes folded per second)` at one width, after
/// asserting (untimed) that the width's tally equals `reference`, the
/// `u64` tally.
fn measure_fold<P: Plane>(reps: usize, genomes: u64, reference: &Tally) -> (usize, f64, f64) {
    assert_eq!(
        &fold_window::<P>(genomes),
        reference,
        "{} fold diverged from the u64 tally",
        P::NAME
    );
    let (wall, tally) = median_of(reps, || fold_window::<P>(std::hint::black_box(genomes)));
    std::hint::black_box(tally);
    (P::LANES, wall, genomes as f64 / wall)
}

fn main() {
    let trials: usize = arg_or("--trials", 1024);
    let max_gens: u64 = arg_or("--max-gens", 30_000);
    let reps: usize = arg_or("--reps", 3);
    let out: String = arg_or("--out", "BENCH_PR7.json".to_string());
    let seeds = trial_seeds(trials);
    let cores = host_cores() as usize;

    // 1, 2, 4, … up to (and always including) the core count
    let mut thread_sweep: Vec<usize> = std::iter::successors(Some(1usize), |&t| Some(t * 2))
        .take_while(|&t| t < cores)
        .collect();
    thread_sweep.push(cores);

    eprintln!(
        "perf_report: {trials} trials x {reps} reps, {cores} cores, threads {thread_sweep:?}"
    );

    // `rtl_convergence_scalar` fans its trials out over every core
    let scalar_threads = leonardo_exec::resolve_threads(0).min(seeds.len());
    let (scalar_wall, scalar) = median_of(reps, || rtl_convergence_scalar(&seeds, max_gens));
    let cycles: u64 = scalar.iter().map(|t| t.cycles).sum();
    let scalar_rate = cycles as f64 / scalar_wall;
    let converged = scalar.iter().filter(|t| t.converged).count();
    eprintln!(
        "  scalar ref x{scalar_threads:<2} {scalar_wall:>9.3}s  {:>6.3}G cycles/s",
        scalar_rate / 1e9
    );

    let ctx = SweepCtx {
        seeds: &seeds,
        max_gens,
        reps,
        thread_sweep: &thread_sweep,
        cores,
        cycles,
        reference: &scalar,
    };
    let mut matrix = Vec::new();
    measure_width::<u64>(&ctx, &mut matrix);
    measure_width::<W128>(&ctx, &mut matrix);
    measure_width::<W256>(&ctx, &mut matrix);
    measure_width::<W512>(&ctx, &mut matrix);

    let best = matrix
        .iter()
        .max_by(|a, b| a.cycles_per_sec.total_cmp(&b.cycles_per_sec))
        .expect("matrix is non-empty");
    let u64_t1 = matrix
        .iter()
        .find(|c| c.plane_width == 64 && c.threads == 1)
        .expect("u64 single-thread cell always measured");

    let handoff = Handoff::measure(reps);
    let break_even = handoff.break_even();
    eprintln!(
        "hand-off: u64 step {:.1} us at 1 lane, {:.1} us at 64; scalar generation {:.2} us; \
         break-even {break_even} lanes, driver hands off at {HANDOFF_LANES}",
        handoff.step_us_1, handoff.step_us_64, handoff.scalar_us
    );

    // the GA engine's hot plane loops, one call at a time per width
    eprintln!("plane ops (median ns per call):");
    let plane_ops = [
        PlaneOps::measure::<u64>(reps),
        PlaneOps::measure::<W128>(reps),
        PlaneOps::measure::<W256>(reps),
        PlaneOps::measure::<W512>(reps),
    ];
    for o in &plane_ops {
        eprintln!(
            "  w{:<4} clock {:>7.1}  masked {:>7.1}  jump37 {:>8.1}  gather {:>7.1}  \
             to_planes {:>7.1}  to_u16 {:>7.1}",
            o.lanes,
            o.clock_ns,
            o.masked_clock_ns,
            o.jump37_ns,
            o.gather_ns,
            o.to_planes_ns,
            o.to_u16_ns
        );
    }

    // pure plane-kernel sweep: same genome count per width so walls compare
    let kernel_genomes: u64 = 1 << 26;
    eprintln!("plane kernel ({kernel_genomes} genomes each):");
    let kernel_rows: Vec<(usize, f64, f64)> = {
        let mut rows = Vec::new();
        let (w, r) = measure_kernel::<u64>(reps, kernel_genomes);
        rows.push((64, w, r));
        let (w, r) = measure_kernel::<W128>(reps, kernel_genomes);
        rows.push((128, w, r));
        let (w, r) = measure_kernel::<W256>(reps, kernel_genomes);
        rows.push((256, w, r));
        let (w, r) = measure_kernel::<W512>(reps, kernel_genomes);
        rows.push((512, w, r));
        for &(lanes, wall, rate) in &rows {
            eprintln!("  w{lanes:<4} {wall:>9.3}s  {:>7.1}M genomes/s", rate / 1e6);
        }
        rows
    };
    let kernel_u64 = kernel_rows[0].2;
    let kernel_best = kernel_rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("kernel rows non-empty");

    // the sweep's fold: same genome count per width, one thread
    let fold_genomes: u64 = 1 << 26;
    eprintln!("fold ({fold_genomes} genomes each, 1 thread):");
    let reference = fold_window::<u64>(fold_genomes);
    let fold_rows = [
        measure_fold::<u64>(reps, fold_genomes, &reference),
        measure_fold::<W128>(reps, fold_genomes, &reference),
        measure_fold::<W256>(reps, fold_genomes, &reference),
        measure_fold::<W512>(reps, fold_genomes, &reference),
    ];
    for &(lanes, wall, rate) in &fold_rows {
        eprintln!("  w{lanes:<4} {wall:>9.3}s  {:>7.1}M genomes/s", rate / 1e6);
    }
    let fold_u64 = fold_rows[0].2;
    let fold_best = fold_rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("fold rows non-empty");

    let matrix_json = matrix
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let plane_ops_json = plane_ops
        .iter()
        .map(|o| format!("    {}", o.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let kernel_json = kernel_rows
        .iter()
        .map(|(lanes, wall, rate)| {
            format!(
                "    {{ \"plane_width\": {lanes}, \"wall_seconds\": {wall:.6}, \
                 \"genomes_per_sec\": {rate:.0}, \"speedup_vs_u64\": {:.3} }}",
                rate / kernel_u64
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let fold_json = fold_rows
        .iter()
        .map(|(lanes, wall, rate)| {
            format!(
                "    {{ \"plane_width\": {lanes}, \"wall_seconds\": {wall:.6}, \
                 \"fold_genomes_per_sec\": {rate:.0}, \"speedup_vs_u64\": {:.3} }}",
                rate / fold_u64
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"rtl_width_threads_matrix\",\n  \
         \"trials\": {trials},\n  \"converged\": {converged},\n  \
         \"max_generations\": {max_gens},\n  \"reps\": {reps},\n  \
         \"host_cores\": {cores},\n  \"simulated_cycles\": {cycles},\n  \
         \"scalar\": {{ \"threads\": {scalar_threads}, \"wall_seconds\": {scalar_wall:.6}, \
         \"cycles_per_sec\": {scalar_rate:.0} }},\n  \
         \"matrix\": [\n{matrix_json}\n  ],\n  \
         \"best\": {{ \"engine\": \"{}\", \"plane_width\": {}, \"threads\": {}, \
         \"cycles_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.3}, \"speedup_vs_u64_t1\": {:.3} }},\n  \
         \"handoff\": {{ \"steps\": {HANDOFF_STEPS}, \"u64_step_us_1_active\": {:.3}, \
         \"u64_step_us_64_active\": {:.3}, \"scalar_generation_us\": {:.3}, \
         \"break_even_lanes\": {break_even}, \"driver_handoff_lanes\": {HANDOFF_LANES} }},\n  \
         \"plane_ops\": {{\n  \"calls\": {PLANE_OP_CALLS},\n  \"widths\": [\n{plane_ops_json}\n  ]\n  }},\n  \
         \"plane_kernel\": {{\n  \"genomes\": {kernel_genomes},\n  \"widths\": [\n{kernel_json}\n  ],\n  \
         \"best_plane_width\": {},\n  \"best_speedup_vs_u64\": {:.3}\n  }},\n  \
         \"fold\": {{\n  \"genomes\": {fold_genomes},\n  \"first_genome\": {FOLD_FIRST_GENOME},\n  \
         \"chunk_blocks\": {},\n  \"threads\": 1,\n  \"widths\": [\n{fold_json}\n  ],\n  \
         \"best_plane_width\": {},\n  \"sweep_plane_width\": {}\n  }}\n}}\n",
        best.engine,
        best.plane_width,
        best.threads,
        best.cycles_per_sec,
        best.cycles_per_sec / scalar_rate,
        best.cycles_per_sec / u64_t1.cycles_per_sec,
        handoff.step_us_1,
        handoff.step_us_64,
        handoff.scalar_us,
        kernel_best.0,
        kernel_best.2 / kernel_u64,
        SweepConfig::full().chunk_blocks,
        fold_best.0,
        SweepPlane::LANES,
    );
    std::fs::write(&out, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out}");

    let mut manifest = RunManifest::new("perf_report")
        .with_param("trials", trials as f64)
        .with_param("max_generations", max_gens as f64)
        .with_param("reps", reps as f64)
        .with_param("scalar_threads", scalar_threads as f64)
        .with_param("scalar_wall_seconds", scalar_wall)
        .with_param("best_cycles_per_sec", best.cycles_per_sec)
        .with_param("speedup_vs_scalar", best.cycles_per_sec / scalar_rate)
        .with_param(
            "speedup_vs_u64_t1",
            best.cycles_per_sec / u64_t1.cycles_per_sec,
        )
        .with_param("handoff_break_even_lanes", break_even as f64)
        .with_param("kernel_best_speedup_vs_u64", kernel_best.2 / kernel_u64)
        .with_param("fold_best_plane_width", fold_best.0 as f64);
    manifest.seeds = seeds.iter().map(|&s| u64::from(s)).collect();
    manifest.threads = best.threads as u64;
    manifest.plane_width = best.plane_width as u64;
    manifest.wall_seconds = scalar_wall + matrix.iter().map(|c| c.wall_seconds).sum::<f64>();
    manifest.simulated_cycles = Some(cycles);
    let manifest_path = format!("{out}.manifest.json");
    manifest.write(&manifest_path).expect("write manifest");
    eprintln!("wrote {manifest_path}");
}
