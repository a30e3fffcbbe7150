//! `sweep`: exhaustive sweeps of the 2²⁸ genome subspace through
//! `leonardo_landscape::Sweep` on 2 threads — the F7 path, the block
//! kernel plus the shard workers. The sweep is deterministic, so the seed
//! selects nothing.

use crate::stats::{median, secs_since};
use crate::trace::{median_idle, median_per_op, Acc, Span, Totals, Tracer};
use crate::{tail_reading, Args, Cell, Outcome, Reading, Setups, Size};
use discipulus::fitness::max_fitness_genomes;
use leonardo_landscape::checkpoint::fnv1a64;
use leonardo_landscape::kernel::{score_masks, BLOCK_GENOMES};
use leonardo_landscape::{
    BlockKernel, LandscapeResult, StopToken, Sweep, SweepConfig, SweepStatus,
};
use leonardo_rtl::bitslice::SCORE_PLANES;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of every sweep.
pub const THREADS: usize = 2;

/// The golden pin of the full 2³⁶ maximum-fitness set: its cardinality
/// and the FNV-1a digest of its ascending hex listing.
const GOLDEN: &str = include_str!("../../tests/golden/landscape_max_set.txt");

/// Blocks per timed batch of the traced replica: small enough that the
/// batch's planes and masks stay in L1, large enough that the clock
/// reads cost a few percent.
const BATCH: u64 = 64;

/// The sweep configuration of one op.
pub fn config(bits: u32) -> SweepConfig {
    let mut c = SweepConfig::subspace(bits);
    c.threads = THREADS;
    c
}

/// The maximum-fitness genomes below `2^bits`, ascending: the analytic
/// enumeration, verified against the golden pin first.
pub fn golden_max_set(bits: u32) -> Result<Vec<u64>, String> {
    let mut set: Vec<u64> = max_fitness_genomes().map(|g| g.bits()).collect();
    set.sort_unstable();
    let mut listing = String::new();
    for g in &set {
        writeln!(listing, "{g:09x}").expect("writing to a String cannot fail");
    }
    let rendered = format!(
        "max_set_cardinality {}\nmax_set_fnv1a64 {:016x}\n",
        set.len(),
        fnv1a64(listing.as_bytes())
    );
    if rendered != GOLDEN {
        return Err(format!(
            "analytic max set no longer matches the golden pin: {rendered:?}"
        ));
    }
    Ok(set.into_iter().filter(|&g| g < 1 << bits).collect())
}

/// One op through the public API: `Sweep::new`, `run` to
/// completion, `result`. With a tracer, `result` gets a span of op `op`.
fn sweep_op(bits: u32, trace: Option<(&Tracer, u32)>) -> (LandscapeResult, SweepStatus, f64) {
    let t = Instant::now();
    let mut sweep = Sweep::new(config(bits));
    let status = sweep.run(&StopToken::never());
    let r0 = trace.map_or(0, |(tracer, _)| tracer.now());
    let result = sweep.result();
    let secs = secs_since(t);
    if let Some((tracer, op)) = trace {
        let span = (r0, tracer.now());
        tracer.push(Span::plain(tracer.id(), 0, op, "landscape.result", span, 0));
    }
    (black_box(result), status, secs)
}

/// The result covers the whole subspace and its max set is the golden
/// one.
fn check(
    r: &LandscapeResult,
    status: SweepStatus,
    bits: u32,
    golden: &[u64],
) -> Result<(), String> {
    let genomes = 1u64 << bits;
    if status != SweepStatus::Complete || !r.complete {
        return Err("sweep did not complete".to_string());
    }
    if r.genomes_swept != genomes || r.histogram.total() != genomes {
        return Err(format!(
            "swept {} genomes, histogram mass {}, want {genomes}",
            r.genomes_swept,
            r.histogram.total()
        ));
    }
    if r.max_count != golden.len() as u64 || r.count_at(r.max_fitness) != r.max_count {
        return Err(format!(
            "max set of {} genomes, golden has {}",
            r.max_count,
            golden.len()
        ));
    }
    if r.max_samples != golden {
        return Err("max-fitness samples differ from the golden set".to_string());
    }
    Ok(())
}

/// Run `sweep`.
pub fn run(args: &Args, size: &Size) -> Outcome {
    let mut out = Outcome::new(Cell {
        engine: "landscape",
        plane_width: BLOCK_GENOMES as usize,
        threads: THREADS,
        connections: 0,
    });
    let bits = size.sweep_bits;
    let golden = match golden_max_set(bits) {
        Ok(g) => g,
        Err(e) => {
            out.errors.push(format!("before timing: {e}"));
            return out;
        }
    };
    let (first, status, _) = sweep_op(bits, None);
    if let Err(e) = check(&first, status, bits, &golden) {
        out.errors.push(format!("before timing: {e}"));
        return out;
    }
    let hist = first.histogram.counts().to_vec();
    let same = |r: &LandscapeResult, status| {
        check(r, status, bits, &golden).and_then(|()| {
            if r.histogram.counts() == hist {
                Ok(())
            } else {
                Err("histogram differs from the pre-timing sweep".to_string())
            }
        })
    };
    if args.trace {
        traced(args, bits, &same, &mut out);
        return out;
    }
    let setup_once = || {
        let t = Instant::now();
        let sweep = Sweep::new(config(bits));
        let secs = secs_since(t);
        drop(black_box(sweep));
        secs
    };
    let mut setups = Setups::new(size.reps(args.workload));
    let genomes = (1u64 << bits) as f64;
    let mut rates = Vec::new();
    let mut op_secs = Vec::new();
    let start = Instant::now();
    while op_secs.is_empty() || secs_since(start) < args.seconds {
        setups.keep_pace(secs_since(start) / args.seconds, setup_once);
        let (r, status, secs) = sweep_op(bits, None);
        if out.op(same(&r, status)) {
            rates.push(genomes / secs);
            op_secs.push(secs);
        } else {
            rates.push(0.0);
            op_secs.push(f64::INFINITY);
        }
    }
    setups.keep_pace(1.0, setup_once);
    let rate = median(&rates);
    out.readings.extend([
        setups.reading(),
        Reading::alias("genomes_per_s", "work_per_s", "1/s", rate, rates.len()),
        Reading::info("op_p50_s", "s", median(&op_secs), op_secs.len()),
        Reading::info("full_sweep_s", "s", (1u64 << 36) as f64 / rate, rates.len()),
    ]);
    out.readings.extend(tail_reading(&op_secs));
    out
}

/// The traced run: each op runs once through `Sweep::run` (with a span
/// around `Sweep::result`) and once through the traced replica, whose
/// merged landscape must be identical.
fn traced(
    args: &Args,
    bits: u32,
    same: &dyn Fn(&LandscapeResult, SweepStatus) -> Result<(), String>,
    out: &mut Outcome,
) {
    let tracer = Tracer::new();
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let start = Instant::now();
    let mut op = 0u32;
    while op == 0 || secs_since(start) < args.seconds {
        let run_real = |op| sweep_op(bits, Some((&tracer, op)));
        let run_replica = |op| {
            let t = Instant::now();
            let merged = replica(bits, &tracer, op);
            (merged, secs_since(t))
        };
        let (real, rep) = if op.is_multiple_of(2) {
            let real = run_real(op);
            (real, run_replica(op))
        } else {
            let rep = run_replica(op);
            (run_real(op), rep)
        };
        let checked = same(&real.0, real.1).and_then(|()| {
            let r = &real.0;
            if rep.0
                == (
                    r.histogram.counts().to_vec(),
                    r.max_count,
                    r.max_samples.clone(),
                )
            {
                Ok(())
            } else {
                Err(format!("op {op}: traced replica differs from Sweep::run"))
            }
        });
        out.op(checked);
        plain_secs.push(real.2);
        traced_secs.push(rep.1);
        op += 1;
    }
    let spans = tracer.spans();
    let n = plain_secs.len();
    let busy = |t: Totals| t.0;
    out.readings.extend(
        [
            (
                "landscape.new_s",
                median_per_op(&spans, "landscape.new", busy),
            ),
            (
                "landscape.kernel_s",
                median_per_op(&spans, "landscape.kernel", busy),
            ),
            (
                "landscape.ns_per_genome",
                median_per_op(&spans, "landscape.kernel", |t| {
                    t.0 * 1e9 / (t.2 * BLOCK_GENOMES) as f64
                }),
            ),
            (
                "landscape.blocks",
                median_per_op(&spans, "landscape.kernel", |t| t.2 as f64),
            ),
            (
                "landscape.masks_s",
                median_per_op(&spans, "landscape.masks", busy),
            ),
            (
                "landscape.fold_s",
                median_per_op(&spans, "landscape.fold", busy),
            ),
            (
                "landscape.worker_idle_s",
                median_idle(&spans, "landscape.run", "landscape.worker"),
            ),
            (
                "landscape.result_s",
                median_per_op(&spans, "landscape.result", busy),
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

/// One shard's partial landscape in the replica.
struct ShardAcc {
    hist: Vec<u64>,
    max_count: u64,
    samples: Vec<u64>,
}

/// The merged landscape of a replica sweep: histogram, max-set count,
/// max-set samples.
type Merged = (Vec<u64>, u64, Vec<u64>);

/// `Sweep::run` re-driven over the kernel's public API with spans:
/// `sweep.op` ⊃ {`landscape.new`, `landscape.run` ⊃ `landscape.worker`
/// ⊃ {`landscape.kernel`, `landscape.masks`, `landscape.fold`}}. The
/// per-shard fold and the shard-order merge are those of `Sweep`, so
/// the merged landscape is identical.
fn replica(bits: u32, tracer: &Tracer, op: u32) -> Merged {
    let cfg = config(bits);
    let op_id = tracer.id();
    let start = tracer.now();
    let sweep = Sweep::new(cfg.clone());
    let built = tracer.now();
    tracer.push(Span::plain(
        tracer.id(),
        op_id,
        op,
        "landscape.new",
        (start, built),
        0,
    ));
    let shards = sweep.plan().shards();
    let levels = cfg.spec.max_fitness() as usize + 1;
    let states: Vec<Mutex<ShardAcc>> = shards
        .iter()
        .map(|_| {
            Mutex::new(ShardAcc {
                hist: vec![0; levels],
                max_count: 0,
                samples: Vec::new(),
            })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let run_id = tracer.id();
    let run_start = tracer.now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS.min(shards.len()) {
            scope.spawn(|| replica_worker(&cfg, shards, &states, &next, tracer, op, run_id));
        }
    });
    tracer.push(Span::plain(
        run_id,
        op_id,
        op,
        "landscape.run",
        (run_start, tracer.now()),
        0,
    ));
    let mut hist = vec![0u64; levels];
    let mut max_count = 0;
    let mut samples = Vec::new();
    for state in states {
        let st = state.into_inner().expect("a replica worker panicked");
        for (slot, c) in hist.iter_mut().zip(st.hist) {
            *slot += c;
        }
        max_count += st.max_count;
        let room = cfg.sample_cap.saturating_sub(samples.len());
        samples.extend(st.samples.into_iter().take(room));
    }
    tracer.push(Span::plain(
        op_id,
        0,
        op,
        "sweep.op",
        (start, tracer.now()),
        0,
    ));
    (hist, max_count, samples)
}

fn replica_worker(
    cfg: &SweepConfig,
    shards: &[leonardo_landscape::Shard],
    states: &[Mutex<ShardAcc>],
    next: &AtomicUsize,
    tracer: &Tracer,
    op: u32,
    parent: u32,
) {
    let id = tracer.id();
    let start = tracer.now();
    let mut kernel = BlockKernel::new(cfg.spec);
    let top_level = cfg.spec.max_fitness() as usize;
    let mut kernel_acc = Acc::new("landscape.kernel");
    let mut masks_acc = Acc::new("landscape.masks");
    let mut fold_acc = Acc::new("landscape.fold");
    let mut planes = [[0u64; SCORE_PLANES]; BATCH as usize];
    let mut masks = [[0u64; 1 << SCORE_PLANES]; BATCH as usize];
    let mut chunk_hist = vec![0u64; top_level + 1];
    let mut chunk_samples: Vec<u64> = Vec::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let (Some(shard), Some(state)) = (shards.get(idx), states.get(idx)) else {
            break;
        };
        let mut cursor = shard.start_block;
        while cursor < shard.end_block {
            let chunk_end = (cursor + cfg.chunk_blocks).min(shard.end_block);
            chunk_hist.fill(0);
            chunk_samples.clear();
            let mut chunk_max = 0u64;
            let mut batch = cursor;
            while batch < chunk_end {
                let n = BATCH.min(chunk_end - batch) as usize;
                let t0 = tracer.now();
                for (k, p) in planes[..n].iter_mut().enumerate() {
                    *p = kernel.score_block(batch + k as u64);
                }
                let t1 = tracer.now();
                for (m, p) in masks[..n].iter_mut().zip(&planes[..n]) {
                    *m = score_masks(p);
                }
                let t2 = tracer.now();
                for (k, m) in masks[..n].iter().enumerate() {
                    for (slot, level) in chunk_hist.iter_mut().zip(m) {
                        *slot += u64::from(level.count_ones());
                    }
                    let mut top = m[top_level];
                    chunk_max += u64::from(top.count_ones());
                    while top != 0 {
                        let lane = u64::from(top.trailing_zeros());
                        chunk_samples.push((batch + k as u64) * BLOCK_GENOMES + lane);
                        top &= top - 1;
                    }
                }
                let t3 = tracer.now();
                kernel_acc.add(t0, t1, n as u64);
                masks_acc.add(t1, t2, n as u64);
                fold_acc.add(t2, t3, 0);
                batch += n as u64;
            }
            let t0 = tracer.now();
            {
                let mut st = state.lock().expect("a replica worker panicked");
                for (slot, &c) in st.hist.iter_mut().zip(&chunk_hist) {
                    *slot += c;
                }
                st.max_count += chunk_max;
                let room = cfg.sample_cap.saturating_sub(st.samples.len());
                st.samples.extend(chunk_samples.iter().take(room).copied());
            }
            fold_acc.add(t0, tracer.now(), 0);
            cursor = chunk_end;
        }
    }
    let mut local = Vec::new();
    for acc in [kernel_acc, masks_acc, fold_acc] {
        acc.flush(tracer, op, id, &mut local);
    }
    local.push(Span::plain(
        id,
        parent,
        op,
        "landscape.worker",
        (start, tracer.now()),
        0,
    ));
    tracer.absorb(&mut local);
}
