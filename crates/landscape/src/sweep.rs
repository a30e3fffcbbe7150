//! The sharded, multi-threaded, checkpointable sweep driver.
//!
//! Shards fan out over [`leonardo_exec::ordered_map_range`]; each is
//! walked through a fresh `BlockKernelW<SweepPlane>` (see [`SweepPlane`]:
//! 512 consecutive genomes per kernel step), folding into the shard's
//! [`Tally`] at **chunk** granularity (a few thousand 64-genome blocks).
//! Shard bounds, chunks and cursors count 64-genome blocks at every
//! width, so a wide block that a cut falls inside is scored on both sides
//! of the cut, each side masking off the other's limbs. Because every
//! shard accumulates independently and the merge absorbs shards in index
//! order, the final landscape is bit-identical for every shard count and
//! thread count — parallelism can reorder the work but not the result
//! (property-tested in `tests/`).
//!
//! Chunks are also the checkpoint and cancellation boundary: a
//! [`StopToken`] interrupts the sweep between chunks, and the driver
//! then (and periodically) writes a [`Checkpoint`] capturing every
//! shard's cursor and partials, so [`Sweep::resume`] continues exactly
//! where a killed run stopped.

use crate::checkpoint::{Checkpoint, CheckpointError, ShardCheckpoint};
use crate::kernel::{BlockKernelW, SweepPlane, Tally, BLOCK_GENOMES};
use crate::shard::{ShardPlan, FULL_SUBSPACE_BITS};
use discipulus::fitness::{FitnessSpec, FitnessValue};
use discipulus::stats::FitnessHistogram;
use leonardo_telemetry as tele;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of one landscape sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Width of the swept subspace: genomes `0..2^subspace_bits`
    /// (6..=36; 36 is the full landscape).
    pub subspace_bits: u32,
    /// Number of deterministic shards the space is partitioned into.
    pub num_shards: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// The fitness rule set and weights being swept.
    pub spec: FitnessSpec,
    /// Cap on retained max-fitness samples (counting is always exact;
    /// only the stored sample list is truncated, keeping the smallest
    /// genomes — the canonical prefix).
    pub sample_cap: usize,
    /// Blocks per work chunk — the accumulation, cancellation and
    /// checkpoint granularity.
    pub chunk_blocks: u64,
    /// Checkpoint file to maintain, if any.
    pub checkpoint: Option<PathBuf>,
    /// Write the checkpoint roughly every this many swept blocks.
    pub checkpoint_every_blocks: u64,
}

impl SweepConfig {
    /// The full-landscape sweep: all 2³⁶ genomes, paper weights,
    /// 256 shards, auto threads, sample cap comfortably above the
    /// 86 436-genome max set.
    pub fn full() -> SweepConfig {
        SweepConfig::subspace(FULL_SUBSPACE_BITS)
    }

    /// A sweep of the `2^bits` subspace with defaults scaled for it.
    ///
    /// # Panics
    /// Panics (in [`ShardPlan::new`] when the sweep is built) if `bits`
    /// is outside `6..=36`.
    pub fn subspace(bits: u32) -> SweepConfig {
        SweepConfig {
            subspace_bits: bits,
            num_shards: 256.min(1usize << (bits.saturating_sub(6)).min(16)),
            threads: 0,
            spec: FitnessSpec::paper(),
            sample_cap: 1 << 17,
            chunk_blocks: 1 << 12,
            checkpoint: None,
            // 2^30 genomes: about 0.15 s of a 2-core sweep between writes,
            // each of which renders every shard's samples
            checkpoint_every_blocks: 1 << 24,
        }
    }

    fn weights(&self) -> (u32, u32, u32) {
        (
            self.spec.equilibrium_weight,
            self.spec.symmetry_weight,
            self.spec.coherence_weight,
        )
    }
}

/// How a [`Sweep::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepStatus {
    /// Every shard was swept to its end.
    Complete,
    /// A [`StopToken`] fired; progress up to the last finished chunk is
    /// in the checkpoint (when configured) and in [`Sweep::result`].
    Interrupted,
}

/// Cooperative cancellation with an optional block budget — the test
/// suite's stand-in for `kill -9` (the checkpoint a budget-stopped run
/// leaves behind is exactly what a killed run's last periodic write
/// would contain).
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    inner: Arc<StopInner>,
}

#[derive(Debug, Default)]
struct StopInner {
    stop: AtomicBool,
    /// 0 = unlimited.
    budget_blocks: u64,
    processed: AtomicU64,
}

impl StopToken {
    /// A token that never fires on its own (but can be [`StopToken::stop`]ped).
    pub fn never() -> StopToken {
        StopToken::default()
    }

    /// A token that fires once ~`blocks` blocks have been swept (chunk
    /// granularity: the sweep stops at the first chunk boundary at or
    /// after the budget).
    pub fn after_blocks(blocks: u64) -> StopToken {
        StopToken {
            inner: Arc::new(StopInner {
                stop: AtomicBool::new(false),
                budget_blocks: blocks.max(1),
                processed: AtomicU64::new(0),
            }),
        }
    }

    /// Request cancellation.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn stopped(&self) -> bool {
        self.inner.stop.load(Ordering::Acquire)
    }

    fn add_processed(&self, blocks: u64) {
        if self.inner.budget_blocks == 0 {
            return;
        }
        let total = self.inner.processed.fetch_add(blocks, Ordering::AcqRel) + blocks;
        if total >= self.inner.budget_blocks {
            self.stop();
        }
    }
}

/// Accumulated state of one shard (lives behind a mutex during a run).
#[derive(Debug, Clone)]
struct ShardState {
    start_block: u64,
    end_block: u64,
    cursor: u64,
    tally: Tally,
}

/// The merged outcome of a sweep (possibly partial, see
/// [`LandscapeResult::complete`]).
#[derive(Debug, Clone)]
pub struct LandscapeResult {
    /// Width of the swept subspace in genome bits.
    pub subspace_bits: u32,
    /// Shards the space was partitioned into.
    pub shards: usize,
    /// The spec that was swept.
    pub spec: FitnessSpec,
    /// Exact count of genomes at every fitness level.
    pub histogram: FitnessHistogram,
    /// Genomes swept so far (`2^subspace_bits` when complete).
    pub genomes_swept: u64,
    /// The spec's maximum fitness (the level the max set sits at).
    pub max_fitness: FitnessValue,
    /// Exact cardinality of the maximum-fitness set among swept genomes.
    pub max_count: u64,
    /// Canonical sample of the max set: the smallest `max_count.min(cap)`
    /// genomes in ascending order.
    pub max_samples: Vec<u64>,
    /// Whether every shard was swept to its end.
    pub complete: bool,
}

impl LandscapeResult {
    /// Genomes at fitness exactly `v`.
    pub fn count_at(&self, v: FitnessValue) -> u64 {
        self.histogram.count(v)
    }

    /// Highest fitness level actually attained by a swept genome.
    pub fn attained_max(&self) -> Option<FitnessValue> {
        (0..=self.max_fitness)
            .rev()
            .find(|&v| self.histogram.count(v) > 0)
    }
}

/// A sweep in progress: the shard plan plus every shard's accumulated
/// partial state.
pub struct Sweep {
    config: SweepConfig,
    plan: ShardPlan,
    states: Vec<Mutex<ShardState>>,
}

impl Sweep {
    /// A fresh sweep (no checkpoint consulted).
    ///
    /// # Panics
    /// Panics if the configuration is out of range (see
    /// [`ShardPlan::new`]) or the spec's maximum fitness does not fit
    /// the sliced score planes.
    pub fn new(config: SweepConfig) -> Sweep {
        assert!(
            config.spec.max_fitness() < 1 << leonardo_rtl::bitslice::SCORE_PLANES,
            "spec's maximum fitness exceeds the sliced score-plane width"
        );
        let plan = ShardPlan::new(config.subspace_bits, config.num_shards);
        let states = plan
            .shards()
            .iter()
            .map(|s| {
                Mutex::new(ShardState {
                    start_block: s.start_block,
                    end_block: s.end_block,
                    cursor: s.start_block,
                    tally: Tally::new(config.spec),
                })
            })
            .collect();
        Sweep {
            config,
            plan,
            states,
        }
    }

    /// Resume a sweep from the checkpoint file named in
    /// `config.checkpoint`, rejecting checkpoints that belong to a
    /// different configuration or are internally inconsistent.
    pub fn resume(config: SweepConfig) -> Result<Sweep, CheckpointError> {
        let path = config.checkpoint.clone().ok_or_else(|| {
            CheckpointError::Mismatch("no checkpoint path configured".to_string())
        })?;
        let cp = Checkpoint::read(&path)?;
        let mismatch = |why: String| Err(CheckpointError::Mismatch(why));
        if cp.subspace_bits != config.subspace_bits {
            return mismatch(format!(
                "checkpoint sweeps 2^{}, config wants 2^{}",
                cp.subspace_bits, config.subspace_bits
            ));
        }
        if cp.weights != config.weights() {
            return mismatch(format!(
                "checkpoint weights {:?} != config weights {:?}",
                cp.weights,
                config.weights()
            ));
        }
        if cp.sample_cap != config.sample_cap {
            return mismatch("sample cap differs".to_string());
        }
        if cp.shards.len() != config.num_shards {
            return mismatch(format!(
                "checkpoint has {} shards, config wants {}",
                cp.shards.len(),
                config.num_shards
            ));
        }
        let sweep = Sweep::new(config);
        let levels = sweep.config.spec.max_fitness() as usize + 1;
        for (state, saved) in sweep.states.iter().zip(&cp.shards) {
            let mut st = state.lock().expect("shard state");
            if saved.cursor < st.start_block || saved.cursor > st.end_block {
                return mismatch(format!(
                    "shard {} cursor {} outside {}..{}",
                    saved.index, saved.cursor, st.start_block, st.end_block
                ));
            }
            if saved.hist.len() != levels {
                return mismatch(format!(
                    "shard {} histogram has {} levels, spec needs {levels}",
                    saved.index,
                    saved.hist.len()
                ));
            }
            st.cursor = saved.cursor;
            st.tally = Tally {
                hist: saved.hist.clone(),
                max_count: saved.max_count,
                samples: saved.samples.clone(),
            };
        }
        Ok(sweep)
    }

    /// The shard plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Snapshot the current state as a [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            subspace_bits: self.config.subspace_bits,
            weights: self.config.weights(),
            sample_cap: self.config.sample_cap,
            shards: self
                .states
                .iter()
                .enumerate()
                .map(|(index, state)| {
                    let st = state.lock().expect("shard state");
                    ShardCheckpoint {
                        index,
                        cursor: st.cursor,
                        max_count: st.tally.max_count,
                        hist: st.tally.hist.clone(),
                        samples: st.tally.samples.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Run (or continue) the sweep until done or `stop` fires. Progress
    /// accumulates in place, so an interrupted sweep can be `run` again
    /// to continue in-process, or resumed from its checkpoint file later.
    pub fn run(&mut self, stop: &StopToken) -> SweepStatus {
        let since_checkpoint = AtomicU64::new(0);
        let checkpoint_lock = Mutex::new(());
        leonardo_exec::ordered_map_range(self.config.threads, self.states.len(), |idx| {
            self.sweep_shard(idx, stop, &since_checkpoint, &checkpoint_lock);
        });
        let status = if stop.stopped() {
            SweepStatus::Interrupted
        } else {
            SweepStatus::Complete
        };
        // final checkpoint: interrupted runs persist their cut state,
        // complete runs persist an all-cursors-at-end record
        self.write_checkpoint();
        status
    }

    /// Sweep shard `idx` from its cursor to its end, chunk by chunk,
    /// until `stop` fires.
    fn sweep_shard(
        &self,
        idx: usize,
        stop: &StopToken,
        since_checkpoint: &AtomicU64,
        checkpoint_lock: &Mutex<()>,
    ) {
        let state = &self.states[idx];
        let (mut cursor, end) = {
            let st = state.lock().expect("shard state");
            (st.cursor, st.end_block)
        };
        let mut kernel = BlockKernelW::<SweepPlane>::new(self.config.spec);
        while cursor < end {
            if stop.stopped() {
                return;
            }
            let chunk_end = (cursor + self.config.chunk_blocks).min(end);
            {
                // cursor and tally move together, so a checkpoint taken
                // mid-run always sees a chunk boundary
                let mut st = state.lock().expect("shard state");
                st.tally
                    .fold_blocks(&mut kernel, cursor..chunk_end, self.config.sample_cap);
                st.cursor = chunk_end;
            }
            let chunk_len = chunk_end - cursor;
            cursor = chunk_end;
            stop.add_processed(chunk_len);
            self.maybe_checkpoint(since_checkpoint, chunk_len, checkpoint_lock);
        }
        if tele::enabled_at(tele::Level::Metric) {
            let st = state.lock().expect("shard state");
            tele::emit(
                tele::Level::Metric,
                "landscape.shard",
                &[
                    ("shard", idx.into()),
                    ("blocks", (st.end_block - st.start_block).into()),
                    ("max_count", st.tally.max_count.into()),
                ],
            );
        }
    }

    fn maybe_checkpoint(
        &self,
        since_checkpoint: &AtomicU64,
        blocks_done: u64,
        checkpoint_lock: &Mutex<()>,
    ) {
        if self.config.checkpoint.is_none() {
            return;
        }
        let total = since_checkpoint.fetch_add(blocks_done, Ordering::AcqRel) + blocks_done;
        if total < self.config.checkpoint_every_blocks {
            return;
        }
        // one writer at a time; whoever wins resets the counter
        if let Ok(_guard) = checkpoint_lock.try_lock() {
            since_checkpoint.store(0, Ordering::Release);
            self.write_checkpoint();
        }
    }

    fn write_checkpoint(&self) {
        let Some(path) = &self.config.checkpoint else {
            return;
        };
        if let Err(e) = self.checkpoint().write(path) {
            eprintln!(
                "warning: could not write checkpoint {}: {e}",
                path.display()
            );
        } else if tele::enabled_at(tele::Level::Trace) {
            tele::emit(
                tele::Level::Trace,
                "landscape.checkpoint",
                &[("shards", self.states.len().into())],
            );
        }
    }

    /// Merge every shard's partial state into one landscape (exact and
    /// bit-identical regardless of how the work was scheduled).
    pub fn result(&self) -> LandscapeResult {
        let spec = self.config.spec;
        let mut tally = Tally::new(spec);
        let mut genomes_swept = 0u64;
        let mut complete = true;
        for state in &self.states {
            let st = state.lock().expect("shard state");
            tally.absorb(&st.tally, self.config.sample_cap);
            genomes_swept += (st.cursor - st.start_block) * BLOCK_GENOMES;
            complete &= st.cursor == st.end_block;
        }
        debug_assert!(tally.samples.windows(2).all(|w| w[0] < w[1]));
        let mut histogram = FitnessHistogram::new(spec.max_fitness());
        for (v, &c) in tally.hist.iter().enumerate() {
            histogram.record_n(v as FitnessValue, c);
        }
        LandscapeResult {
            subspace_bits: self.config.subspace_bits,
            shards: self.plan.len(),
            spec,
            histogram,
            genomes_swept,
            max_fitness: spec.max_fitness(),
            max_count: tally.max_count,
            max_samples: tally.samples,
            complete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::genome::Genome;

    fn scalar_landscape(bits: u32) -> (Vec<u64>, Vec<u64>) {
        let spec = FitnessSpec::paper();
        let mut hist = vec![0u64; spec.max_fitness() as usize + 1];
        let mut max = Vec::new();
        for g in 0..1u64 << bits {
            let f = spec.evaluate(Genome::from_bits(g));
            hist[f as usize] += 1;
            if f == spec.max_fitness() {
                max.push(g);
            }
        }
        (hist, max)
    }

    #[test]
    fn small_subspace_matches_scalar_brute_force() {
        // 2^6 and 2^7 are smaller than one wide sweep block, so the fold
        // masks off most of the limbs it scores
        for bits in [6, 7, 14] {
            let (hist, max) = scalar_landscape(bits);
            let mut cfg = SweepConfig::subspace(bits);
            cfg.num_shards = 5;
            cfg.threads = 2;
            cfg.chunk_blocks = 16;
            let mut sweep = Sweep::new(cfg);
            assert_eq!(sweep.run(&StopToken::never()), SweepStatus::Complete);
            let r = sweep.result();
            assert!(r.complete, "bits {bits}");
            assert_eq!(r.genomes_swept, 1 << bits, "bits {bits}");
            assert_eq!(r.histogram.counts(), &hist[..], "bits {bits}");
            assert_eq!(r.max_count, max.len() as u64, "bits {bits}");
            assert_eq!(r.max_samples, max, "bits {bits}");
        }
    }

    #[test]
    fn interrupt_and_in_process_continue_is_exact() {
        let mut cfg = SweepConfig::subspace(13);
        cfg.num_shards = 3;
        cfg.threads = 1;
        cfg.chunk_blocks = 8;
        let mut reference = Sweep::new(cfg.clone());
        reference.run(&StopToken::never());

        let mut sweep = Sweep::new(cfg);
        assert_eq!(
            sweep.run(&StopToken::after_blocks(20)),
            SweepStatus::Interrupted
        );
        let partial = sweep.result();
        assert!(!partial.complete);
        assert!(partial.genomes_swept < 1 << 13);
        assert_eq!(sweep.run(&StopToken::never()), SweepStatus::Complete);
        let done = sweep.result();
        let want = reference.result();
        assert_eq!(done.histogram.counts(), want.histogram.counts());
        assert_eq!(done.max_samples, want.max_samples);
    }

    #[test]
    fn attained_max_reads_histogram() {
        let mut cfg = SweepConfig::subspace(10);
        cfg.num_shards = 1;
        cfg.threads = 1;
        let mut sweep = Sweep::new(cfg);
        sweep.run(&StopToken::never());
        let r = sweep.result();
        let top = r.attained_max().expect("some genome scored");
        assert!(r.count_at(top) > 0);
        assert!((top..=r.max_fitness).skip(1).all(|v| r.count_at(v) == 0));
    }
}
