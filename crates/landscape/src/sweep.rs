//! The sharded, multi-threaded sweep driver.
//!
//! Shards fan out over [`leonardo_exec::ordered_map`]; each is walked
//! through a fresh `BlockKernelW<SweepPlane>` (see [`SweepPlane`]: 512
//! consecutive genomes per kernel step), folding into the shard's own
//! [`Tally`] at **chunk** granularity (a few thousand 64-genome blocks).
//! Shard bounds, chunks and cursors count 64-genome blocks at every
//! width, so a wide block that a cut falls inside is scored on both sides
//! of the cut, each side masking off the other's limbs. Because every
//! shard accumulates independently and the merge absorbs shards in index
//! order, the final landscape is bit-identical for every shard count and
//! thread count — parallelism can reorder the work but not the result
//! (property-tested in `tests/`).
//!
//! Chunks are also the cancellation boundary: a [`StopToken`] interrupts
//! the sweep between chunks, every shard keeps its cursor and partial
//! tally, and calling [`Sweep::run`] again continues exactly where the
//! interrupted call stopped.

use crate::kernel::{BlockKernelW, SweepPlane, Tally, BLOCK_GENOMES};
use crate::shard::{ShardPlan, FULL_SUBSPACE_BITS};
use discipulus::fitness::{FitnessSpec, FitnessValue};
use discipulus::stats::FitnessHistogram;
use leonardo_telemetry as tele;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Blocks per work chunk — the fold and cancellation granularity.
    pub chunk_blocks: u64,
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
        }
    }
}

/// How a [`Sweep::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepStatus {
    /// Every shard was swept to its end.
    Complete,
    /// A [`StopToken`] fired; progress up to each shard's last finished
    /// chunk is in [`Sweep::result`], and the next [`Sweep::run`]
    /// continues from there.
    Interrupted,
}

/// Cooperative cancellation with an optional block budget, checked
/// between chunks.
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

/// One shard's progress: the next unswept block and the tally of the
/// blocks before it.
struct ShardState {
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
    states: Vec<ShardState>,
}

impl Sweep {
    /// A fresh sweep, every shard's cursor at its start.
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
            .map(|s| ShardState {
                cursor: s.start_block,
                tally: Tally::new(config.spec),
            })
            .collect();
        Sweep {
            config,
            plan,
            states,
        }
    }

    /// The shard plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Each shard's tally so far, in shard order: the tally of its
    /// blocks from its start up to its cursor (all of them once the
    /// sweep is complete).
    pub fn shard_tallies(&self) -> impl ExactSizeIterator<Item = &Tally> {
        self.states.iter().map(|st| &st.tally)
    }

    /// Run (or continue) the sweep until done or `stop` fires. Progress
    /// accumulates in place, so an interrupted sweep can be `run` again
    /// to continue.
    ///
    /// Emits one `landscape.shard` event per shard that reached its end
    /// during this call, in shard order once every worker is done, so
    /// the stream is the same for every thread count.
    pub fn run(&mut self, stop: &StopToken) -> SweepStatus {
        let (spec, chunk, cap) = (
            self.config.spec,
            self.config.chunk_blocks,
            self.config.sample_cap,
        );
        let shards = self.plan.shards();
        let states = std::mem::take(&mut self.states);
        let swept = leonardo_exec::ordered_map(self.config.threads, states, |idx, mut st| {
            let (start, end) = (st.cursor, shards[idx].end_block);
            let mut kernel = BlockKernelW::<SweepPlane>::new(spec);
            while st.cursor < end && !stop.stopped() {
                let chunk_end = (st.cursor + chunk).min(end);
                st.tally.fold_blocks(&mut kernel, st.cursor..chunk_end, cap);
                stop.add_processed(chunk_end - st.cursor);
                st.cursor = chunk_end;
            }
            let finished = start < end && st.cursor == end;
            (st, finished)
        });
        for ((st, finished), shard) in swept.into_iter().zip(shards) {
            if finished && tele::enabled_at(tele::Level::Metric) {
                tele::emit(
                    tele::Level::Metric,
                    "landscape.shard",
                    &[
                        ("shard", shard.index.into()),
                        ("blocks", shard.blocks().into()),
                        ("max_count", st.tally.max_count.into()),
                    ],
                );
            }
            self.states.push(st);
        }
        if stop.stopped() {
            SweepStatus::Interrupted
        } else {
            SweepStatus::Complete
        }
    }

    /// Merge every shard's partial state into one landscape (exact and
    /// bit-identical regardless of how the work was scheduled).
    pub fn result(&self) -> LandscapeResult {
        let spec = self.config.spec;
        let mut tally = Tally::new(spec);
        let mut genomes_swept = 0u64;
        let mut complete = true;
        for (st, shard) in self.states.iter().zip(self.plan.shards()) {
            tally.absorb(&st.tally, self.config.sample_cap);
            genomes_swept += (st.cursor - shard.start_block) * BLOCK_GENOMES;
            complete &= st.cursor == shard.end_block;
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
