//! # leonardo-landscape — the exhaustive genome-landscape sweep engine
//!
//! The paper (fact F7) estimates that enumerating all 2³⁶ ≈ 68.7·10⁹
//! genomes on the 1 MHz chip would take about 19 hours, and its quality
//! claim for the evolved gaits (fact F9) rests on what the maximal-fitness
//! set actually looks like. Because the fitness module is purely
//! combinational (fact F2), this crate settles both questions exactly, in
//! software, in minutes: it sweeps the **entire** search space through the
//! bit-sliced fitness network of `leonardo-rtl` and produces
//!
//! * the exact count of genomes at every fitness level (the full
//!   landscape histogram), and
//! * the exact cardinality and a canonical (ascending, capped) sample of
//!   the maximum-fitness set.
//!
//! Three layers:
//!
//! * [`kernel`] — the block kernel: `P::LANES` consecutive genomes share
//!   every bit above the lane field, so a block's transposed form is
//!   fixed lane-index planes plus broadcast words
//!   ([`leonardo_rtl::bitslice::consecutive_genome_planes_w`]), fed
//!   through [`leonardo_rtl::bitslice::FitnessUnitXW`]'s carry-save score
//!   planes — no transpose, no per-genome work at all — plus [`Tally`],
//!   the one fold of those planes into a histogram and max-set sample
//!   that the sweep and the closed form share. Both fold at
//!   [`SweepPlane`] (512 genomes per step), the width measured fastest
//!   for the fold; the 64-lane [`BlockKernel`] is the proven reference;
//! * [`shard`] — deterministic disjoint contiguous shards over the block
//!   space (the unit of parallelism, checkpointing and resume);
//! * [`sweep`] — the multi-threaded driver: shards fan out over
//!   [`leonardo_exec::ordered_map_range`], each folding into its own
//!   [`Tally`], and a [`checkpoint`] file (versioned, checksummed,
//!   atomically replaced) records mid-shard cursors so a killed sweep
//!   restarts where it left off. Merged results are bit-identical for
//!   **any** shard count and thread count.
//!
//! [`closed_form`] answers any block range's [`Tally`] without sweeping
//! it: the fitness splits into a left-leg and a right-leg part, so an
//! aligned subcube's histogram is the convolution of two side histograms
//! of at most 2¹⁸ genomes each. The server's oracle answers from it, and
//! E15 checks every shard of the sweep against it.
//!
//! The differential conformance suite in `tests/` pins the 64-lane and
//! the wide sweep kernel lane-by-lane to the scalar `discipulus` fitness
//! function, the RTL `FitnessUnit` and the batch `FitnessUnitX64`,
//! making the sweep the repo's ground-truth oracle for every
//! fitness-touching change. See `docs/LANDSCAPE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod closed_form;
pub mod kernel;
pub mod shard;
pub mod sweep;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use closed_form::closed_form_tally;
pub use kernel::{score_masks, score_masks_w, BlockKernel, BlockKernelW, SweepPlane, Tally};
pub use shard::{Shard, ShardPlan};
pub use sweep::{LandscapeResult, StopToken, Sweep, SweepConfig, SweepStatus};

/// The exact cardinality of the maximum-fitness set over the full 2³⁶
/// space under the paper's rule weights, established by the exhaustive
/// sweep (E15) and independently by the structural enumeration
/// [`discipulus::fitness::max_fitness_genomes`]: 36 step-1 horizontal
/// patterns × 49² post patterns.
pub const FULL_SWEEP_MAX_SET: u64 = 86_436;
