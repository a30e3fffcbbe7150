//! # leonardo-landscape — the exhaustive genome-landscape sweep engine
//!
//! The paper (fact F7) estimates that enumerating all 2³⁶ ≈ 68.7·10⁹
//! genomes on the 1 MHz chip would take about 19 hours, and its quality
//! claim for the evolved gaits (fact F9) rests on what the maximal-fitness
//! set actually looks like. Because the fitness module is purely
//! combinational (fact F2), this crate settles both questions exactly, in
//! software, in seconds: it sweeps the **entire** search space through the
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
//!   ([`leonardo_rtl::bitslice::consecutive_genome_planes`]), fed
//!   through [`leonardo_rtl::bitslice::FitnessUnitXW`]'s carry-save score
//!   planes — no transpose, no per-genome work at all — plus [`Tally`],
//!   the one fold of those planes into a histogram and max-set sample
//!   that the sweep and the closed form share. Both fold at
//!   [`SweepPlane`] (512 genomes per step), the width measured fastest
//!   for the fold; the 64-lane [`BlockKernel`] is the proven reference;
//! * [`shard`] — deterministic disjoint contiguous shards over the block
//!   space (the unit of parallelism);
//! * [`sweep`] — the multi-threaded driver: shards fan out over
//!   [`leonardo_exec::ordered_map`], each folding into its own
//!   [`Tally`], and the merge absorbs them in shard order. Merged results
//!   are bit-identical for **any** shard count and thread count.
//!
//! [`closed_form`] answers any block range's [`Tally`] without sweeping
//! it: the fitness splits into a left-leg and a right-leg part, so an
//! aligned subcube's histogram is the convolution of two side histograms
//! of at most 2¹⁸ genomes each. The server's oracle answers from it, and
//! E15 checks every shard of the sweep against it.
//!
//! The differential conformance suite in `tests/` pins the 64-lane and
//! the wide sweep kernel lane-by-lane to the scalar `discipulus` fitness
//! function, the RTL `FitnessUnit` and the batch `FitnessUnitXW<u64>`,
//! making the sweep the repo's ground-truth oracle for every
//! fitness-touching change. See `docs/LANDSCAPE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_form;
pub mod kernel;
pub mod shard;
pub mod sweep;

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

/// FNV-1a 64-bit hash: the digest of the golden max-set pin (see
/// [`max_set_pin`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The two lines of the golden max-set pin
/// (`tests/golden/landscape_max_set.txt`) for the ascending genome list
/// `set`: its cardinality, and the FNV-1a digest of its listing, one
/// 9-digit hex genome per line.
pub fn max_set_pin(set: &[u64]) -> String {
    let listing: String = set.iter().map(|g| format!("{g:09x}\n")).collect();
    format!(
        "max_set_cardinality {}\nmax_set_fnv1a64 {:016x}\n",
        set.len(),
        fnv1a64(listing.as_bytes())
    )
}

/// The former home of [`fnv1a64`], re-exported so that imports of
/// `leonardo_landscape::checkpoint::fnv1a64` keep compiling.
pub mod checkpoint {
    pub use crate::fnv1a64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
