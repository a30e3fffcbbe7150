//! Deterministic disjoint sharding of the block space.
//!
//! A sweep is partitioned into contiguous, pairwise-disjoint **shards**
//! of 64-genome blocks. The partition depends only on `(subspace_bits,
//! shard count)` — never on thread count or timing — so per-shard results
//! are reproducible, and the merged landscape is bit-identical for every
//! shard/thread configuration (property-tested).

use crate::kernel::BLOCK_GENOMES;
use discipulus::genome::GENOME_BITS;
use leonardo_rtl::bitslice::LANE_BITS;

/// Smallest sweepable subspace: one 64-genome block.
pub const MIN_SUBSPACE_BITS: u32 = LANE_BITS as u32;
/// The full search space, 2³⁶ genomes.
pub const FULL_SUBSPACE_BITS: u32 = GENOME_BITS as u32;

/// One contiguous half-open run of blocks, `start_block..end_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan.
    pub index: usize,
    /// First block of the shard.
    pub start_block: u64,
    /// One past the last block of the shard (`== start_block` for an
    /// empty shard, legal when there are more shards than blocks).
    pub end_block: u64,
}

impl Shard {
    /// Number of blocks in the shard.
    pub fn blocks(&self) -> u64 {
        self.end_block - self.start_block
    }

    /// Number of genomes in the shard.
    pub fn genomes(&self) -> u64 {
        self.blocks() * BLOCK_GENOMES
    }
}

/// A deterministic partition of `0..2^subspace_bits` genomes into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    subspace_bits: u32,
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Balanced contiguous partition of the `2^(subspace_bits - 6)` block
    /// space into `num_shards` shards: every shard gets `total / n`
    /// blocks and the first `total % n` shards one extra, so shard sizes
    /// differ by at most one block.
    ///
    /// # Panics
    /// Panics if `subspace_bits` is outside
    /// [`MIN_SUBSPACE_BITS`]`..=`[`FULL_SUBSPACE_BITS`] or `num_shards`
    /// is zero.
    pub fn new(subspace_bits: u32, num_shards: usize) -> ShardPlan {
        assert!(
            (MIN_SUBSPACE_BITS..=FULL_SUBSPACE_BITS).contains(&subspace_bits),
            "subspace_bits must be in {MIN_SUBSPACE_BITS}..={FULL_SUBSPACE_BITS}"
        );
        assert!(num_shards > 0, "at least one shard is required");
        let total = 1u64 << (subspace_bits - MIN_SUBSPACE_BITS);
        let n = num_shards as u64;
        let (q, r) = (total / n, total % n);
        let mut shards = Vec::with_capacity(num_shards);
        let mut start = 0u64;
        for index in 0..num_shards {
            let len = q + u64::from((index as u64) < r);
            shards.push(Shard {
                index,
                start_block: start,
                end_block: start + len,
            });
            start += len;
        }
        debug_assert_eq!(start, total);
        ShardPlan {
            subspace_bits,
            shards,
        }
    }

    /// Rebuild a plan from raw shards **without** validating the
    /// partition arithmetic — the entry point for the `analysis` linter,
    /// which checks plans, including deliberately broken fixture plans.
    pub fn from_raw(subspace_bits: u32, shards: Vec<Shard>) -> ShardPlan {
        ShardPlan {
            subspace_bits,
            shards,
        }
    }

    /// Width of the swept subspace in genome bits.
    pub fn subspace_bits(&self) -> u32 {
        self.subspace_bits
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plan has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Total blocks the plan is supposed to cover, `2^(subspace_bits-6)`.
    pub fn total_blocks(&self) -> u64 {
        1u64 << (self.subspace_bits - MIN_SUBSPACE_BITS)
    }

    /// Total genomes the plan is supposed to cover.
    pub fn total_genomes(&self) -> u64 {
        1u64 << self.subspace_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition_covers_exactly() {
        for (bits, n) in [(6u32, 1usize), (10, 3), (16, 7), (16, 1024), (20, 64)] {
            let plan = ShardPlan::new(bits, n);
            assert_eq!(plan.len(), n);
            let mut next = 0u64;
            for (i, s) in plan.shards().iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.start_block, next, "contiguous, in order");
                assert!(s.end_block >= s.start_block);
                next = s.end_block;
            }
            assert_eq!(next, plan.total_blocks(), "bits {bits} shards {n}");
            let sizes: Vec<u64> = plan.shards().iter().map(Shard::blocks).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced to within one block");
        }
    }

    #[test]
    fn more_shards_than_blocks_leaves_empties() {
        let plan = ShardPlan::new(6, 5);
        assert_eq!(plan.total_blocks(), 1);
        assert_eq!(plan.shards()[0].blocks(), 1);
        assert!(plan.shards()[1..].iter().all(|s| s.blocks() == 0));
    }

    #[test]
    fn genome_accounting() {
        let plan = ShardPlan::new(12, 3);
        let total: u64 = plan.shards().iter().map(Shard::genomes).sum();
        assert_eq!(total, plan.total_genomes());
        assert_eq!(plan.total_genomes(), 4096);
    }

    #[test]
    #[should_panic(expected = "subspace_bits")]
    fn rejects_oversized_subspace() {
        let _ = ShardPlan::new(37, 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = ShardPlan::new(20, 0);
    }
}
