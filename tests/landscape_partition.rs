//! Shard-partition properties: for arbitrary shard and thread counts the
//! plan is an exact disjoint cover of the block space, every shard's
//! tally is the closed form of its block range, and the merged sweep
//! result is bit-identical to a single-shard, single-threaded reference —
//! parallel scheduling may reorder the work but never change the
//! landscape.

use leonardo_landscape::{
    closed_form_tally, Shard, ShardPlan, StopToken, Sweep, SweepConfig, SweepStatus,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated plan is ordered, contiguous, disjoint and covers
    /// the block space exactly — including shard counts far above the
    /// block count (trailing shards are empty, nothing is double-swept).
    #[test]
    fn plans_partition_the_block_space_exactly(
        bits in 6u32..=36,
        shards in 1usize..=2000,
    ) {
        let plan = ShardPlan::new(bits, shards);
        prop_assert_eq!(plan.len(), shards);
        let mut next = 0u64;
        for (i, s) in plan.shards().iter().enumerate() {
            prop_assert_eq!(s.index, i);
            prop_assert!(s.start_block <= s.end_block);
            prop_assert!(s.start_block == next, "gap or overlap at shard {}", i);
            next = s.end_block;
        }
        prop_assert!(next == plan.total_blocks(), "plan does not cover the space");
        let total: u64 = plan.shards().iter().map(Shard::blocks).sum();
        prop_assert_eq!(total * 64, plan.total_genomes());
        // balanced to within one block
        let sizes: Vec<u64> = plan.shards().iter().map(Shard::blocks).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// The plan depends only on (bits, shards) — regenerating it gives
    /// the identical partition (the determinism per-shard results rely
    /// on).
    #[test]
    fn plans_are_deterministic(bits in 6u32..=36, shards in 1usize..=512) {
        prop_assert_eq!(ShardPlan::new(bits, shards), ShardPlan::new(bits, shards));
    }
}

proptest! {
    // each case sweeps a subspace up to 2^13 twice; keep the count modest
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweeping the same subspace under arbitrary shard counts, thread
    /// counts and chunk sizes leaves each shard with the closed-form
    /// tally of its block range, and merges to a histogram and max-sample
    /// list bit-identical to the 1-shard 1-thread reference.
    #[test]
    fn merged_sweep_is_bit_identical_for_any_configuration(
        bits in 6u32..=13,
        shards in 1usize..=17,
        threads in 1usize..=4,
        chunk in 1u64..=64,
    ) {
        let mut reference_cfg = SweepConfig::subspace(bits);
        reference_cfg.num_shards = 1;
        reference_cfg.threads = 1;
        let mut reference = Sweep::new(reference_cfg);
        prop_assert_eq!(reference.run(&StopToken::never()), SweepStatus::Complete);
        let want = reference.result();

        let mut cfg = SweepConfig::subspace(bits);
        cfg.num_shards = shards;
        cfg.threads = threads;
        cfg.chunk_blocks = chunk;
        let (spec, cap) = (cfg.spec, cfg.sample_cap);
        let mut sweep = Sweep::new(cfg);
        prop_assert_eq!(sweep.run(&StopToken::never()), SweepStatus::Complete);
        prop_assert_eq!(sweep.shard_tallies().len(), shards);
        for (shard, tally) in sweep.plan().shards().iter().zip(sweep.shard_tallies()) {
            let want = closed_form_tally(spec, shard.start_block..shard.end_block, cap);
            prop_assert!(tally == &want, "shard {} differs from the closed form", shard.index);
        }
        let got = sweep.result();

        prop_assert_eq!(got.histogram.counts(), want.histogram.counts());
        prop_assert_eq!(got.max_count, want.max_count);
        prop_assert_eq!(got.max_samples, want.max_samples);
        prop_assert_eq!(got.genomes_swept, 1u64 << bits);
    }
}
