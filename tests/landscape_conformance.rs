//! Differential conformance: the landscape sweep kernel is pinned,
//! lane by lane, to every other fitness implementation in the repo.
//!
//! Four independent paths must agree on every genome:
//!
//! 1. the scalar behavioural spec (`discipulus::fitness::FitnessSpec`),
//! 2. the scalar RTL combinational unit (`leonardo_rtl::FitnessUnit`),
//! 3. the 64-lane bit-sliced unit (`FitnessUnitXW::<u64>::evaluate_lanes`),
//! 4. the 64-lane landscape block kernel (`BlockKernel`, the
//!    consecutive-genome plane path the SAT miter proves),
//!
//! and the kernel the exhaustive sweep and the server oracle actually
//! run, `BlockKernelW<SweepPlane>`, must agree with all four: the proof
//! covers only the 64-lane kernel, so these checks carry it to the wide
//! one.
//!
//! Any disagreement means the exhaustive E15 landscape is wrong, so this
//! suite is deliberately heavier than the usual lane-equivalence tests:
//! >10⁴ random genomes plus every corner the encoding has.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::{Genome, GENOME_BITS, GENOME_MASK};
use leonardo_landscape::{BlockKernel, BlockKernelW, SweepPlane};
use leonardo_rtl::bitslice::{FitnessUnitXW, LANES};
use leonardo_rtl::fitness_rtl::FitnessUnit;
use proptest::prelude::*;

/// The fitness the sweep's wide kernel gives `genome`: its block is
/// scored and the genome's lane read out.
fn sweep_fitness(wide: &mut BlockKernelW<SweepPlane>, genome: u64) -> u32 {
    let lanes = BlockKernelW::<SweepPlane>::GENOMES_PER_BLOCK;
    let mut out = vec![0u32; lanes as usize];
    wide.block_fitness_into(genome / lanes, &mut out);
    out[(genome % lanes) as usize]
}

/// Assert all four implementations, and the sweep's wide kernel, agree
/// on `genome`.
fn assert_four_way(kernel: &mut BlockKernel, wide: &mut BlockKernelW<SweepPlane>, genome: u64) {
    let spec = FitnessSpec::paper();
    let scalar = spec.evaluate(Genome::from_bits(genome));
    let rtl = FitnessUnit::paper().evaluate(Genome::from_bits(genome));
    let mut lanes = [genome; LANES];
    lanes[0] = genome; // explicit: lane 0 carries the genome under test
    let sliced = FitnessUnitXW::<u64>::paper().evaluate_lanes(&lanes)[0];
    let block = genome / LANES as u64;
    let lane = (genome % LANES as u64) as usize;
    let swept = kernel.block_fitness(block)[lane];
    assert_eq!(scalar, rtl, "core vs RTL on {genome:#011x}");
    assert_eq!(scalar, sliced, "core vs sliced on {genome:#011x}");
    assert_eq!(scalar, swept, "core vs sweep kernel on {genome:#011x}");
    assert_eq!(
        scalar,
        sweep_fitness(wide, genome),
        "core vs wide sweep kernel on {genome:#011x}"
    );
}

#[test]
fn corner_genomes_agree_across_all_four_paths() {
    let mut kernel = BlockKernel::new(FitnessSpec::paper());
    let mut wide = BlockKernelW::<SweepPlane>::new(FitnessSpec::paper());
    let mut corners = vec![0u64, GENOME_MASK];
    // per-field one-hot: every single genome bit alone...
    corners.extend((0..GENOME_BITS).map(|b| 1u64 << b));
    // ...and its complement (one bit cleared from all-ones)
    corners.extend((0..GENOME_BITS).map(|b| GENOME_MASK ^ (1 << b)));
    // every 3-bit leg field saturated on its own, both steps
    for field in 0..12 {
        corners.push(0b111u64 << (3 * field));
    }
    // block-boundary stress: lane 0 and lane 63 of extreme blocks, and
    // the first and last lane of the wide kernel's extreme blocks
    corners.extend([63, 64, 127, GENOME_MASK - 63, GENOME_MASK & !63]);
    let wide_lanes = BlockKernelW::<SweepPlane>::GENOMES_PER_BLOCK;
    corners.extend([wide_lanes - 1, wide_lanes, GENOME_MASK + 1 - wide_lanes]);
    for g in corners {
        assert_four_way(&mut kernel, &mut wide, g);
    }
}

proptest! {
    // 170 cases x 64 lanes > 10^4 genomes through the full check
    #![proptest_config(ProptestConfig::with_cases(170))]

    /// Random blocks of 64 arbitrary (not consecutive) genomes through
    /// the sliced unit, each lane cross-checked against the scalar spec,
    /// the scalar RTL unit, and the 64-lane and wide sweep kernels' blocks
    /// at that genome.
    #[test]
    fn random_genomes_agree_across_all_four_paths(
        raw in prop::collection::vec(0u64..=GENOME_MASK, LANES),
    ) {
        let spec = FitnessSpec::paper();
        let rtl = FitnessUnit::paper();
        let sliced = FitnessUnitXW::<u64>::paper();
        let mut kernel = BlockKernel::new(spec);
        let mut wide = BlockKernelW::<SweepPlane>::new(spec);
        let mut lanes = [0u64; LANES];
        lanes.copy_from_slice(&raw);
        let scores = sliced.evaluate_lanes(&lanes);
        for (l, &genome) in raw.iter().enumerate() {
            let scalar = spec.evaluate(Genome::from_bits(genome));
            prop_assert_eq!(scalar, rtl.evaluate(Genome::from_bits(genome)));
            prop_assert!(scalar == scores[l], "sliced lane {} of {:#011x}", l, genome);
            let swept =
                kernel.block_fitness(genome / LANES as u64)[(genome % LANES as u64) as usize];
            prop_assert!(scalar == swept, "sweep kernel at {:#011x}", genome);
            let wide_swept = sweep_fitness(&mut wide, genome);
            prop_assert!(scalar == wide_swept, "wide sweep kernel at {:#011x}", genome);
        }
    }

    /// Whole consecutive blocks: every lane of a random block scored by
    /// the sweep kernel equals the scalar spec on base + lane.
    #[test]
    fn consecutive_blocks_agree_lane_by_lane(
        block in 0u64..(1u64 << (GENOME_BITS - 6)),
    ) {
        let spec = FitnessSpec::paper();
        let mut kernel = BlockKernel::new(spec);
        let fitness = kernel.block_fitness(block);
        for (l, &f) in fitness.iter().enumerate() {
            let g = Genome::from_bits(block * LANES as u64 + l as u64);
            prop_assert!(f == spec.evaluate(g), "block {} lane {}", block, l);
        }
    }
}
