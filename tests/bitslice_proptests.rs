//! Property-based lane-equivalence for the bit-sliced primitives: for
//! arbitrary seeds, genomes, clocking schedules and lane masks, every
//! lane of the SWAR units behaves exactly like the scalar RTL unit.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::{Genome, GENOME_MASK};
use leonardo_rtl::bitslice::{
    CaRngXW, FitnessUnitXW, GapRtlXW, GapRtlXWConfig, Plane, LANES, W128, W256, W512,
};
use leonardo_rtl::fitness_rtl::FitnessUnit;
use leonardo_rtl::rng_rtl::CaRngRtl;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random seeds, random masked clocking schedule: every lane of the
    /// sliced CA RNG emits the scalar `CaRngRtl` word stream.
    #[test]
    fn sliced_ca_rng_matches_scalar_on_every_lane(
        all_seeds in prop::collection::vec(any::<u32>(), LANES),
        n_lanes in 1usize..=LANES,
        schedule in prop::collection::vec(any::<u64>(), 40),
    ) {
        let seeds = &all_seeds[..n_lanes];
        let mut sliced = CaRngXW::<u64>::new(seeds);
        let mut scalars: Vec<CaRngRtl> =
            seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
        let mut clocks = vec![0u64; seeds.len()];
        for mask in schedule {
            sliced.clock(mask);
            for (l, s) in scalars.iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    s.clock();
                    clocks[l] += 1;
                }
                prop_assert!(
                    sliced.lane_word(l) == s.word(),
                    "lane {} after {} clocks", l, clocks[l]
                );
            }
        }
    }

    /// Random genomes on every lane: the sliced fitness network scores
    /// each lane exactly like the scalar combinational unit.
    #[test]
    fn sliced_fitness_matches_scalar_on_every_lane(
        raw in prop::collection::vec(0u64..=GENOME_MASK, LANES),
    ) {
        let mut genomes = [0u64; LANES];
        genomes.copy_from_slice(&raw);
        let sliced = FitnessUnitXW::<u64>::paper();
        let scalar = FitnessUnit::paper();
        let scores = sliced.evaluate_lanes(&genomes);
        for l in 0..LANES {
            prop_assert!(
                scores[l] == scalar.evaluate(Genome::from_bits(genomes[l])),
                "lane {}: sliced {} vs scalar", l, scores[l]
            );
        }
    }

    /// Weighted specs too — the per-lane recombination is exact integer
    /// arithmetic, not an approximation of the paper's unit weights.
    #[test]
    fn sliced_fitness_matches_scalar_under_random_weights(
        raw in prop::collection::vec(0u64..=GENOME_MASK, LANES),
        we in 0u32..5, ws in 0u32..5, wc in 0u32..5,
    ) {
        let mut genomes = [0u64; LANES];
        genomes.copy_from_slice(&raw);
        let spec = FitnessSpec {
            equilibrium_weight: we,
            symmetry_weight: ws,
            coherence_weight: wc,
        };
        let scores = FitnessUnitXW::<u64>::new(spec).evaluate_lanes(&genomes);
        let scalar = FitnessUnit::new(spec);
        for l in 0..LANES {
            prop_assert_eq!(scores[l], scalar.evaluate(Genome::from_bits(genomes[l])));
        }
    }

    /// The wide planes obey the same per-lane contract: random seeds and
    /// a random masked clocking schedule on the 256-lane CA RNG, every
    /// lane against its scalar generator.
    #[test]
    fn wide_ca_rng_matches_scalar_on_every_lane(
        all_seeds in prop::collection::vec(any::<u32>(), 256),
        schedule in prop::collection::vec(prop::collection::vec(any::<u64>(), 4), 12),
    ) {
        let mut sliced = CaRngXW::<W256>::new(&all_seeds);
        let mut scalars: Vec<CaRngRtl> =
            all_seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
        for words in schedule {
            let mask = W256::from_words(|w| words[w]);
            sliced.clock(mask);
            for (l, s) in scalars.iter_mut().enumerate() {
                if mask.bit(l) {
                    s.clock();
                }
                prop_assert!(sliced.lane_word(l) == s.word(), "w256 lane {}", l);
            }
        }
    }

    /// Random genomes across all 512 lanes of the widest fitness
    /// network: every lane scores exactly like the scalar unit.
    #[test]
    fn wide_fitness_matches_scalar_on_every_lane(
        genomes in prop::collection::vec(0u64..=GENOME_MASK, 512),
    ) {
        let scores = FitnessUnitXW::<W512>::paper().evaluate_lanes(&genomes);
        let scalar = FitnessUnit::paper();
        for (l, (&g, &got)) in genomes.iter().zip(&scores).enumerate() {
            prop_assert!(
                got == scalar.evaluate(Genome::from_bits(g)),
                "w512 lane {}: sliced {}", l, got
            );
        }
    }

    /// SEU injection through a wide (multi-limb) lane mask flips exactly
    /// the addressed bit in the masked lanes and nothing anywhere else —
    /// the 128-lane version of the u64 property below.
    #[test]
    fn wide_seu_mask_flips_exactly_the_masked_lanes(
        pos in 0usize..1152,
        lo in any::<u64>(),
        hi in any::<u64>(),
    ) {
        let seeds: Vec<u32> = (0..128u32).map(|i| 0x77 + 13 * i).collect();
        let mut gap = GapRtlXW::<W128>::new(GapRtlXWConfig::paper(), &seeds);
        let before: Vec<_> = (0..128).map(|l| gap.population(l)).collect();
        let mask = W128::from_words(|w| if w == 0 { lo } else { hi });
        gap.inject_upset(pos, mask);
        for (l, before_l) in before.iter().enumerate() {
            let after = gap.population(l);
            let flips: u32 = before_l
                .genomes()
                .iter()
                .zip(after.genomes())
                .map(|(a, b)| a.hamming_distance(*b))
                .sum();
            if mask.bit(l) {
                prop_assert!(flips == 1, "w128 lane {}: {} flips", l, flips);
            } else {
                prop_assert!(flips == 0, "w128 lane {} must hold", l);
            }
        }
    }

    /// SEU injection through an arbitrary lane mask flips exactly the
    /// addressed bit in the masked lanes and nothing anywhere else.
    #[test]
    fn seu_lane_mask_flips_exactly_the_masked_lanes(
        pos in 0usize..1152,
        mask in any::<u64>(),
    ) {
        let seeds: Vec<u32> = (0..LANES as u32).map(|i| 0x77 + 13 * i).collect();
        let mut gap = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
        let before: Vec<_> = (0..LANES).map(|l| gap.population(l)).collect();
        gap.inject_upset(pos, mask);
        for (l, before_l) in before.iter().enumerate() {
            let after = gap.population(l);
            let flips: u32 = before_l
                .genomes()
                .iter()
                .zip(after.genomes())
                .map(|(a, b)| a.hamming_distance(*b))
                .sum();
            if mask >> l & 1 == 1 {
                prop_assert!(flips == 1, "lane {}: {} flips", l, flips);
                prop_assert!(
                    before_l.get(pos / 36).bit(pos % 36)
                        != after.get(pos / 36).bit(pos % 36),
                    "lane {}: wrong bit flipped", l
                );
            } else {
                prop_assert!(flips == 0, "lane {} must hold, saw {} flips", l, flips);
            }
        }
    }
}
