//! Cross-problem conformance: every problem in the registry keeps the
//! contract the generic drivers rely on.
//!
//! For every [`problem_registry`] entry — gait, fsm_traces, serial_adder
//! — this suite pins, at all four plane widths:
//!
//! * scalar fitness == batch-kernel fitness, lane by lane, over more
//!   than 10^4 deterministic genomes plus the corner genomes;
//! * the same equality on proptest-generated batches;
//! * decode/encode round-trips: `round_trip` is the masked identity,
//!   bits above the genome width never change fitness;
//! * the registered shape (name, width, max fitness) matches the
//!   instance, the known optimum scores maximal, and no probe fails.
//!
//! The analysis gate's `check_problems` lint verifies this file names
//! every registered problem, so a new problem cannot ship without being
//! pinned here.

use evo::evolvable::EvolvableProblem;
use leonardo_problems::{problem_registry, ProblemSpec};
use leonardo_rtl::bitslice::{Plane, W128, W256, W512};
use proptest::prelude::*;

/// Every problem this suite pins — kept equal to the registry by
/// `suite_covers_the_whole_registry` below, and greppable by the
/// analysis gate's coverage lint.
const COVERED: &[&str] = &["gait", "fsm_traces", "serial_adder"];

/// Deterministic genome scatter: `n` LCG draws plus the corner genomes.
fn scatter(n: usize, salt: u64) -> Vec<u64> {
    let mut g: Vec<u64> = (0..n as u64)
        .map(|i| {
            (i ^ salt)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                .rotate_left(23)
        })
        .collect();
    g.extend([
        0,
        u64::MAX,
        0xAAAA_AAAA_AAAA_AAAA,
        0x5555_5555_5555_5555,
        1,
        u64::MAX >> 1,
    ]);
    g
}

/// Pin kernel-vs-scalar equality for `spec` at width `P` over `genomes`,
/// batch by batch, lane by lane.
fn pin_kernel_against_scalar<P: Plane>(spec: &'static ProblemSpec, genomes: &[u64]) {
    let problem = (spec.make)();
    let mut kernel = spec.kernel::<P>();
    assert_eq!(kernel.width(), spec.width, "{}", spec.name);
    for batch in genomes.chunks(P::LANES) {
        // ragged tail: pad with the batch's first genome
        let mut lanes = batch.to_vec();
        lanes.resize(P::LANES, batch[0]);
        let scores = kernel.score_batch(&lanes);
        for (l, (&g, &got)) in lanes.iter().zip(&scores).enumerate() {
            assert_eq!(
                got,
                problem.fitness(g),
                "{}: {} lane {l} of genome {g:#x}",
                spec.name,
                P::NAME
            );
        }
    }
}

#[test]
fn suite_covers_the_whole_registry() {
    let registered: Vec<&str> = problem_registry().iter().map(|s| s.name).collect();
    assert_eq!(
        COVERED, registered,
        "a problem joined (or left) the registry without a conformance pin"
    );
}

#[test]
fn kernels_match_scalar_on_ten_thousand_genomes_at_every_width() {
    // 10 240 LCG genomes + corners per problem, all four widths
    for spec in problem_registry() {
        let genomes = scatter(10_240, 0xC0 ^ spec.width as u64);
        assert!(genomes.len() > 10_000);
        pin_kernel_against_scalar::<u64>(spec, &genomes);
        pin_kernel_against_scalar::<W128>(spec, &genomes);
        pin_kernel_against_scalar::<W256>(spec, &genomes);
        pin_kernel_against_scalar::<W512>(spec, &genomes);
    }
}

#[test]
fn round_trips_are_the_masked_identity() {
    for spec in problem_registry() {
        let problem = (spec.make)();
        let mask = problem.mask();
        for g in scatter(512, 0x51) {
            assert_eq!(problem.round_trip(g), g & mask, "{}: {g:#x}", spec.name);
            assert_eq!(
                problem.fitness(g),
                problem.fitness(g & mask),
                "{}: bits above the width changed the fitness of {g:#x}",
                spec.name
            );
        }
    }
}

#[test]
fn registered_shape_optimum_and_probe_hold() {
    for spec in problem_registry() {
        let problem = (spec.make)();
        assert_eq!(problem.name(), spec.name);
        assert_eq!(problem.width(), spec.width);
        assert_eq!(problem.max_fitness(), Some(spec.max_fitness));
        if let Some(opt) = problem.known_optimum() {
            assert_eq!(problem.fitness(opt), spec.max_fitness, "{}", spec.name);
            assert!(!problem.describe(opt).is_empty());
        }
        (spec.probe)().unwrap_or_else(|e| panic!("{}: probe failed: {e}", spec.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary genome batches: every lane of every kernel equals the
    /// scalar fitness, at the narrowest and widest plane widths.
    #[test]
    fn kernels_match_scalar_on_arbitrary_batches(
        genomes in prop::collection::vec(any::<u64>(), 64),
    ) {
        for spec in problem_registry() {
            let problem = (spec.make)();
            let mut k64 = spec.kernel::<u64>();
            let scores = k64.score_batch(&genomes);
            for (l, (&g, &got)) in genomes.iter().zip(&scores).enumerate() {
                prop_assert!(got == problem.fitness(g), "{}: u64 lane {}", spec.name, l);
            }
            let mut wide = genomes.clone();
            wide.resize(512, genomes[0]);
            let mut k512 = spec.kernel::<W512>();
            let scores = k512.score_batch(&wide);
            for (l, (&g, &got)) in wide.iter().zip(&scores).enumerate() {
                prop_assert!(got == problem.fitness(g), "{}: w512 lane {}", spec.name, l);
            }
        }
    }

    /// Arbitrary genomes: round-trip stays the masked identity and
    /// fitness stays within the registered maximum.
    #[test]
    fn fitness_is_bounded_and_round_trip_masks(genome in any::<u64>()) {
        for spec in problem_registry() {
            let problem = (spec.make)();
            prop_assert!(problem.fitness(genome) <= spec.max_fitness, "{}", spec.name);
            prop_assert!(
                problem.round_trip(genome) == genome & problem.mask(),
                "{}",
                spec.name
            );
        }
    }
}
