//! Integration tests of the static gate: the real design must lint
//! clean, its claim must sit in the paper's envelope, and genome
//! well-formedness must hold over the sampled 36-bit space.

use analysis::{check_genome, lint, well_formed, StaticGait};
use discipulus::genome::{Genome, LegId, StepId};
use leonardo_rtl::gap_rtl::GapRtlConfig;
use leonardo_rtl::netlist::Describe;
use leonardo_rtl::resources::PAPER_CLBS;
use leonardo_rtl::top::DiscipulusTop;
use proptest::prelude::*;

#[test]
fn real_design_lints_clean() {
    let chip = DiscipulusTop::new(GapRtlConfig::paper(1));
    let findings = lint::lint_design(&chip.design_netlist());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn every_unit_netlist_lints_clean_standalone() {
    use leonardo_rtl::bitslice::{CaRngXW, FitnessUnitXW, GapRtlXW, GapRtlXWConfig, RamXW};
    use leonardo_rtl::bitstream::ConfigLoader;
    use leonardo_rtl::fitness_rtl::FitnessUnit;
    use leonardo_rtl::primitives::{ModCounter, Ram, ShiftReg};
    use leonardo_rtl::pwm::{PwmChannel, ServoBank};
    use leonardo_rtl::rng_rtl::CaRngRtl;
    let netlists = vec![
        Ram::new(32, 36, true).netlist(),
        ModCounter::new(50_000).netlist(),
        ShiftReg::new(36).netlist(),
        CaRngRtl::new(1).netlist(),
        FitnessUnit::paper().netlist(),
        ConfigLoader::new().netlist(),
        PwmChannel::new().netlist(),
        ServoBank::new().netlist(),
        // the 64-lane batch engine's units (outside the single-chip
        // budget, hence linted standalone rather than packed)
        CaRngXW::<u64>::new(&[1]).netlist(),
        FitnessUnitXW::<u64>::paper().netlist(),
        RamXW::<u64>::new(32, 36).netlist(),
        GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &[1]).netlist(),
    ];
    for n in netlists {
        let findings = lint::lint_unit(&n);
        assert!(findings.is_empty(), "unit `{}`: {findings:#?}", n.unit);
    }
}

#[test]
fn claim_within_five_percent_of_paper() {
    let chip = DiscipulusTop::new(GapRtlConfig::paper(1));
    let packed = lint::packed_clbs(&chip.design_netlist());
    let divergence = (f64::from(packed) - f64::from(PAPER_CLBS)) / f64::from(PAPER_CLBS);
    assert!(
        divergence.abs() <= 0.05,
        "packed {packed} CLBs diverges {:.1}% from {PAPER_CLBS}",
        divergence * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every genome the CA PRNG can sample is structurally well-formed:
    /// leg genes tile the word exactly and the fitness decomposition is
    /// consistent — the invariant the population-path verification rests
    /// on.
    #[test]
    fn sampled_genomes_are_well_formed(bits in 0u64..(1 << 36)) {
        prop_assert!(well_formed(Genome::from_bits(bits)).is_ok());
    }

    /// The static FSM derivation is total and self-consistent: the derived
    /// leg programs re-encode to the genome that produced them.
    #[test]
    fn static_gait_roundtrips(bits in 0u64..(1 << 36)) {
        let g = Genome::from_bits(bits);
        let gait = StaticGait::derive(g);
        let mut reassembled = Genome::ZERO;
        for step in StepId::ALL {
            for leg in LegId::ALL {
                let ls = gait.leg(step, leg);
                let gene = discipulus::genome::LegGene {
                    pre: ls.pre,
                    horizontal: ls.horizontal,
                    post: ls.post,
                };
                reassembled = reassembled.with_leg_gene(step, leg, gene);
            }
        }
        prop_assert_eq!(reassembled, g);
    }

    /// An airborne-leg error implies the genome misses at least one
    /// coherence or symmetry check — trap states are never maximal.
    #[test]
    fn trap_states_never_score_maximum(bits in 0u64..(1 << 36)) {
        let g = Genome::from_bits(bits);
        let findings = check_genome(g);
        if findings.iter().any(|f| f.check == "airborne-leg") {
            prop_assert!(!discipulus::fitness::FitnessSpec::paper().is_max(g));
        }
    }
}
