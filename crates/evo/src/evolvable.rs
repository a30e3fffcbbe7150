//! The width-generic evolvable-problem abstraction.
//!
//! [`Problem`] scores arbitrary-width
//! [`BitString`] genomes with an `f64` — the right shape for the software
//! GA toolbox, but too loose for the repo's bit-exact differential pins:
//! the hardware-style workloads (the gait rules, FSM synthesis from I/O
//! traces, sequential-logic benchmarks) all score **integer** fitness
//! over genomes that fit one machine word, and each wants a bit-parallel
//! batch kernel pinned lane-by-lane to its scalar definition.
//!
//! [`EvolvableProblem`] is that tighter contract: a named problem over
//! `u64` genomes of a fixed width (≤ 64 bits) with exact `u32` fitness,
//! an optional known optimum, and a decode to a human-readable artefact
//! description. It is object-safe, so problem catalogs can hold
//! `Box<dyn EvolvableProblem>` entries, and [`Evolvable`] adapts any
//! instance back onto the [`Problem`] trait —
//! `u32 → f64` is exact, so a GA run through the adapter is bit-identical
//! to one over a hand-written `Problem` with the same arithmetic.

use crate::genome::BitString;
use crate::problem::Problem;

/// A named optimization problem over single-word bit genomes: integer
/// fitness (maximized), fixed width ≤ 64 bits.
///
/// Implementations must be deterministic — the same genome always scores
/// the same fitness — and pure; the analysis gate's problem registry
/// probes double-evaluate to enforce this.
pub trait EvolvableProblem {
    /// Short stable identifier (`"gait"`, `"fsm_traces"`, …) used by
    /// registries, manifests and the server API.
    fn name(&self) -> &'static str;

    /// Genome width in bits, `1..=64`. Bits at or above the width are
    /// ignored by [`Self::fitness`].
    fn width(&self) -> usize;

    /// Exact fitness of a genome (higher is better).
    fn fitness(&self, genome: u64) -> u32;

    /// The maximum attainable fitness, when known.
    fn max_fitness(&self) -> Option<u32> {
        None
    }

    /// A genome known to score [`Self::max_fitness`], when one is known
    /// in closed form (the tripod gait, the textbook serial adder).
    fn known_optimum(&self) -> Option<u64> {
        None
    }

    /// Decode a genome into a human-readable description of the artefact
    /// it encodes (a gait table, an FSM transition table).
    fn describe(&self, genome: u64) -> String {
        format!("{:#x}", genome & self.mask())
    }

    /// Decode the genome into the problem's phenotype and encode it
    /// back. The default is the masked identity; problems whose decode
    /// is a nontrivial structure (FSM transition tables) override this
    /// with a genuine decode→encode round trip, and the conformance
    /// suite pins `round_trip(g) == g & mask()` for every registered
    /// problem.
    fn round_trip(&self, genome: u64) -> u64 {
        genome & self.mask()
    }

    /// The width-bit genome mask.
    fn mask(&self) -> u64 {
        let w = self.width();
        assert!((1..=64).contains(&w), "genome width must be in 1..=64");
        if w == 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }
}

impl<E: EvolvableProblem + ?Sized> EvolvableProblem for &E {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn fitness(&self, genome: u64) -> u32 {
        (**self).fitness(genome)
    }

    fn max_fitness(&self) -> Option<u32> {
        (**self).max_fitness()
    }

    fn known_optimum(&self) -> Option<u64> {
        (**self).known_optimum()
    }

    fn describe(&self, genome: u64) -> String {
        (**self).describe(genome)
    }

    fn round_trip(&self, genome: u64) -> u64 {
        (**self).round_trip(genome)
    }
}

impl<E: EvolvableProblem + ?Sized> EvolvableProblem for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn fitness(&self, genome: u64) -> u32 {
        (**self).fitness(genome)
    }

    fn max_fitness(&self) -> Option<u32> {
        (**self).max_fitness()
    }

    fn known_optimum(&self) -> Option<u64> {
        (**self).known_optimum()
    }

    fn describe(&self, genome: u64) -> String {
        (**self).describe(genome)
    }

    fn round_trip(&self, genome: u64) -> u64 {
        (**self).round_trip(genome)
    }
}

/// Adapter presenting an [`EvolvableProblem`] as a
/// [`Problem`], so every searcher in this crate
/// (the generational GA, the baselines, islands, sweeps) runs unchanged.
///
/// The conversion is exact in both directions that matter: genomes of
/// ≤ 64 bits round-trip through [`BitString::to_u64`], and every `u32`
/// fitness is exactly representable as `f64` — a GA over the adapter
/// draws the same RNG sequence and takes the same decisions as one over
/// a direct `Problem` with identical arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Evolvable<E>(pub E);

impl<E: EvolvableProblem> Evolvable<E> {
    /// The adapted problem.
    pub fn inner(&self) -> &E {
        &self.0
    }
}

impl<E: EvolvableProblem> Problem for Evolvable<E> {
    fn width(&self) -> usize {
        self.0.width()
    }

    fn fitness(&self, genome: &BitString) -> f64 {
        f64::from(self.0.fitness(genome.to_u64()))
    }

    fn max_fitness(&self) -> Option<f64> {
        self.0.max_fitness().map(f64::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{Ga, GaConfig};
    use crate::problem::{FnProblem, OneMax};

    /// OneMax restated through the evolvable contract.
    struct OneMaxWord(usize);

    impl EvolvableProblem for OneMaxWord {
        fn name(&self) -> &'static str {
            "onemax_word"
        }

        fn width(&self) -> usize {
            self.0
        }

        fn fitness(&self, genome: u64) -> u32 {
            (genome & self.mask()).count_ones()
        }

        fn max_fitness(&self) -> Option<u32> {
            Some(self.0 as u32)
        }

        fn known_optimum(&self) -> Option<u64> {
            Some(self.mask())
        }
    }

    #[test]
    fn adapter_matches_direct_problem_bit_for_bit() {
        // identical arithmetic ⇒ identical RNG draws ⇒ identical history
        let direct = Ga::new(GaConfig::default(), OneMax(24), 42).run(300, None);
        let adapted = Ga::new(GaConfig::default(), Evolvable(OneMaxWord(24)), 42).run(300, None);
        assert_eq!(direct.best_genome, adapted.best_genome);
        assert_eq!(direct.best_fitness, adapted.best_fitness);
        assert_eq!(direct.evaluations, adapted.evaluations);
        assert_eq!(direct.history, adapted.history);
    }

    #[test]
    fn adapter_fitness_is_exact() {
        let p = Evolvable(OneMaxWord(16));
        assert_eq!(p.fitness(&BitString::from_u64(0xF0F, 16)), 8.0);
        assert_eq!(p.max_fitness(), Some(16.0));
        assert_eq!(p.width(), 16);
        assert_eq!(p.inner().known_optimum(), Some(0xFFFF));
    }

    #[test]
    fn mask_and_round_trip_defaults() {
        let p = OneMaxWord(12);
        assert_eq!(p.mask(), 0xFFF);
        assert_eq!(p.round_trip(0xABCDE), 0xBCDE & 0xFFF);
        assert_eq!(p.describe(0x1FFF), "0xfff");
        let full = OneMaxWord(64);
        assert_eq!(full.mask(), u64::MAX);
    }

    #[test]
    fn object_safety_and_forwarding() {
        let boxed: Box<dyn EvolvableProblem> = Box::new(OneMaxWord(8));
        assert_eq!(boxed.name(), "onemax_word");
        assert_eq!(boxed.fitness(0xFF), 8);
        assert_eq!(boxed.max_fitness(), Some(8));
        let by_ref = &boxed;
        assert_eq!(by_ref.width(), 8);
        assert_eq!(by_ref.round_trip(u64::MAX), 0xFF);
    }

    #[test]
    fn adapter_and_fn_problem_agree() {
        // the legacy way of expressing a word problem and the evolvable
        // way score every genome identically
        let legacy = FnProblem::new(10, |g: &BitString| f64::from(g.to_u64().count_ones()));
        let modern = Evolvable(OneMaxWord(10));
        for g in [0u64, 1, 0x3FF, 0x155, 0x2AA] {
            let bs = BitString::from_u64(g, 10);
            assert_eq!(legacy.fitness(&bs), modern.fitness(&bs));
        }
    }
}
