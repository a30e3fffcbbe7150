//! Width-generic batch kernels: score `P::LANES` genomes per call.
//!
//! A [`ProblemKernel`] is the bit-parallel counterpart of a registry
//! problem's scalar fitness, generic over the [`Plane`] width exactly
//! like the rtl engines: one plane per genome bit, boolean algebra over
//! whole lanes. Every kernel must score lane `l` of a batch exactly as
//! the scalar [`EvolvableProblem::fitness`](evo::evolvable::EvolvableProblem::fitness)
//! scores the same genome — the cross-problem conformance suite and the
//! analysis gate's registry probes both pin that equality lane-by-lane.
//!
//! [`GaitKernel`] reuses the rtl crate's sliced fitness network
//! unchanged. [`MealyKernel`] is new machinery: the trace replay runs
//! with the machine *state* held in bit-sliced planes, the per-state
//! transition selects as mask algebra, and matched output bits
//! accumulated in a carry-save counter — `P::LANES` candidate machines
//! replay the whole suite simultaneously.

use crate::mealy::MealyProblem;
use leonardo_rtl::bitslice::transpose::transposed_planes;
use leonardo_rtl::bitslice::{FitnessUnitXW, Plane};

/// A batch fitness kernel over one plane width: scores the `P::LANES`
/// lane-major genomes of a batch exactly like the scalar problem.
pub trait ProblemKernel<P: Plane>: Send {
    /// Genome width in bits; lane bits at or above it are ignored.
    fn width(&self) -> usize;

    /// Fitness of each of exactly `P::LANES` lane-major genomes.
    ///
    /// # Panics
    /// Panics if `genomes.len() != P::LANES`.
    fn score_batch(&mut self, genomes: &[u64]) -> Vec<u32>;
}

/// A registered problem's kernel family, independent of the plane width:
/// [`Self::build`] makes its kernel at any [`Plane`].
#[derive(Debug, Clone)]
pub enum KernelFamily {
    /// The rtl crate's sliced gait network ([`GaitKernel`]).
    Gait,
    /// The trace replay of one Mealy problem ([`MealyKernel`]).
    Mealy(MealyProblem),
}

impl KernelFamily {
    /// The family's kernel at plane width `P`.
    pub fn build<P: Plane>(self) -> Box<dyn ProblemKernel<P>> {
        match self {
            KernelFamily::Gait => Box::new(GaitKernel::paper()),
            KernelFamily::Mealy(problem) => Box::new(MealyKernel::new(problem)),
        }
    }
}

/// The gait problem's kernel: the rtl bit-sliced fitness network.
#[derive(Debug, Clone)]
pub struct GaitKernel<P: Plane> {
    unit: FitnessUnitXW<P>,
}

impl<P: Plane> GaitKernel<P> {
    /// The paper's rule network.
    pub fn paper() -> GaitKernel<P> {
        GaitKernel {
            unit: FitnessUnitXW::paper(),
        }
    }
}

impl<P: Plane> ProblemKernel<P> for GaitKernel<P> {
    fn width(&self) -> usize {
        discipulus::genome::GENOME_BITS
    }

    fn score_batch(&mut self, genomes: &[u64]) -> Vec<u32> {
        assert_eq!(genomes.len(), P::LANES, "one genome per lane");
        self.unit.evaluate_lanes(genomes)
    }
}

/// Add one sliced bit into a little-endian carry-save counter.
///
/// # Panics
/// Debug-asserts the counter does not overflow.
fn counter_add<P: Plane>(counter: &mut [P], mut bit: P) {
    for c in counter.iter_mut() {
        let carry = *c & bit;
        *c ^= bit;
        bit = carry;
    }
    debug_assert!(bit.is_zero(), "carry-save counter overflow");
}

/// The Mealy trace-replay kernel: `P::LANES` candidate machines replayed
/// over the whole trace suite at once, states and scores bit-sliced.
#[derive(Debug, Clone)]
pub struct MealyKernel<P: Plane> {
    problem: MealyProblem,
    _plane: core::marker::PhantomData<P>,
}

impl<P: Plane> MealyKernel<P> {
    /// A kernel replaying `problem`'s trace suite.
    pub fn new(problem: MealyProblem) -> MealyKernel<P> {
        MealyKernel {
            problem,
            _plane: core::marker::PhantomData,
        }
    }

    /// Score a batch presented as transposed genome-bit planes.
    fn score_planes(&self, planes: &[P]) -> Vec<u32> {
        let p = &self.problem;
        let sb = p.state_bits();
        // enough counter planes for every step to match
        let total = p.total_steps();
        let counter_width = (usize::BITS - total.leading_zeros()) as usize;
        let mut counter = vec![P::ZERO; counter_width];
        for trace in p.traces() {
            // reset: every lane's machine starts in state 0
            let mut state = vec![P::ZERO; sb];
            for (&input, &expected) in trace.inputs.iter().zip(&trace.outputs) {
                let mut out = P::ZERO;
                let mut next = vec![P::ZERO; sb];
                for s in 0..p.states() {
                    // lanes currently in state s: AND of per-bit XNORs
                    let mut sel = P::ONES;
                    for (b, st) in state.iter().enumerate() {
                        sel &= !(*st ^ P::splat(s >> b & 1 == 1));
                    }
                    let off = p.pair_offset(s, input as usize);
                    out |= sel & planes[off + sb];
                    for (b, nx) in next.iter_mut().enumerate() {
                        *nx |= sel & planes[off + b];
                    }
                }
                counter_add(&mut counter, !(out ^ P::splat(expected)));
                state = next;
            }
        }
        let mut scores = vec![0u32; P::LANES];
        for (bit, plane) in counter.iter().enumerate() {
            plane.for_each_set_lane(|l| scores[l] += 1 << bit);
        }
        scores
    }
}

impl<P: Plane> ProblemKernel<P> for MealyKernel<P> {
    fn width(&self) -> usize {
        evo::evolvable::EvolvableProblem::width(&self.problem)
    }

    fn score_batch(&mut self, genomes: &[u64]) -> Vec<u32> {
        assert_eq!(genomes.len(), P::LANES, "one genome per lane");
        let mut planes = vec![P::ZERO; self.width()];
        transposed_planes(genomes, &mut planes);
        self.score_planes(&planes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gait::GaitProblem;
    use evo::evolvable::EvolvableProblem;
    use leonardo_rtl::bitslice::{W128, W256, W512};

    fn sample_genomes(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                (i ^ salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
            })
            .collect()
    }

    fn check_kernel_matches_scalar<P: Plane>(
        problem: &dyn EvolvableProblem,
        kernel: &mut dyn ProblemKernel<P>,
        salt: u64,
    ) {
        let genomes = sample_genomes(P::LANES, salt);
        let scores = kernel.score_batch(&genomes);
        for (l, (&g, &got)) in genomes.iter().zip(&scores).enumerate() {
            assert_eq!(got, problem.fitness(g), "lane {l} genome {g:#x}");
        }
    }

    #[test]
    fn gait_kernel_matches_scalar_at_every_width() {
        let p = GaitProblem::paper();
        check_kernel_matches_scalar::<u64>(&p, &mut GaitKernel::paper(), 1);
        check_kernel_matches_scalar::<W128>(&p, &mut GaitKernel::paper(), 2);
        check_kernel_matches_scalar::<W256>(&p, &mut GaitKernel::paper(), 3);
        check_kernel_matches_scalar::<W512>(&p, &mut GaitKernel::paper(), 4);
    }

    #[test]
    fn mealy_kernels_match_scalar_at_every_width() {
        for p in [MealyProblem::fsm_traces(), MealyProblem::serial_adder()] {
            check_kernel_matches_scalar::<u64>(&p, &mut MealyKernel::new(p.clone()), 5);
            check_kernel_matches_scalar::<W128>(&p, &mut MealyKernel::new(p.clone()), 6);
            check_kernel_matches_scalar::<W256>(&p, &mut MealyKernel::new(p.clone()), 7);
            check_kernel_matches_scalar::<W512>(&p, &mut MealyKernel::new(p.clone()), 8);
        }
    }

    #[test]
    fn mealy_kernel_scores_the_optimum_maximal_in_every_lane() {
        let p = MealyProblem::fsm_traces();
        let opt = p.known_optimum().unwrap();
        let mut k = MealyKernel::<u64>::new(p.clone());
        let scores = k.score_batch(&vec![opt; 64]);
        assert!(scores.iter().all(|&s| s == 64));
    }

    #[test]
    fn counter_add_counts() {
        let mut counter = [0u64; 3];
        for _ in 0..7 {
            counter_add(&mut counter, !0u64);
        }
        // every lane counted to 7 = 0b111
        assert_eq!(counter, [!0u64; 3]);
        let mut partial = [0u64; 2];
        counter_add(&mut partial, 0b101);
        counter_add(&mut partial, 0b001);
        assert_eq!(partial, [0b100, 0b001]);
    }
}
