//! Generic subspace landscape sweeps: exhaustively score the low
//! `2^subspace_bits` genomes of any registered problem through its batch
//! kernel, sharded and threaded like the full gait landscape sweep.
//!
//! The shard plan is the landscape crate's [`ShardPlan`] — a balanced
//! contiguous partition of 64-genome blocks that depends only on
//! `(subspace_bits, shard count)`. Within a shard the kernel scores
//! `P::LANES` lane-major genomes per step; shard results (histogram +
//! arg-max) merge in shard-index order, so the summary is bit-identical
//! at every plane width, shard count and thread count — property the
//! crate tests and the e17 experiment both pin.

use crate::registry::ProblemSpec;
use leonardo_landscape::shard::{Shard, ShardPlan};
use leonardo_rtl::bitslice::Plane;

/// The merged result of one subspace sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// The swept problem's registered name.
    pub problem: &'static str,
    /// Width of the swept subspace in genome bits.
    pub subspace_bits: u32,
    /// `histogram[f]` = number of genomes scoring exactly `f`.
    pub histogram: Vec<u64>,
    /// Best fitness observed.
    pub best_fitness: u32,
    /// Lowest genome achieving `best_fitness`.
    pub best_genome: u64,
}

impl SweepSummary {
    /// Total genomes swept (the histogram mass).
    pub fn genomes(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Number of genomes at the best observed fitness.
    pub fn best_count(&self) -> u64 {
        self.histogram[self.best_fitness as usize]
    }
}

/// Per-shard partial result, merged in shard-index order.
struct ShardResult {
    histogram: Vec<u64>,
    best: Option<(u32, u64)>,
}

/// Exhaustively score genomes `0..2^subspace_bits` of `spec` through its
/// width-`P` kernel over `num_shards` shards on `threads` workers (0 =
/// one per core).
///
/// # Panics
/// Panics if `subspace_bits` exceeds the problem width or the shard
/// plan's supported range (6..=36 bits).
pub fn subspace_sweep<P: Plane>(
    spec: &'static ProblemSpec,
    subspace_bits: u32,
    num_shards: usize,
    threads: usize,
) -> SweepSummary {
    assert!(
        subspace_bits as usize <= spec.width,
        "subspace exceeds the {}-bit genome of {}",
        spec.width,
        spec.name
    );
    let plan = ShardPlan::new(subspace_bits, num_shards);
    let end = plan.total_genomes();
    let partials = leonardo_exec::ordered_map_range(threads, plan.len(), |i| {
        sweep_shard::<P>(spec, &plan.shards()[i], end)
    });
    let mut histogram = vec![0u64; spec.max_fitness as usize + 1];
    let mut best: Option<(u32, u64)> = None;
    for p in partials {
        for (h, n) in histogram.iter_mut().zip(&p.histogram) {
            *h += n;
        }
        // shards cover ascending ranges, so on fitness ties the earlier
        // (lower-genome) holder is kept
        if let Some((f, g)) = p.best {
            if best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, g));
            }
        }
    }
    let (best_fitness, best_genome) = best.expect("a sweep covers at least one block");
    SweepSummary {
        problem: spec.name,
        subspace_bits,
        histogram,
        best_fitness,
        best_genome,
    }
}

/// Scan one shard's genome range through a fresh kernel.
fn sweep_shard<P: Plane>(spec: &ProblemSpec, shard: &Shard, end: u64) -> ShardResult {
    let mut kernel = spec.kernel::<P>();
    let mut histogram = vec![0u64; spec.max_fitness as usize + 1];
    let mut best: Option<(u32, u64)> = None;
    let (start, stop) = (shard.start_block * 64, shard.end_block * 64);
    let mut first = start;
    let mut batch = vec![0u64; P::LANES];
    while first < stop {
        for (l, g) in batch.iter_mut().enumerate() {
            *g = first + l as u64;
        }
        let scores = kernel.score_batch(&batch);
        // the tail chunk of the last shard may poke past the subspace;
        // count only the lanes inside both the shard and the subspace
        let valid = (stop.min(end) - first).min(P::LANES as u64) as usize;
        for (l, &f) in scores.iter().take(valid).enumerate() {
            histogram[f as usize] += 1;
            if best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, first + l as u64));
            }
        }
        first += P::LANES as u64;
    }
    ShardResult { histogram, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::problem_registry;
    use evo::evolvable::EvolvableProblem;
    use leonardo_rtl::bitslice::{W256, W512};

    fn spec(name: &str) -> &'static ProblemSpec {
        ProblemSpec::find(name).expect("registered")
    }

    #[test]
    fn sweep_matches_a_scalar_scan() {
        // 2^10 genomes of the serial adder, checked genome by genome
        let s = spec("serial_adder");
        let got = subspace_sweep::<u64>(s, 10, 3, 2);
        let p = (s.make)();
        let mut histogram = vec![0u64; s.max_fitness as usize + 1];
        let mut best = (0u32, 0u64);
        for g in 0..1u64 << 10 {
            let f = p.fitness(g);
            histogram[f as usize] += 1;
            if f > best.0 {
                best = (f, g);
            }
        }
        assert_eq!(got.histogram, histogram);
        assert_eq!((got.best_fitness, got.best_genome), best);
        assert_eq!(got.genomes(), 1 << 10);
    }

    #[test]
    fn sweep_is_width_shard_and_thread_unobservable() {
        let s = spec("fsm_traces");
        let base = subspace_sweep::<u64>(s, 12, 1, 1);
        assert_eq!(base, subspace_sweep::<u64>(s, 12, 7, 4));
        assert_eq!(base, subspace_sweep::<W256>(s, 12, 3, 2));
        // 2^12 genomes in one W512 chunk sequence with a ragged tail
        assert_eq!(base, subspace_sweep::<W512>(s, 12, 5, 0));
    }

    #[test]
    fn full_serial_adder_space_contains_the_optimum() {
        let s = spec("serial_adder");
        let sweep = subspace_sweep::<W256>(s, 16, 4, 0);
        assert_eq!(sweep.best_fitness, s.max_fitness);
        assert_eq!(sweep.genomes(), 1 << 16);
        let p = (s.make)();
        assert_eq!(p.fitness(sweep.best_genome), s.max_fitness);
        // the known optimum is one of the perfect machines the sweep saw
        assert!(sweep.best_count() >= 1);
        assert!(sweep.best_genome <= p.known_optimum().unwrap());
    }

    #[test]
    fn gait_subspace_histogram_mass_is_exact() {
        let s = spec("gait");
        let sweep = subspace_sweep::<u64>(s, 8, 2, 1);
        assert_eq!(sweep.genomes(), 256);
        assert_eq!(sweep.histogram.len(), 27);
    }

    #[test]
    fn every_registered_problem_sweeps() {
        for s in problem_registry() {
            let out = subspace_sweep::<u64>(s, 6, 1, 1);
            assert_eq!(out.genomes(), 64, "{}", s.name);
            assert!(out.best_fitness <= s.max_fitness, "{}", s.name);
        }
    }

    #[test]
    #[should_panic(expected = "subspace exceeds")]
    fn oversized_subspace_is_rejected() {
        let _ = subspace_sweep::<u64>(spec("serial_adder"), 17, 1, 1);
    }
}
