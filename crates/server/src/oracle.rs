//! The landscape oracle: `GET /landscape` answered in closed form.
//!
//! The fitness splits into a left-leg and a right-leg part, so the
//! histogram of any `bits=K` subspace is the convolution of two side
//! histograms of at most 2¹⁸ genomes each
//! ([`leonardo_landscape::closed_form`]). Every query computes its answer
//! from scratch — two side passes through the sweep kernel, the
//! convolution of their histograms and the smallest pairs of
//! side-maximal genomes — and gets exactly the
//! [`Tally`](leonardo_landscape::Tally) a sweep of the subspace folds:
//! full fitness histogram, exact max-set count, and the canonical
//! ascending prefix of max-set samples. Nothing is cached and nothing
//! runs at server start, so every `bits` in 6..=36 costs about the same,
//! well under a millisecond.

use discipulus::fitness::FitnessSpec;
use leonardo_landscape::closed_form_tally;
use leonardo_landscape::kernel::{BlockKernel, BLOCK_GENOMES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Max-set samples included in a response.
pub const RESPONSE_SAMPLE_CAP: usize = 32;

/// One answered subspace query.
#[derive(Debug, Clone)]
pub struct SubspaceAnswer {
    /// Subspace width in genome bits.
    pub bits: u32,
    /// Genomes covered (`2^bits`).
    pub genomes: u64,
    /// Exact per-level histogram (index = fitness value).
    pub hist: Vec<u64>,
    /// The spec's maximum fitness.
    pub max_fitness: u32,
    /// Exact cardinality of the maximum-fitness set in the subspace.
    pub max_count: u64,
    /// The smallest `max_count.min(RESPONSE_SAMPLE_CAP)` maximal
    /// genomes, ascending.
    pub samples: Vec<u64>,
}

/// The oracle: a fitness spec and a count of the subspaces it answered.
pub struct LandscapeOracle {
    spec: FitnessSpec,
    hits: AtomicU64,
}

impl LandscapeOracle {
    /// An oracle over `spec`.
    pub fn new(spec: FitnessSpec) -> LandscapeOracle {
        LandscapeOracle {
            spec,
            hits: AtomicU64::new(0),
        }
    }

    /// Subspace queries answered so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Subspace queries that had to sweep: always 0, since every answer
    /// comes from the closed form. Kept next to [`Self::hits`] for
    /// callers that report a hit ratio.
    pub fn misses(&self) -> u64 {
        0
    }

    /// Exact landscape of the `2^bits` subspace (genomes `0..2^bits`).
    ///
    /// # Panics
    /// Panics if `bits` is outside `6..=36` (the handler validates
    /// before calling).
    pub fn subspace(&self, bits: u32) -> SubspaceAnswer {
        assert!((6..=36).contains(&bits), "subspace bits out of range");
        let tally = closed_form_tally(self.spec, 0..1 << (bits - 6), RESPONSE_SAMPLE_CAP);
        self.hits.fetch_add(1, Ordering::Relaxed);
        SubspaceAnswer {
            bits,
            genomes: 1 << bits,
            hist: tally.hist,
            max_fitness: self.spec.max_fitness(),
            max_count: tally.max_count,
            samples: tally.samples,
        }
    }

    /// Exact fitness of one genome, scored through the 64-lane block
    /// kernel (the block containing it is evaluated and its lane read
    /// out).
    pub fn genome_fitness(&self, genome: u64) -> u32 {
        assert!(genome < 1 << 36, "genome outside the 36-bit space");
        let mut kernel = BlockKernel::new(self.spec);
        let mut out = [0u32; BLOCK_GENOMES as usize];
        kernel.block_fitness_into(genome / BLOCK_GENOMES, &mut out);
        out[(genome % BLOCK_GENOMES) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::genome::Genome;

    fn oracle() -> LandscapeOracle {
        LandscapeOracle::new(FitnessSpec::paper())
    }

    #[test]
    fn small_subspace_matches_scalar_brute_force() {
        let spec = FitnessSpec::paper();
        let answer = oracle().subspace(12);
        let mut hist = vec![0u64; spec.max_fitness() as usize + 1];
        let mut max = Vec::new();
        for g in 0..1u64 << 12 {
            let f = spec.evaluate(Genome::from_bits(g));
            hist[f as usize] += 1;
            if f == spec.max_fitness() {
                max.push(g);
            }
        }
        assert_eq!(answer.hist, hist);
        assert_eq!(answer.genomes, 1 << 12);
        assert_eq!(answer.max_count, max.len() as u64);
        assert_eq!(
            answer.samples,
            max[..RESPONSE_SAMPLE_CAP.min(max.len())].to_vec()
        );
    }

    #[test]
    fn closed_form_agrees_with_the_sweep() {
        // an independent reference: the sharded sweep of the same subspace
        let o = oracle();
        let answer = o.subspace(23);
        let mut cfg = leonardo_landscape::SweepConfig::subspace(23);
        cfg.threads = 2;
        let mut sweep = leonardo_landscape::Sweep::new(cfg);
        sweep.run(&leonardo_landscape::StopToken::never());
        let want = sweep.result();
        assert_eq!(answer.hist, want.histogram.counts());
        assert_eq!(answer.max_count, want.max_count);
        assert_eq!(
            answer.samples,
            want.max_samples[..RESPONSE_SAMPLE_CAP.min(want.max_samples.len())].to_vec()
        );
        assert_eq!((o.hits(), o.misses()), (1, 0));
    }

    #[test]
    fn point_queries_match_the_spec() {
        let spec = FitnessSpec::paper();
        let o = oracle();
        for g in [0u64, 0xfff, 0x924924924, (1 << 36) - 1] {
            assert_eq!(
                o.genome_fitness(g),
                spec.evaluate(Genome::from_bits(g)),
                "{g:#x}"
            );
        }
    }
}
