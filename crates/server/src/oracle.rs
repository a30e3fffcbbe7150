//! The landscape oracle: `GET /landscape` answered from the exhaustive
//! sweep kernel, with an LRU cache over fixed-size chunks.
//!
//! The PR 5 sweep engine proved the full 2³⁶ landscape computable in
//! minutes; a server cannot spend minutes per request, so this module
//! slices the space into fixed **chunks** of 2²² consecutive genomes
//! (2¹⁶ blocks of 64) and memoises each chunk's [`Tally`] — the sweep
//! driver's own fold: full fitness histogram, exact max-set count, and
//! the canonical ascending prefix of max-set samples — in an LRU map. A
//! `bits=K` query for `K ≥ 22` absorbs the `2^(K-22)` chunk tallies in
//! ascending chunk order, so the merge is bit-identical no matter which
//! chunks were cached; smaller subspaces are cheap enough to score
//! directly. Answers are exact — the cache changes latency, never bytes
//! (a golden test pins this).

use discipulus::fitness::FitnessSpec;
use leonardo_landscape::kernel::{BlockKernel, BlockKernelW, SweepPlane, Tally, BLOCK_GENOMES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// log2 of the genomes per cached chunk.
pub const CHUNK_GENOME_BITS: u32 = 22;
/// Blocks per chunk (2²² genomes / 64 per block).
pub const CHUNK_BLOCKS: u64 = 1 << (CHUNK_GENOME_BITS - 6);
/// Max-set samples retained per chunk summary. Every response samples
/// fewer than this, so per-chunk truncation can never distort a
/// response's canonical prefix.
pub const CHUNK_SAMPLE_CAP: usize = 256;
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

/// The oracle: a fitness spec, its sweep kernel, and the chunk cache.
pub struct LandscapeOracle {
    spec: FitnessSpec,
    capacity: usize,
    cache: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct LruCache {
    map: HashMap<u64, (u64, Arc<Tally>)>,
    clock: u64,
}

impl LandscapeOracle {
    /// An oracle over `spec` keeping at most `capacity` chunk summaries.
    pub fn new(spec: FitnessSpec, capacity: usize) -> LandscapeOracle {
        LandscapeOracle {
            spec,
            capacity: capacity.max(1),
            cache: Mutex::new(LruCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits so far (for `/metrics`).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= chunks computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Chunk summaries currently cached.
    pub fn cached_chunks(&self) -> usize {
        self.lock_cache().map.len()
    }

    /// Lock the chunk cache, recovering it if a request panicked while
    /// holding it: the cache outlives any one request.
    fn lock_cache(&self) -> MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exact landscape of the `2^bits` subspace (genomes `0..2^bits`).
    ///
    /// # Panics
    /// Panics if `bits` is outside `6..=36` (the handler validates
    /// before calling).
    pub fn subspace(&self, bits: u32) -> SubspaceAnswer {
        assert!((6..=36).contains(&bits), "subspace bits out of range");
        let mut tally = Tally::new(self.spec);
        if bits < CHUNK_GENOME_BITS {
            // small subspace: score its blocks directly, no cache
            let blocks = 0..1 << (bits - 6);
            tally.fold_blocks(
                &mut BlockKernelW::<SweepPlane>::new(self.spec),
                blocks,
                RESPONSE_SAMPLE_CAP,
            );
        } else {
            // chunks absorb in ascending order and each holds its own
            // ascending prefix, so the kept samples are the canonical
            // global prefix
            for chunk in 0..1u64 << (bits - CHUNK_GENOME_BITS) {
                tally.absorb(&self.chunk(chunk), RESPONSE_SAMPLE_CAP);
            }
        }
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

    /// The summary of chunk `chunk`, from cache or computed.
    fn chunk(&self, chunk: u64) -> Arc<Tally> {
        {
            let mut cache = self.lock_cache();
            cache.clock += 1;
            let clock = cache.clock;
            if let Some((stamp, summary)) = cache.map.get_mut(&chunk) {
                *stamp = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(summary);
            }
        }
        // compute outside the lock: concurrent requests may duplicate
        // work on the same cold chunk, but never block each other on a
        // chunk fold
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut summary = Tally::new(self.spec);
        let blocks = chunk * CHUNK_BLOCKS..(chunk + 1) * CHUNK_BLOCKS;
        summary.fold_blocks(
            &mut BlockKernelW::<SweepPlane>::new(self.spec),
            blocks,
            CHUNK_SAMPLE_CAP,
        );
        let summary = Arc::new(summary);
        let mut cache = self.lock_cache();
        cache.clock += 1;
        let clock = cache.clock;
        cache.map.insert(chunk, (clock, Arc::clone(&summary)));
        if cache.map.len() > self.capacity {
            if let Some(&oldest) = cache
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                cache.map.remove(&oldest);
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::genome::Genome;

    fn oracle(capacity: usize) -> LandscapeOracle {
        LandscapeOracle::new(FitnessSpec::paper(), capacity)
    }

    #[test]
    fn small_subspace_matches_scalar_brute_force() {
        let spec = FitnessSpec::paper();
        let answer = oracle(4).subspace(12);
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
    fn chunked_and_direct_paths_agree_at_the_boundary() {
        // bits = 23 uses two cached chunks; recompute the same subspace
        // through the sweep library as the independent reference
        let answer = oracle(8).subspace(23);
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
    }

    #[test]
    fn cache_changes_latency_never_bytes() {
        let o = oracle(2);
        let first = o.subspace(23);
        assert_eq!(o.hits(), 0);
        assert_eq!(o.misses(), 2);
        let second = o.subspace(23);
        assert_eq!(o.hits(), 2);
        assert_eq!(first.hist, second.hist);
        assert_eq!(first.samples, second.samples);
        assert_eq!(o.cached_chunks(), 2);
    }

    #[test]
    fn lru_evicts_the_stalest_chunk() {
        let o = oracle(1);
        o.subspace(22); // chunk 0
        assert_eq!(o.cached_chunks(), 1);
        o.subspace(23); // chunks 0 (hit) + 1 (miss, evicts 0)
        assert_eq!(o.cached_chunks(), 1);
        assert_eq!(o.hits(), 1);
        assert_eq!(o.misses(), 2);
        o.subspace(22); // chunk 0 again: must recompute
        assert_eq!(o.misses(), 3);
    }

    #[test]
    fn point_queries_match_the_spec() {
        let spec = FitnessSpec::paper();
        let o = oracle(1);
        for g in [0u64, 0xfff, 0x924924924, (1 << 36) - 1] {
            assert_eq!(
                o.genome_fitness(g),
                spec.evaluate(Genome::from_bits(g)),
                "{g:#x}"
            );
        }
    }
}
