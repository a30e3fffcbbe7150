//! The bit-parallel block kernel: one [`Plane`] of consecutive genomes
//! per step (64 on the classic `u64` kernel, up to 512 on [`W512`]), and
//! [`Tally`], the one fold every exhaustive driver runs over it.
//!
//! An aligned block of `P::LANES` consecutive genomes differs only in the
//! low lane-index bits. Transposed, the block is a handful of fixed
//! lane-index planes plus broadcast planes, so building the fitness
//! network's input costs a couple of plane stores per block (amortized:
//! advancing the base by one block flips two high bits on average, and
//! only flipped bits rewrite their plane). The sliced network then
//! produces five carry-save score planes. [`Tally::fold_blocks`] turns
//! them into the histogram with one AND and one `popcount` per subset of
//! the five score bits, inverted into exact per-level counts once per
//! call, and reads the maximal genomes off the lanes that score the
//! maximum. [`score_masks`] is the per-level decode of the same planes:
//! one lane mask per fitness value.
//!
//! The sweep and the closed form's side passes fold at [`SweepPlane`];
//! the `u64` [`BlockKernel`] is the kernel the SAT miter proves and the
//! one point queries use.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::{GENOME_BITS, GENOME_MASK};
use leonardo_rtl::bitslice::{
    consecutive_genome_planes, lane_score_lits, FitnessUnitXW, Plane, LANES, LANE_BITS,
    LANE_INDEX_PLANES, SCORE_PLANES, W512,
};
use leonardo_rtl::semantics::{Lit, Semantics, SeqCircuit};
use std::ops::Range;

/// Number of genomes scored per step of the classic 64-lane kernel.
pub const BLOCK_GENOMES: u64 = LANES as u64;

/// Total number of 64-genome blocks in the full 2³⁶ space.
pub const TOTAL_BLOCKS: u64 = 1 << (GENOME_BITS - LANE_BITS);

/// Decode five sliced score planes into per-value lane masks: bit `l` of
/// `masks[v]` is set iff lane `l`'s score is exactly `v`. A binary
/// expansion tree over the planes (MSB first) touches each plane once per
/// level — ~124 plane ops for all 32 masks, versus ~300 for the naive
/// per-value AND chain.
pub fn score_masks_w<P: Plane>(planes: &[P; SCORE_PLANES]) -> [P; 1 << SCORE_PLANES] {
    let mut masks = [P::ZERO; 1 << SCORE_PLANES];
    masks[0] = P::ONES;
    let mut width = 1usize;
    for p in (0..SCORE_PLANES).rev() {
        for v in (0..width).rev() {
            let m = masks[v];
            masks[2 * v + 1] = m & planes[p];
            masks[2 * v] = m & !planes[p];
        }
        width *= 2;
    }
    masks
}

/// [`score_masks_w`] on the 64-lane kernel's `u64` planes.
pub fn score_masks(planes: &[u64; SCORE_PLANES]) -> [u64; 1 << SCORE_PLANES] {
    score_masks_w(planes)
}

/// A reusable sweep kernel: owns the sliced fitness unit and the
/// incrementally-maintained transposed plane buffer.
#[derive(Debug, Clone)]
pub struct BlockKernelW<P: Plane> {
    unit: FitnessUnitXW<P>,
    planes: [P; GENOME_BITS],
    /// Base genome of the planes currently in the buffer, or `u64::MAX`
    /// when the buffer is unset.
    base: u64,
}

/// The classic 64-genomes-per-step kernel: the one the SAT miter proves,
/// and the point-query kernel.
pub type BlockKernel = BlockKernelW<u64>;

/// The plane width every exhaustive fold runs at: the sweep's shards and
/// the closed form's side passes go through `BlockKernelW<SweepPlane>`.
///
/// Chosen from the fold, which is what a sweep runs, not from the pure
/// kernel. `perf_report`'s fold row (one thread, 2²⁶ genomes in
/// 4096-block chunks, 2-core AVX-512 host, medians of three runs)
/// measured 1.19 / 1.52 / 2.43 / 3.87 G genomes/s at u64 / W128 / W256 /
/// W512; the pure kernel row read 1.39 / 2.42 / 4.60 / 6.94.
pub type SweepPlane = W512;

impl<P: Plane> BlockKernelW<P> {
    /// Number of genomes scored per kernel step at this width.
    pub const GENOMES_PER_BLOCK: u64 = P::LANES as u64;

    /// Total number of `P::LANES`-genome blocks in the full 2³⁶ space.
    pub const BLOCKS: u64 = (1 << GENOME_BITS) / P::LANES as u64;

    /// A kernel scoring under `spec`.
    pub fn new(spec: FitnessSpec) -> BlockKernelW<P> {
        BlockKernelW {
            unit: FitnessUnitXW::new(spec),
            planes: [P::ZERO; GENOME_BITS],
            base: u64::MAX,
        }
    }

    /// The spec in force.
    pub fn spec(&self) -> FitnessSpec {
        self.unit.spec()
    }

    /// Score block `block` (genomes `P::LANES·block .. P::LANES·(block+1)`)
    /// into sliced score planes. Sequential blocks reuse the plane buffer
    /// and only rewrite the planes of genome bits that changed.
    ///
    /// # Panics
    /// Panics if `block` is outside the block space.
    pub fn score_block(&mut self, block: u64) -> [P; SCORE_PLANES] {
        assert!(block < Self::BLOCKS, "block index exceeds the 2^36 space");
        let base = block * Self::GENOMES_PER_BLOCK;
        if self.base == u64::MAX {
            self.planes = consecutive_genome_planes(base);
        } else {
            // rewrite only the planes whose genome bit flipped: for a
            // one-block step that is the trailing-carry run above the lane
            // field, two bits on average. Bits at or above the block
            // granularity are pure broadcasts (the within-block limb
            // offsets live strictly below them), so a splat suffices.
            let mut diff = (self.base ^ base) & GENOME_MASK & !(Self::GENOMES_PER_BLOCK - 1);
            while diff != 0 {
                let b = diff.trailing_zeros() as usize;
                self.planes[b] = P::splat(base >> b & 1 == 1);
                diff &= diff - 1;
            }
        }
        self.base = base;
        self.unit.evaluate_transposed_planes(&self.planes)
    }

    /// Integer fitness of every genome in `block`, lane by lane — the
    /// slow-path reference the conformance tests compare against.
    pub fn block_fitness_into(&mut self, block: u64, out: &mut [u32]) {
        debug_assert_eq!(out.len(), P::LANES);
        let planes = self.score_block(block);
        for (l, o) in out.iter_mut().enumerate() {
            *o = (0..SCORE_PLANES)
                .map(|p| u32::from(planes[p].bit(l)) << p)
                .sum();
        }
    }
}

impl BlockKernel {
    /// [`BlockKernelW::block_fitness_into`] as the classic fixed-size
    /// 64-lane array.
    pub fn block_fitness(&mut self, block: u64) -> [u32; LANES] {
        let mut out = [0u32; LANES];
        self.block_fitness_into(block, &mut out);
        out
    }
}

/// The fold every exhaustive driver runs over scored blocks: the exact
/// per-level histogram, the exact max-set count, and the canonical
/// sample of the max set — its smallest genomes, ascending, capped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Genomes at each fitness level (index = fitness value; the last
    /// level is the spec's maximum).
    pub hist: Vec<u64>,
    /// Exact count of genomes at the maximum level.
    pub max_count: u64,
    /// The smallest `max_count.min(cap)` maximal genomes, ascending.
    pub samples: Vec<u64>,
}

impl Tally {
    /// An empty tally over the levels `0..=spec.max_fitness()`.
    pub fn new(spec: FitnessSpec) -> Tally {
        Tally {
            hist: vec![0; spec.max_fitness() as usize + 1],
            max_count: 0,
            samples: Vec::new(),
        }
    }

    /// Score the 64-genome blocks `blocks` through `kernel` and fold them
    /// in, keeping at most `cap` samples. The blocks must lie above every
    /// genome already folded, so the samples stay the ascending prefix.
    ///
    /// `blocks` counts [`BLOCK_GENOMES`]-genome blocks at every width, so
    /// shard plans, shard cursors and chunk sizes mean the same whatever
    /// `P` is. The range is scored in the `P::LANES`-genome
    /// blocks that contain it; where it starts or ends inside one, the
    /// limbs outside the range are masked off before anything is counted
    /// or sampled. Lane `l` of a wide block is genome `base + l`, so the
    /// samples a wide block adds are still ascending.
    ///
    /// The histogram is counted without decoding a mask per level: for
    /// every subset `s` of the five score bits, each block adds the
    /// number of lanes whose score has every bit of `s` set (one AND and
    /// one popcount per subset), and a Möbius inversion over the score
    /// bits turns those counts into exact per-level counts once per call.
    pub fn fold_blocks<P: Plane>(
        &mut self,
        kernel: &mut BlockKernelW<P>,
        blocks: Range<u64>,
        cap: usize,
    ) {
        let genomes = blocks.start * BLOCK_GENOMES..blocks.end * BLOCK_GENOMES;
        self.fold_runs(kernel, 0..1, 0, genomes, cap);
    }

    /// [`Tally::fold_blocks`] over the genome runs `(step << shift) + run`
    /// for every `step` in `steps`, ascending and at genome granularity:
    /// one run for a block range, and the strided lane runs of the closed
    /// form's side passes ([`crate::closed_form`]). Both folds share this
    /// one loop, so the sweep kernel is scored from one call site and
    /// inlines into it.
    pub(crate) fn fold_runs<P: Plane>(
        &mut self,
        kernel: &mut BlockKernelW<P>,
        steps: Range<u64>,
        shift: u32,
        run: Range<u64>,
        cap: usize,
    ) {
        let top = self.hist.len() - 1;
        let (lanes, limbs) = (P::LANES as u64, P::WORDS as u64);
        // count on the stack: a tally may share cache lines with another
        // thread's (the sweep's per-shard states), so the per-block loop
        // must not store into it. Limb `w` of `covered[s]` counts limb
        // `w`'s lanes only, so the per-block update is elementwise.
        let mut covered = [P::ZERO; 1 << SCORE_PLANES];
        // `top` as per-plane XOR masks: lane `l` scores `top` iff every
        // `planes[p] ^ flip[p]` has lane `l` set
        let flip: [P; SCORE_PLANES] = core::array::from_fn(|p| P::splat(top >> p & 1 == 0));
        for step in steps {
            let genomes = (step << shift) + run.start..(step << shift) + run.end;
            for wide in genomes.start / lanes..genomes.end.div_ceil(lanes) {
                let planes = kernel.score_block(wide);
                let (base, first) = (wide * lanes, wide * limbs);
                // two call sites, so the interior one folds a constant
                // all-lanes `keep` away (a runtime `keep` costs ~40% there)
                if base < genomes.start || base + lanes > genomes.end {
                    let keep = run_lanes(base, &genomes);
                    self.fold_block(&mut covered, &planes, keep, first, &flip, cap);
                } else {
                    self.fold_block(&mut covered, &planes, P::ONES, first, &flip, cap);
                }
            }
        }
        // "every bit of s set" -> "exactly s": peel one score bit at a time
        let mut exact: [u64; 1 << SCORE_PLANES] =
            core::array::from_fn(|s| (0..P::WORDS).map(|w| covered[s].word(w)).sum());
        for p in 0..SCORE_PLANES {
            for s in 0..exact.len() {
                if s >> p & 1 == 0 {
                    exact[s] -= exact[s | 1 << p];
                }
            }
        }
        debug_assert!(
            exact[top + 1..].iter().all(|&c| c == 0),
            "a lane scored above the tally's top level"
        );
        for (slot, count) in self.hist.iter_mut().zip(exact) {
            *slot += count;
        }
        self.max_count += exact[top];
    }

    /// Count the `keep` lanes of one scored wide block into `covered`
    /// (see [`Tally::fold_blocks`]) and sample its max-level lanes; the
    /// block's limb `w` is 64-genome block `first + w`.
    #[inline(always)]
    fn fold_block<P: Plane>(
        &mut self,
        covered: &mut [P; 1 << SCORE_PLANES],
        planes: &[P; SCORE_PLANES],
        keep: P,
        first: u64,
        flip: &[P; SCORE_PLANES],
        cap: usize,
    ) {
        // `subsets[s]`: the kept lanes whose score has every bit of `s`
        // set. An index loop: LLVM unrolls it into register ANDs, but
        // not the same loop over `planes.iter().enumerate()`.
        let mut subsets = [keep; 1 << SCORE_PLANES];
        for p in 0..SCORE_PLANES {
            for s in 0..1 << p {
                subsets[s | 1 << p] = subsets[s] & planes[p];
            }
        }
        for (count, subset) in covered.iter_mut().zip(&subsets) {
            *count = P::from_words(|w| count.word(w) + u64::from(subset.word(w).count_ones()));
        }
        // the max level's lanes (not `subsets[top]`: a runtime index
        // would pin `subsets` to the stack)
        let max_lanes = planes
            .iter()
            .zip(flip)
            .fold(keep, |lanes, (&plane, &flip)| lanes & (plane ^ flip));
        if !max_lanes.is_zero() && self.samples.len() < cap {
            self.push_samples(max_lanes, first, cap);
        }
    }

    /// Append the genomes of `lanes` (limb `w` is 64-genome block
    /// `first + w`) to the samples, ascending, up to `cap`. Rare: the max
    /// set is 86 436 of 2³⁶ genomes.
    #[cold]
    fn push_samples<P: Plane>(&mut self, lanes: P, first: u64, cap: usize) {
        for w in 0..P::WORDS {
            let mut limb = lanes.word(w);
            while limb != 0 && self.samples.len() < cap {
                self.samples
                    .push((first + w as u64) * BLOCK_GENOMES + u64::from(limb.trailing_zeros()));
                limb &= limb - 1;
            }
        }
    }

    /// Fold in a tally of genomes that all lie above this one's, keeping
    /// at most `cap` samples. Absorbing in ascending order gives exactly
    /// the tally one [`Tally::fold_blocks`] over the union would.
    pub fn absorb(&mut self, later: &Tally, cap: usize) {
        for (slot, &c) in self.hist.iter_mut().zip(&later.hist) {
            *slot += c;
        }
        self.max_count += later.max_count;
        let room = cap.saturating_sub(self.samples.len());
        self.samples.extend(later.samples.iter().take(room));
    }
}

/// The lanes of the wide block of genomes `base..base + P::LANES` that
/// lie in `genomes`. Off the fold's hot path: inlined, this genome-level
/// mask costs the whole per-block loop about half its speed.
#[cold]
#[inline(never)]
fn run_lanes<P: Plane>(base: u64, genomes: &Range<u64>) -> P {
    P::from_words(|w| {
        // bit `l`: genome `limb + l` lies in the run
        let limb = base + 64 * w as u64;
        let below = |g: u64| {
            let n = g.clamp(limb, limb + 64) - limb;
            u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
        };
        below(genomes.end) & !below(genomes.start)
    })
}

/// Gate-level semantics of the kernel's per-genome function: what fitness
/// does lane `lane` of block `block` receive? The genome the lane scores
/// is assembled exactly the way [`BlockKernelW::score_block`] builds its
/// plane buffer — the low six bits come out of the fixed
/// [`LANE_INDEX_PLANES`] tables through a lane-indexed selection network,
/// the thirty high bits are the broadcast planes (per lane: the block
/// base bit itself). The analysis gate miters this against the scalar
/// `FitnessUnit` to prove the whole 2³⁶ sweep scores every genome with
/// the specified function — including that the plane tables are right.
/// The proof covers the `u64` kernel only. The wide kernels, the sweep's
/// [`SweepPlane`] among them, reduce to the same function with the extra
/// lane bits folded into the block index: every `analysis check` runs the
/// per-width `plane_registry` probes, which score aligned consecutive
/// blocks through `FitnessUnitXW::evaluate_consecutive_planes` lane by
/// lane against the spec, and the unit tests pin each wide
/// [`BlockKernelW::score_block`], incremental plane rewrite included, to
/// this kernel.
impl Semantics for BlockKernel {
    fn semantics(&self) -> SeqCircuit {
        let mut sc = SeqCircuit::new("block_kernel");
        let block = sc.input("block", GENOME_BITS - LANE_BITS);
        let lane: Vec<Lit> = sc.input("lane", LANE_BITS);
        let c = &mut sc.circuit;
        let mut bits = [Lit::FALSE; GENOME_BITS];
        for (b, bit) in bits.iter_mut().enumerate() {
            if b < LANE_BITS {
                // lane bit b = bit `lane` of the fixed index plane
                *bit = c.select_const64(LANE_INDEX_PLANES[b], &lane);
            } else {
                // broadcast plane `0 - bit`: every lane reads the base bit
                *bit = block[b - LANE_BITS];
            }
        }
        let score = lane_score_lits(self.spec(), c, &bits);
        sc.output("fitness", score);
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::fitness::{max_fitness_genomes, Rule};
    use discipulus::genome::Genome;
    use leonardo_rtl::bitslice::{W128, W256};

    #[test]
    fn score_masks_partition_all_lanes() {
        let kernelish = [0x1234_5678_9ABC_DEF0u64, !0, 0, 0xAAAA_0000_FFFF_5555, 7];
        let masks = score_masks(&kernelish);
        let mut union = 0u64;
        for (i, &m) in masks.iter().enumerate() {
            for (j, &n) in masks.iter().enumerate().skip(i + 1) {
                assert_eq!(m & n, 0, "masks {i} and {j} overlap");
            }
            union |= m;
        }
        assert_eq!(union, !0u64, "masks must cover all 64 lanes");
    }

    #[test]
    fn score_masks_agree_with_plane_values() {
        let planes = [
            0xDEAD_BEEF_0123_4567u64,
            0x0F0F,
            !0,
            0x8000_0000_0000_0001,
            0,
        ];
        let masks = score_masks(&planes);
        for l in 0..64 {
            let v: usize = (0..SCORE_PLANES)
                .map(|p| ((planes[p] >> l & 1) as usize) << p)
                .sum();
            assert_eq!(masks[v] >> l & 1, 1, "lane {l} must sit in mask {v}");
        }
    }

    #[test]
    fn wide_score_masks_partition_and_agree() {
        let mut planes = [W256::ZERO; SCORE_PLANES];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for p in planes.iter_mut() {
            *p = W256::from_words(|_| {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21);
                x
            });
        }
        let masks = score_masks_w(&planes);
        let mut union = W256::ZERO;
        for (i, &m) in masks.iter().enumerate() {
            for (j, &n) in masks.iter().enumerate().skip(i + 1) {
                assert!((m & n).is_zero(), "masks {i} and {j} overlap");
            }
            union |= m;
        }
        assert_eq!(union, W256::ONES);
        for l in 0..256 {
            let v: usize = (0..SCORE_PLANES)
                .map(|p| usize::from(planes[p].bit(l)) << p)
                .sum();
            assert!(masks[v].bit(l), "lane {l} must sit in mask {v}");
        }
    }

    #[test]
    fn sequential_and_random_block_order_agree() {
        let mut seq = BlockKernel::new(FitnessSpec::paper());
        let mut jump = BlockKernel::new(FitnessSpec::paper());
        // a base pattern with carries rippling far up
        let blocks = [0u64, 1, 2, 3, 0x3FFF, 0x4000, 0x4001, TOTAL_BLOCKS - 1];
        let sequential: Vec<_> = blocks.iter().map(|&b| seq.score_block(b)).collect();
        for (i, &b) in blocks.iter().enumerate().rev() {
            // fresh kernel per block: no incremental reuse at all
            let mut fresh = BlockKernel::new(FitnessSpec::paper());
            assert_eq!(fresh.score_block(b), sequential[i], "block {b:#x}");
            // and the same kernel hopping backwards through the list
            assert_eq!(jump.score_block(b), sequential[i], "jump to {b:#x}");
        }
    }

    #[test]
    fn block_fitness_matches_scalar_spec() {
        let spec = FitnessSpec::paper();
        let mut k = BlockKernel::new(spec);
        for block in [0u64, 5, 1 << 20, TOTAL_BLOCKS - 1] {
            let got = k.block_fitness(block);
            for (l, &f) in got.iter().enumerate() {
                let g = Genome::from_bits(block * BLOCK_GENOMES + l as u64);
                assert_eq!(f, spec.evaluate(g), "block {block} lane {l}");
            }
        }
    }

    /// Wide blocks of width `P` against the 64-lane kernel, one narrow
    /// block per limb.
    fn check_wide_blocks_against_narrow<P: Plane>() {
        let mut narrow = BlockKernel::new(FitnessSpec::paper());
        let mut wide = BlockKernelW::<P>::new(FitnessSpec::paper());
        let limbs = P::WORDS as u64;
        // a sequential pair and far jumps, then a sequential run across
        // the longest trailing carry (the step to the upper half of the
        // space flips every broadcast plane), so `score_block`'s
        // incremental plane rewrite runs at this width
        let carry = BlockKernelW::<P>::BLOCKS / 2;
        let wide_blocks = [0u64, 1, 0x40_0000, BlockKernelW::<P>::BLOCKS - 1]
            .into_iter()
            .chain(carry - 3..carry + 3);
        let mut got = vec![0u32; P::LANES];
        for wb in wide_blocks {
            wide.block_fitness_into(wb, &mut got);
            for nb in 0..limbs {
                let narrow_scores = narrow.block_fitness(wb * limbs + nb);
                assert_eq!(
                    &got[64 * nb as usize..64 * (nb + 1) as usize],
                    &narrow_scores[..],
                    "{}: wide block {wb:#x} narrow sub-block {nb}",
                    P::NAME
                );
            }
        }
    }

    #[test]
    fn wide_blocks_match_the_64_lane_kernel() {
        check_wide_blocks_against_narrow::<W128>();
        check_wide_blocks_against_narrow::<W256>();
        check_wide_blocks_against_narrow::<W512>();
    }

    #[test]
    fn ablation_spec_blocks_match_scalar() {
        let spec = FitnessSpec::without(Rule::Equilibrium);
        let mut k = BlockKernel::new(spec);
        let got = k.block_fitness(99);
        for (l, &f) in got.iter().enumerate() {
            let g = Genome::from_bits(99 * BLOCK_GENOMES + l as u64);
            assert_eq!(f, spec.evaluate(g));
        }
    }

    #[test]
    fn tally_folds_the_lowest_max_set_window_whole_or_in_pieces() {
        // no maximal genome lies below 2^28; the 64 blocks of
        // 0x180db000..0x180dc000 hold the 14 lowest ones
        let spec = FitnessSpec::paper();
        let window = 0x180d_b000u64..0x180d_c000;
        let mut want: Vec<u64> = max_fitness_genomes()
            .map(Genome::bits)
            .filter(|g| window.contains(g))
            .collect();
        want.sort_unstable();
        assert_eq!(want.len(), 14);
        let mut hist = vec![0u64; spec.max_fitness() as usize + 1];
        for g in window.clone() {
            hist[spec.evaluate(Genome::from_bits(g)) as usize] += 1;
        }
        let blocks = window.start / BLOCK_GENOMES..window.end / BLOCK_GENOMES;
        for cap in [5, 14, 100] {
            let (whole, pieced) = fold_window::<u64>(spec, blocks.clone(), cap);
            assert_eq!(whole.hist, hist, "cap {cap}");
            assert_eq!(whole.max_count, 14, "cap {cap}");
            assert_eq!(whole.samples, want[..cap.min(14)], "cap {cap}");
            assert_eq!(pieced, whole, "cap {cap}");
            // the cuts are not multiples of 2, 4 or 8 blocks, so every
            // wide fold masks limbs off at a piece edge
            for (name, (w, p)) in [
                (W128::NAME, fold_window::<W128>(spec, blocks.clone(), cap)),
                (W256::NAME, fold_window::<W256>(spec, blocks.clone(), cap)),
                (W512::NAME, fold_window::<W512>(spec, blocks.clone(), cap)),
            ] {
                assert_eq!(w, whole, "{name} whole, cap {cap}");
                assert_eq!(p, whole, "{name} pieced, cap {cap}");
            }
        }
    }

    /// `blocks` folded through a width-`P` kernel whole, and in uneven
    /// pieces (an empty one among them) through one reused kernel,
    /// absorbed in order — the way a sweep shard walks its chunks.
    fn fold_window<P: Plane>(spec: FitnessSpec, blocks: Range<u64>, cap: usize) -> (Tally, Tally) {
        let mut whole = Tally::new(spec);
        whole.fold_blocks(&mut BlockKernelW::<P>::new(spec), blocks.clone(), cap);
        let mut kernel = BlockKernelW::<P>::new(spec);
        let mut pieced = Tally::new(spec);
        let mut start = blocks.start;
        for cut in [3, 4, 4, 21, 36, 50, 64] {
            let mut piece = Tally::new(spec);
            let end = blocks.start + cut;
            piece.fold_blocks(&mut kernel, start..end, cap);
            pieced.absorb(&piece, cap);
            start = end;
        }
        (whole, pieced)
    }

    #[test]
    fn kernel_semantics_matches_block_fitness() {
        use leonardo_rtl::semantics::Circuit;
        let mut k = BlockKernel::new(FitnessSpec::paper());
        let sc = k.semantics();
        sc.validate().unwrap();
        let out = sc.find_output("fitness").unwrap();
        for block in [0u64, 7, 1 << 22, TOTAL_BLOCKS - 1] {
            let want = k.block_fitness(block);
            for lane in [0usize, 1, 31, 63] {
                let mut inputs = Vec::with_capacity(GENOME_BITS);
                inputs.extend((0..GENOME_BITS - LANE_BITS).map(|b| block >> b & 1 == 1));
                inputs.extend((0..LANE_BITS).map(|b| lane >> b & 1 == 1));
                let values = sc.circuit.eval_nodes(&inputs);
                assert_eq!(
                    Circuit::word_value(&values, out),
                    u64::from(want[lane]),
                    "block {block:#x} lane {lane}"
                );
            }
        }
    }
}
