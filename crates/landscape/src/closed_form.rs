//! The landscape in closed form: the [`Tally`] of any block range from
//! two side folds and a convolution per aligned subcube, without a sweep.
//!
//! Every elementary check of the three fitness rules reads the legs of
//! one body side only: equilibrium is checked per side, symmetry and
//! coherence per leg. The left legs own genome bits 0–8 and 18–26, the
//! right legs bits 9–17 and 27–35. So a genome `g` whose left bits are
//! `l` and whose right bits are `r` (each read as a genome with the other
//! side's bits zero) scores
//!
//! ```text
//! F(g) = F(l) + F(r) − F(0)
//! ```
//!
//! `analysis check` proves this for every `l` and `r`, and proves that
//! the left↔right leg mirror keeps every score. An aligned subcube — the
//! genomes `base..base + 2^k` with `base` a multiple of `2^k` — is the
//! product of a left set and a right set: the side bits below bit `k` run
//! free, the others are fixed by `base`. Its histogram is therefore the
//! convolution of the two side histograms shifted down by `F(0)`, and a
//! side holds at most 2¹⁸ genomes.
//!
//! Both sides are scored as left-only genomes through
//! `BlockKernelW<SweepPlane>`: a right-only genome `r` is `m << 9` for
//! the left-only genome `m` that mirrors it, and `m` scores the same. A
//! left-only side set is a run of genome bits 0–8 (exactly the lane field
//! of one 512-lane block) repeated for a run of values of bits 18–26, so
//! each side is one accumulating [`Tally`] pass over strided blocks.
//!
//! A genome scores the spec's maximum iff both of its sides score the
//! side maximum `(max + F(0)) / 2` (the mirror makes the two side maxima
//! equal, and they add up to `max + F(0)`). The subcube's max set is the
//! set of pairs `l | r` of side-maximal genomes, and since `l | r = l + r`
//! its `cap` smallest members only use the `cap` smallest of each side.
//!
//! A block range splits into at most 60 aligned subcubes, taken in
//! ascending order, so [`closed_form_tally`] returns exactly the tally
//! [`Tally::fold_blocks`] returns. The cost is two side passes per
//! subcube instead of one kernel step per 512 genomes: 17 kernel steps
//! for the subspace `0..2^22`, 1024 for the full 2³⁶. The sweep stays
//! the F7 reproduction; this checks it.

use crate::kernel::{BlockKernelW, SweepPlane, Tally, BLOCK_GENOMES, TOTAL_BLOCKS};
use discipulus::fitness::FitnessSpec;
use discipulus::genome::{Genome, GENOME_BITS};
use leonardo_rtl::bitslice::SCORE_PLANES;
use std::ops::Range;

/// Genome bits of the left legs: step 1's bits 0–8 and step 2's 18–26.
const LEFT_BITS: u64 = 0x1ff | 0x1ff << 18;

/// The tally [`Tally::fold_blocks`] returns for the 64-genome blocks
/// `blocks` under `spec`, keeping at most `cap` samples — computed from
/// two side folds and a convolution per aligned subcube of the range.
///
/// # Panics
/// Panics if `blocks` reaches past the 2³⁶ space or the spec's maximum
/// fitness does not fit the sliced score planes.
pub fn closed_form_tally(spec: FitnessSpec, blocks: Range<u64>, cap: usize) -> Tally {
    assert!(
        blocks.end <= TOTAL_BLOCKS,
        "block range exceeds the 2^36 space"
    );
    assert!(
        spec.max_fitness() < 1 << SCORE_PLANES,
        "spec's maximum fitness exceeds the sliced score-plane width"
    );
    let top = spec.max_fitness() as usize;
    let zero = spec.evaluate(Genome::ZERO) as usize;
    debug_assert_eq!(
        (top + zero) % 2,
        0,
        "the mirror makes the side maxima equal"
    );
    let side_top = (top + zero) / 2;
    let mut kernel = BlockKernelW::<SweepPlane>::new(spec);
    let mut tally = Tally::new(spec);
    let (mut at, end) = (blocks.start * BLOCK_GENOMES, blocks.end * BLOCK_GENOMES);
    while at < end {
        // the largest aligned subcube that starts at `at` and fits
        let mut k = at.trailing_zeros().min(GENOME_BITS as u32);
        while at + (1 << k) > end {
            k -= 1;
        }
        // its left side, and its right side mirrored onto the left legs
        let room = cap - tally.samples.len();
        let left_set = side_set(at & LEFT_BITS, k);
        let right_set = side_set(at >> 9 & LEFT_BITS, k.saturating_sub(9));
        let left = fold_side(&mut kernel, side_top, left_set, room);
        let right = fold_side(&mut kernel, side_top, right_set, room);
        add_product(&mut tally, &left, &right, zero, room);
        at += 1 << k;
    }
    tally.max_count = tally.hist[top];
    tally
}

/// Add to `tally` the subcube spanned by the side tallies `left` and
/// `right` (the right side mirrored onto the left legs): the convolution
/// of their histograms, and the `room` smallest of its maximal genomes.
/// The subcube lies above every genome already in `tally`.
fn add_product(tally: &mut Tally, left: &Tally, right: &Tally, zero: usize, room: usize) {
    // every side set holds a genome, so both supports are non-empty, and
    // the lowest scores add up to a level of at least 0
    let lo = right.hist.iter().position(|&c| c > 0).expect("a genome");
    let hi = right.hist.iter().rposition(|&c| c > 0).expect("a genome");
    for (a, &x) in left.hist.iter().enumerate().filter(|&(_, &x)| x > 0) {
        let row = &mut tally.hist[a + lo - zero..=a + hi - zero];
        for (slot, &y) in row.iter_mut().zip(&right.hist[lo..=hi]) {
            *slot += x * y;
        }
    }
    // pair (i, j) lies above the (i + 1)(j + 1) - 1 pairs (i' <= i,
    // j' <= j), so only pairs with (i + 1)(j + 1) <= room can be among
    // the `room` smallest
    let mut pairs: Vec<u64> = left
        .samples
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| {
            let near = right.samples.iter().take(room / (i + 1));
            near.map(move |&m| l | m << 9)
        })
        .collect();
    pairs.sort_unstable();
    pairs.truncate(room);
    tally.samples.extend(pairs);
}

/// The left-only genomes `prefix | x`, `x` over the left bits below bit
/// `k`, as (values of genome bits 0–8, values of genome bits 18–26).
fn side_set(prefix: u64, k: u32) -> (Range<u64>, Range<u64>) {
    let (lane, step) = (prefix & 0x1ff, prefix >> 18);
    (
        lane..lane + (1 << k.min(9)),
        step..step + (1 << (k.clamp(18, 27) - 18)),
    )
}

/// Fold one side set through `kernel` into a tally whose top level is
/// the side maximum `side_top`.
fn fold_side(
    kernel: &mut BlockKernelW<SweepPlane>,
    side_top: usize,
    (lanes, steps): (Range<u64>, Range<u64>),
    cap: usize,
) -> Tally {
    let mut side = Tally {
        hist: vec![0; side_top + 1],
        max_count: 0,
        samples: Vec::new(),
    };
    side.fold_runs(kernel, steps, 18, lanes, cap);
    side
}
