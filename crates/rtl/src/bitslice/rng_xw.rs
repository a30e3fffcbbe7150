//! The free-running CA RNG, one plane of lanes per signal.
//!
//! State is stored transposed: `cells[i]` bit `l` is CA cell `i` of lane
//! `l`, so the hybrid 90/150 update (`left ⊕ right`, plus `⊕ self` on
//! rule-150 cells; null boundary) is 32 plane-wide XOR rows per clock for
//! every generator at once — 64 lanes per row on a `u64` plane, 512 on a
//! [`W512`](crate::bitslice::W512). Because the update is linear over
//! GF(2), advancing a lane by `k` cycles equals applying the matrix power
//! `Mᵏ`; the dead-cycle stretches of the GAP (the 36-cycle crossover
//! shift, the 38-cycle pipeline drain, and the fitness phase's read
//! cycles) therefore execute as precomputed jump tables instead of
//! stepping — the single biggest lever behind the batch engine's
//! throughput. Jump tables for arbitrary strides are built lazily, once
//! per process: the rows of `Mⁿ` depend only on the stride, not on the
//! plane width or the engine, so the first generator to jump by a stride
//! builds them into a process-wide cache and every later one copies them
//! into its own short list. They are applied with the four-Russians trick:
//! the 32 current cell planes are folded into 8 nibble tables of 16
//! precombined XORs, so a dense matrix row costs 8 plane lookups instead
//! of ~16 plane XORs.
//!
//! All stateful operations take a lane mask of the same [`Plane`] width;
//! lanes outside it hold their state. That is what lets each lane sit at
//! its own point in time even though mask-and-reject draws retry a
//! different number of cycles per lane. The `*_free` variants skip the
//! hold-blend and are valid whenever every lane the caller cares about is
//! in the mask (the engine uses them when no enabled lane is frozen).

use crate::bitslice::plane::{blend, each_cell, Plane};
use crate::bitslice::transpose::transposed_planes;
use crate::bitslice::{CELLS, LANES};
use crate::netlist::{Describe, StaticNetlist};
use crate::resources::Resources;
use crate::rng_rtl::seed_word;
use crate::semantics::{Lit, Semantics, SeqCircuit};
use discipulus::rng::analysis::ca_update_matrix;
use discipulus::rng::MAXIMAL_RULE_90_150;
use std::sync::{Mutex, PoisonError};

/// `P::LANES` independent 32-cell hybrid 90/150 CA generators,
/// bit-sliced.
///
/// (No `PartialEq`: the lazily built jump-table cache is an accident of
/// call history, so structural equality would lie about state equality.)
#[derive(Debug, Clone)]
pub struct CaRngXW<P: Plane> {
    /// Transposed state: `cells[i]` bit `l` = cell `i` of lane `l`.
    cells: [P; CELLS],
    /// The rows of `Mⁿ` per advance stride `n` this generator has used
    /// (bit `j` of row `i` = tap from cell `j`; width-independent), copied
    /// from [`JUMP_ROWS`] on first use. The engine jumps by a handful of
    /// strides, so a scan beats hashing.
    jumps: Vec<(u64, [u32; CELLS])>,
}

/// Stepping is cheaper than a table jump below this stride.
const MIN_JUMP: u64 = 8;

/// The `Mⁿ` rows of every stride any generator of this process has
/// jumped by. They depend only on the stride, so each is built once per
/// process, not once per engine; the lock is held only to look a stride
/// up or to insert it.
static JUMP_ROWS: Mutex<Vec<(u64, [u32; CELLS])>> = Mutex::new(Vec::new());

/// The rows of stride `n` in a stride list, if it has them.
fn find_rows(rows: &[(u64, [u32; CELLS])], n: u64) -> Option<[u32; CELLS]> {
    rows.iter()
        .find(|(stride, _)| *stride == n)
        .map(|&(_, t)| t)
}

/// The rows of stride `n` from [`JUMP_ROWS`], built and inserted on a
/// miss.
fn shared_jump_rows(n: u64) -> [u32; CELLS] {
    let mut rows = JUMP_ROWS.lock().unwrap_or_else(PoisonError::into_inner);
    find_rows(&rows, n).unwrap_or_else(|| {
        let t = ca_update_matrix(MAXIMAL_RULE_90_150).pow(n).0;
        rows.push((n, t));
        t
    })
}

/// Whether CA cell `i` carries the rule-150 self-tap of the certified
/// maximal rule vector.
#[inline(always)]
const fn self_tap(i: usize) -> bool {
    MAXIMAL_RULE_90_150 >> i & 1 == 1
}

/// Cell `i`'s next state from one limb of its old neighbourhood:
/// `left ⊕ right`, plus `⊕ cell` on rule-150 cells. With `i` a constant
/// this folds to one or two XORs.
#[inline(always)]
fn next_cell(left: u64, cell: u64, right: u64, i: usize) -> u64 {
    if self_tap(i) {
        left ^ cell ^ right
    } else {
        left ^ right
    }
}

/// The 16 XOR combinations of four cells (entry `m` XORs the cells whose
/// bit is set in `m`) — one four-Russians table, one limb.
#[inline(always)]
fn nibble_combos(a: u64, b: u64, x: u64, y: u64) -> [u64; 16] {
    let ab = a ^ b;
    let xy = x ^ y;
    [
        0,
        a,
        b,
        ab,
        x,
        x ^ a,
        x ^ b,
        x ^ ab,
        y,
        y ^ a,
        y ^ b,
        y ^ ab,
        xy,
        xy ^ a,
        xy ^ b,
        xy ^ ab,
    ]
}

impl<P: Plane> CaRngXW<P> {
    /// Create generators for `seeds.len() ≤ P::LANES` lanes with the
    /// certified maximal rule vector; zero seeds are remapped to 1 exactly
    /// like the scalar [`crate::rng_rtl::CaRngRtl`]. Unused lanes are
    /// seeded to 1 so no lane ever sits at the CA's all-zero fixed point.
    ///
    /// # Panics
    /// Panics if more than `P::LANES` seeds are given.
    pub fn new(seeds: &[u32]) -> CaRngXW<P> {
        CaRngXW::from_lane_words(seeds.iter().map(|&s| seed_word(s)))
    }

    /// Generators whose lane `l` holds the `l`-th raw state word (migrated
    /// chips' generators, no zero remap), loaded with one whole-plane
    /// transpose; lanes past the words idle at 1.
    ///
    /// # Panics
    /// Panics if more than `P::LANES` words are given.
    pub fn from_lane_words(words: impl ExactSizeIterator<Item = u32>) -> CaRngXW<P> {
        assert!(words.len() <= P::LANES, "at most {} lanes", P::LANES);
        let mut lane_major = vec![1u64; P::LANES];
        for (l, w) in lane_major.iter_mut().zip(words) {
            *l = u64::from(w);
        }
        let mut cells = [P::ZERO; CELLS];
        transposed_planes(&lane_major, &mut cells);
        CaRngXW {
            cells,
            jumps: Vec::new(),
        }
    }

    /// Re-seed one lane in place (used when a convergence driver recycles
    /// a finished lane for a fresh trial); all other lanes hold.
    pub fn seed_lane(&mut self, lane: usize, seed: u32) {
        let word = seed_word(seed);
        for (i, c) in self.cells.iter_mut().enumerate() {
            c.set_bit(lane, word >> i & 1 == 1);
        }
    }

    /// One clock edge for the lanes in `mask`; all other lanes hold.
    /// Written as the 32 cell updates straight-line on whole planes, each
    /// cell XOR-ing in its change under the mask (see the codegen rule in
    /// [`crate::bitslice::plane`]): with the mask added, the limb-major
    /// form of [`Self::clock_free`] stays scalar at two limbs.
    #[inline]
    pub fn clock(&mut self, mask: P) {
        if mask == P::ONES {
            self.clock_free();
            return;
        }
        let c = &mut self.cells;
        let mut left = P::ZERO;
        each_cell!(i => {
            let cell = c[i];
            let right = c.get(i + 1).copied().unwrap_or(P::ZERO);
            let left = std::mem::replace(&mut left, cell);
            // next ⊕ cell: a rule-150 cell's own tap cancels
            let change = if self_tap(i) { left ^ right } else { left ^ cell ^ right };
            c[i] = cell ^ (change & mask);
        });
    }

    /// One clock edge for every lane — the blend-free fast path.
    #[inline]
    pub fn clock_free(&mut self) {
        let c = &mut self.cells;
        for w in 0..P::WORDS {
            let mut left = 0u64;
            each_cell!(i => {
                let cell = c[i].word(w);
                let right = c.get(i + 1).map_or(0, |r| r.word(w));
                let next = next_cell(std::mem::replace(&mut left, cell), cell, right, i);
                c[i].set_word(w, next);
            });
        }
    }

    /// Advance the lanes in `mask` by `n` cycles: short strides step,
    /// long strides apply a (cached) `Mⁿ` jump table.
    pub fn advance(&mut self, mask: P, n: u64) {
        if n < MIN_JUMP {
            for _ in 0..n {
                self.clock(mask);
            }
        } else {
            let table = self.jump_table(n);
            self.apply_jump(mask, &table);
        }
    }

    /// [`Self::advance`] for every lane, without the hold-blend.
    pub fn advance_free(&mut self, n: u64) {
        if n < MIN_JUMP {
            for _ in 0..n {
                self.clock_free();
            }
        } else {
            let table = self.jump_table(n);
            self.apply_jump(P::ONES, &table);
        }
    }

    /// The `Mⁿ` row table for stride `n`: from this engine's list, else
    /// copied once from the process-wide [`JUMP_ROWS`].
    fn jump_table(&mut self, n: u64) -> [u32; CELLS] {
        if let Some(t) = find_rows(&self.jumps, n) {
            return t;
        }
        let t = shared_jump_rows(n);
        self.jumps.push((n, t));
        t
    }

    /// Apply a matrix-power row table to the lanes in `mask` with the
    /// four-Russians nibble decomposition: the 32 cell planes fold into 8
    /// tables of 16 XOR combinations, built limb by limb, and each new
    /// cell is 8 table lookups.
    fn apply_jump(&mut self, mask: P, table: &[u32; CELLS]) {
        let mut nib = [[P::ZERO; 16]; 8];
        for w in 0..P::WORDS {
            for (g, t) in nib.iter_mut().enumerate() {
                let c = |j: usize| self.cells[4 * g + j].word(w);
                for (e, v) in t.iter_mut().zip(nibble_combos(c(0), c(1), c(2), c(3))) {
                    e.set_word(w, v);
                }
            }
        }
        for (i, &row) in table.iter().enumerate() {
            // On a wide plane an opaque row keeps LLVM from vectorizing
            // this loop across rows, which turns every lookup into gathers;
            // each row's eight lookups stay whole-plane loads. A one-limb
            // plane is better off with the across-row form.
            let row = if P::WORDS > 1 {
                std::hint::black_box(row)
            } else {
                row
            };
            let at = |g: usize| nib[g][(row >> (4 * g) & 15) as usize];
            let n = at(0) ^ at(1) ^ at(2) ^ at(3) ^ at(4) ^ at(5) ^ at(6) ^ at(7);
            self.cells[i] = blend(n, self.cells[i], mask);
        }
    }

    /// The 32-bit output word of one lane, valid this cycle.
    pub fn lane_word(&self, lane: usize) -> u32 {
        self.lane_low_bits(lane, CELLS)
    }

    /// One CA state cell of one lane — the observation half of the
    /// fault-injection port, bit-exact with the scalar
    /// [`crate::rng_rtl::CaRngRtl::state_bit`].
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `cell ≥ 32`.
    pub fn cell_bit(&self, lane: usize, cell: usize) -> bool {
        assert!(lane < P::LANES, "lane out of range");
        assert!(cell < CELLS, "CA cell out of range");
        self.cells[cell].bit(lane)
    }

    /// Force one CA state cell of one lane — the control half of the
    /// fault-injection port. Every other lane holds, so lockstep fault
    /// campaigns stay bit-exact with scalar chips suffering the same
    /// upsets.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `cell ≥ 32`.
    pub fn set_cell_bit(&mut self, lane: usize, cell: usize, value: bool) {
        assert!(lane < P::LANES, "lane out of range");
        assert!(cell < CELLS, "CA cell out of range");
        self.cells[cell].set_bit(lane, value);
    }

    /// The low `k ≤ 32` bits of one lane's output word.
    pub fn lane_low_bits(&self, lane: usize, k: usize) -> u32 {
        debug_assert!(k <= CELLS);
        let mut w = 0u32;
        for i in 0..k {
            w |= u32::from(self.cells[i].bit(lane)) << i;
        }
        w
    }

    /// The low `k` output bit-planes themselves (plane `p` = output bit
    /// `p` of every lane) — for consumers that stay in the sliced domain
    /// and never need per-lane integers at all.
    pub fn low_cells(&self, k: usize) -> &[P] {
        &self.cells[..k]
    }

    /// Sliced comparator: the mask of lanes whose low `k` bits, read as an
    /// integer, are strictly below `c` (the hardware would fold this into
    /// the mask-and-reject / threshold compare network). If `c` needs more
    /// than `k` bits every lane qualifies.
    pub fn lt_const(&self, k: usize, c: u32) -> P {
        debug_assert!(k <= CELLS);
        if u64::from(c) >> k != 0 {
            return P::ONES;
        }
        let mut lt = P::ZERO;
        let mut eq = P::ONES;
        for i in (0..k).rev() {
            let b = self.cells[i];
            if c >> i & 1 == 1 {
                lt |= eq & !b;
                eq &= b;
            } else {
                eq &= !b;
            }
        }
        lt
    }

    /// Resource estimate: `P::LANES` scalar generators' worth of state
    /// and XOR network.
    pub fn resources(&self) -> Resources {
        Resources::unit(
            CELLS as u32 * P::LANES as u32,
            CELLS as u32 * P::LANES as u32,
        )
    }
}

impl Describe for CaRngXW<u64> {
    fn netlist(&self) -> StaticNetlist {
        StaticNetlist::new("ca_rng_x64")
            .claim(self.resources())
            .register("cells", (CELLS * LANES) as u32)
            .wire("next_cells", (CELLS * LANES) as u32)
            .input("lane_mask", LANES as u32)
            .output("words", (CELLS * LANES) as u32)
            .edge("cells", "next_cells")
            .fan_in(&["next_cells", "lane_mask"], "cells")
            .edge("cells", "words")
    }
}

/// The semantics of **one lane** of the sliced generator, derived from
/// the plane expressions of [`CaRngXW::clock_free`] by lane projection —
/// exact because every operation in the sliced step is bitwise, so lane
/// `l` of each plane op equals the scalar op on lane `l`'s bits. The
/// rule-150 self-taps are per-cell constants. Every lane
/// of every plane width runs this identical network by construction, so
/// the analysis gate's `CaRngRtl` ↔ lane miter covers the whole sliced
/// unit; the per-width probes in [`crate::bitslice::plane_registry`] pin
/// the wide instantiations concretely on top.
impl Semantics for CaRngXW<u64> {
    fn semantics(&self) -> SeqCircuit {
        let mut sc = SeqCircuit::new("ca_rng_x64");
        // power-on state: lane 0 (any lane's projection is the same
        // network; only the init bits differ)
        let init: Vec<bool> = (0..CELLS).map(|i| self.cells[i] & 1 == 1).collect();
        let cells = sc.register("cells", &init);
        let c = &mut sc.circuit;
        let tap = self_tap;
        let mut next = vec![Lit::FALSE; CELLS];
        // cells[0] = (c[0] & taps[0]) ^ c[1]
        let t0 = if tap(0) { cells[0] } else { Lit::FALSE };
        next[0] = c.xor(t0, cells[1]);
        for i in 1..CELLS - 1 {
            let ti = if tap(i) { cells[i] } else { Lit::FALSE };
            let x = c.xor(ti, cells[i - 1]);
            next[i] = c.xor(x, cells[i + 1]);
        }
        let tl = if tap(CELLS - 1) {
            cells[CELLS - 1]
        } else {
            Lit::FALSE
        };
        next[CELLS - 1] = c.xor(tl, cells[CELLS - 2]);
        sc.set_next("cells", next);
        sc.output("word", cells);
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::plane::{Wide, W128, W256, W512};
    use crate::rng_rtl::CaRngRtl;

    fn seeds(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xBEEF)
            .collect()
    }

    fn seeds64() -> Vec<u32> {
        seeds(64)
    }

    #[test]
    fn all_lanes_bit_exact_with_scalar_rtl() {
        let seeds = seeds64();
        let mut sliced = CaRngXW::<u64>::new(&seeds);
        let mut scalars: Vec<CaRngRtl> = seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
        for (l, s) in scalars.iter().enumerate() {
            assert_eq!(sliced.lane_word(l), s.word(), "lane {l} seed");
        }
        for _ in 0..500 {
            sliced.clock(u64::MAX);
            for (l, s) in scalars.iter_mut().enumerate() {
                s.clock();
                assert_eq!(sliced.lane_word(l), s.word(), "lane {l}");
            }
        }
    }

    #[test]
    fn wide_lanes_bit_exact_with_scalar_rtl() {
        let seeds = seeds(512);
        let mut sliced = CaRngXW::<W512>::new(&seeds);
        let mut scalars: Vec<CaRngRtl> = seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
        for step in 0..120 {
            sliced.clock(W512::ONES);
            for (l, s) in scalars.iter_mut().enumerate() {
                s.clock();
                assert_eq!(sliced.lane_word(l), s.word(), "step {step} lane {l}");
            }
        }
        // masked clocking holds unselected wide lanes
        let mut mask = W512::ZERO;
        for l in (0..512).step_by(3) {
            mask.set_bit(l, true);
        }
        for _ in 0..50 {
            sliced.clock(mask);
            for (l, s) in scalars.iter_mut().enumerate() {
                if mask.bit(l) {
                    s.clock();
                }
                assert_eq!(sliced.lane_word(l), s.word(), "masked lane {l}");
            }
        }
    }

    #[test]
    fn masked_clock_holds_unselected_lanes() {
        let seeds = seeds64();
        let mut sliced = CaRngXW::<u64>::new(&seeds);
        let mut scalars: Vec<CaRngRtl> = seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
        // an uneven clocking schedule: lane l steps on iterations where
        // the pattern selects it
        let patterns = [0xAAAA_AAAA_AAAA_AAAAu64, 0x0F0F_F0F0_1234_5678, u64::MAX, 1];
        for (it, &mask) in patterns.iter().cycle().take(200).enumerate() {
            let mask = mask.rotate_left(it as u32);
            sliced.clock(mask);
            for (l, s) in scalars.iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    s.clock();
                }
                assert_eq!(sliced.lane_word(l), s.word(), "lane {l} iter {it}");
            }
        }
    }

    #[test]
    fn jump_strides_equal_stepping() {
        let seeds = seeds64();
        for n in [8u64, 36, 38, 65, 68, 74, 200] {
            let mut jumped = CaRngXW::<u64>::new(&seeds);
            let mut stepped = CaRngXW::<u64>::new(&seeds);
            let mask = 0xDEAD_BEEF_0BAD_F00Du64;
            jumped.advance(mask, n);
            for _ in 0..n {
                stepped.clock(mask);
            }
            assert_eq!(jumped.cells, stepped.cells, "jump {n}");
            // the rows come from the process-wide cache, equal a fresh
            // matrix power, and a second generator gets the same rows
            let fresh = ca_update_matrix(MAXIMAL_RULE_90_150).pow(n).0;
            let shared = find_rows(&JUMP_ROWS.lock().unwrap(), n);
            assert_eq!(shared, Some(fresh), "shared rows {n}");
            assert_eq!(find_rows(&jumped.jumps, n), Some(fresh), "rows {n}");
            let mut second = CaRngXW::<u64>::new(&seeds);
            second.advance(mask, n);
            assert_eq!(find_rows(&second.jumps, n), Some(fresh), "second rows {n}");
            assert_eq!(second.cells, jumped.cells, "second jump {n}");
        }
    }

    #[test]
    fn wide_jump_strides_equal_stepping() {
        let seeds = seeds(128);
        for n in [8u64, 36, 38, 74] {
            let mut jumped = CaRngXW::<W128>::new(&seeds);
            let mut stepped = CaRngXW::<W128>::new(&seeds);
            let mask = Wide([0xDEAD_BEEF_0BAD_F00Du64, 0x1234_5678_9ABC_DEF0]);
            jumped.advance(mask, n);
            for _ in 0..n {
                stepped.clock(mask);
            }
            assert_eq!(jumped.cells, stepped.cells, "jump {n}");
        }
    }

    #[test]
    fn free_advance_equals_full_mask_advance() {
        let seeds = seeds64();
        let mut free = CaRngXW::<u64>::new(&seeds);
        let mut masked = CaRngXW::<u64>::new(&seeds);
        for n in [1u64, 3, 36, 38, 68] {
            free.advance_free(n);
            masked.advance(u64::MAX, n);
            assert_eq!(free.cells, masked.cells, "stride {n}");
        }
    }

    #[test]
    fn seed_lane_resets_one_lane_only() {
        let seeds = seeds64();
        let mut r = CaRngXW::<u64>::new(&seeds);
        r.advance(u64::MAX, 100);
        let before = r.cells;
        r.seed_lane(7, 0xCAFE);
        assert_eq!(r.lane_word(7), 0xCAFE);
        for l in 0..64 {
            if l != 7 {
                let held = (0..32).all(|i| (r.cells[i] ^ before[i]) >> l & 1 == 0);
                assert!(held, "lane {l} disturbed");
            }
        }
        // the reseeded lane continues exactly like a fresh scalar RNG
        let mut scalar = CaRngRtl::new(0xCAFE);
        for _ in 0..50 {
            r.clock(1 << 7);
            scalar.clock();
            assert_eq!(r.lane_word(7), scalar.word());
        }
    }

    /// Zero seeds read 1 and the other seeds as given; the lanes past
    /// the seeds, in the upper limbs of a wide plane, idle at 1, never
    /// the zero fixed point.
    fn check_zero_seeds_remapped<P: Plane>() {
        let mut s = seeds(P::LANES / 2 + 3);
        let n = s.len();
        for l in [0, 2, n - 1] {
            s[l] = 0;
        }
        for s in [&[0, 5, 0][..], &s] {
            let r = CaRngXW::<P>::new(s);
            for l in 0..P::LANES {
                let want = s.get(l).map_or(1, |&w| w.max(1));
                assert_eq!(r.lane_word(l), want, "{} lane {l}", P::NAME);
            }
        }
    }

    #[test]
    fn zero_seed_remapped_per_lane() {
        check_zero_seeds_remapped::<u64>();
        check_zero_seeds_remapped::<W128>();
        check_zero_seeds_remapped::<W256>();
        check_zero_seeds_remapped::<W512>();
    }

    #[test]
    fn lane_semantics_matches_sliced_lane_zero() {
        let mut sliced = CaRngXW::<u64>::new(&seeds64());
        let sc = sliced.semantics();
        sc.validate().unwrap();
        let mut state = sc.initial_state();
        for i in 0..300 {
            let (next, outs) = sc.eval_step(&state, &[]);
            assert_eq!(outs[0].1, u64::from(sliced.lane_word(0)), "cycle {i}");
            sliced.clock(1); // lane 0 only
            state = next;
        }
    }

    #[test]
    fn lt_const_matches_scalar_compare() {
        let seeds = seeds64();
        let mut r = CaRngXW::<u64>::new(&seeds);
        for step in 0..200 {
            r.clock(u64::MAX);
            for (k, c) in [(8usize, 205u32), (8, 179), (6, 35), (11, 1152), (5, 32)] {
                let m = r.lt_const(k, c);
                for l in 0..64 {
                    let v = r.lane_low_bits(l, k);
                    assert_eq!(m >> l & 1 == 1, v < c, "step {step} lane {l} k={k} c={c}");
                }
            }
        }
    }
}
