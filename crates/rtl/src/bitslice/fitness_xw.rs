//! The combinational fitness network, one plane of genomes per
//! evaluation.
//!
//! Same boolean algebra as [`crate::fitness_rtl::FitnessUnit`], executed
//! bit-sliced: the genome arrives as 36 transposed planes (plane `b` =
//! bit `b` of every lane — 64 lanes on a `u64`, up to 512 on a
//! [`W512`](crate::bitslice::W512)), the three rules produce per-lane
//! counts through plane-wide AND/XOR layers and carry-save compressor
//! trees, and the per-lane scores come out either as **bit-planes**
//! (plane `p` = score bit `p` of every lane — what the batch engine
//! consumes, so its best-update comparator and selection gather stay in
//! the sliced domain) or as integers through a byte-spread column gather.
//!
//! Two scoring paths share the check network:
//!
//! * **unit weights** (the paper's spec): the 26 checks ripple into five
//!   short independent carry-save counters (one per rule half, so the
//!   chains overlap in flight) and two sliced ripple-carry adds fold them
//!   into the 5-bit total — no multiplies, no extraction;
//! * **arbitrary weights** (ablation specs): one counter per rule, three
//!   extractions, exact `u32` recombination per lane — bit-for-bit the
//!   scalar unit under any weighting.

use crate::bitslice::plane::Plane;
use crate::bitslice::transpose::{planes_to_bytes, transposed_planes};
use crate::bitslice::LANES;
use crate::resources::Resources;
use crate::semantics::{Circuit, Lit, Semantics, SeqCircuit, Word};
use core::marker::PhantomData;
use discipulus::fitness::FitnessSpec;
use discipulus::genome::GENOME_BITS;

/// Width of the sliced score: the paper's maximum fitness (26) fits five
/// bits, and the batch engine stores one score column per plane.
pub const SCORE_PLANES: usize = 5;

/// Number of low genome bits that address a lane within one consecutive
/// 64-genome block (`2^6 = 64` lanes per `u64` limb).
pub const LANE_BITS: usize = 6;

/// The fixed bit-planes of the lane index itself: `LANE_INDEX_PLANES[b]`
/// has bit `l` set iff bit `b` of `l` is set. These are the low six
/// transposed planes of **any** aligned run of 64 consecutive genomes —
/// the observation the exhaustive landscape sweep builds on: adjacent
/// genomes share every bit above the lane field, so a whole block's
/// transposed form costs a handful of broadcast words instead of a 64×64
/// transpose. On a wide plane the same six patterns repeat in every limb
/// and the limb index supplies the next `log2(P::WORDS)` genome bits (see
/// [`consecutive_genome_planes`]).
pub const LANE_INDEX_PLANES: [u64; LANE_BITS] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Transposed bit-planes of the `P::LANES` consecutive genomes
/// `first..first + P::LANES`: plane `b` carries genome bit `b` of every
/// lane. Limb `w` of lane-bit plane `b < 6` repeats
/// `LANE_INDEX_PLANES[b]`; every higher plane's limb `w` broadcasts bit
/// `b` of `first + 64·w` (the limb offset never carries into those bits
/// because `first` is `P::LANES`-aligned).
///
/// # Panics
/// Panics unless `first` is `P::LANES`-aligned and below 2³⁶.
pub fn consecutive_genome_planes<P: Plane>(first: u64) -> [P; GENOME_BITS] {
    assert_eq!(
        first % P::LANES as u64,
        0,
        "block base must be {}-aligned",
        P::LANES
    );
    assert!(first >> GENOME_BITS == 0, "block base exceeds 36 bits");
    let mut planes = [P::ZERO; GENOME_BITS];
    for (b, plane) in planes.iter_mut().enumerate() {
        if b < LANE_BITS {
            *plane = P::from_words(|_| LANE_INDEX_PLANES[b]);
        } else {
            *plane = P::from_words(|w| 0u64.wrapping_sub((first + 64 * w as u64) >> b & 1));
        }
    }
    planes
}

/// The bit-sliced fitness network, `P::LANES` genomes per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitnessUnitXW<P: Plane> {
    spec: FitnessSpec,
    _plane: PhantomData<P>,
}

/// Add one sliced bit into a little-endian carry-save counter of `W`
/// planes (const width so the ripple unrolls).
#[inline(always)]
fn count_into<P: Plane, const W: usize>(counter: &mut [P; W], bit: P) {
    let mut carry = bit;
    for c in counter.iter_mut() {
        let t = *c & carry;
        *c ^= carry;
        carry = t;
    }
    debug_assert!(carry.is_zero(), "carry-save counter overflow");
}

/// Sliced full adder: per-lane `a + b + cin` as (sum, carry-out).
#[inline(always)]
fn full_add<P: Plane>(a: P, b: P, cin: P) -> (P, P) {
    let ab = a ^ b;
    (ab ^ cin, (a & b) | (cin & ab))
}

/// Sliced ripple-carry add of an `A`-plane and a `B ≤ A`-plane counter
/// into `O = A + 1` planes (per lane, every lane at once).
#[inline(always)]
fn add_planes<P: Plane, const A: usize, const B: usize, const O: usize>(
    a: &[P; A],
    b: &[P; B],
) -> [P; O] {
    debug_assert!(B <= A && O == A + 1);
    let mut out = [P::ZERO; O];
    let mut carry = P::ZERO;
    for p in 0..A {
        let bp = if p < B { b[p] } else { P::ZERO };
        let (s, c) = full_add(a[p], bp, carry);
        out[p] = s;
        carry = c;
    }
    out[A] = carry;
    out
}

impl<P: Plane> FitnessUnitXW<P> {
    /// A sliced unit implementing `spec`.
    pub fn new(spec: FitnessSpec) -> FitnessUnitXW<P> {
        FitnessUnitXW {
            spec,
            _plane: PhantomData,
        }
    }

    /// The paper's rule set with unit weights.
    pub fn paper() -> FitnessUnitXW<P> {
        FitnessUnitXW::new(FitnessSpec::paper())
    }

    /// The spec in force.
    pub fn spec(&self) -> FitnessSpec {
        self.spec
    }

    /// Score `P::LANES` genomes presented transposed (`bits[b]` carries
    /// genome bit `b` of every lane) into a caller buffer of `P::LANES`
    /// per-lane weighted fitnesses.
    pub fn evaluate_transposed_into(&self, bits: &[P; GENOME_BITS], out: &mut [u32]) {
        debug_assert_eq!(out.len(), P::LANES);
        if self.is_unit_weight() {
            let planes = self.unit_score_planes(bits);
            let mut bytes = vec![0u8; P::LANES];
            planes_to_bytes(&planes, &mut bytes);
            for (o, &b) in out.iter_mut().zip(bytes.iter()) {
                *o = u32::from(b);
            }
        } else {
            self.weighted_into(bits, out);
        }
    }

    /// Score `P::LANES` transposed genomes into [`SCORE_PLANES`]
    /// bit-planes: plane `p` of the result is score bit `p` of every
    /// lane. This is the batch engine's path — the score never leaves the
    /// sliced domain, so the engine can compare and select on it with
    /// plane ops.
    ///
    /// # Panics
    /// Debug-asserts the spec's maximum fitness fits the plane width.
    pub fn evaluate_transposed_planes(&self, bits: &[P; GENOME_BITS]) -> [P; SCORE_PLANES] {
        debug_assert!(
            self.spec.max_fitness() < 1 << SCORE_PLANES,
            "score exceeds the sliced plane width"
        );
        if self.is_unit_weight() {
            return self.unit_score_planes(bits);
        }
        // arbitrary weights: exact per-lane u32 recombination, re-sliced.
        // Cold path — every ablation spec is unit-weight on some subset.
        let mut out = vec![0u32; P::LANES];
        self.weighted_into(bits, &mut out);
        let mut planes = [P::ZERO; SCORE_PLANES];
        for (l, &v) in out.iter().enumerate() {
            for (p, plane) in planes.iter_mut().enumerate() {
                plane.set_bit(l, v >> p & 1 == 1);
            }
        }
        planes
    }

    /// Score the `P::LANES` consecutive genomes `first..first + P::LANES`
    /// into sliced score planes without materializing or transposing them
    /// (see [`consecutive_genome_planes`]) — the landscape sweep's
    /// kernel step.
    ///
    /// # Panics
    /// Panics unless `first` is `P::LANES`-aligned and below 2³⁶.
    pub fn evaluate_consecutive_planes(&self, first: u64) -> [P; SCORE_PLANES] {
        self.evaluate_transposed_planes(&consecutive_genome_planes(first))
    }

    /// [`Self::evaluate_transposed_planes`] for `P::LANES` lane-major
    /// genomes.
    pub fn evaluate_lanes_planes(&self, genomes: &[u64]) -> [P; SCORE_PLANES] {
        let mut bits = [P::ZERO; GENOME_BITS];
        transposed_planes(genomes, &mut bits);
        self.evaluate_transposed_planes(&bits)
    }

    fn is_unit_weight(&self) -> bool {
        (
            self.spec.equilibrium_weight,
            self.spec.symmetry_weight,
            self.spec.coherence_weight,
        ) == (1, 1, 1)
    }

    /// Unit-weight total as five planes: five short independent counter
    /// chains (two per two-step rule, one for symmetry) folded by sliced
    /// ripple-carry adds. The split keeps every ripple ≤ 6 deep and lets
    /// the chains execute in parallel instead of one 26-long dependency.
    fn unit_score_planes(&self, bits: &[P; GENOME_BITS]) -> [P; SCORE_PLANES] {
        let bit = |s: usize, leg: usize, field: usize| bits[s * 18 + leg * 3 + field];

        // Rule 1 — equilibrium, one counter per step (≤ 4 each)
        let mut eq = [[P::ZERO; 3]; 2];
        for (s, eq_s) in eq.iter_mut().enumerate() {
            for field in [0usize, 2] {
                let left = bit(s, 0, field) & bit(s, 1, field) & bit(s, 2, field);
                let right = bit(s, 3, field) & bit(s, 4, field) & bit(s, 5, field);
                count_into(eq_s, !left);
                count_into(eq_s, !right);
            }
        }
        // Rule 2 — symmetry (≤ 6)
        let mut sy = [P::ZERO; 3];
        for leg in 0..6 {
            count_into(&mut sy, bit(0, leg, 1) ^ bit(1, leg, 1));
        }
        // Rule 3 — coherence, one counter per step (≤ 6 each)
        let mut co = [[P::ZERO; 3]; 2];
        for (s, co_s) in co.iter_mut().enumerate() {
            for leg in 0..6 {
                count_into(co_s, !(bit(s, leg, 0) ^ bit(s, leg, 1)));
            }
        }

        let eq: [P; 4] = add_planes(&eq[0], &eq[1]); // ≤ 8
        let co: [P; 4] = add_planes(&co[0], &co[1]); // ≤ 12
        let eqsy: [P; 5] = add_planes(&eq, &sy); // ≤ 14
                                                 // ≤ 26: the carry out of plane 4 is statically zero
        let mut total = [P::ZERO; SCORE_PLANES];
        let mut carry = P::ZERO;
        for p in 0..SCORE_PLANES {
            let cp = if p < 4 { co[p] } else { P::ZERO };
            let (s, c) = full_add(eqsy[p], cp, carry);
            total[p] = s;
            carry = c;
        }
        debug_assert!(carry.is_zero(), "unit-weight total overflows 5 planes");
        total
    }

    /// Arbitrary-weight scoring: per-rule counters, three extractions,
    /// exact `u32` recombination per lane.
    fn weighted_into(&self, bits: &[P; GENOME_BITS], out: &mut [u32]) {
        let bit = |s: usize, leg: usize, field: usize| bits[s * 18 + leg * 3 + field];
        let (we, ws, wc) = (
            self.spec.equilibrium_weight,
            self.spec.symmetry_weight,
            self.spec.coherence_weight,
        );

        // Rule 1 — equilibrium: a side fails when all three of its legs
        // are up, checked on the four vertical configurations (0..=8)
        let mut equilibrium = [P::ZERO; 4];
        for s in 0..2 {
            for field in [0usize, 2] {
                let left = bit(s, 0, field) & bit(s, 1, field) & bit(s, 2, field);
                let right = bit(s, 3, field) & bit(s, 4, field) & bit(s, 5, field);
                count_into(&mut equilibrium, !left);
                count_into(&mut equilibrium, !right);
            }
        }

        // Rule 2 — symmetry: legs whose horizontal direction differs
        // between the two steps (0..=6)
        let mut symmetry = [P::ZERO; 3];
        for leg in 0..6 {
            count_into(&mut symmetry, bit(0, leg, 1) ^ bit(1, leg, 1));
        }

        // Rule 3 — coherence: pre-vertical equals horizontal, per step per
        // leg (0..=12)
        let mut coherence = [P::ZERO; 4];
        for s in 0..2 {
            for leg in 0..6 {
                count_into(&mut coherence, !(bit(s, leg, 0) ^ bit(s, leg, 1)));
            }
        }

        // weighted recombination per lane — exact u32 arithmetic, so any
        // rule weighting matches the scalar unit bit-for-bit
        let mut eq = vec![0u8; P::LANES];
        let mut sy = vec![0u8; P::LANES];
        let mut co = vec![0u8; P::LANES];
        planes_to_bytes(&equilibrium, &mut eq);
        planes_to_bytes(&symmetry, &mut sy);
        planes_to_bytes(&coherence, &mut co);
        for (l, o) in out.iter_mut().enumerate() {
            *o = we * u32::from(eq[l]) + ws * u32::from(sy[l]) + wc * u32::from(co[l]);
        }
    }

    /// Score `P::LANES` genomes presented lane-major (word `l` = lane
    /// `l`'s genome bits): transpose, then
    /// [`Self::evaluate_transposed_into`].
    pub fn evaluate_lanes(&self, genomes: &[u64]) -> Vec<u32> {
        let mut out = vec![0u32; P::LANES];
        self.evaluate_lanes_into(genomes, &mut out);
        out
    }

    /// [`Self::evaluate_lanes`] writing into a caller buffer of
    /// `P::LANES` scores.
    pub fn evaluate_lanes_into(&self, genomes: &[u64], out: &mut [u32]) {
        let mut bits = [P::ZERO; GENOME_BITS];
        transposed_planes(genomes, &mut bits);
        self.evaluate_transposed_into(&bits, out);
    }

    /// Resource estimate: `P::LANES` copies of the scalar combinational
    /// network.
    pub fn resources(&self) -> Resources {
        Resources::logic_functions((26 + 21 + 10) * P::LANES as u32)
    }
}

/// One lane of `FitnessUnitXW::unit_score_planes` as boolean gates:
/// the same five carry-save counter chains and ripple-carry folds, with
/// every plane operation replaced by its single-lane gate. The projection
/// is exact because the sliced step uses only bitwise plane ops, so bit
/// `l` of each intermediate plane equals the corresponding scalar gate on
/// lane `l`'s inputs — at any plane width.
pub fn lane_unit_score_lits(c: &mut Circuit, bits: &[Lit; GENOME_BITS]) -> [Lit; SCORE_PLANES] {
    let bit = |s: usize, leg: usize, field: usize| bits[s * 18 + leg * 3 + field];

    // Rule 1 — equilibrium, one counter per step (≤ 4 each)
    let mut eq = [[Lit::FALSE; 3]; 2];
    for (s, eq_s) in eq.iter_mut().enumerate() {
        for field in [0usize, 2] {
            let left = c.and3(bit(s, 0, field), bit(s, 1, field), bit(s, 2, field));
            let right = c.and3(bit(s, 3, field), bit(s, 4, field), bit(s, 5, field));
            c.count_into(eq_s, left.not());
            c.count_into(eq_s, right.not());
        }
    }
    // Rule 2 — symmetry (≤ 6)
    let mut sy = [Lit::FALSE; 3];
    for leg in 0..6 {
        let x = c.xor(bit(0, leg, 1), bit(1, leg, 1));
        c.count_into(&mut sy, x);
    }
    // Rule 3 — coherence, one counter per step (≤ 6 each)
    let mut co = [[Lit::FALSE; 3]; 2];
    for (s, co_s) in co.iter_mut().enumerate() {
        for leg in 0..6 {
            let x = c.xnor(bit(s, leg, 0), bit(s, leg, 1));
            c.count_into(co_s, x);
        }
    }

    let eq4 = c.add_words(&eq[0], &eq[1]); // ≤ 8
    let co4 = c.add_words(&co[0], &co[1]); // ≤ 12
    let eqsy = c.add_words(&eq4, &sy); // ≤ 14
                                       // ≤ 26: like the sliced fold, the carry out of plane 4 is statically
                                       // zero and dropped
    let mut total = [Lit::FALSE; SCORE_PLANES];
    let mut carry = Lit::FALSE;
    for (p, t) in total.iter_mut().enumerate() {
        let cp = if p < 4 { co4[p] } else { Lit::FALSE };
        let (s, cy) = c.full_add(eqsy[p], cp, carry);
        *t = s;
        carry = cy;
    }
    total
}

/// One lane of the sliced unit under an arbitrary spec: the unit-weight
/// fast path above, or the per-rule counters and exact weighted
/// recombination mirroring `FitnessUnitXW::weighted_into`.
pub fn lane_score_lits(spec: FitnessSpec, c: &mut Circuit, bits: &[Lit; GENOME_BITS]) -> Word {
    if (
        spec.equilibrium_weight,
        spec.symmetry_weight,
        spec.coherence_weight,
    ) == (1, 1, 1)
    {
        return lane_unit_score_lits(c, bits).to_vec();
    }
    let bit = |s: usize, leg: usize, field: usize| bits[s * 18 + leg * 3 + field];
    let mut equilibrium = [Lit::FALSE; 4];
    for s in 0..2 {
        for field in [0usize, 2] {
            let left = c.and3(bit(s, 0, field), bit(s, 1, field), bit(s, 2, field));
            let right = c.and3(bit(s, 3, field), bit(s, 4, field), bit(s, 5, field));
            c.count_into(&mut equilibrium, left.not());
            c.count_into(&mut equilibrium, right.not());
        }
    }
    let mut symmetry = [Lit::FALSE; 3];
    for leg in 0..6 {
        let x = c.xor(bit(0, leg, 1), bit(1, leg, 1));
        c.count_into(&mut symmetry, x);
    }
    let mut coherence = [Lit::FALSE; 4];
    for s in 0..2 {
        for leg in 0..6 {
            let x = c.xnor(bit(s, leg, 0), bit(s, leg, 1));
            c.count_into(&mut coherence, x);
        }
    }
    let weq = c.mul_const(&equilibrium, u64::from(spec.equilibrium_weight));
    let wsy = c.mul_const(&symmetry, u64::from(spec.symmetry_weight));
    let wco = c.mul_const(&coherence, u64::from(spec.coherence_weight));
    let partial = c.add_words(&weq, &wsy);
    c.add_words(&partial, &wco)
}

/// The semantics of **one lane** of the sliced network (see
/// [`lane_unit_score_lits`] for why the projection is exact and covers
/// every lane of every width at once).
impl Semantics for FitnessUnitXW<u64> {
    fn semantics(&self) -> SeqCircuit {
        let mut sc = SeqCircuit::new("fitness_unit_x64");
        let genome: [Lit; GENOME_BITS] = sc
            .input("genome", GENOME_BITS)
            .try_into()
            .expect("genome width");
        let score = lane_score_lits(self.spec(), &mut sc.circuit, &genome);
        sc.output("fitness", score);
        sc
    }
}

impl crate::netlist::Describe for FitnessUnitXW<u64> {
    fn netlist(&self) -> crate::netlist::StaticNetlist {
        // fully combinational, widths scaled by the lane count
        let lanes = LANES as u32;
        crate::netlist::StaticNetlist::new("fitness_unit_x64")
            .claim(self.resources())
            .input("genome_bits", 36 * lanes)
            .wire("step1_fields", 18 * lanes)
            .wire("step2_fields", 18 * lanes)
            .wire("equilibrium", 4 * lanes)
            .wire("symmetry", 3 * lanes)
            .wire("coherence", 4 * lanes)
            .output("fitness", 5 * lanes)
            .edge("genome_bits", "step1_fields")
            .edge("genome_bits", "step2_fields")
            .fan_in(&["step1_fields", "step2_fields"], "equilibrium")
            .fan_in(&["step1_fields", "step2_fields"], "symmetry")
            .fan_in(&["step1_fields", "step2_fields"], "coherence")
            .fan_in(&["equilibrium", "symmetry", "coherence"], "fitness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::plane::{W128, W256, W512};
    use crate::fitness_rtl::FitnessUnit;
    use discipulus::fitness::{FitnessSpec, Rule};
    use discipulus::genome::{Genome, GENOME_MASK};

    fn scatter_genomes(round: u64) -> [u64; LANES] {
        let mut g = [0u64; LANES];
        for (i, w) in g.iter_mut().enumerate() {
            *w = (round * 64 + i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23)
                & GENOME_MASK;
        }
        g
    }

    fn plane_value<P: Plane>(planes: &[P; SCORE_PLANES], lane: usize) -> u32 {
        (0..SCORE_PLANES)
            .map(|p| u32::from(planes[p].bit(lane)) << p)
            .sum()
    }

    #[test]
    fn all_lanes_match_scalar_unit() {
        let sliced = FitnessUnitXW::<u64>::paper();
        let scalar = FitnessUnit::paper();
        for round in 0..200 {
            let genomes = scatter_genomes(round);
            let scores = sliced.evaluate_lanes(&genomes);
            for l in 0..LANES {
                assert_eq!(
                    scores[l],
                    scalar.evaluate(Genome::from_bits(genomes[l])),
                    "round {round} lane {l}"
                );
            }
        }
    }

    #[test]
    fn wide_lanes_match_scalar_unit() {
        let sliced = FitnessUnitXW::<W512>::paper();
        let scalar = FitnessUnit::paper();
        for round in 0..8 {
            let mut genomes = vec![0u64; 512];
            for (i, w) in genomes.iter_mut().enumerate() {
                *w = (round * 512 + i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(31)
                    & GENOME_MASK;
            }
            let scores = sliced.evaluate_lanes(&genomes);
            let planes = sliced.evaluate_lanes_planes(&genomes);
            for (l, &g) in genomes.iter().enumerate() {
                let want = scalar.evaluate(Genome::from_bits(g));
                assert_eq!(scores[l], want, "round {round} lane {l}");
                assert_eq!(plane_value(&planes, l), want, "planes lane {l}");
            }
        }
    }

    #[test]
    fn weighted_specs_match_scalar_unit() {
        for spec in [
            FitnessSpec::only(Rule::Symmetry),
            FitnessSpec::without(Rule::Equilibrium),
            FitnessSpec::paper(),
        ] {
            let sliced = FitnessUnitXW::<u64>::new(spec);
            let scalar = FitnessUnit::new(spec);
            let genomes = scatter_genomes(7);
            let scores = sliced.evaluate_lanes(&genomes);
            for l in 0..LANES {
                assert_eq!(scores[l], scalar.evaluate(Genome::from_bits(genomes[l])));
            }
        }
    }

    #[test]
    fn wide_weighted_specs_match_scalar_unit() {
        for spec in [
            FitnessSpec::only(Rule::Symmetry),
            FitnessSpec::without(Rule::Equilibrium),
        ] {
            let sliced = FitnessUnitXW::<W256>::new(spec);
            let scalar = FitnessUnit::new(spec);
            let genomes: Vec<u64> = (0..256u64)
                .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(9) & GENOME_MASK)
                .collect();
            let scores = sliced.evaluate_lanes(&genomes);
            for (l, &g) in genomes.iter().enumerate() {
                assert_eq!(scores[l], scalar.evaluate(Genome::from_bits(g)), "lane {l}");
            }
        }
    }

    #[test]
    fn unit_weight_fast_path_equals_weighted_path() {
        // same spec through both code paths: paper weights taken literally
        // (fast path) versus forced through the generic recombination
        let fast = FitnessUnitXW::<u64>::paper();
        let scalar = FitnessUnit::paper();
        for round in 0..50 {
            let genomes = scatter_genomes(1000 + round);
            let scores = fast.evaluate_lanes(&genomes);
            for l in 0..LANES {
                assert_eq!(scores[l], scalar.evaluate(Genome::from_bits(genomes[l])));
            }
        }
    }

    #[test]
    fn score_planes_match_integer_scores() {
        // the sliced-score path (unit fast path AND the weighted re-slice)
        // agrees with the integer API plane-for-plane
        for spec in [
            FitnessSpec::paper(),
            FitnessSpec::only(Rule::Coherence),
            FitnessSpec::without(Rule::Symmetry),
        ] {
            let fu = FitnessUnitXW::<u64>::new(spec);
            for round in 0..50 {
                let genomes = scatter_genomes(3000 + round);
                let ints = fu.evaluate_lanes(&genomes);
                let planes = fu.evaluate_lanes_planes(&genomes);
                for (l, &want) in ints.iter().enumerate() {
                    assert_eq!(plane_value(&planes, l), want, "lane {l} spec {spec:?}");
                }
            }
        }
    }

    /// `consecutive_genome_planes::<P>` against an explicit transpose of
    /// the same `P::LANES` genomes.
    fn check_consecutive_planes<P: Plane>() {
        let lanes = P::LANES as u64;
        for base in [0u64, lanes, 0xA_4567_8800, (GENOME_MASK + 1) - lanes] {
            let genomes: Vec<u64> = (0..lanes).map(|l| base + l).collect();
            let mut t = [P::ZERO; GENOME_BITS];
            transposed_planes(&genomes, &mut t);
            let planes = consecutive_genome_planes::<P>(base);
            assert_eq!(&t[..], &planes[..], "{} base {base:#x}", P::NAME);
        }
    }

    #[test]
    fn wide_consecutive_planes_match_explicit_transpose() {
        check_consecutive_planes::<u64>();
        check_consecutive_planes::<W128>();
        check_consecutive_planes::<W256>();
        check_consecutive_planes::<W512>();
    }

    #[test]
    fn consecutive_scores_match_scalar_unit() {
        let sliced = FitnessUnitXW::<u64>::paper();
        let scalar = FitnessUnit::paper();
        for base in [0u64, 12 * 64, (1 << 36) - 64] {
            let planes = sliced.evaluate_consecutive_planes(base);
            for l in 0..LANES {
                let want = scalar.evaluate(Genome::from_bits(base + l as u64));
                assert_eq!(plane_value(&planes, l), want, "base {base:#x} lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "64-aligned")]
    fn consecutive_planes_reject_unaligned_base() {
        let _ = consecutive_genome_planes::<u64>(7);
    }

    #[test]
    #[should_panic(expected = "256-aligned")]
    fn wide_consecutive_planes_reject_unaligned_base() {
        let _ = consecutive_genome_planes::<W256>(64);
    }

    #[test]
    fn lane_semantics_matches_sliced_lanes() {
        for spec in [
            FitnessSpec::paper(),
            FitnessSpec::only(Rule::Coherence),
            FitnessSpec::without(Rule::Symmetry),
        ] {
            let fu = FitnessUnitXW::<u64>::new(spec);
            let sc = fu.semantics();
            sc.validate().unwrap();
            let out = sc.find_output("fitness").unwrap();
            let genomes = scatter_genomes(42);
            let want = fu.evaluate_lanes(&genomes);
            for (l, &g) in genomes.iter().enumerate() {
                let inputs: Vec<bool> = (0..36).map(|b| g >> b & 1 == 1).collect();
                let values = sc.circuit.eval_nodes(&inputs);
                assert_eq!(
                    crate::semantics::Circuit::word_value(&values, out),
                    u64::from(want[l]),
                    "lane {l} spec {spec:?}"
                );
            }
        }
    }

    #[test]
    fn corner_genomes_on_every_lane() {
        let sliced = FitnessUnitXW::<u64>::paper();
        let scalar = FitnessUnit::paper();
        for bits in [0u64, GENOME_MASK, 0x5_5555_5555, Genome::tripod().bits()] {
            let scores = sliced.evaluate_lanes(&[bits; LANES]);
            let want = scalar.evaluate(Genome::from_bits(bits));
            assert!(scores.iter().all(|&s| s == want));
        }
    }
}
