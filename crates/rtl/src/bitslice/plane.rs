//! The plane word: how many lanes one bit-sliced signal carries.
//!
//! Every bit-sliced unit in this module tree is generic over a [`Plane`]
//! — the machine word that holds one logic signal across all simulation
//! lanes. `u64` is the classic 64-lane SWAR plane; [`W128`], [`W256`] and
//! [`W512`] widen it to 2, 4 and 8 `u64`s per signal. The wide words are
//! plain `[u64; N]` newtypes whose operators are branch-free elementwise
//! loops: with `target-cpu=native` the compiler autovectorizes them onto
//! whatever SIMD the host offers, which is the whole performance story —
//! the workspace `forbid(unsafe_code)` rules out hand-written `core::arch`
//! intrinsics, and none are needed. On an AVX-512 host LLVM still keeps
//! the plane ops to 256-bit vectors, so a `W512` AND/XOR/OR is two `ymm`
//! ops: `CaRngXW::<W512>::clock_free` compiles to 64 `vpxor` and 8
//! `vpternlogq`, all on `ymm`, and a release perfbench build held 436
//! logic ops on `zmm` against 7114 on `ymm`. The build sets no flag that
//! changes the preferred vector width.
//!
//! ## The codegen rule for hot plane loops
//!
//! A `Wide` operator is one vector op only where LLVM sees it on its own.
//! Inside a loop over CA cells, mux-tree nodes or planes, LLVM's loop
//! vectorizer vectorizes *across* the loop's iterations instead: a `W512`
//! CA clock written as `for i in 0..32` compiled to a 2 KB `memcpy` plus a
//! `vpermt2q`/`vpunpck` shuffle loop, and the score gather's level loops
//! to `vpgatherqq`/`vpscatterqq`. So the batch engine's hot plane loops
//! take shapes that leave no such loop:
//!
//! - **limb-major, straight-line**: one loop over the plane's limbs
//!   (`w in 0..P::WORDS`, reading limbs through [`Plane::word`]) whose
//!   body is the whole update written out per cell with `each_cell!`.
//!   The loop vectorizer then maps the limb loop onto vector registers:
//!   one vector op per plane op
//!   ([`CaRngXW::clock_free`](super::CaRngXW::clock_free), the jump's
//!   nibble tables);
//! - **whole-plane, straight-line**: the update written out per cell with
//!   `each_cell!` on whole planes, no limb loop. The masked
//!   [`CaRngXW::clock`](super::CaRngXW::clock) takes this shape: with the
//!   mask blend added, LLVM fully unrolled the two-limb loop of a `W128`
//!   and left it scalar;
//! - **a chain each step depends on**: the gather's leaf-by-leaf walk, the
//!   comparators' and counters' carry chains, each step a whole-node
//!   update ([`gather_scores`](super::gather_scores));
//! - **a loop index LLVM does not follow**: the transpose's row-pair walk
//!   (`k = ((k | j) + 1) & !j` in
//!   [`transpose64`](super::transpose::transpose64)), each step one
//!   whole-plane op on two rows. Written as a counted `for k in
//!   base..base + j`, it was vectorized across rows and ran 1.3–3× slower
//!   on every wide plane;
//! - where none of these fits, an opaque index (`std::hint::black_box`)
//!   on the jump's row loop, which keeps each row's eight table lookups
//!   whole loads instead of gathers.
//!
//! `perf_report`'s `plane_ops` row (median ns per call, median of five
//! runs on a 2-core AVX-512 host) before → after these shapes:
//!
//! | width | clock | masked clock | stride-37 jump | score gather |
//! |---|---|---|---|---|
//! | u64 | 14.2 → 14.4 | 42.1 → 16.3 | 184 → 164 | 117 → 78 |
//! | W128 | 36.2 → 17.6 | 43.9 → 45.9 | 337 → 250 | 226 → 125 |
//! | W256 | 112 → 26.5 | 111 → 26.3 | 539 → 282 | 468 → 148 |
//! | W512 | 199 → 49.4 | 241 → 49.9 | 1449 → 493 | 941 → 262 |
//!
//! and before → after the whole-plane transpose, the whole-plane
//! multiply-spread read-back and the whole-plane masked clock (same
//! host, parent and change alternating):
//!
//! | row | u64 | W128 | W256 | W512 |
//! |---|---|---|---|---|
//! | transpose, column → 36 planes | 169 → 171 | 341 → 225 | 702 → 261 | 1383 → 586 |
//! | read-back, 11 planes → `u16` | 123 → 97 | 320 → 178 | 560 → 294 | 1117 → 667 |
//! | masked clock | 12.9 → 13.5 | 26.6 → 18.0 | 18.3 → 18.8 | 40.4 → 37.7 |
//!
//! A `Plane` doubles as the **lane mask** of its own width: bit `l`
//! selects lane `l`. All mask algebra (hold-blends, mask-and-reject
//! retries, convergence freezing) is the same boolean algebra as the data
//! path, so the engines never need a second mask type.
//!
//! [`plane_registry`] enumerates every width the crate ships, each with an
//! equivalence probe pinning its kernels to the scalar engine — the
//! analysis gate runs these so an unregistered or broken width cannot
//! ship silently.

use core::fmt::Debug;
use core::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Run `$body` once per CA cell index `0..32`, written out as
/// straight-line code with `$i` bound to a constant (see the codegen rule
/// in the module docs).
macro_rules! each_cell {
    ($i:ident => $body:block) => {
        each_cell!(@ $i $body;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
            16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
    };
    (@ $i:ident $body:block; $($n:literal)*) => {
        $({
            let $i: usize = $n;
            $body
        })*
    };
}
pub(crate) use each_cell;

/// The per-lane select `(a & m) | (b & !m)`: lane `l` takes `a` where
/// `m` is set and `b` elsewhere.
#[inline(always)]
pub(crate) fn blend<P: Plane>(a: P, b: P, m: P) -> P {
    (a & m) | (b & !m)
}

/// A bit-sliced machine word carrying one logic signal for
/// [`Self::LANES`] simulation lanes.
pub trait Plane:
    Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + BitXorAssign
{
    /// Number of simulation lanes this word carries.
    const LANES: usize;
    /// Number of `u64` limbs (`LANES / 64`).
    const WORDS: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;
    /// Short lower-case width tag (`"u64"`, `"w128"`, …) used by the
    /// registry, benches and manifests.
    const NAME: &'static str;

    /// Broadcast one bit to every lane (branch-free in the callers:
    /// `splat(b) & x` is the sliced form of `if b { x } else { 0 }`).
    #[inline(always)]
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// The one-hot word selecting `lane`.
    fn lane_bit(lane: usize) -> Self;

    /// The mask selecting the first `n` lanes.
    ///
    /// # Panics
    /// Panics if `n > Self::LANES`.
    fn low_mask(n: usize) -> Self;

    /// Lane `lane` of this word.
    fn bit(self, lane: usize) -> bool;

    /// Set lane `lane` of this word.
    fn set_bit(&mut self, lane: usize, value: bool);

    /// Whether no lane is set.
    fn is_zero(self) -> bool;

    /// Number of set lanes.
    fn count_ones(self) -> u32;

    /// Limb `w` (lanes `64·w .. 64·w + 64`). Read through a reference, so
    /// a loop over `w` reads the limb in place instead of copying the
    /// whole word first.
    fn word(&self, w: usize) -> u64;

    /// Replace limb `w`.
    fn set_word(&mut self, w: usize, value: u64);

    /// Build a word limb by limb.
    fn from_words(f: impl FnMut(usize) -> u64) -> Self;

    /// Run `f` for every set lane, ascending. A full limb — the steady
    /// state of a batch run — takes a plain counted loop instead of the
    /// find-and-clear bit scan, which the hot per-lane loops care about.
    #[inline]
    fn for_each_set_lane(self, mut f: impl FnMut(usize)) {
        for w in 0..Self::WORDS {
            let mut m = self.word(w);
            if m == !0 {
                for l in 64 * w..64 * w + 64 {
                    f(l);
                }
                continue;
            }
            while m != 0 {
                f(64 * w + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }
}

impl Plane for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = !0;
    const NAME: &'static str = "u64";

    #[inline(always)]
    fn lane_bit(lane: usize) -> Self {
        debug_assert!(lane < 64);
        1u64 << lane
    }

    #[inline(always)]
    fn low_mask(n: usize) -> Self {
        assert!(n <= 64, "at most 64 lanes");
        if n == 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline(always)]
    fn bit(self, lane: usize) -> bool {
        self >> lane & 1 == 1
    }

    #[inline(always)]
    fn set_bit(&mut self, lane: usize, value: bool) {
        *self = (*self & !(1u64 << lane)) | (u64::from(value) << lane);
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline(always)]
    fn word(&self, w: usize) -> u64 {
        debug_assert_eq!(w, 0);
        *self
    }

    #[inline(always)]
    fn set_word(&mut self, w: usize, value: u64) {
        debug_assert_eq!(w, 0);
        *self = value;
    }

    #[inline(always)]
    fn from_words(mut f: impl FnMut(usize) -> u64) -> Self {
        f(0)
    }
}

/// A wide plane of `N` `u64` limbs (`64·N` lanes), stored little-endian
/// by lane: limb `w` carries lanes `64·w .. 64·w + 64`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wide<const N: usize>(pub [u64; N]);

/// 128 lanes per signal word.
pub type W128 = Wide<2>;
/// 256 lanes per signal word.
pub type W256 = Wide<4>;
/// 512 lanes per signal word.
pub type W512 = Wide<8>;

impl<const N: usize> Debug for Wide<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Wide<{N}>[")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

impl<const N: usize> BitAnd for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        Wide(core::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl<const N: usize> BitOr for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        Wide(core::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }
}

impl<const N: usize> BitXor for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        Wide(core::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl<const N: usize> Not for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        Wide(core::array::from_fn(|i| !self.0[i]))
    }
}

impl<const N: usize> BitAndAssign for Wide<N> {
    #[inline(always)]
    fn bitand_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o &= r;
        }
    }
}

impl<const N: usize> BitOrAssign for Wide<N> {
    #[inline(always)]
    fn bitor_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o |= r;
        }
    }
}

impl<const N: usize> BitXorAssign for Wide<N> {
    #[inline(always)]
    fn bitxor_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o ^= r;
        }
    }
}

macro_rules! wide_plane {
    ($n:literal, $name:literal) => {
        impl Plane for Wide<$n> {
            const LANES: usize = 64 * $n;
            const WORDS: usize = $n;
            const ZERO: Self = Wide([0u64; $n]);
            const ONES: Self = Wide([!0u64; $n]);
            const NAME: &'static str = $name;

            #[inline(always)]
            fn lane_bit(lane: usize) -> Self {
                debug_assert!(lane < Self::LANES);
                let mut out = Self::ZERO;
                out.0[lane / 64] = 1u64 << (lane % 64);
                out
            }

            #[inline(always)]
            fn low_mask(n: usize) -> Self {
                assert!(n <= Self::LANES, "at most {} lanes", Self::LANES);
                Wide(core::array::from_fn(|w| {
                    let lo = 64 * w;
                    if n >= lo + 64 {
                        !0u64
                    } else if n <= lo {
                        0
                    } else {
                        (1u64 << (n - lo)) - 1
                    }
                }))
            }

            #[inline(always)]
            fn bit(self, lane: usize) -> bool {
                self.0[lane / 64] >> (lane % 64) & 1 == 1
            }

            #[inline(always)]
            fn set_bit(&mut self, lane: usize, value: bool) {
                let b = 1u64 << (lane % 64);
                let w = &mut self.0[lane / 64];
                *w = (*w & !b) | (u64::from(value) << (lane % 64));
            }

            #[inline(always)]
            fn is_zero(self) -> bool {
                self.0.iter().all(|&w| w == 0)
            }

            #[inline(always)]
            fn count_ones(self) -> u32 {
                self.0.iter().map(|w| w.count_ones()).sum()
            }

            #[inline(always)]
            fn word(&self, w: usize) -> u64 {
                self.0[w]
            }

            #[inline(always)]
            fn set_word(&mut self, w: usize, value: u64) {
                self.0[w] = value;
            }

            #[inline(always)]
            fn from_words(f: impl FnMut(usize) -> u64) -> Self {
                Wide(core::array::from_fn(f))
            }
        }
    };
}

wide_plane!(2, "w128");
wide_plane!(4, "w256");
wide_plane!(8, "w512");

/// One registered plane width: its shape plus the equivalence probe the
/// analysis gate runs to pin the width's kernels to the scalar engine.
#[derive(Clone, Copy)]
pub struct PlaneWidth {
    /// The width tag ([`Plane::NAME`]).
    pub name: &'static str,
    /// Lanes per signal word.
    pub lanes: usize,
    /// `u64` limbs per signal word.
    pub words: usize,
    /// A fast bit-exactness probe: every kernel of this width against the
    /// scalar engine on a small deterministic schedule. `Err` carries the
    /// first mismatch.
    pub probe: fn() -> Result<(), String>,
}

impl Debug for PlaneWidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PlaneWidth")
            .field("name", &self.name)
            .field("lanes", &self.lanes)
            .field("words", &self.words)
            .finish()
    }
}

/// Every plane width this crate ships, ascending by lane count. The
/// analysis gate lints this registry (shape sanity + probes), and the
/// lane-equivalence suite in `tests/` asserts it covers exactly the
/// widths the suite instantiates — adding a width without extending the
/// suite fails both gates.
pub fn plane_registry() -> &'static [PlaneWidth] {
    const REGISTRY: [PlaneWidth; 4] = [
        PlaneWidth {
            name: "u64",
            lanes: 64,
            words: 1,
            probe: probe_width::<u64>,
        },
        PlaneWidth {
            name: "w128",
            lanes: 128,
            words: 2,
            probe: probe_width::<W128>,
        },
        PlaneWidth {
            name: "w256",
            lanes: 256,
            words: 4,
            probe: probe_width::<W256>,
        },
        PlaneWidth {
            name: "w512",
            lanes: 512,
            words: 8,
            probe: probe_width::<W512>,
        },
    ];
    &REGISTRY
}

/// Probe seeds: distinct, nonzero, covering every lane of the widest
/// plane.
fn probe_seeds(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x0BAD_F00D)
        .collect()
}

/// The per-width equivalence probe: RNG, fitness network, the landscape
/// sweep's consecutive-genome planes and the whole batch GAP of width
/// `P` against their scalar counterparts on a small deterministic
/// schedule. This is intentionally a subset of the full
/// lane-equivalence suite — cheap enough for the analysis gate to run on
/// every width at every `check`, strict enough that a broken kernel at
/// any width is caught with a named lane.
fn probe_width<P: Plane>() -> Result<(), String> {
    use crate::bitslice::{CaRngXW, FitnessUnitXW, GapRtlXW, GapRtlXWConfig, SCORE_PLANES};
    use crate::gap_rtl::{GapRtl, GapRtlConfig};
    use crate::rng_rtl::CaRngRtl;
    use discipulus::genome::{Genome, GENOME_BITS, GENOME_MASK};

    let seeds = probe_seeds(P::LANES);
    // 1. the CA RNG: clocked and jumped lanes against scalar generators
    let mut rng = CaRngXW::<P>::new(&seeds);
    let mut scalars: Vec<CaRngRtl> = seeds.iter().map(|&s| CaRngRtl::new(s)).collect();
    for step in 0..48 {
        rng.clock(P::ONES);
        for (l, s) in scalars.iter_mut().enumerate() {
            s.clock();
            if rng.lane_word(l) != s.word() {
                return Err(format!(
                    "{}: CaRngXW lane {l} diverges from the scalar CA at step {step}",
                    P::NAME
                ));
            }
        }
    }
    rng.advance(P::ONES, 38);
    for (l, s) in scalars.iter_mut().enumerate() {
        for _ in 0..38 {
            s.clock();
        }
        if rng.lane_word(l) != s.word() {
            return Err(format!(
                "{}: CaRngXW lane {l} diverges after the 38-cycle jump",
                P::NAME
            ));
        }
    }
    // 2. the fitness network: every lane against the scalar spec
    let unit = FitnessUnitXW::<P>::paper();
    let spec = unit.spec();
    let genomes: Vec<u64> = (0..P::LANES as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21) & GENOME_MASK)
        .collect();
    let scores = unit.evaluate_lanes(&genomes);
    for (l, (&g, &got)) in genomes.iter().zip(&scores).enumerate() {
        let want = spec.evaluate(Genome::from_bits(g));
        if got != want {
            return Err(format!(
                "{}: FitnessUnitXW lane {l} scores genome {g:#011x} as {got}, scalar says {want}",
                P::NAME
            ));
        }
    }
    // 3. the sweep's input: aligned consecutive blocks scored without a
    //    transpose — the first, the one just below the carry run into bit
    //    32, and the last — every lane against the scalar spec
    let lanes = P::LANES as u64;
    for base in [0, (1 << 32) - lanes, (1 << GENOME_BITS) - lanes] {
        let planes = unit.evaluate_consecutive_planes(base);
        for (l, genome) in (base..base + lanes).enumerate() {
            let got: u32 = (0..SCORE_PLANES)
                .map(|p| u32::from(planes[p].bit(l)) << p)
                .sum();
            let want = spec.evaluate(Genome::from_bits(genome));
            if got != want {
                return Err(format!(
                    "{}: consecutive block {base:#011x} lane {l} scores {got}, scalar says {want}",
                    P::NAME
                ));
            }
        }
    }
    // 4. the whole batch GAP: two generations of lockstep on a lane
    //    sample (first, middle, last), full population + cycle compare
    let gap_seeds = probe_seeds(P::LANES);
    let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &gap_seeds);
    gap.step_generation();
    gap.step_generation();
    for l in [0, P::LANES / 2, P::LANES - 1] {
        let mut scalar = GapRtl::new(GapRtlConfig::paper(gap_seeds[l]));
        scalar.step_generation();
        scalar.step_generation();
        if gap.population(l) != scalar.population() {
            return Err(format!(
                "{}: GapRtlXW lane {l} population diverges from the scalar GAP",
                P::NAME
            ));
        }
        if gap.cycles(l) != scalar.clock().cycles() {
            return Err(format!(
                "{}: GapRtlXW lane {l} cycle count {} != scalar {}",
                P::NAME,
                gap.cycles(l),
                scalar.clock().cycles()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // `b | b` / `b ^ b`: idempotence and self-inverse are the properties
    // under test.
    #[allow(clippy::eq_op)]
    fn check_mask_algebra<P: Plane>() {
        assert_eq!(P::LANES, 64 * P::WORDS);
        assert!(P::ZERO.is_zero());
        assert_eq!(P::ONES.count_ones() as usize, P::LANES);
        assert_eq!(P::low_mask(0), P::ZERO);
        assert_eq!(P::low_mask(P::LANES), P::ONES);
        for lane in [0, 1, 63, P::LANES / 2, P::LANES - 1] {
            let b = P::lane_bit(lane);
            assert_eq!(b.count_ones(), 1, "lane {lane}");
            assert!(b.bit(lane));
            assert!((b & !b).is_zero());
            assert_eq!(b | b, b);
            assert_eq!(b ^ b, P::ZERO);
            let mut m = P::ZERO;
            m.set_bit(lane, true);
            assert_eq!(m, b);
            m.set_bit(lane, false);
            assert!(m.is_zero());
            assert_eq!(
                P::low_mask(lane + 1).count_ones() as usize,
                lane + 1,
                "low_mask({})",
                lane + 1
            );
            assert!(P::low_mask(lane + 1).bit(lane));
        }
        // set-lane iteration visits exactly the set lanes, ascending
        let mut m = P::ZERO;
        let picks: Vec<usize> = (0..P::LANES).filter(|l| l % 7 == 3).collect();
        for &l in &picks {
            m.set_bit(l, true);
        }
        let mut seen = Vec::new();
        m.for_each_set_lane(|l| seen.push(l));
        assert_eq!(seen, picks);
        assert_eq!(m.count_ones() as usize, picks.len());
    }

    #[test]
    fn mask_algebra_on_every_width() {
        check_mask_algebra::<u64>();
        check_mask_algebra::<W128>();
        check_mask_algebra::<W256>();
        check_mask_algebra::<W512>();
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn low_mask_overflow_rejected() {
        u64::low_mask(65);
    }

    #[test]
    fn words_round_trip() {
        let mut w = W256::ZERO;
        w.set_word(2, 0xDEAD_BEEF);
        assert_eq!(w.word(2), 0xDEAD_BEEF);
        assert_eq!(w.word(0), 0);
        assert!(w.bit(128 + 31));
        let v = W256::from_words(|i| i as u64 + 1);
        assert_eq!(v.word(0), 1);
        assert_eq!(v.word(3), 4);
    }

    #[test]
    fn registry_shapes_are_sane() {
        let reg = plane_registry();
        assert_eq!(reg.len(), 4);
        let mut last = 0usize;
        for w in reg {
            assert_eq!(w.lanes, 64 * w.words, "{}", w.name);
            assert!(w.lanes > last, "registry must ascend");
            last = w.lanes;
        }
        assert_eq!(reg[0].name, "u64");
        assert_eq!(reg[3].lanes, 512);
    }

    #[test]
    fn registry_probes_pass() {
        for w in plane_registry() {
            (w.probe)().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
