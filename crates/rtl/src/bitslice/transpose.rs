//! 64×64 bit-matrix transposes — the bridge between the lane-major layout
//! (word `l` = lane `l`'s value) and the bit-sliced layout (word `b` = bit
//! `b` across all lanes).
//!
//! Every helper ([`transposed_planes`], [`planes_to_lanes`],
//! [`planes_to_bytes`], [`planes_to_u16`]) works on whole planes: a
//! `W512` conversion is one [`transpose64`] (or one multiply-spread pass)
//! whose every step is one 512-bit plane op, not eight scalar passes, one
//! per limb. Only the strided reads and writes of the lane-major side
//! touch single limbs.

use crate::bitslice::plane::Plane;

/// Transpose `P::WORDS` 64×64 bit matrices at once, one per limb, in
/// place: afterwards bit `c` of limb `w` of row `r` holds what bit `r` of
/// limb `w` of row `c` held before. Row `k` of a lane-major block holds
/// lanes `k`, `64 + k`, … in its limbs, so the transposed row `b` is the
/// bit-`b` plane of every lane. Recursive block-swap formulation (Hacker's
/// Delight §7-3 generalized to 64 bits): at scale `j` the top-right and
/// bottom-left `j`×`j` sub-blocks swap, six scales, 192 row pairs of six
/// plane ops each — at `P = u64` the classic word transpose.
pub fn transpose64<P: Plane>(a: &mut [P; 64]) {
    let mut j = 32u32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mask = P::from_words(|_| m);
        let mut k = 0usize;
        while k < 64 {
            let hi = k | j as usize;
            let t = (P::from_words(|w| a[k].word(w) >> j) ^ a[hi]) & mask;
            a[k] ^= P::from_words(|w| t.word(w) << j);
            a[hi] ^= t;
            k = (hi + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Spread one byte group of every limb of a bit-plane into eight
/// lane-bytes per limb, shifted up by `shift`. The multiply fans the byte
/// across all eight byte positions and the mask keeps the anti-diagonal
/// bit of each, so the result's byte `k` in limb `w` carries lane
/// `64·w + 8·group + 7 − k` — callers must index the output mirrored.
#[inline(always)]
fn spread8<P: Plane>(plane: &P, group: usize, shift: u32) -> P {
    P::from_words(|w| {
        let byte = plane.word(w) >> (8 * group) & 0xFF;
        (byte.wrapping_mul(0x8040_2010_0804_0201) >> 7 & 0x0101_0101_0101_0101) << shift
    })
}

/// Columnwise transpose: gather up to 8 bit-planes into one byte per
/// lane (`out[l]` bit `j` = lane `l` of `planes[j]`). This is the
/// word-parallel way to read a small per-lane value (a draw result, a
/// carry-save count) out of the sliced domain — eight lanes of every
/// limb per multiply-spread plane op instead of a per-lane bit gather.
///
/// # Panics
/// Debug-asserts `planes.len() ≤ 8` and `out.len() == P::LANES`.
pub fn planes_to_bytes<P: Plane>(planes: &[P], out: &mut [u8]) {
    debug_assert!(planes.len() <= 8, "at most 8 planes fit a byte");
    debug_assert_eq!(out.len(), P::LANES);
    for group in 0..8 {
        let mut acc = P::ZERO;
        for (j, plane) in planes.iter().enumerate() {
            acc |= spread8(plane, group, j as u32);
        }
        for w in 0..P::WORDS {
            // one byte-reversal un-mirrors the multiply-spread (its byte
            // k is lane base + 7 − k) instead of eight scalar stores
            let base = 64 * w + 8 * group;
            out[base..base + 8].copy_from_slice(&acc.word(w).swap_bytes().to_le_bytes());
        }
    }
}

/// Gather 9..=16 bit-planes into one `u16` per lane (two byte-spread
/// accumulators per byte group, for the low and high byte halves).
///
/// # Panics
/// Debug-asserts `8 < planes.len() ≤ 16` and `out.len() == P::LANES`.
pub fn planes_to_u16<P: Plane>(planes: &[P], out: &mut [u16]) {
    debug_assert!(planes.len() > 8 && planes.len() <= 16);
    debug_assert_eq!(out.len(), P::LANES);
    let (low, high) = planes.split_at(8);
    for group in 0..8 {
        let mut lo = P::ZERO;
        for (j, plane) in low.iter().enumerate() {
            lo |= spread8(plane, group, j as u32);
        }
        let mut hi = P::ZERO;
        for (j, plane) in high.iter().enumerate() {
            hi |= spread8(plane, group, j as u32);
        }
        for w in 0..P::WORDS {
            let lo = lo.word(w).swap_bytes().to_le_bytes();
            let hi = hi.word(w).swap_bytes().to_le_bytes();
            let base = 64 * w + 8 * group;
            for k in 0..8 {
                out[base + k] = u16::from(lo[k]) | u16::from(hi[k]) << 8;
            }
        }
    }
}

/// Transpose `P::LANES` lane-major words into up to 64 wide bit-planes:
/// afterwards `out[b]` carries bit `b` of every lane. One whole-plane
/// [`transpose64`]: row `k`'s limb `w` is lane `64·w + k`, read strided
/// from the column.
///
/// # Panics
/// Debug-asserts `lane_major.len() == P::LANES` and `out.len() ≤ 64`.
pub fn transposed_planes<P: Plane>(lane_major: &[u64], out: &mut [P]) {
    debug_assert_eq!(lane_major.len(), P::LANES);
    debug_assert!(out.len() <= 64);
    let lane_major = &lane_major[..P::LANES];
    let mut rows = [P::ZERO; 64];
    for (k, row) in rows.iter_mut().enumerate() {
        *row = P::from_words(|w| lane_major[64 * w + k]);
    }
    transpose64(&mut rows);
    out.copy_from_slice(&rows[..out.len()]);
}

/// A mask with at most this many lanes is read lane by lane. On 36
/// planes (2-core AVX-512 host) one lane costs 10–15 ns at every width
/// and one transpose 190, 250, 350 and 700 ns at `u64`, `W128`, `W256`
/// and `W512`, so the lane reads stay cheaper up to about 18, 17, 21 and
/// 40 lanes. The batch driver refills every free lane once at least 8 are
/// free, 8.4 lanes a group on average over a 64-lane batch: its refills
/// take the lane reads, an engine's all-lane power-on the transpose.
const SPARSE_LANES: u32 = 16;

/// The inverse of [`transposed_planes`] for the lanes of `lanes`:
/// afterwards `out[l]` bit `b` is lane `l` of `planes[b]` for every lane
/// `l` of `lanes` (bits from `planes.len()` up are zero); the words of
/// other lanes are left as they were. Up to 16 lanes are read lane by
/// lane, more take one whole-plane [`transpose64`].
///
/// # Panics
/// Debug-asserts `planes.len() ≤ 64` and `out.len() == P::LANES`.
pub fn planes_to_lanes<P: Plane>(planes: &[P], lanes: P, out: &mut [u64]) {
    debug_assert!(planes.len() <= 64);
    debug_assert_eq!(out.len(), P::LANES);
    if lanes.count_ones() <= SPARSE_LANES {
        lanes.for_each_set_lane(|l| {
            let (w, bit) = (l / 64, l % 64);
            out[l] = planes
                .iter()
                .enumerate()
                .fold(0, |v, (b, p)| v | (p.word(w) >> bit & 1) << b);
        });
        return;
    }
    let mut rows = [P::ZERO; 64];
    rows[..planes.len()].copy_from_slice(planes);
    transpose64(&mut rows);
    for w in 0..P::WORDS {
        let m = lanes.word(w);
        for (k, (o, row)) in out[64 * w..64 * w + 64].iter_mut().zip(&rows).enumerate() {
            if m >> k & 1 == 1 {
                *o = row.word(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (r, o) in out.iter_mut().enumerate() {
            for (c, &w) in a.iter().enumerate() {
                *o |= (w >> r & 1) << c;
            }
        }
        out
    }

    #[test]
    fn matches_naive_transpose() {
        // deterministic scatter covering all bit positions
        let mut a = [0u64; 64];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for w in a.iter_mut() {
            x = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_add(0xDEAD_BEEF);
            *w = x;
        }
        let want = naive(&a);
        transpose64(&mut a);
        assert_eq!(a, want);
    }

    #[test]
    fn is_an_involution() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x0101_0101_0101_0101) ^ (1u64 << i);
        }
        let orig = a;
        transpose64(&mut a);
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn identity_matrix_fixed_point() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = 1u64 << i;
        }
        let orig = a;
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    /// One kind of limb in a `planes_to_lanes` mask.
    #[derive(Clone, Copy, Debug)]
    enum Limb {
        Dense,
        Sparse,
        Empty,
        Full,
    }

    impl Limb {
        const ALL: [Limb; 4] = [Limb::Dense, Limb::Sparse, Limb::Empty, Limb::Full];

        fn word(self) -> u64 {
            match self {
                Limb::Dense => !0x0F00u64,
                Limb::Sparse => 0x8000_0000_0021_0201, // 5 lanes
                Limb::Empty => 0,
                Limb::Full => !0,
            }
        }
    }

    /// Every conversion at width `P` against the naive per-lane bit
    /// gather; `planes_to_lanes` under masks whose limbs cycle through
    /// every limb kind, so each width meets each kind in each limb
    /// position, under alternating sparse and empty limbs, under one
    /// sparse limb alone, and under driver-like refill masks of
    /// `SPARSE_LANES` lanes (read lane by lane) and one more (transposed)
    /// spread over the whole plane.
    fn check_conversions<P: Plane>() {
        let mut lane_major = vec![0u64; P::LANES];
        let mut x = 0x0F1E_2D3C_4B5A_6978u64;
        for w in lane_major.iter_mut() {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13);
            *w = x;
        }
        let name = P::NAME;
        let mut planes = [P::ZERO; 40];
        transposed_planes(&lane_major, &mut planes);
        for (b, p) in planes.iter().enumerate() {
            for (l, &w) in lane_major.iter().enumerate() {
                assert_eq!(p.bit(l), w >> b & 1 == 1, "{name} plane {b} lane {l}");
            }
        }
        let mut bytes = vec![0u8; P::LANES];
        for k in 1..=8 {
            planes_to_bytes(&planes[..k], &mut bytes);
            for (l, &w) in lane_major.iter().enumerate() {
                assert_eq!(
                    u64::from(bytes[l]),
                    w & ((1 << k) - 1),
                    "{name} k={k} lane {l}"
                );
            }
        }
        let mut words = vec![0u16; P::LANES];
        for k in 9..=16 {
            planes_to_u16(&planes[..k], &mut words);
            for (l, &w) in lane_major.iter().enumerate() {
                assert_eq!(
                    u64::from(words[l]),
                    w & ((1 << k) - 1),
                    "{name} k={k} lane {l}"
                );
            }
        }
        let rotations =
            (0..Limb::ALL.len()).map(|r| (0..P::WORDS).map(|w| Limb::ALL[(w + r) % 4]).collect());
        let alternating = (0..P::WORDS)
            .map(|w| [Limb::Sparse, Limb::Empty][w % 2])
            .collect();
        let last_sparse = (0..P::WORDS)
            .map(|w| {
                if w + 1 == P::WORDS {
                    Limb::Sparse
                } else {
                    Limb::Empty
                }
            })
            .collect();
        let limb_masks = rotations
            .chain([alternating, last_sparse])
            .map(|kinds: Vec<Limb>| (P::from_words(|w| kinds[w].word()), format!("{kinds:?}")));
        let refills = [SPARSE_LANES, SPARSE_LANES + 1].map(|n| {
            let mut lanes = P::ZERO;
            for i in 0..n as usize {
                lanes.set_bit((37 * i + 5) % P::LANES, true);
            }
            assert_eq!(lanes.count_ones(), n);
            (lanes, format!("{n} refill lanes"))
        });
        for (lanes, what) in limb_masks.chain(refills) {
            let mut back = vec![u64::MAX; P::LANES];
            planes_to_lanes(&planes, lanes, &mut back);
            for (l, &w) in lane_major.iter().enumerate() {
                let want = if lanes.bit(l) {
                    w & ((1 << 40) - 1)
                } else {
                    u64::MAX
                };
                assert_eq!(back[l], want, "{name} {what}: lane {l}");
            }
        }
    }

    #[test]
    fn helpers_match_per_lane_gather_at_every_width() {
        use crate::bitslice::plane::{W128, W256, W512};
        check_conversions::<u64>();
        check_conversions::<W128>();
        check_conversions::<W256>();
        check_conversions::<W512>();
    }

    #[test]
    fn single_bit_moves_to_mirror_position() {
        let mut a = [0u64; 64];
        a[3] = 1u64 << 41; // (row 3, col 41)
        transpose64(&mut a);
        let mut expect = [0u64; 64];
        expect[41] = 1u64 << 3;
        assert_eq!(a, expect);
    }
}
