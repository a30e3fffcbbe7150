//! 64×64 bit-matrix transpose — the bridge between the lane-major layout
//! (word `l` = lane `l`'s value) and the bit-sliced layout (word `b` = bit
//! `b` across all lanes).
//!
//! Every helper ([`transposed_planes`], [`planes_to_lanes`],
//! [`planes_to_bytes`], [`planes_to_u16`]) applies the same 64-lane
//! kernels once per `u64` limb of a [`Plane`]: a `W512` transpose is eight
//! independent 64×64 block transposes, one per lane group.

use crate::bitslice::plane::Plane;

/// Transpose a 64×64 bit matrix in place: afterwards, bit `c` of word `r`
/// holds what bit `r` of word `c` held before. Recursive block-swap
/// formulation (Hacker's Delight §7-3 generalized to 64 bits): at scale
/// `j` the top-right and bottom-left `j`×`j` sub-blocks swap, six scales
/// total, ~384 word operations.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Spread one byte of a bit-plane into eight lane-bytes, shifted up by
/// `shift`. The multiply fans the byte across all eight byte positions and
/// the mask keeps the anti-diagonal bit of each, so the result's byte `k`
/// carries bit `7 − k` of the selected byte — callers must index the
/// output mirrored.
#[inline]
fn spread8(plane: u64, group: usize, shift: u32) -> u64 {
    let byte = plane >> (8 * group) & 0xFF;
    (byte.wrapping_mul(0x8040_2010_0804_0201).wrapping_shr(7) & 0x0101_0101_0101_0101) << shift
}

/// Columnwise transpose: gather up to 8 bit-planes into one byte per
/// lane (`out[l]` bit `j` = lane `l` of `planes[j]`). This is the
/// word-parallel way to read a small per-lane value (a draw result, a
/// carry-save count) out of the sliced domain — 64 lanes for ~5 word ops
/// per plane and limb instead of a per-lane bit gather.
///
/// # Panics
/// Debug-asserts `planes.len() ≤ 8` and `out.len() == P::LANES`.
pub fn planes_to_bytes<P: Plane>(planes: &[P], out: &mut [u8]) {
    debug_assert!(planes.len() <= 8, "at most 8 planes fit a byte");
    debug_assert_eq!(out.len(), P::LANES);
    for w in 0..P::WORDS {
        for group in 0..8 {
            let mut acc = 0u64;
            for (j, plane) in planes.iter().enumerate() {
                acc |= spread8(plane.word(w), group, j as u32);
            }
            // one byte-reversal un-mirrors the multiply-spread (its byte
            // k is lane base + 7 − k) instead of eight scalar stores
            let base = 64 * w + 8 * group;
            out[base..base + 8].copy_from_slice(&acc.swap_bytes().to_le_bytes());
        }
    }
}

/// Gather 9..=16 bit-planes into one `u16` per lane (two byte-spread
/// passes over the low and high byte halves).
///
/// # Panics
/// Debug-asserts `8 < planes.len() ≤ 16` and `out.len() == P::LANES`.
pub fn planes_to_u16<P: Plane>(planes: &[P], out: &mut [u16]) {
    debug_assert!(planes.len() > 8 && planes.len() <= 16);
    debug_assert_eq!(out.len(), P::LANES);
    for w in 0..P::WORDS {
        for group in 0..8 {
            let mut lo = 0u64;
            let mut hi = 0u64;
            for (j, plane) in planes.iter().enumerate() {
                if j < 8 {
                    lo |= spread8(plane.word(w), group, j as u32);
                } else {
                    hi |= spread8(plane.word(w), group, j as u32 - 8);
                }
            }
            let lo = lo.swap_bytes().to_le_bytes();
            let hi = hi.swap_bytes().to_le_bytes();
            let base = 64 * w + 8 * group;
            for k in 0..8 {
                out[base + k] = u16::from(lo[k]) | u16::from(hi[k]) << 8;
            }
        }
    }
}

/// Transpose `P::LANES` lane-major words into up to 64 wide bit-planes:
/// afterwards `out[b]` carries bit `b` of every lane. One 64×64 block
/// transpose per limb (see [`transpose64`]).
///
/// # Panics
/// Debug-asserts `lane_major.len() == P::LANES` and `out.len() ≤ 64`.
pub fn transposed_planes<P: Plane>(lane_major: &[u64], out: &mut [P]) {
    debug_assert_eq!(lane_major.len(), P::LANES);
    debug_assert!(out.len() <= 64);
    for w in 0..P::WORDS {
        let mut block = [0u64; 64];
        block.copy_from_slice(&lane_major[64 * w..64 * w + 64]);
        transpose64(&mut block);
        for (b, o) in out.iter_mut().enumerate() {
            o.set_word(w, block[b]);
        }
    }
}

/// A limb with at most this many lanes to extract is read lane by lane:
/// for a small `reset_lanes` group (the batch driver refills 8 lanes at a
/// time) the per-lane bit reads cost less than a block transpose.
const SPARSE_LANES: u32 = 8;

/// The inverse of [`transposed_planes`] for the lanes of `lanes`:
/// afterwards `out[l]` bit `b` is lane `l` of `planes[b]` for every lane
/// `l` of `lanes` (bits from `planes.len()` up are zero). A limb with
/// more than a few such lanes takes one 64×64 block transpose, which
/// also overwrites the limb's other words; a sparse limb is read lane by
/// lane. Words of limbs without a lane of `lanes` are left as they were.
///
/// # Panics
/// Debug-asserts `planes.len() ≤ 64` and `out.len() == P::LANES`.
pub fn planes_to_lanes<P: Plane>(planes: &[P], lanes: P, out: &mut [u64]) {
    debug_assert!(planes.len() <= 64);
    debug_assert_eq!(out.len(), P::LANES);
    for w in 0..P::WORDS {
        let mut m = lanes.word(w);
        if m == 0 {
            continue;
        }
        if m.count_ones() <= SPARSE_LANES {
            while m != 0 {
                let l = m.trailing_zeros();
                out[64 * w + l as usize] = planes
                    .iter()
                    .enumerate()
                    .fold(0, |v, (b, p)| v | (p.word(w) >> l & 1) << b);
                m &= m - 1;
            }
            continue;
        }
        let mut block = [0u64; 64];
        for (b, p) in block.iter_mut().zip(planes) {
            *b = p.word(w);
        }
        transpose64(&mut block);
        out[64 * w..64 * w + 64].copy_from_slice(&block);
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

    #[test]
    fn planes_to_bytes_matches_bit_gather() {
        let mut planes = [0u64; 8];
        let mut x = 0xF0E1_D2C3_B4A5_9687u64;
        for p in planes.iter_mut() {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(29);
            *p = x;
        }
        for k in 1..=8usize {
            let mut out = [0u8; 64];
            planes_to_bytes::<u64>(&planes[..k], &mut out);
            for (l, &got) in out.iter().enumerate() {
                let mut want = 0u8;
                for (j, &p) in planes[..k].iter().enumerate() {
                    want |= ((p >> l & 1) as u8) << j;
                }
                assert_eq!(got, want, "lane {l} k={k}");
            }
        }
    }

    #[test]
    fn wide_helpers_match_per_lane_gather() {
        use crate::bitslice::plane::W256;
        let mut lane_major = vec![0u64; 256];
        let mut x = 0x0F1E_2D3C_4B5A_6978u64;
        for w in lane_major.iter_mut() {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13);
            *w = x;
        }
        let mut planes = [W256::ZERO; 40];
        transposed_planes(&lane_major, &mut planes);
        for (b, p) in planes.iter().enumerate() {
            for (l, &w) in lane_major.iter().enumerate() {
                assert_eq!(p.bit(l), w >> b & 1 == 1, "plane {b} lane {l}");
            }
        }
        let mut bytes = vec![0u8; 256];
        planes_to_bytes(&planes[..7], &mut bytes);
        let mut words = vec![0u16; 256];
        planes_to_u16(&planes[..12], &mut words);
        for (l, &w) in lane_major.iter().enumerate() {
            assert_eq!(u64::from(bytes[l]), w & 0x7F, "byte lane {l}");
            assert_eq!(u64::from(words[l]), w & 0xFFF, "u16 lane {l}");
        }
        // back to lanes: a dense limb (transposed), a sparse one (read
        // lane by lane), an untouched one and a full one
        let mut lanes = W256::from_words(|w| [!0x0F00u64, 0x8000_0000_0001_0201, 0, !0][w]);
        lanes.set_bit(64 + 17, true);
        let mut back = vec![u64::MAX; 256];
        planes_to_lanes(&planes, lanes, &mut back);
        for (l, &w) in lane_major.iter().enumerate() {
            if lanes.bit(l) {
                assert_eq!(back[l], w & ((1 << 40) - 1), "lane {l}");
            } else if (128..192).contains(&l) {
                assert_eq!(back[l], u64::MAX, "untouched lane {l}");
            }
        }
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
