//! The population RAM, one [`Plane`] of lanes wide.
//!
//! Storage is **lane-major** (`words[addr][lane]`, flattened to one
//! contiguous buffer with a `P::LANES` stride), not bit-sliced: selection
//! and mutation address the population with per-lane divergent indices.
//! The bit-sliced fitness unit gets its transposed view on demand via
//! [`crate::bitslice::transpose::transposed_planes`], one whole-plane
//! transpose per column, and the initiator scores fresh genomes from the
//! planes they were drawn as.
//!
//! The layout was decided on an estimate (2-core AVX-512 host); no
//! plane-major RAM was built. A plane-major parent read would be a
//! 32-leaf mux over 36 planes. The 5-plane score gather, a mux of the same
//! shape, measures 60–75 ns at `u64` and 170–260 ns at `W512`
//! (`perf_report` `plane_ops`); scaled to 36 planes, about 7× that per
//! parent, 32 parents per generation come to an estimated ≈14–17 µs at
//! `u64` and ≈40–60 µs at `W512`. The lane-major parent reads plus the
//! index read-back measure ≈5 µs and ≈35 µs (a timer split of one step).
//! By that estimate plane-major storage would pay more in reads than it
//! saves in transposes.
//!
//! Unlike the scalar [`crate::primitives::Ram`], this model does not carry
//! the one-write-per-cycle port bookkeeping: the batch engine's phase
//! structure is the same as the scalar GAP's, whose accesses the scalar
//! RAM already checks, and dropping the `Option` dance per lane-write is
//! part of the throughput budget.

use crate::bitslice::plane::Plane;
use crate::bitslice::LANES;
use crate::netlist::{Describe, StaticNetlist};
use crate::resources::Resources;
use core::marker::PhantomData;

/// A `depth × width`-bit RAM replicated across `P::LANES` lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamXW<P: Plane> {
    /// Lane-major storage: word `addr` of lane `l` lives at
    /// `words[addr * P::LANES + l]`.
    words: Vec<u64>,
    depth: usize,
    width: u32,
    mask: u64,
    _plane: PhantomData<P>,
}

impl<P: Plane> RamXW<P> {
    /// A zero-initialized RAM of `depth` words of `width ≤ 64` bits per
    /// lane.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 64.
    pub fn new(depth: usize, width: u32) -> RamXW<P> {
        assert!((1..=64).contains(&width), "width must be 1..=64 bits");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        RamXW {
            words: vec![0u64; depth * P::LANES],
            depth,
            width,
            mask,
            _plane: PhantomData,
        }
    }

    /// Number of words per lane.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Combinational read of one lane's word.
    #[inline]
    pub fn peek(&self, addr: usize, lane: usize) -> u64 {
        debug_assert!(lane < P::LANES);
        self.words[addr * P::LANES + lane]
    }

    /// The full lane-major column at `addr` (`P::LANES` words).
    #[inline]
    pub fn column(&self, addr: usize) -> &[u64] {
        &self.words[addr * P::LANES..(addr + 1) * P::LANES]
    }

    /// Write one lane's word (masked to the RAM width).
    #[inline]
    pub fn write_lane(&mut self, addr: usize, lane: usize, value: u64) {
        debug_assert!(lane < P::LANES);
        self.words[addr * P::LANES + lane] = value & self.mask;
    }

    /// XOR `bits` into one lane's word (masked to the RAM width) — the
    /// single-lane read-modify-write the mutation unit performs, fused so
    /// the hot path touches the column exactly once.
    #[inline]
    pub fn xor_lane(&mut self, addr: usize, lane: usize, bits: u64) {
        debug_assert!(lane < P::LANES);
        self.words[addr * P::LANES + lane] ^= bits & self.mask;
    }

    /// Write per-lane values into every lane of `mask`; other lanes hold.
    ///
    /// # Panics
    /// Debug-asserts `values.len() == P::LANES`.
    pub fn write_masked(&mut self, addr: usize, mask: P, values: &[u64]) {
        debug_assert_eq!(values.len(), P::LANES);
        let col = &mut self.words[addr * P::LANES..(addr + 1) * P::LANES];
        if mask == P::ONES {
            // full batch: a straight column copy, the steady-state case
            for (c, &v) in col.iter_mut().zip(values) {
                *c = v & self.mask;
            }
        } else {
            let m = self.mask;
            mask.for_each_set_lane(|l| col[l] = values[l] & m);
        }
    }

    /// Flip bit `bit` of word `addr` in every lane of `mask` — the SEU
    /// injection port: one fault campaign step is a one-hot lane-mask XOR.
    pub fn flip_bit(&mut self, addr: usize, bit: u32, mask: P) {
        debug_assert!(bit < self.width);
        let flip = 1u64 << bit;
        let col = &mut self.words[addr * P::LANES..(addr + 1) * P::LANES];
        mask.for_each_set_lane(|l| col[l] ^= flip);
    }

    /// Copy the lanes in `mask` wholesale from `other` (used to hold
    /// frozen lanes' populations across the double-buffer swap).
    ///
    /// # Panics
    /// Panics if the two RAMs have different shapes.
    pub fn copy_lanes_from(&mut self, other: &RamXW<P>, mask: P) {
        assert_eq!(self.depth, other.depth);
        assert_eq!(self.width, other.width);
        for (dst, src) in self
            .words
            .chunks_exact_mut(P::LANES)
            .zip(other.words.chunks_exact(P::LANES))
        {
            mask.for_each_set_lane(|l| dst[l] = src[l]);
        }
    }

    /// Resource estimate: `P::LANES` lanes of flip-flop storage.
    pub fn resources(&self) -> Resources {
        Resources::flip_flop_bits(self.depth as u32 * self.width * P::LANES as u32)
    }
}

impl Describe for RamXW<u64> {
    fn netlist(&self) -> StaticNetlist {
        let addr_bits = usize::BITS - (self.depth().max(2) - 1).leading_zeros();
        let lanes = LANES as u32;
        StaticNetlist::new("ram_x64")
            .claim(self.resources())
            .input("read_addr", addr_bits * lanes)
            .input("write_addr", addr_bits * lanes)
            .input("write_data", self.width() * lanes)
            .input("lane_mask", lanes)
            .register("mem", self.depth() as u32 * self.width() * lanes)
            .register("read_reg", self.width() * lanes)
            .output("read_data", self.width() * lanes)
            .fan_in(&["write_addr", "write_data", "lane_mask"], "mem")
            .fan_in(&["read_addr", "mem"], "read_reg")
            .edge("read_reg", "read_data")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::plane::W256;

    #[test]
    fn lanes_are_independent() {
        let mut ram = RamXW::<u64>::new(4, 36);
        ram.write_lane(2, 5, 0xABC);
        ram.write_lane(2, 6, 0xDEF);
        assert_eq!(ram.peek(2, 5), 0xABC);
        assert_eq!(ram.peek(2, 6), 0xDEF);
        assert_eq!(ram.peek(2, 7), 0);
        assert_eq!(ram.peek(3, 5), 0);
    }

    #[test]
    fn writes_mask_to_width() {
        let mut ram = RamXW::<u64>::new(2, 36);
        ram.write_lane(0, 0, u64::MAX);
        assert_eq!(ram.peek(0, 0), (1u64 << 36) - 1);
        let vals = [u64::MAX; LANES];
        ram.write_masked(1, 0b10, &vals);
        assert_eq!(ram.peek(1, 1), (1u64 << 36) - 1);
        assert_eq!(ram.peek(1, 0), 0);
    }

    #[test]
    fn masked_write_holds_unselected_lanes() {
        let mut ram = RamXW::<u64>::new(1, 16);
        let a = [0x1111u64; LANES];
        let b = [0x2222u64; LANES];
        ram.write_masked(0, u64::MAX, &a);
        ram.write_masked(0, 0xF0, &b);
        assert_eq!(ram.peek(0, 3), 0x1111);
        assert_eq!(ram.peek(0, 4), 0x2222);
        assert_eq!(ram.peek(0, 8), 0x1111);
    }

    #[test]
    fn wide_masked_writes_hold_unselected_lanes() {
        let mut ram = RamXW::<W256>::new(2, 36);
        let vals: Vec<u64> = (0..256).map(|l| l as u64 * 3 + 1).collect();
        ram.write_masked(1, W256::ONES, &vals);
        let mut mask = W256::ZERO;
        for l in (0..256).step_by(5) {
            mask.set_bit(l, true);
        }
        let vals2: Vec<u64> = (0..256).map(|l| l as u64 + 0x1000).collect();
        ram.write_masked(1, mask, &vals2);
        for l in 0..256 {
            let want = if l % 5 == 0 {
                l as u64 + 0x1000
            } else {
                l as u64 * 3 + 1
            };
            assert_eq!(ram.peek(1, l), want, "lane {l}");
        }
        assert_eq!(ram.column(1).len(), 256);
        assert_eq!(ram.peek(0, 100), 0);
    }

    #[test]
    fn flip_bit_is_a_masked_involution() {
        let mut ram = RamXW::<u64>::new(3, 36);
        let vals: [u64; LANES] = core::array::from_fn(|l| l as u64 * 7);
        ram.write_masked(1, u64::MAX, &vals);
        let before = ram.column(1).to_vec();
        ram.flip_bit(1, 11, 0xA5);
        for (l, &b) in before.iter().enumerate() {
            let expect = if 0xA5u64 >> l & 1 == 1 {
                b ^ (1 << 11)
            } else {
                b
            };
            assert_eq!(ram.peek(1, l), expect, "lane {l}");
        }
        ram.flip_bit(1, 11, 0xA5);
        assert_eq!(ram.column(1), &before[..]);
    }

    #[test]
    fn copy_lanes_from_moves_only_masked_lanes() {
        let mut a = RamXW::<u64>::new(2, 8);
        let mut b = RamXW::<u64>::new(2, 8);
        a.write_masked(0, u64::MAX, &[0xAAu64; LANES]);
        b.write_masked(0, u64::MAX, &[0xBBu64; LANES]);
        b.copy_lanes_from(&a, 0b101);
        assert_eq!(b.peek(0, 0), 0xAA);
        assert_eq!(b.peek(0, 1), 0xBB);
        assert_eq!(b.peek(0, 2), 0xAA);
    }
}
