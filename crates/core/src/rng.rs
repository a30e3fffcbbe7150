//! Hardware-style pseudo-random number generators (the CA-based PRNG of
//! paper fact F3).
//!
//! The paper (§3.2): "The first operator which runs every time is the random
//! number generator. It generates a new pseudo-random number for all genetic
//! operators at each clock cycle. It is implemented as a one-dimensional
//! cellular machine (XOR system). It does not depend on the execution of
//! the genetic algorithm, in order to render the evolutionary process less
//! data-dependent."
//!
//! [`CellularRng`] reproduces this: a 32-cell one-dimensional cellular
//! automaton with a hybrid rule-90/rule-150 update (both rules are pure XOR
//! networks, i.e. "XOR system") and null boundary conditions. The rule
//! vector `0x3b14_c78b` was found by a GF(2) matrix-order search (the
//! checker lives in [`analysis`]) and gives the maximal period of
//! 2³² − 1 ≈ 4.29 · 10⁹ states.
//!
//! [`Lfsr32`] is the classic alternative FPGA PRNG (a Galois LFSR over the
//! primitive polynomial x³² + x²² + x² + x + 1), provided for the RNG
//! comparison experiment (E8).
//!
//! Both generators implement [`RngSource`], the draw interface of the GAP.

use core::fmt;

/// A probability threshold expressed in 256ths, as an 8-bit hardware
/// comparator would hold it. `Threshold(205)` ≈ 0.8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Threshold(pub u8);

impl Threshold {
    /// Quantize a probability in `[0, 1]` to 256ths (round to nearest,
    /// saturating at 255/256 — a threshold of exactly 1.0 is quantized to
    /// 255, i.e. p = 255/256, since an 8-bit comparator cannot express
    /// certainty; use logic outside the comparator for always-true).
    pub fn from_prob(p: f64) -> Threshold {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Threshold(((p * 256.0).round() as u32).min(255) as u8)
    }

    /// The probability this threshold encodes, `t / 256`.
    pub fn prob(self) -> f64 {
        f64::from(self.0) / 256.0
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/256 (~{:.3})", self.0, self.prob())
    }
}

/// The random-draw interface consumed by the genetic operators.
///
/// Every draw consumes exactly one generator word (one hardware clock's
/// worth of CA state), except [`RngSource::draw_below`] for non-power-of-two
/// bounds, which uses mask-and-reject and may consume several. The draw
/// sequence is fully deterministic given the generator state, which is what
/// makes the RTL-equivalence replay tests possible.
pub trait RngSource {
    /// The next raw 32-bit word.
    fn next_word(&mut self) -> u32;

    /// A uniformly random value in `0..bound` via mask-and-reject (the
    /// standard hardware construction: AND with the next power-of-two mask,
    /// retry on overflow).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn draw_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "draw_below bound must be positive");
        let mask = bound.next_power_of_two().wrapping_sub(1) | (bound - 1);
        loop {
            let w = self.next_word() & mask;
            if w < bound {
                return w;
            }
        }
    }

    /// Bernoulli draw: true with probability `t / 256`, via an 8-bit
    /// comparison against the low byte of the next word.
    fn chance(&mut self, t: Threshold) -> bool {
        ((self.next_word() & 0xFF) as u8) < t.0
    }
}

/// Record-and-replay adapter used by the RTL equivalence tests: wraps an
/// inner source and records every word it hands out.
#[derive(Debug, Clone, Default)]
pub struct RecordingRng<R> {
    inner: R,
    log: Vec<u32>,
}

impl<R: RngSource> RecordingRng<R> {
    /// Wrap `inner`, recording each word drawn through it.
    pub fn new(inner: R) -> Self {
        RecordingRng {
            inner,
            log: Vec::new(),
        }
    }

    /// The words drawn so far, in order.
    pub fn log(&self) -> &[u32] {
        &self.log
    }

    /// Consume the recorder, returning the log.
    pub fn into_log(self) -> Vec<u32> {
        self.log
    }
}

impl<R: RngSource> RngSource for RecordingRng<R> {
    fn next_word(&mut self) -> u32 {
        let w = self.inner.next_word();
        self.log.push(w);
        w
    }
}

/// Replays a previously recorded word sequence.
///
/// # Panics
/// [`RngSource::next_word`] panics when the sequence is exhausted — the
/// equivalence tests require both models to consume exactly the same draws.
#[derive(Debug, Clone)]
pub struct ReplayRng {
    words: Vec<u32>,
    pos: usize,
}

impl ReplayRng {
    /// Build a replay source from a recorded sequence.
    pub fn new(words: Vec<u32>) -> ReplayRng {
        ReplayRng { words, pos: 0 }
    }

    /// Number of words not yet consumed.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
}

impl RngSource for ReplayRng {
    fn next_word(&mut self) -> u32 {
        let w = self.words.get(self.pos).copied().unwrap_or_else(|| {
            panic!(
                "replay exhausted after {} words — models consumed different draw counts",
                self.words.len()
            )
        });
        self.pos += 1;
        w
    }
}

/// Default rule vector for [`CellularRng`]: bit *i* set means cell *i*
/// runs rule 150 (left ⊕ self ⊕ right); clear means rule 90 (left ⊕ right).
/// Found by GF(2) matrix-order search; gives period 2³² − 1.
pub const MAXIMAL_RULE_90_150: u32 = 0x3b14_c78b;

/// One-dimensional hybrid rule-90/150 cellular-automaton PRNG with null
/// boundaries, modelling the paper's "one-dimensional cellular machine
/// (XOR system)".
///
/// The full 32-cell state is emitted as the output word each step. With the
/// default rule vector the state sequence has period 2³² − 1 (every nonzero
/// state occurs exactly once per period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellularRng {
    state: u32,
    rule: u32,
}

impl CellularRng {
    /// Create with the default maximal rule vector. A zero seed (the CA's
    /// single fixed point) is remapped to 1.
    pub fn new(seed: u32) -> CellularRng {
        CellularRng::with_rule(seed, MAXIMAL_RULE_90_150)
    }

    /// Create with an explicit rule vector (for the analysis experiments).
    pub fn with_rule(seed: u32, rule: u32) -> CellularRng {
        CellularRng {
            state: if seed == 0 { 1 } else { seed },
            rule,
        }
    }

    /// The current CA state (also the last emitted word).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// The rule vector in use.
    pub fn rule(&self) -> u32 {
        self.rule
    }

    /// Advance the CA one step: each cell becomes left ⊕ right, plus ⊕ self
    /// for rule-150 cells. Null boundary (virtual zero cells outside).
    #[inline]
    pub fn step(&mut self) {
        let s = self.state;
        self.state = (s << 1) ^ (s >> 1) ^ (s & self.rule);
    }
}

impl RngSource for CellularRng {
    #[inline]
    fn next_word(&mut self) -> u32 {
        self.step();
        self.state
    }
}

/// 32-bit Galois LFSR over the primitive polynomial
/// x³² + x²² + x² + x + 1 (feedback mask `0x8040_0003` in LSB-shift form),
/// the classic alternative FPGA PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr32 {
    state: u32,
}

/// Feedback mask of the LFSR's primitive polynomial (bit-reversed taps
/// 32, 22, 2, 1).
const LFSR_MASK: u32 = 0x8040_0003;

impl Lfsr32 {
    /// Create with `seed` (zero — the LFSR's fixed point — is remapped to 1).
    pub fn new(seed: u32) -> Lfsr32 {
        Lfsr32 {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advance one bit-shift step.
    #[inline]
    pub fn step(&mut self) {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= LFSR_MASK;
        }
    }

    /// The current register contents.
    pub fn state(&self) -> u32 {
        self.state
    }
}

impl RngSource for Lfsr32 {
    /// A word per draw: 32 single-bit shifts (as a bit-serial FPGA
    /// implementation would clock it).
    fn next_word(&mut self) -> u32 {
        for _ in 0..32 {
            self.step();
        }
        self.state
    }
}

pub mod analysis {
    //! GF(2) linear-system analysis of XOR-network PRNGs.
    //!
    //! A hybrid 90/150 CA (and an LFSR) is a linear map over GF(2); its
    //! state sequence is maximal iff the order of the update matrix is
    //! 2ⁿ − 1. This module provides 32×32 GF(2) matrix arithmetic and the
    //! maximality check used to certify [`super::MAXIMAL_RULE_90_150`].

    /// A 32×32 matrix over GF(2), row-major, row `i` in bit `j` = entry
    /// (i, j).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Gf2Matrix(pub [u32; 32]);

    impl Gf2Matrix {
        /// The identity matrix.
        pub fn identity() -> Gf2Matrix {
            let mut m = [0u32; 32];
            for (i, row) in m.iter_mut().enumerate() {
                *row = 1 << i;
            }
            Gf2Matrix(m)
        }

        /// Matrix product over GF(2).
        pub fn mul(&self, other: &Gf2Matrix) -> Gf2Matrix {
            let mut r = [0u32; 32];
            for (i, out) in r.iter_mut().enumerate() {
                let mut acc = 0u32;
                let mut bits = self.0[i];
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    acc ^= other.0[j];
                    bits &= bits - 1;
                }
                *out = acc;
            }
            Gf2Matrix(r)
        }

        /// Matrix power by square-and-multiply.
        pub fn pow(&self, mut e: u64) -> Gf2Matrix {
            let mut base = *self;
            let mut acc = Gf2Matrix::identity();
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc.mul(&base);
                }
                base = base.mul(&base);
                e >>= 1;
            }
            acc
        }

        /// Apply the matrix to a state vector.
        pub fn apply(&self, v: u32) -> u32 {
            let mut out = 0u32;
            for (i, &row) in self.0.iter().enumerate() {
                if (row & v).count_ones() & 1 == 1 {
                    out |= 1 << i;
                }
            }
            out
        }

        /// Whether this is the identity matrix.
        pub fn is_identity(&self) -> bool {
            self.0.iter().enumerate().all(|(i, &r)| r == 1u32 << i)
        }
    }

    /// The update matrix of a 32-cell null-boundary hybrid 90/150 CA.
    pub fn ca_update_matrix(rule: u32) -> Gf2Matrix {
        let mut m = [0u32; 32];
        for (i, row) in m.iter_mut().enumerate() {
            let mut bits = 0u32;
            if i > 0 {
                bits |= 1 << (i - 1);
            }
            if i < 31 {
                bits |= 1 << (i + 1);
            }
            if rule >> i & 1 == 1 {
                bits |= 1 << i;
            }
            *row = bits;
        }
        Gf2Matrix(m)
    }

    /// Prime factors of 2³² − 1 (the Fermat primes F₀..F₄ minus overlap:
    /// 3 · 5 · 17 · 257 · 65537).
    pub const FACTORS_2_32_MINUS_1: [u64; 5] = [3, 5, 17, 257, 65537];

    /// Whether the CA with this rule vector has maximal period 2³² − 1,
    /// i.e. the update matrix has multiplicative order 2³² − 1.
    pub fn is_maximal_rule(rule: u32) -> bool {
        let m = ca_update_matrix(rule);
        let target = u32::MAX as u64;
        if !m.pow(target).is_identity() {
            return false;
        }
        FACTORS_2_32_MINUS_1
            .iter()
            .all(|&p| !m.pow(target / p).is_identity())
    }

    /// Empirical monobit statistic: fraction of one-bits over `n` output
    /// words of a generator.
    pub fn ones_fraction<R: super::RngSource>(rng: &mut R, n: usize) -> f64 {
        let mut ones = 0u64;
        for _ in 0..n {
            ones += u64::from(rng.next_word().count_ones());
        }
        ones as f64 / (n as f64 * 32.0)
    }

    /// Period of the word sequence of a generator, found by Brent's cycle
    /// detection and capped at `limit` steps. Returns `None` when no cycle
    /// was found within the cap (the period exceeds `limit`).
    pub fn period_within<R: super::RngSource>(rng: &mut R, limit: u64) -> Option<u64> {
        let mut power: u64 = 1;
        let mut lam: u64 = 1;
        let mut steps: u64 = 0;
        let mut tortoise = rng.next_word();
        let mut hare = rng.next_word();
        while tortoise != hare {
            if steps >= limit {
                return None;
            }
            if power == lam {
                tortoise = hare;
                power *= 2;
                lam = 0;
            }
            hare = rng.next_word();
            lam += 1;
            steps += 1;
        }
        Some(lam)
    }
}

#[cfg(test)]
mod tests {
    use super::analysis::*;
    use super::*;

    #[test]
    fn default_rule_is_certified_maximal() {
        assert!(is_maximal_rule(MAXIMAL_RULE_90_150));
    }

    #[test]
    fn pure_rule90_is_not_maximal() {
        // The homogeneous rule-90 CA is well known to be non-maximal.
        assert!(!is_maximal_rule(0));
    }

    #[test]
    fn matrix_apply_matches_step() {
        let m = ca_update_matrix(MAXIMAL_RULE_90_150);
        let mut rng = CellularRng::new(0xDEAD_BEEF);
        for _ in 0..100 {
            let before = rng.state();
            rng.step();
            assert_eq!(m.apply(before), rng.state());
        }
    }

    #[test]
    fn ca_zero_seed_remapped() {
        let rng = CellularRng::new(0);
        assert_eq!(rng.state(), 1);
    }

    #[test]
    fn ca_never_reaches_zero() {
        let mut rng = CellularRng::new(0x1);
        for _ in 0..100_000 {
            assert_ne!(rng.next_word(), 0);
        }
    }

    #[test]
    fn ca_period_exceeds_one_million() {
        // With a maximal rule the period is 2^32-1; verify no repeat of the
        // initial state within 10^6 steps (full verification is the matrix
        // order check above).
        let start = 0xACE1_u32;
        let mut rng = CellularRng::new(start);
        for i in 0..1_000_000u64 {
            rng.step();
            assert_ne!(rng.state(), start, "cycled after {i} steps");
        }
    }

    #[test]
    fn ca_ones_fraction_near_half() {
        let mut rng = CellularRng::new(12345);
        let f = ones_fraction(&mut rng, 100_000);
        assert!((f - 0.5).abs() < 0.01, "ones fraction {f}");
    }

    #[test]
    fn lfsr_ones_fraction_near_half() {
        let mut rng = Lfsr32::new(98765);
        let f = ones_fraction(&mut rng, 100_000);
        assert!((f - 0.5).abs() < 0.01, "ones fraction {f}");
    }

    #[test]
    fn lfsr_full_period_bit_level() {
        // The primitive polynomial gives the bit-level sequence period
        // 2^32-1; spot-check no early return to the seed within 10^6.
        let mut l = Lfsr32::new(0xB00);
        for i in 0..1_000_000u64 {
            l.step();
            assert_ne!(l.state(), 0xB00, "cycled after {i} steps");
            assert_ne!(l.state(), 0, "LFSR hit absorbing zero state");
        }
    }

    #[test]
    fn threshold_quantization() {
        assert_eq!(Threshold::from_prob(0.8).0, 205);
        assert_eq!(Threshold::from_prob(0.7).0, 179);
        assert_eq!(Threshold::from_prob(0.0).0, 0);
        assert_eq!(Threshold::from_prob(1.0).0, 255);
        assert!((Threshold::from_prob(0.5).prob() - 0.5).abs() < 0.01);
    }

    #[test]
    fn chance_statistics() {
        let mut rng = CellularRng::new(7);
        let t = Threshold::from_prob(0.8);
        let hits = (0..100_000).filter(|_| rng.chance(t)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - t.prob()).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn draw_below_uniform_and_in_range() {
        let mut rng = CellularRng::new(99);
        let mut counts = [0u32; 36];
        for _ in 0..360_000 {
            let v = rng.draw_below(36) as usize;
            assert!(v < 36);
            counts[v] += 1;
        }
        // per-bucket expectation 10_000; loose 10% tolerance
        for (i, &c) in counts.iter().enumerate() {
            assert!((9000..=11000).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn draw_below_power_of_two_uses_single_word() {
        // bound 32 -> mask 0x1f, never rejects
        let mut rec = RecordingRng::new(CellularRng::new(3));
        for _ in 0..100 {
            rec.draw_below(32);
        }
        assert_eq!(rec.log().len(), 100);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn draw_below_zero_panics() {
        CellularRng::new(1).draw_below(0);
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let mut rec = RecordingRng::new(CellularRng::new(42));
        let drawn: Vec<u32> = (0..50).map(|_| rec.next_word()).collect();
        let mut replay = ReplayRng::new(rec.into_log());
        let replayed: Vec<u32> = (0..50).map(|_| replay.next_word()).collect();
        assert_eq!(drawn, replayed);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "replay exhausted")]
    fn replay_exhaustion_panics() {
        let mut replay = ReplayRng::new(vec![1, 2]);
        replay.next_word();
        replay.next_word();
        replay.next_word();
    }

    #[test]
    fn period_detection_on_known_cycle() {
        struct Cycler(u32);
        impl RngSource for Cycler {
            fn next_word(&mut self) -> u32 {
                self.0 = (self.0 + 1) % 7;
                self.0
            }
        }
        assert_eq!(period_within(&mut Cycler(0), 1000), Some(7));
        // a CA with the maximal rule must not cycle within a small budget
        let mut ca = CellularRng::new(321);
        assert_eq!(period_within(&mut ca, 100_000), None);
    }

    #[test]
    fn ca_and_lfsr_sequences_differ() {
        let mut ca = CellularRng::new(1234);
        let mut lf = Lfsr32::new(1234);
        let same = (0..100)
            .filter(|_| ca.next_word() == lf.next_word())
            .count();
        assert!(same < 3);
    }
}
