//! The Genetic Algorithm Processor, one [`Plane`] of chips per step.
//!
//! [`GapRtlXW`] replays the exact control flow of the scalar
//! [`GapRtl`](crate::gap_rtl::GapRtl) — same phases, same draw sequence,
//! same mask-and-reject retries, same free-running RNG discipline — but
//! carries `P::LANES` independently-seeded instances through it at once
//! (64 on a `u64` plane, up to 512 on [`W512`](crate::bitslice::W512)).
//! The engine is **bit-exact per lane**: populations, best registers,
//! drawn logs, cycle counts and per-phase breakdowns all match a scalar
//! run with the same seed (locked by the lane-equivalence suite in
//! `tests/` and the per-width probes in
//! [`crate::bitslice::plane_registry`]).
//!
//! ## Where lanes diverge, and how that stays exact
//!
//! The RNG clocks every cycle, so any per-lane difference in *cycle count*
//! changes every later draw. Exactly three spots diverge:
//!
//! 1. mask-and-reject draws (`draw_below`) retry per lane — handled by
//!    looping with a shrinking lane mask, so rejected lanes step their CA
//!    one extra cycle while accepted lanes hold (and keep their accepted
//!    value in the generator); each retry cycle is counted per lane in a
//!    bit-sliced per-phase counter that reaches the per-lane cycle
//!    breakdowns once per step;
//! 2. the crossover decision draws a cut point only on success — the cut
//!    draw runs under the success mask;
//! 3. convergence: finished lanes freeze wholesale (their columns are
//!    carried across the double-buffer swap untouched), and a frozen lane
//!    can be recycled for a fresh trial with [`GapRtlXW::reset_lane`].
//!
//! Everything else is lane-uniform and never touches per-lane state at
//! all: dead cycles (RAM read/write turnaround, the 36-cycle crossover
//! shift, the 38-cycle pipeline drain, the fitness phase's access cycles)
//! are *accounted* immediately but only *owed* to the RNG, and the debt is
//! settled at the next consuming draw as one GF(2) jump `Mⁿ` — so a
//! 38-cycle drain plus the following draw costs one four-Russians matrix
//! application instead of 39 clock edges.
//!
//! One scalar subtlety becomes a static fact here: the scalar pipeline
//! pads when the crossover drain (38 cycles) outlasts the selection stage,
//! but a selection stage always costs ≥ 47 cycles (10 draw/read/choice
//! cycles per parent, the crossover decision, and the 36-cycle parent
//! copy), so the padding path is dead for every reachable configuration
//! and the batch engine omits it (debug-asserted).

use crate::bitslice::fitness_xw::{FitnessUnitXW, SCORE_PLANES};
use crate::bitslice::plane::{blend, Plane};
use crate::bitslice::ram_xw::RamXW;
use crate::bitslice::rng_xw::CaRngXW;
use crate::bitslice::transpose::{planes_to_bytes, planes_to_lanes, planes_to_u16};
use crate::bitslice::LANES;
use crate::gap_rtl::{CycleBreakdown, GapRtlConfig, LaneState, Phase};
use crate::resources::{ResourceReport, Resources};
use discipulus::gap::Population;
use discipulus::genome::{Genome, GENOME_BITS, GENOME_MASK};
use discipulus::params::GapParams;
use leonardo_telemetry as tele;

/// Fixed cost of the bit-serial crossover datapath per pair (mirrors the
/// scalar constant): 36 shift cycles plus two commit writes.
const XOVER_CYCLES: u64 = GENOME_BITS as u64 + 2;

/// Configuration of the batch GAP (any plane width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapRtlXWConfig {
    /// Algorithm parameters (shared with the scalar and behavioural GAPs).
    pub params: GapParams,
    /// Whether selection and crossover overlap in the pipeline.
    pub pipelined: bool,
    /// Record every consumed RNG word per lane. Off by default, unlike
    /// the scalar `GapRtlConfig::paper`: here it is opt-in (equivalence
    /// tests) because at full lane count the logs dominate memory and
    /// defeat the purpose of a throughput engine.
    pub record_draws: bool,
}

impl GapRtlXWConfig {
    /// The paper's configuration (pipelined), draw recording off.
    pub fn paper() -> GapRtlXWConfig {
        GapRtlXWConfig {
            params: GapParams::paper(),
            pipelined: true,
            record_draws: false,
        }
    }

    /// The unpipelined ablation, draw recording off.
    pub fn unpipelined() -> GapRtlXWConfig {
        GapRtlXWConfig {
            pipelined: false,
            ..GapRtlXWConfig::paper()
        }
    }

    /// Same configuration with per-lane draw recording enabled.
    pub fn recording(mut self) -> GapRtlXWConfig {
        self.record_draws = true;
        self
    }

    /// The scalar chip configuration of one lane seeded `seed`: same
    /// parameters, pipelining and draw recording.
    pub fn chip(&self, seed: u32) -> GapRtlConfig {
        GapRtlConfig {
            params: self.params,
            pipelined: self.pipelined,
            seed,
            record_draws: self.record_draws,
        }
    }
}

/// Every phase, in `Phase as usize` order.
const PHASES: [Phase; 5] = [
    Phase::Init,
    Phase::Fitness,
    Phase::Reproduce,
    Phase::Mutate,
    Phase::Overhead,
];

/// Bit planes of a sliced per-lane cycle counter (counts below 2¹⁶).
const COUNT_PLANES: usize = 16;

/// One phase's divergent-draw cycles of one step, bit-sliced:
/// `planes[b]` bit `l` is bit `b` of lane `l`'s count.
#[derive(Clone, Copy)]
struct SlicedCount<P: Plane> {
    planes: [P; COUNT_PLANES],
    /// Increments so far — the bound on every lane's count.
    rounds: u32,
}

impl<P: Plane> SlicedCount<P> {
    const ZERO: SlicedCount<P> = SlicedCount {
        planes: [P::ZERO; COUNT_PLANES],
        rounds: 0,
    };

    /// Whether one more increment could overflow the planes.
    fn full(&self) -> bool {
        self.rounds == (1 << COUNT_PLANES) - 1
    }

    /// Add one to every lane of `mask`: a ripple-carry increment over the
    /// planes a count can occupy so far.
    fn increment(&mut self, mask: P) {
        debug_assert!(!self.full());
        self.rounds += 1;
        let live = (u32::BITS - self.rounds.leading_zeros()) as usize;
        let mut carry = mask;
        for p in &mut self.planes[..live] {
            let c = *p & carry;
            *p ^= carry;
            carry = c;
        }
    }
}

/// Per-step cycle accounting: cycles common to every active lane
/// accumulate once in `uniform`, divergent (subset-masked) draw cycles in
/// one sliced counter per phase, and both reach the per-lane breakdowns
/// when the step ends.
struct Acct<P: Plane> {
    active: P,
    uniform: CycleBreakdown,
    divergent: [SlicedCount<P>; PHASES.len()],
}

impl<P: Plane> Acct<P> {
    fn new(active: P) -> Acct<P> {
        Acct {
            active,
            uniform: CycleBreakdown::default(),
            divergent: [SlicedCount::ZERO; PHASES.len()],
        }
    }
}

/// Reusable per-step working buffers (zeroed once per step, not once per
/// pair — kilobytes of memset per selection stage is real money at 16
/// pairs per generation).
struct Scratch<P: Plane> {
    pa: Vec<u64>,
    pb: Vec<u64>,
    c: Vec<u64>,
    d: Vec<u64>,
    val: Vec<u32>,
    idx: Vec<u8>,
    /// Score planes per individual, padded to a power of two for the
    /// selection mux tree (padding entries are never addressed: index
    /// draws are bounded by the population size).
    mux: Vec<[P; SCORE_PLANES]>,
    /// The mux tree's open subtrees, one per level ([`gather_scores`]).
    mux_stack: Vec<[P; SCORE_PLANES]>,
}

impl<P: Plane> Scratch<P> {
    fn new(pop: usize) -> Scratch<P> {
        let leaves = pop.next_power_of_two();
        Scratch {
            pa: vec![0; P::LANES],
            pb: vec![0; P::LANES],
            c: vec![0; P::LANES],
            d: vec![0; P::LANES],
            val: vec![0; P::LANES],
            idx: vec![0; P::LANES],
            mux: vec![[P::ZERO; SCORE_PLANES]; leaves],
            mux_stack: vec![[P::ZERO; SCORE_PLANES]; leaves.trailing_zeros() as usize + 1],
        }
    }
}

/// Per-lane `(a > b, a == b)` over score planes: the MSB-first sliced
/// comparator, written out plane by plane — the plane-parallel form of
/// `P::LANES` integer compares.
#[inline(always)]
fn cmp_planes<P: Plane>(a: &[P; SCORE_PLANES], b: &[P; SCORE_PLANES]) -> (P, P) {
    const { assert!(SCORE_PLANES == 5) };
    let eq4 = !(a[4] ^ b[4]);
    let eq3 = eq4 & !(a[3] ^ b[3]);
    let eq2 = eq3 & !(a[2] ^ b[2]);
    let eq1 = eq2 & !(a[1] ^ b[1]);
    let eq0 = eq1 & !(a[0] ^ b[0]);
    let gt = (a[4] & !b[4])
        | (eq4 & a[3] & !b[3])
        | (eq3 & a[2] & !b[2])
        | (eq2 & a[1] & !b[1])
        | (eq1 & a[0] & !b[0]);
    (gt, eq0)
}

/// Per-lane strict `a > b` over score planes.
fn gt_planes<P: Plane>(a: &[P; SCORE_PLANES], b: &[P; SCORE_PLANES]) -> P {
    cmp_planes(a, b).0
}

/// Per-lane `a ≥ b` over score planes.
fn ge_planes<P: Plane>(a: &[P; SCORE_PLANES], b: &[P; SCORE_PLANES]) -> P {
    let (gt, eq) = cmp_planes(a, b);
    gt | eq
}

/// One lane's integer value out of a plane-sliced register.
fn plane_value<P: Plane>(planes: &[P; SCORE_PLANES], lane: usize) -> u32 {
    let mut v = 0u32;
    for (p, plane) in planes.iter().enumerate() {
        v |= u32::from(plane.bit(lane)) << p;
    }
    v
}

/// Set one lane's value in a plane-sliced register.
fn set_plane_value<P: Plane>(planes: &mut [P; SCORE_PLANES], lane: usize, v: u32) {
    for (p, plane) in planes.iter_mut().enumerate() {
        plane.set_bit(lane, v >> p & 1 == 1);
    }
}

/// One mux-tree node: per lane, `hi` where `m` is set, else `lo`, over
/// all score planes.
#[inline(always)]
fn mux_node<P: Plane>(hi: &[P; SCORE_PLANES], lo: &[P; SCORE_PLANES], m: P) -> [P; SCORE_PLANES] {
    const { assert!(SCORE_PLANES == 5) };
    [
        blend(hi[0], lo[0], m),
        blend(hi[1], lo[1], m),
        blend(hi[2], lo[2], m),
        blend(hi[3], lo[3], m),
        blend(hi[4], lo[4], m),
    ]
}

/// Sliced score gather: per lane, `mux[idx]` where the per-lane index
/// arrives as `k` bit-planes and `mux` holds `2ᵏ` leaves — a binary mux
/// tree of `2ᵏ − 1` whole-node blends and no data-dependent loads. The
/// tree is walked leaf by leaf: leaf `i` closes one subtree per trailing
/// one bit of `i`, each merged with its left sibling parked on
/// `stack[level]` (`stack` holds at least `k + 1` nodes). No loop runs
/// across nodes, so each node stays a handful of whole-plane ops.
///
/// # Panics
/// Debug-asserts `mux.len()` is a power of two `2ᵏ` with `idx.len() ≥ k`
/// and `stack.len() > k`.
pub fn gather_scores<P: Plane>(
    mux: &[[P; SCORE_PLANES]],
    stack: &mut [[P; SCORE_PLANES]],
    idx: &[P],
) -> [P; SCORE_PLANES] {
    debug_assert!(mux.len().is_power_of_two());
    let k = mux.len().trailing_zeros() as usize;
    debug_assert!(idx.len() >= k && stack.len() > k);
    for (i, leaf) in mux.iter().enumerate() {
        let mut node = *leaf;
        let mut level = 0;
        while i >> level & 1 == 1 {
            node = mux_node(&node, &stack[level], idx[level]);
            level += 1;
        }
        stack[level] = node;
    }
    stack[k]
}

/// The width-generic batch Genetic Algorithm Processor.
#[derive(Debug, Clone)]
pub struct GapRtlXW<P: Plane> {
    config: GapRtlXWConfig,
    enabled: P,
    rng: CaRngXW<P>,
    fitness_unit: FitnessUnitXW<P>,
    basis: RamXW<P>,
    intermediate: RamXW<P>,
    /// Fitness score registers, bit-plane-sliced per individual
    /// (`scores[i][p]` = score bit `p` of individual `i`, every lane).
    scores: Vec<[P; SCORE_PLANES]>,
    best_genome: Vec<u64>,
    /// The best-fitness registers, as score planes (`best_planes[p]` =
    /// bit `p` of every lane's best fitness): the operand of the
    /// strict-improvement and convergence comparators.
    best_planes: [P; SCORE_PLANES],
    generation: Vec<u64>,
    /// Per-lane cycle accounting; a lane's total is its cycle count.
    breakdown: Vec<CycleBreakdown>,
    drawn_log: Option<Vec<Vec<u32>>>,
    /// Dead cycles accounted but not yet applied to the RNG; settled as
    /// one jump at the next draw (or at step end). Always owed by the
    /// whole active set — dead cycles are lane-uniform by construction.
    rng_owed: u64,
    max_fitness: u32,
    /// Per-lane extraction buffers for the bounded-draw read-back.
    byte_buf: Vec<u8>,
    u16_buf: Vec<u16>,
}

impl<P: Plane> GapRtlXW<P> {
    /// Build one chip per seed (at most `P::LANES`) and run the initiator
    /// phase on every enabled lane. Seeds map to lanes in order: lane `l`
    /// is bit-exact with `GapRtl` seeded `seeds[l]`.
    ///
    /// # Panics
    /// Panics if the parameters fail validation or `seeds` is empty or
    /// longer than `P::LANES`.
    pub fn new(config: GapRtlXWConfig, seeds: &[u32]) -> GapRtlXW<P> {
        let mut gap = GapRtlXW::blank(config, seeds.len());
        for (l, &seed) in seeds.iter().enumerate() {
            gap.rng.seed_lane(l, seed);
        }
        let mut acct = Acct::new(gap.enabled);
        gap.power_on(&mut acct);
        gap.flush(&mut acct);
        gap
    }

    /// An engine whose lane `l` holds `states[l]`, each taken from a
    /// scalar chip or a batch lane (any width) with the same parameters
    /// and pipelining: from here on every lane is bit-exact with the chip
    /// its state came from. The scores are recomputed from the
    /// populations; nothing runs.
    ///
    /// # Panics
    /// Panics if the parameters fail validation, `states` is empty or
    /// longer than `P::LANES`, or a state's population size differs from
    /// the parameters'.
    pub fn from_lanes(config: GapRtlXWConfig, states: &[LaneState]) -> GapRtlXW<P> {
        let mut gap = GapRtlXW::blank(config, states.len());
        let n = config.params.population_size;
        for (l, s) in states.iter().enumerate() {
            assert_eq!(s.population.len(), n, "lane state population size");
            gap.rng.set_lane_word(l, s.rng);
            for (i, &g) in s.population.iter().enumerate() {
                gap.basis.write_lane(i, l, g);
            }
            gap.best_genome[l] = s.best_genome;
            set_plane_value(&mut gap.best_planes, l, s.best_fitness);
            gap.generation[l] = s.generation;
            gap.breakdown[l] = s.breakdown;
        }
        gap.score_basis(P::ONES);
        gap
    }

    /// One lane's state at the current generation boundary (every public
    /// method returns at one), for [`GapRtlXW::from_lanes`] at any width
    /// or [`GapRtl::from_lane_state`](crate::gap_rtl::GapRtl::from_lane_state).
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES`.
    pub fn lane_state(&self, lane: usize) -> LaneState {
        assert!(lane < P::LANES, "lane out of range");
        assert_eq!(
            self.rng_owed, 0,
            "dead cycles owed at a generation boundary"
        );
        LaneState {
            rng: self.rng.lane_word(lane),
            population: (0..self.config.params.population_size)
                .map(|i| self.basis.peek(i, lane))
                .collect(),
            best_genome: self.best_genome[lane],
            best_fitness: plane_value(&self.best_planes, lane),
            generation: self.generation[lane],
            breakdown: self.breakdown[lane],
        }
    }

    /// The engine with `lanes` enabled lanes, every generator at state 1
    /// and everything else zero, before any initiator runs.
    fn blank(config: GapRtlXWConfig, lanes: usize) -> GapRtlXW<P> {
        config.params.validate().expect("invalid GAP parameters");
        assert!(
            (1..=P::LANES).contains(&lanes),
            "between 1 and {} seeds",
            P::LANES
        );
        assert!(
            config.params.fitness.max_fitness() < 1 << SCORE_PLANES,
            "batch engine stores scores as {SCORE_PLANES}-bit planes"
        );
        assert!(
            config.params.population_size <= 256,
            "batch engine reads selection indices as bytes"
        );
        let n = config.params.population_size;
        GapRtlXW {
            config,
            enabled: P::low_mask(lanes),
            rng: CaRngXW::new(&[]),
            fitness_unit: FitnessUnitXW::new(config.params.fitness),
            basis: RamXW::new(n, 36),
            intermediate: RamXW::new(n, 36),
            scores: vec![[P::ZERO; SCORE_PLANES]; n],
            best_genome: vec![0u64; P::LANES],
            best_planes: [P::ZERO; SCORE_PLANES],
            generation: vec![0u64; P::LANES],
            breakdown: vec![CycleBreakdown::default(); P::LANES],
            drawn_log: config.record_draws.then(|| vec![Vec::new(); P::LANES]),
            rng_owed: 0,
            max_fitness: config.params.fitness.max_fitness(),
            byte_buf: vec![0u8; P::LANES],
            u16_buf: vec![0u16; P::LANES],
        }
    }

    /// Recycle one lane for a fresh trial: reseed its RNG, rerun the
    /// initiator and first fitness phase on that lane alone (every other
    /// lane holds), and zero its counters. Afterwards the lane is
    /// bit-exact with a brand-new `GapRtl` seeded `seed` — this is what
    /// lets a convergence-sampling driver keep every lane busy instead
    /// of waiting on the slowest trial of each batch.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES`.
    pub fn reset_lane(&mut self, lane: usize, seed: u32) {
        self.reset_lanes(&[(lane, seed)]);
    }

    /// Recycle several lanes at once — one shared initiator pass and one
    /// shared first fitness scan over the whole group, so the (whole-
    /// machine-width) cost of a reset is paid once per group instead of
    /// once per lane. Each `(lane, seed)` entry ends up bit-exact with a
    /// brand-new `GapRtl` seeded `seed`, exactly as [`Self::reset_lane`].
    /// Every other lane keeps its scores and best registers as its last
    /// fitness phase left them, as a scalar chip does between its own
    /// fitness phases.
    ///
    /// # Panics
    /// Panics if any lane is ≥ `P::LANES` or listed twice.
    pub fn reset_lanes(&mut self, resets: &[(usize, u32)]) {
        if resets.is_empty() {
            return;
        }
        let mut m = P::ZERO;
        for &(lane, seed) in resets {
            assert!(lane < P::LANES, "lane out of range");
            assert!(!m.bit(lane), "lane {lane} listed twice");
            m.set_bit(lane, true);
            self.enabled |= P::lane_bit(lane);
            self.rng.seed_lane(lane, seed);
            self.generation[lane] = 0;
            self.breakdown[lane] = CycleBreakdown::default();
            if let Some(log) = self.drawn_log.as_mut() {
                log[lane].clear();
            }
        }
        let mut acct = Acct::new(m);
        self.power_on(&mut acct);
        self.flush(&mut acct);
    }

    /// Post the step's cycles to every active lane and settle the RNG's
    /// dead-cycle debt.
    fn flush(&mut self, acct: &mut Acct<P>) {
        self.flush_owed(acct.active);
        self.flush_divergent(acct);
        let u = acct.uniform;
        if u.total() == 0 {
            return;
        }
        let breakdown = &mut self.breakdown;
        acct.active.for_each_set_lane(|l| {
            let b = &mut breakdown[l];
            b.init += u.init;
            b.fitness += u.fitness;
            b.reproduce += u.reproduce;
            b.mutate += u.mutate;
            b.overhead += u.overhead;
        });
    }

    /// Post the sliced divergent-draw counts to the per-lane breakdowns
    /// and clear them: one extraction and one pass over the active lanes
    /// per phase that had any.
    fn flush_divergent(&mut self, acct: &mut Acct<P>) {
        let active = acct.active;
        for (&phase, count) in PHASES.iter().zip(&mut acct.divergent) {
            if count.rounds == 0 {
                continue;
            }
            planes_to_u16(&count.planes, &mut self.u16_buf);
            *count = SlicedCount::ZERO;
            let (counts, breakdown) = (&self.u16_buf, &mut self.breakdown);
            active.for_each_set_lane(|l| *breakdown[l].phase_mut(phase) += u64::from(counts[l]));
        }
    }

    /// Apply any owed dead cycles to the RNG (one jump), under the step's
    /// active set.
    fn flush_owed(&mut self, active: P) {
        if self.rng_owed > 0 {
            let n = self.rng_owed;
            self.rng_owed = 0;
            self.rng_advance(active, n);
        }
    }

    /// Advance the RNG, blend-free when no enabled lane needs to hold.
    #[inline]
    fn rng_advance(&mut self, mask: P, n: u64) {
        if (self.enabled & !mask).is_zero() {
            self.rng.advance_free(n);
        } else {
            self.rng.advance(mask, n);
        }
    }

    /// `n` system cycles in which no lane consumes an RNG word: account
    /// now, owe the RNG the advancement. Dead cycles are always uniform
    /// across the active set, which is what makes the deferral sound.
    fn advance_dead(&mut self, acct: &mut Acct<P>, phase: Phase, n: u64) {
        *acct.uniform.phase_mut(phase) += n;
        self.rng_owed += n;
    }

    /// One cycle whose RNG word is consumed by the lanes in `mask`:
    /// settles the owed dead cycles in the same jump, logs when recording.
    fn draw(&mut self, acct: &mut Acct<P>, mask: P, phase: Phase) {
        if mask == acct.active {
            let n = self.rng_owed + 1;
            self.rng_owed = 0;
            self.rng_advance(mask, n);
            *acct.uniform.phase_mut(phase) += 1;
        } else {
            // divergent draw (retry or cut): settle the debt for the whole
            // active set first, then step only the drawing lanes and count
            // their cycle in the phase's sliced counter
            self.flush_owed(acct.active);
            self.rng_advance(mask, 1);
            if acct.divergent[phase as usize].full() {
                self.flush_divergent(acct);
            }
            acct.divergent[phase as usize].increment(mask);
        }
        if let Some(log) = self.drawn_log.as_mut() {
            let rng = &self.rng;
            mask.for_each_set_lane(|l| log[l].push(rng.lane_word(l)));
        }
    }

    /// Mask-and-reject bounded draw for every lane of `mask`, bit-exact
    /// per lane with the scalar `draw_below`, read back into `out` with a
    /// single byte-spread extraction however many rounds it took. Lanes
    /// outside `mask` receive the low `k` bits of their generator, which
    /// callers never use.
    fn draw_below(
        &mut self,
        acct: &mut Acct<P>,
        mask: P,
        bound: u32,
        phase: Phase,
        out: &mut [u32],
    ) {
        let k = self.draw_below_planes(acct, mask, bound, phase);
        let planes = self.rng.low_cells(k);
        if k <= 8 {
            planes_to_bytes(planes, &mut self.byte_buf);
            for (o, &b) in out.iter_mut().zip(&self.byte_buf) {
                *o = u32::from(b);
            }
        } else {
            planes_to_u16(planes, &mut self.u16_buf);
            for (o, &w) in out.iter_mut().zip(&self.u16_buf) {
                *o = u32::from(w);
            }
        }
    }

    /// Mask-and-reject bounded draw for every lane of `mask` (one cycle
    /// per attempt; rejected lanes retry while accepted lanes hold).
    /// Returns the value width `k`: afterwards every lane of `mask` holds
    /// its accepted value in the RNG's low `k` cells, because an accepted
    /// lane's generator holds for the rest of the ladder — so the values
    /// stay as bit-planes and no per-round blend is needed. Bit-exact per
    /// lane with the scalar `draw_below`.
    fn draw_below_planes(
        &mut self,
        acct: &mut Acct<P>,
        mask: P,
        bound: u32,
        phase: Phase,
    ) -> usize {
        debug_assert!(bound > 0);
        let word_mask = bound.next_power_of_two().wrapping_sub(1) | (bound - 1);
        let k = word_mask.count_ones() as usize;
        debug_assert!(k <= 16, "plane draws are read back as at most u16s");
        let mut remaining = mask;
        while !remaining.is_zero() {
            self.draw(acct, remaining, phase);
            remaining &= !self.rng.lt_const(k, bound);
        }
        k
    }

    /// Threshold comparison on the low byte for every lane of `mask`;
    /// returns the success mask.
    fn chance(&mut self, acct: &mut Acct<P>, mask: P, threshold: u8, phase: Phase) -> P {
        self.draw(acct, mask, phase);
        mask & self.rng.lt_const(8, u32::from(threshold))
    }

    /// Power-on of the fresh lanes in `acct.active`: the initiator, then
    /// the first fitness phase. The initiator fills the basis population,
    /// 2 RNG words + 1 write cycle per individual, per lane. A genome is
    /// the first word's 32 cells plus the second word's low 4, as planes:
    /// they are transposed once into the lane-major RAM column and scored
    /// as they are, so the first fitness phase transposes nothing back.
    /// Lanes outside `acct.active` keep their scores.
    fn power_on(&mut self, acct: &mut Acct<P>) {
        let a = acct.active;
        let fu = self.fitness_unit;
        let mut planes = [P::ZERO; GENOME_BITS];
        let mut genome = vec![0u64; P::LANES];
        for i in 0..self.config.params.population_size {
            self.draw(acct, a, Phase::Init);
            planes[..32].copy_from_slice(self.rng.low_cells(32));
            self.draw(acct, a, Phase::Init);
            planes[32..].copy_from_slice(self.rng.low_cells(GENOME_BITS - 32));
            planes_to_lanes(&planes, a, &mut genome);
            self.advance_dead(acct, Phase::Init, 1); // write cycle
            self.basis.write_masked(i, a, &genome);
            let f = fu.evaluate_transposed_planes(&planes);
            for (s, f) in self.scores[i].iter_mut().zip(f) {
                *s = blend(f, *s, a);
            }
        }
        // the first fitness phase: a fresh chip first power-on-latches
        // individual 0 into its best register (no cycles)
        self.latch_best(0, a);
        self.scan_scores(acct, a);
    }

    /// Latch individual `i` into the best registers of the lanes of
    /// `lanes`: its score planes in one whole-plane blend, its genome lane
    /// by lane.
    fn latch_best(&mut self, i: usize, lanes: P) {
        self.best_planes = mux_node(&self.scores[i], &self.best_planes, lanes);
        let (basis, bg) = (&self.basis, &mut self.best_genome);
        lanes.for_each_set_lane(|l| bg[l] = basis.peek(i, l));
    }

    /// Fitness phase of a step: 2 cycles per individual, bit-sliced
    /// scoring, and the same strict-improvement ascending best-register
    /// scan as the scalar chip — per lane.
    ///
    /// The network scores every lane, which is cheaper than masking the
    /// bulk evaluation, but only the stepping lanes take the new scores
    /// and scan them. A frozen lane keeps the scores and best registers
    /// its last fitness phase left, also when its population was written
    /// since ([`Self::inject_upset`], [`Self::set_population_bit`]), as
    /// its scalar twin, not stepping, does.
    fn run_fitness_phase(&mut self, acct: &mut Acct<P>) {
        self.score_basis(acct.active);
        self.scan_scores(acct, acct.active);
    }

    /// Score every individual of the basis population on the lanes of
    /// `lanes`; the other lanes keep their stored scores.
    fn score_basis(&mut self, lanes: P) {
        let fu = self.fitness_unit;
        for (i, score) in self.scores.iter_mut().enumerate() {
            let f = fu.evaluate_lanes_planes(self.basis.column(i));
            for (s, f) in score.iter_mut().zip(f) {
                *s = blend(f, *s, lanes);
            }
        }
    }

    /// The fitness phase's cycles (address + data/commit per individual)
    /// and its strict-improvement best-register scan over the stored
    /// scores, ascending, for the lanes of `lanes`. The scan is sliced:
    /// one 5-plane comparator picks the improving lanes, whose best
    /// registers latch the individual.
    fn scan_scores(&mut self, acct: &mut Acct<P>, lanes: P) {
        for i in 0..self.config.params.population_size {
            self.advance_dead(acct, Phase::Fitness, 2);
            let gt = gt_planes(&self.scores[i], &self.best_planes) & lanes;
            if !gt.is_zero() {
                self.latch_best(i, gt);
            }
        }
    }

    /// Selection-unit work for one parent on every active lane: two index
    /// draws, the dual-port score read (2 cycles), the threshold choice
    /// (1 cycle). Writes the chosen parent's genome bits per lane.
    fn select_parent(&mut self, acct: &mut Acct<P>, s: &mut Scratch<P>, second: bool) {
        let a = acct.active;
        let n = self.config.params.population_size as u32;
        let mut ip = [P::ZERO; 8];
        let mut jp = [P::ZERO; 8];
        let k = self.draw_below_planes(acct, a, n, Phase::Reproduce);
        ip[..k].copy_from_slice(self.rng.low_cells(k));
        self.draw_below_planes(acct, a, n, Phase::Reproduce);
        jp[..k].copy_from_slice(self.rng.low_cells(k));
        self.advance_dead(acct, Phase::Reproduce, 2); // dual-port score read
        let take_better = self.chance(
            acct,
            a,
            self.config.params.selection_threshold.0,
            Phase::Reproduce,
        );
        // both score reads, the comparison and the index choice stay in
        // the sliced domain: two mux-tree gathers, one ≥ comparator, one
        // plane blend — no data-dependent loads, no mispredicting branch.
        // Choose i exactly when (score_i ≥ score_j) agrees with the
        // chance bit (better on a hit, worse otherwise).
        let si = gather_scores(&s.mux, &mut s.mux_stack, &ip);
        let sj = gather_scores(&s.mux, &mut s.mux_stack, &jp);
        let choose_i = !(ge_planes(&si, &sj) ^ take_better);
        let mut chosen = [P::ZERO; 8];
        for p in 0..k {
            chosen[p] = blend(ip[p], jp[p], choose_i);
        }
        // only the winner's index leaves the sliced domain, to address the
        // lane-major genome gather
        planes_to_bytes(&chosen[..k], &mut s.idx);
        let basis = &self.basis;
        let idx = &s.idx;
        let out = if second { &mut s.pb } else { &mut s.pa };
        a.for_each_set_lane(|l| out[l] = basis.peek(usize::from(idx[l]), l));
    }

    /// Selection stage for one pair: two parents, the crossover decision,
    /// the cut draw under the success mask, and the 36-cycle bit-serial
    /// parent copy (owed to the RNG as one jump). Leaves the offspring in
    /// the scratch `c`/`d`.
    fn selection_stage(&mut self, acct: &mut Acct<P>, s: &mut Scratch<P>) {
        let a = acct.active;
        self.select_parent(acct, s, false);
        self.select_parent(acct, s, true);
        let xover = self.chance(
            acct,
            a,
            self.config.params.crossover_threshold.0,
            Phase::Reproduce,
        );
        if !xover.is_zero() {
            // only successful lanes spend cycles drawing the cut point
            self.draw_below(
                acct,
                xover,
                GENOME_BITS as u32 - 1,
                Phase::Reproduce,
                &mut s.val,
            );
        }
        let (pa, pb, cut) = (&s.pa, &s.pb, &s.val);
        let (c, d) = (&mut s.c, &mut s.d);
        // single-point crossover (inlined from Genome::crossover),
        // branchless: the crossed pair is computed for every lane of a limb
        // that has an active lane and blended by the success mask — the
        // success bit is a coin flip, so a data-dependent branch here
        // mispredicts constantly. A lane without a cut draw holds a stale
        // 6-bit value (≤ 63), which the wrapping mask below absorbs and
        // the blend discards.
        for w in (0..P::WORDS).filter(|&w| a.word(w) != 0) {
            let xw = xover.word(w);
            for l in 64 * w..64 * w + 64 {
                debug_assert!(cut[l] < 64);
                let xm = (xw >> (l % 64) & 1).wrapping_neg();
                let low = (2u64 << cut[l]).wrapping_sub(1);
                let high = GENOME_MASK & !low;
                let cx = pa[l] & low | pb[l] & high;
                let dx = pb[l] & low | pa[l] & high;
                c[l] = (cx & xm) | (pa[l] & !xm);
                d[l] = (dx & xm) | (pb[l] & !xm);
            }
        }
        // bit-serial copy of both parents into the pipeline registers
        self.advance_dead(acct, Phase::Reproduce, GENOME_BITS as u64);
    }

    /// Reproduction phase: all pairs through selection ∥ crossover.
    fn run_reproduce_phase(&mut self, acct: &mut Acct<P>, s: &mut Scratch<P>) {
        let a = acct.active;
        let pairs = self.config.params.population_size / 2;
        // The scalar pipeline pads when the 38-cycle crossover drain
        // outlasts the selection stage; a stage costs ≥ 47 cycles, so the
        // pad is statically dead and the commits below cost no cycles in
        // pipelined mode.
        const { assert!(XOVER_CYCLES < 47) };
        for pair in 0..pairs {
            self.selection_stage(acct, s);
            if !self.config.pipelined {
                self.advance_dead(acct, Phase::Reproduce, XOVER_CYCLES);
            }
            self.intermediate.write_masked(2 * pair, a, &s.c);
            self.intermediate.write_masked(2 * pair + 1, a, &s.d);
        }
        if self.config.pipelined {
            // drain the last pair
            self.advance_dead(acct, Phase::Reproduce, XOVER_CYCLES);
        }
    }

    /// Mutation phase: per flip, a bounded address draw and a 3-cycle
    /// read-modify-write on the intermediate RAM, per lane.
    fn run_mutate_phase(&mut self, acct: &mut Acct<P>, s: &mut Scratch<P>) {
        let a = acct.active;
        let bits = self.config.params.population_bits() as u32;
        for _ in 0..self.config.params.mutations_per_generation {
            self.draw_below(acct, a, bits, Phase::Mutate, &mut s.val);
            self.advance_dead(acct, Phase::Mutate, 3); // read addr + data + write back
            let ram = &mut self.intermediate;
            let pos = &s.val;
            a.for_each_set_lane(|l| {
                let idx = pos[l] as usize / GENOME_BITS;
                let bit = pos[l] as usize % GENOME_BITS;
                ram.xor_lane(idx, l, 1u64 << bit);
            });
        }
    }

    fn step_internal(&mut self, acct: &mut Acct<P>) {
        let a = acct.active;
        let mut scratch = Scratch::new(self.config.params.population_size);
        // the selection mux reads the score planes the previous step's
        // fitness phase left behind; the power-of-two padding entries are
        // never addressed (index draws are bounded by the population size)
        scratch.mux[..self.scores.len()].copy_from_slice(&self.scores);
        self.run_reproduce_phase(acct, &mut scratch);
        self.run_mutate_phase(acct, &mut scratch);
        // bank-select toggle. The swap exchanges the buffers for every
        // lane, so frozen-but-enabled lanes first carry their population
        // into the buffer that is about to become the basis.
        self.advance_dead(acct, Phase::Overhead, 1);
        let frozen = self.enabled & !a;
        if !frozen.is_zero() {
            self.intermediate.copy_lanes_from(&self.basis, frozen);
        }
        std::mem::swap(&mut self.basis, &mut self.intermediate);
        let gen = &mut self.generation;
        a.for_each_set_lane(|l| gen[l] += 1);
        self.run_fitness_phase(acct);
    }

    /// Advance the lanes of `mask` (intersected with the enabled set) by
    /// one generation; every register of every other lane holds.
    pub fn step_generation_masked(&mut self, mask: P) {
        let active = mask & self.enabled;
        if active.is_zero() {
            return;
        }
        let telemetry = tele::enabled_at(tele::Level::Metric);
        let converged_before = if telemetry {
            self.converged_mask()
        } else {
            P::ZERO
        };
        let mut acct = Acct::new(active);
        self.step_internal(&mut acct);
        self.flush(&mut acct);
        if telemetry {
            if tele::enabled_at(tele::Level::Trace) {
                // lane occupancy of this lockstep step: the batch engine's
                // pipeline utilisation metric (full lane count = full,
                // 1 = worst case)
                tele::emit(
                    tele::Level::Trace,
                    "rtl.x64.step",
                    &[
                        ("active_lanes", u64::from(active.count_ones()).into()),
                        ("enabled_lanes", u64::from(self.enabled.count_ones()).into()),
                    ],
                );
            }
            let fresh = self.converged_mask() & !converged_before;
            fresh.for_each_set_lane(|l| {
                tele::emit(
                    tele::Level::Metric,
                    "rtl.x64.lane_converged",
                    &[
                        ("lane", l.into()),
                        ("generation", self.generation[l].into()),
                        ("cycles", self.cycles(l).into()),
                        ("best", plane_value(&self.best_planes, l).into()),
                    ],
                );
            });
        }
    }

    /// Advance every enabled lane one generation (lockstep batch step —
    /// the direct counterpart of `P::LANES` scalar `step_generation`
    /// calls).
    pub fn step_generation(&mut self) {
        self.step_generation_masked(self.enabled);
    }

    /// The mask of enabled lanes still worth stepping: not converged and
    /// under the generation budget.
    pub fn running_mask(&self, max_generations: u64) -> P {
        let mut running = self.enabled & !self.converged_mask();
        running.for_each_set_lane(|l| {
            if self.generation[l] >= max_generations {
                running.set_bit(l, false);
            }
        });
        running
    }

    /// Step the non-converged lanes until every enabled lane either holds
    /// a maximal-fitness best genome or has run `max_generations`.
    /// Returns the converged mask. Per lane this is exactly the scalar
    /// `run_to_convergence` loop; converged lanes freeze.
    pub fn run_to_convergence(&mut self, max_generations: u64) -> P {
        loop {
            let active = self.running_mask(max_generations);
            if active.is_zero() {
                return self.converged_mask();
            }
            self.step_generation_masked(active);
        }
    }

    /// The enabled-lane mask (low `seeds.len()` bits).
    pub fn enabled(&self) -> P {
        self.enabled
    }

    /// Whether one lane's best register holds a maximal-fitness genome.
    pub fn converged(&self, lane: usize) -> bool {
        self.best(lane).1 == self.max_fitness
    }

    /// The mask of enabled lanes that have converged: one whole-plane
    /// comparison of the best-fitness planes with the maximum.
    pub fn converged_mask(&self) -> P {
        let max_planes = std::array::from_fn(|p| P::splat(self.max_fitness >> p & 1 == 1));
        self.enabled & cmp_planes(&self.best_planes, &max_planes).1
    }

    /// One lane's best individual register (genome, fitness).
    pub fn best(&self, lane: usize) -> (Genome, u32) {
        (
            Genome::from_bits(self.best_genome[lane]),
            plane_value(&self.best_planes, lane),
        )
    }

    /// Generations executed by one lane.
    pub fn generation(&self, lane: usize) -> u64 {
        self.generation[lane]
    }

    /// System cycles elapsed on one lane (the lane's `Clock`).
    pub fn cycles(&self, lane: usize) -> u64 {
        self.breakdown[lane].total()
    }

    /// Per-phase cycle accounting for one lane.
    pub fn breakdown(&self, lane: usize) -> CycleBreakdown {
        self.breakdown[lane]
    }

    /// One lane's consumed-word log, in logical draw order.
    ///
    /// # Panics
    /// Panics unless the engine was built with `record_draws`.
    pub fn drawn_log(&self, lane: usize) -> &[u32] {
        self.drawn_log
            .as_ref()
            .expect("drawn-log recording disabled; build with record_draws")[lane]
            .as_slice()
    }

    /// One lane's current basis population.
    pub fn population(&self, lane: usize) -> Population {
        Population::from_genomes(
            (0..self.config.params.population_size)
                .map(|i| Genome::from_bits(self.basis.peek(i, lane)))
                .collect(),
        )
    }

    /// The configuration in force.
    pub fn config(&self) -> &GapRtlXWConfig {
        &self.config
    }

    /// Inject a single-event upset into every lane of `mask`: flip bit
    /// `pos % 36` of individual `pos / 36` in the basis RAM — E13's fault
    /// campaign as a one-hot lane-mask XOR.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count.
    pub fn inject_upset(&mut self, pos: usize, mask: P) {
        assert!(
            pos < self.config.params.population_bits(),
            "upset position out of range"
        );
        self.basis.flip_bit(
            pos / GENOME_BITS,
            (pos % GENOME_BITS) as u32,
            mask & self.enabled,
        );
    }

    // --- fault-injection ports (used by `leonardo-faults`) --------------
    //
    // Per-lane observation and forcing of the same three storage domains
    // the scalar chip exposes (`basis`, `rng_cells`, `best_genome_reg`),
    // so a lockstep fault campaign stays bit-exact across engines. Forcing
    // is only safe at generation boundaries (the RNG's deferred dead-cycle
    // debt is always settled when `step_generation_masked` returns).

    /// Read one bit of one lane's basis population storage, addressed like
    /// [`GapRtlXW::inject_upset`].
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count or
    /// `lane ≥ P::LANES`.
    pub fn population_bit(&self, lane: usize, pos: usize) -> bool {
        assert!(
            pos < self.config.params.population_bits(),
            "population bit out of range"
        );
        self.basis.peek(pos / GENOME_BITS, lane) >> (pos % GENOME_BITS) & 1 == 1
    }

    /// Force one bit of one lane's basis population storage; every other
    /// lane holds.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the population bit count or
    /// `lane ≥ P::LANES`.
    pub fn set_population_bit(&mut self, lane: usize, pos: usize, value: bool) {
        if self.population_bit(lane, pos) != value {
            self.basis.flip_bit(
                pos / GENOME_BITS,
                (pos % GENOME_BITS) as u32,
                P::lane_bit(lane),
            );
        }
    }

    /// Read one CA state cell of one lane's free-running RNG.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `cell ≥ 32`.
    pub fn rng_state_bit(&self, lane: usize, cell: usize) -> bool {
        self.rng.cell_bit(lane, cell)
    }

    /// Force one CA state cell of one lane's RNG; every other lane holds.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `cell ≥ 32`.
    pub fn set_rng_state_bit(&mut self, lane: usize, cell: usize, value: bool) {
        self.rng.set_cell_bit(lane, cell, value);
    }

    /// Read one bit of one lane's best-genome register.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `bit ≥ 36`.
    pub fn best_genome_bit(&self, lane: usize, bit: usize) -> bool {
        assert!(lane < P::LANES, "lane out of range");
        assert!(bit < GENOME_BITS, "best-genome bit out of range");
        self.best_genome[lane] >> bit & 1 == 1
    }

    /// Force one bit of one lane's best-genome register, leaving the
    /// best-fitness planes alone — the same silent-corruption semantics
    /// as the scalar port, so the strict-improvement comparator behaves
    /// identically on both engines afterwards.
    ///
    /// # Panics
    /// Panics if `lane ≥ P::LANES` or `bit ≥ 36`.
    pub fn set_best_genome_bit(&mut self, lane: usize, bit: usize, value: bool) {
        assert!(lane < P::LANES, "lane out of range");
        assert!(bit < GENOME_BITS, "best-genome bit out of range");
        let b = 1u64 << bit;
        self.best_genome[lane] = (self.best_genome[lane] & !b) | (u64::from(value) << bit);
    }

    /// Per-unit resource estimate: `P::LANES` chips' worth of Figure 5.
    pub fn resource_report(&self) -> ResourceReport {
        let lanes = P::LANES as u32;
        let mut rep = ResourceReport::new();
        rep.add(format!("rng (32-cell CA ×{lanes})"), self.rng.resources());
        rep.add(
            format!("population RAM (basis ×{lanes})"),
            self.basis.resources(),
        );
        rep.add(
            format!("population RAM (interm. ×{lanes})"),
            self.intermediate.resources(),
        );
        rep.add(
            format!("fitness score LUT-RAM ×{lanes}"),
            Resources::lut_ram_bits(self.scores.len() as u32 * 5 * lanes),
        );
        rep.add(
            format!("best-individual registers ×{lanes}"),
            Resources::unit((36 + 5) * lanes, 4 * lanes),
        );
        rep.add(
            format!("fitness unit ×{lanes}"),
            self.fitness_unit.resources(),
        );
        rep.add(
            format!("selection unit ×{lanes}"),
            Resources::unit(12 * lanes, 24 * lanes),
        );
        rep.add(
            format!("crossover unit ×{lanes}"),
            Resources::unit((2 * 36 + 6) * lanes, 16 * lanes),
        );
        rep.add(
            format!("mutation unit ×{lanes}"),
            Resources::unit(12 * lanes, 10 * lanes),
        );
        rep.add(
            format!("initiator + control FSM ×{lanes}"),
            Resources::unit(8 * lanes, 24 * lanes),
        );
        rep
    }
}

impl crate::netlist::Describe for GapRtlXW<u64> {
    fn netlist(&self) -> crate::netlist::StaticNetlist {
        let n = self.config.params.population_size as u32;
        let lanes = LANES as u32;
        // Figure 5 with every per-chip net replicated 64-fold and a lane
        // mask gating the clock enables. This is a *simulation vehicle*,
        // not a placeable XC4036EX design — 64 chips obviously exceed one
        // chip's CLB budget, so the analysis gate lints these units
        // structurally (lint_unit) and deliberately leaves them out of the
        // single-chip budget check.
        crate::netlist::StaticNetlist::new("gap_x64")
            .claim(self.resource_report().total())
            .input("lane_mask", lanes)
            .register("rng_cells", 32 * lanes)
            .wire("rng_next", 32 * lanes)
            .edge("rng_cells", "rng_next")
            .fan_in(&["rng_next", "lane_mask"], "rng_cells")
            .register("basis", n * 36 * lanes)
            .register("intermediate", n * 36 * lanes)
            .register("bank_select", lanes)
            .edge("bank_select", "bank_select")
            .wire("fitness_score", 5 * lanes)
            .register("score_ram", n * 5 * lanes)
            .register("best_genome_reg", 36 * lanes)
            .register("best_fitness_reg", 5 * lanes)
            .fan_in(&["basis", "bank_select"], "fitness_score")
            .edge("fitness_score", "score_ram")
            .fan_in(
                &["fitness_score", "best_fitness_reg", "basis"],
                "best_genome_reg",
            )
            .fan_in(&["fitness_score", "best_fitness_reg"], "best_fitness_reg")
            .register("sel_regs", 12 * lanes)
            .fan_in(&["rng_cells", "score_ram"], "sel_regs")
            .register("xover_shift", 2 * 36 * lanes)
            .register("cut_point", 6 * lanes)
            .edge("rng_cells", "cut_point")
            .fan_in(
                &["basis", "sel_regs", "cut_point", "xover_shift"],
                "xover_shift",
            )
            .edge("xover_shift", "intermediate")
            .fan_in(&["intermediate", "bank_select"], "basis")
            .register("mut_addr", 12 * lanes)
            .edge("rng_cells", "mut_addr")
            .fan_in(&["mut_addr", "intermediate"], "intermediate")
            .register("ctrl_fsm", 8 * lanes)
            .edge("ctrl_fsm", "ctrl_fsm")
            .fan_in(&["lane_mask", "ctrl_fsm"], "ctrl_fsm")
            .edge("rng_cells", "basis")
            .output("best_genome", 36 * lanes)
            .output("best_fitness", 5 * lanes)
            .output("cfg_bit", lanes)
            .edge("best_genome_reg", "best_genome")
            .edge("best_fitness_reg", "best_fitness")
            .fan_in(&["best_genome_reg", "ctrl_fsm"], "cfg_bit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::plane::{W128, W512};
    use crate::gap_rtl::{GapRtl, GapRtlConfig};

    fn seeds(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| 0x1000 + 7 * i).collect()
    }

    fn check_initiator_on_every_lane<P: Plane>() {
        let s = seeds(P::LANES);
        let batch = GapRtlXW::<P>::new(GapRtlXWConfig::paper().recording(), &s);
        for (l, &seed) in s.iter().enumerate() {
            let scalar = GapRtl::new(GapRtlConfig::paper(seed));
            let name = P::NAME;
            assert_eq!(batch.population(l), scalar.population(), "{name} lane {l}");
            assert_eq!(
                batch.drawn_log(l),
                scalar.drawn_log(),
                "{name} lane {l} log"
            );
            assert_eq!(
                batch.cycles(l),
                scalar.clock().cycles(),
                "{name} lane {l} cycles"
            );
            assert_eq!(batch.best(l), scalar.best(), "{name} lane {l} best");
        }
    }

    #[test]
    fn initiator_matches_scalar_on_every_lane() {
        // every limb of the widest plane goes through the initiator's
        // plane-to-lane extraction
        check_initiator_on_every_lane::<u64>();
        check_initiator_on_every_lane::<W512>();
    }

    /// Whether `a` and `b` agree on every lane of `lanes`, plane by plane.
    fn planes_agree<P: Plane>(a: &[P; SCORE_PLANES], b: &[P; SCORE_PLANES], lanes: P) -> bool {
        a.iter().zip(b).all(|(&x, &y)| ((x ^ y) & lanes).is_zero())
    }

    /// Every individual's stored score planes against a fresh evaluation
    /// of its basis column, on the lanes of `lanes`.
    fn assert_scores_match_basis<P: Plane>(gap: &GapRtlXW<P>, lanes: P, ctx: &str) {
        for (i, score) in gap.scores.iter().enumerate() {
            let want = gap.fitness_unit.evaluate_lanes_planes(gap.basis.column(i));
            assert!(
                planes_agree(score, &want, lanes),
                "{} {ctx}: individual {i}",
                P::NAME
            );
        }
    }

    fn check_fresh_lanes_are_scored_from_their_planes<P: Plane>() {
        let s = seeds(P::LANES);
        let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &s);
        assert_scores_match_basis(&gap, P::ONES, "after new");
        for _ in 0..3 {
            gap.step_generation();
        }
        // an upset that changes a score, on a lane outside the reset,
        // between two fitness phases: like a scalar chip, the lane keeps
        // the scores its last fitness phase left until its next one
        let upset_lane = P::LANES - 2;
        let spec = gap.fitness_unit.spec();
        let g = gap.population(upset_lane).get(7);
        let bit = (0..GENOME_BITS)
            .find(|&b| spec.evaluate(Genome::from_bits(g.bits() ^ 1 << b)) != spec.evaluate(g))
            .expect("some bit flip changes the score");
        let pos = 7 * GENOME_BITS + bit;
        gap.inject_upset(pos, P::lane_bit(upset_lane));
        let before = gap.clone();
        let resets: Vec<(usize, u32)> = (0..8)
            .map(|k| (k * P::LANES / 8 + k, 0xBEE0 + k as u32))
            .collect();
        let mut reset = P::ZERO;
        for &(l, _) in &resets {
            reset.set_bit(l, true);
        }
        gap.reset_lanes(&resets);
        let kept = !reset;
        assert_scores_match_basis(&gap, !P::lane_bit(upset_lane), "after reset_lanes");
        for (i, (now, was)) in gap.scores.iter().zip(&before.scores).enumerate() {
            assert!(planes_agree(now, was, kept), "{} individual {i}", P::NAME);
        }
        assert!(planes_agree(&gap.best_planes, &before.best_planes, kept));
        kept.for_each_set_lane(|l| {
            assert_eq!(gap.best(l), before.best(l), "{} lane {l}", P::NAME);
        });
        // both kinds of lane go on in lockstep with their scalar twins
        gap.step_generation();
        let mut upset = GapRtl::new(GapRtlConfig::paper(s[upset_lane]));
        for _ in 0..3 {
            upset.step_generation();
        }
        upset.inject_upset(pos);
        upset.step_generation();
        assert_eq!(gap.population(upset_lane), upset.population());
        assert_eq!(gap.best(upset_lane), upset.best());
        for &(l, seed) in &resets {
            let mut fresh = GapRtl::new(GapRtlConfig::paper(seed));
            fresh.step_generation();
            assert_eq!(
                gap.population(l),
                fresh.population(),
                "{} lane {l}",
                P::NAME
            );
            assert_eq!(gap.best(l), fresh.best(), "{} lane {l}", P::NAME);
            assert_eq!(
                gap.cycles(l),
                fresh.clock().cycles(),
                "{} lane {l}",
                P::NAME
            );
        }
    }

    #[test]
    fn fresh_lanes_are_scored_from_their_planes() {
        check_fresh_lanes_are_scored_from_their_planes::<u64>();
        check_fresh_lanes_are_scored_from_their_planes::<W512>();
    }

    /// An upset that beats a frozen lane's best score, then a step that
    /// leaves the lane out: the lane keeps its scores and best registers,
    /// as its scalar twin does, and the two go on in lockstep.
    fn check_frozen_upset_lane_keeps_its_scores<P: Plane>() {
        let s = seeds(P::LANES);
        let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &s);
        let lane = P::LANES - 3;
        let mut twin = GapRtl::new(GapRtlConfig::paper(s[lane]));
        for _ in 0..3 {
            gap.step_generation();
            twin.step_generation();
        }
        let spec = gap.fitness_unit.spec();
        let (pop, best) = (gap.population(lane), gap.best(lane).1);
        let pos = (0..pop.len() * GENOME_BITS)
            .find(|&pos| {
                let g = pop.get(pos / GENOME_BITS).bits() ^ 1 << (pos % GENOME_BITS);
                spec.evaluate(Genome::from_bits(g)) > best
            })
            .expect("some bit flip beats the best score");
        gap.inject_upset(pos, P::lane_bit(lane));
        twin.inject_upset(pos);
        let before = gap.clone();
        gap.step_generation_masked(!P::lane_bit(lane));
        let frozen = P::lane_bit(lane);
        for (i, (now, was)) in gap.scores.iter().zip(&before.scores).enumerate() {
            assert!(planes_agree(now, was, frozen), "{} individual {i}", P::NAME);
        }
        assert!(planes_agree(&gap.best_planes, &before.best_planes, frozen));
        assert_eq!(gap.best(lane), twin.best(), "{} masked step", P::NAME);
        gap.step_generation();
        twin.step_generation();
        assert_eq!(gap.population(lane), twin.population(), "{}", P::NAME);
        assert_eq!(gap.best(lane), twin.best(), "{} next step", P::NAME);
    }

    #[test]
    fn frozen_upset_lane_keeps_its_scores() {
        check_frozen_upset_lane_keeps_its_scores::<u64>();
        check_frozen_upset_lane_keeps_its_scores::<W512>();
    }

    #[test]
    fn sliced_counts_match_per_lane_counts() {
        // the ripple only touches the planes the round count can reach,
        // so uneven masks over 1000 rounds exercise every carry length
        let mut count = SlicedCount::<W128>::ZERO;
        let mut want = [0u32; 128];
        for r in 0..1000u64 {
            let mask = W128::from_words(|w| {
                (r + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(r as u32 + 7 * w as u32)
            });
            count.increment(mask);
            for (l, n) in want.iter_mut().enumerate() {
                *n += u32::from(mask.bit(l));
            }
        }
        for (l, &n) in want.iter().enumerate() {
            let got: u32 = (0..COUNT_PLANES)
                .map(|b| u32::from(count.planes[b].bit(l)) << b)
                .sum();
            assert_eq!(got, n, "lane {l}");
        }
    }

    #[test]
    fn lockstep_generations_match_scalar() {
        let s = seeds(8);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper().recording(), &s);
        let mut scalars: Vec<GapRtl> = s
            .iter()
            .map(|&seed| GapRtl::new(GapRtlConfig::paper(seed)))
            .collect();
        for gen in 0..10 {
            batch.step_generation();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                scalar.step_generation();
                assert_eq!(
                    batch.population(l),
                    scalar.population(),
                    "gen {gen} lane {l}"
                );
                assert_eq!(
                    batch.cycles(l),
                    scalar.clock().cycles(),
                    "gen {gen} lane {l}"
                );
                assert_eq!(batch.breakdown(l), scalar.breakdown(), "gen {gen} lane {l}");
                assert_eq!(batch.drawn_log(l), scalar.drawn_log(), "gen {gen} lane {l}");
            }
        }
    }

    #[test]
    fn wide_lockstep_generations_match_scalar() {
        // 80 lanes crosses the first limb boundary of a W128 plane, so the
        // partial-batch mask, the retry ladder and the score gather all
        // exercise the multi-limb paths
        let s = seeds(80);
        let mut batch = GapRtlXW::<W128>::new(GapRtlXWConfig::paper().recording(), &s);
        let mut scalars: Vec<GapRtl> = s
            .iter()
            .map(|&seed| GapRtl::new(GapRtlConfig::paper(seed)))
            .collect();
        for gen in 0..5 {
            batch.step_generation();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                scalar.step_generation();
                assert_eq!(
                    batch.population(l),
                    scalar.population(),
                    "gen {gen} lane {l}"
                );
                assert_eq!(
                    batch.cycles(l),
                    scalar.clock().cycles(),
                    "gen {gen} lane {l}"
                );
                assert_eq!(batch.drawn_log(l), scalar.drawn_log(), "gen {gen} lane {l}");
            }
        }
    }

    #[test]
    fn partial_lane_count_leaves_spares_idle() {
        let s = seeds(5);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
        assert_eq!(batch.enabled(), 0b11111);
        batch.step_generation();
        for l in 0..5 {
            assert_eq!(batch.generation(l), 1);
        }
        assert_eq!(batch.generation(5), 0);
        assert_eq!(batch.cycles(63), 0);
    }

    #[test]
    fn unpipelined_mode_matches_scalar() {
        let s = seeds(4);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::unpipelined().recording(), &s);
        let mut scalars: Vec<GapRtl> = s
            .iter()
            .map(|&seed| GapRtl::new(GapRtlConfig::unpipelined(seed)))
            .collect();
        for _ in 0..5 {
            batch.step_generation();
        }
        for (l, scalar) in scalars.iter_mut().enumerate() {
            for _ in 0..5 {
                scalar.step_generation();
            }
            assert_eq!(batch.population(l), scalar.population(), "lane {l}");
            assert_eq!(batch.cycles(l), scalar.clock().cycles(), "lane {l}");
        }
    }

    #[test]
    fn masked_step_freezes_unselected_lanes() {
        let s = seeds(8);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
        let before_pop = batch.population(3);
        let before_cycles = batch.cycles(3);
        batch.step_generation_masked(0b0000_0111);
        assert_eq!(batch.generation(0), 1);
        assert_eq!(batch.generation(3), 0);
        assert_eq!(batch.population(3), before_pop);
        assert_eq!(batch.cycles(3), before_cycles);
        // the frozen lane keeps matching its scalar twin afterwards
        batch.step_generation();
        let mut scalar = GapRtl::new(GapRtlConfig::paper(s[3]));
        scalar.step_generation();
        assert_eq!(batch.population(3), scalar.population());
        assert_eq!(batch.cycles(3), scalar.clock().cycles());
    }

    #[test]
    fn reset_lane_is_a_fresh_scalar_chip() {
        let s = seeds(8);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper().recording(), &s);
        for _ in 0..4 {
            batch.step_generation();
        }
        // recycle lane 2 for a brand-new trial mid-run
        batch.reset_lane(2, 0xD00D);
        let mut fresh = GapRtl::new(GapRtlConfig::paper(0xD00D));
        assert_eq!(batch.population(2), fresh.population());
        assert_eq!(batch.cycles(2), fresh.clock().cycles());
        assert_eq!(batch.drawn_log(2), fresh.drawn_log());
        // other lanes kept their mid-run state and everyone still tracks
        // their scalar twin afterwards
        for gen in 0..3 {
            batch.step_generation();
            fresh.step_generation();
            assert_eq!(batch.population(2), fresh.population(), "gen {gen}");
            assert_eq!(batch.cycles(2), fresh.clock().cycles(), "gen {gen}");
            assert_eq!(batch.drawn_log(2), fresh.drawn_log(), "gen {gen}");
        }
        let mut scalar5 = GapRtl::new(GapRtlConfig::paper(s[5]));
        for _ in 0..7 {
            scalar5.step_generation();
        }
        assert_eq!(batch.population(5), scalar5.population());
        assert_eq!(batch.cycles(5), scalar5.clock().cycles());
    }

    #[test]
    fn upset_flips_one_bit_in_masked_lanes_only() {
        let s = seeds(8);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
        let before: Vec<Population> = (0..8).map(|l| batch.population(l)).collect();
        batch.inject_upset(7 * 36 + 11, 0b0010_0010);
        for (l, before_l) in before.iter().enumerate() {
            let after = batch.population(l);
            let diff: u32 = before_l
                .genomes()
                .iter()
                .zip(after.genomes())
                .map(|(a, b)| a.hamming_distance(*b))
                .sum();
            if l == 1 || l == 5 {
                assert_eq!(diff, 1, "lane {l}");
                assert_eq!(before_l.get(7).hamming_distance(after.get(7)), 1);
            } else {
                assert_eq!(diff, 0, "lane {l}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_set() {
        let s = seeds(16);
        let mut a = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
        let mut b = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
        for _ in 0..5 {
            a.step_generation();
            b.step_generation();
        }
        for l in 0..16 {
            assert_eq!(a.population(l), b.population(l));
            assert_eq!(a.cycles(l), b.cycles(l));
        }
    }

    /// Bit `l` of the whole-plane masks against the per-lane reads, at
    /// every lane (enabled or not) and each of `budgets`.
    fn assert_masks_match_lanes<P: Plane>(gap: &GapRtlXW<P>, budgets: &[u64], ctx: &str) {
        let (name, converged) = (P::NAME, gap.converged_mask());
        for &b in budgets {
            let running = gap.running_mask(b);
            for l in 0..P::LANES {
                assert_eq!(converged.bit(l), gap.converged(l), "{name} {ctx} lane {l}");
                let want = gap.enabled().bit(l) && !gap.converged(l) && gap.generation(l) < b;
                assert_eq!(running.bit(l), want, "{name} {ctx} budget {b} lane {l}");
            }
        }
    }

    fn check_run_to_convergence_freezes_lanes<P: Plane>() {
        let mut batch = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &seeds(8));
        // lanes in the middle and last limbs too, disabled lanes between
        let (mid, last) = (P::LANES / 2 + 3, P::LANES - 1);
        batch.reset_lanes(&[(mid, 0x2000), (last, 0x2001)]);
        // uneven generations: the even lanes step three times, the rest once
        for _ in 0..2 {
            batch.step_generation_masked(P::from_words(|_| 0x5555_5555_5555_5555));
        }
        // upsets turn every individual of the last lane into the tripod,
        // and one step's fitness phase raises its best to the maximum
        let tripod = Genome::tripod().bits();
        let pop = batch.population(last);
        for i in 0..pop.len() {
            let diff = pop.get(i).bits() ^ tripod;
            for bit in (0..GENOME_BITS).filter(|&b| diff >> b & 1 == 1) {
                batch.inject_upset(i * GENOME_BITS + bit, P::lane_bit(last));
            }
        }
        assert!(!batch.converged(last), "{}", P::NAME);
        batch.step_generation();
        let max = GapParams::paper().fitness.max_fitness();
        assert!(batch.converged(last), "{} upset lane", P::NAME);
        assert_eq!(batch.best(last).1, max);
        let gens = [0, batch.generation(0), batch.generation(1), u64::MAX];
        assert_ne!(gens[1], gens[2]);
        assert_masks_match_lanes(&batch, &gens, "mid-run");
        let converged = batch.run_to_convergence(50_000);
        assert_eq!(converged, batch.enabled(), "{} converged", P::NAME);
        assert_masks_match_lanes(&batch, &gens, "converged");
        let lanes: Vec<usize> = (0..8).chain([mid, last]).collect();
        for &l in &lanes {
            let (g, f) = batch.best(l);
            assert!(f == max && GapParams::paper().fitness.is_max(g), "lane {l}");
        }
        // lanes converge at different generations — the whole point of
        // per-lane freezing
        let at: Vec<u64> = lanes.iter().map(|&l| batch.generation(l)).collect();
        assert!(at.iter().any(|&g| g != at[0]), "{at:?}");
    }

    #[test]
    fn run_to_convergence_freezes_lanes_at_their_own_generation() {
        check_run_to_convergence_freezes_lanes::<u64>();
        check_run_to_convergence_freezes_lanes::<W128>();
        check_run_to_convergence_freezes_lanes::<W512>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn upset_position_checked() {
        GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &[1]).inject_upset(1152, 1);
    }

    #[test]
    #[should_panic(expected = "recording disabled")]
    fn drawn_log_requires_recording() {
        let gap = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &[1]);
        let _ = gap.drawn_log(0);
    }
}
