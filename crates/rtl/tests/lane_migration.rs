//! Lane migration: a chip's state moves between the scalar `GapRtl` and
//! every width of the batch engine, in both directions, and the moved
//! chip stays bit-exact with a scalar chip that never moved.

use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W128, W256, W512};
use leonardo_rtl::gap_rtl::{GapRtl, LaneState};

/// Where a lane can live.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Scalar,
    U64,
    W128,
    W256,
    W512,
}

const KINDS: [Kind; 5] = [Kind::Scalar, Kind::U64, Kind::W128, Kind::W256, Kind::W512];

/// One engine of some kind holding the tracked chip.
trait Host {
    fn step(&mut self);
    /// The tracked chip's state.
    fn state(&self) -> LaneState;
    /// Run to convergence or `budget`, filler lanes included.
    fn run(&mut self, budget: u64);
}

impl Host for GapRtl {
    fn step(&mut self) {
        self.step_generation();
    }

    fn state(&self) -> LaneState {
        self.lane_state()
    }

    fn run(&mut self, budget: u64) {
        self.run_to_convergence(budget);
    }
}

/// A batch engine with the tracked chip in lane `.1`.
struct Lane<P: Plane>(GapRtlXW<P>, usize);

impl<P: Plane> Host for Lane<P> {
    fn step(&mut self) {
        self.0.step_generation();
    }

    fn state(&self) -> LaneState {
        self.0.lane_state(self.1)
    }

    fn run(&mut self, budget: u64) {
        self.0.run_to_convergence(budget);
    }
}

fn seed(i: usize) -> u32 {
    0x3000 + 11 * i as u32
}

/// A fresh chip of seed index `i`, as a lane state.
fn fresh(config: GapRtlXWConfig, i: usize) -> LaneState {
    GapRtl::new(config.chip(seed(i))).lane_state()
}

/// A batch engine with fresh filler lanes below the tracked chip, which
/// sits in the top eighth: on a wide plane, past the first 64-lane limb.
fn wide<P: Plane>(config: GapRtlXWConfig, state: &LaneState) -> Lane<P> {
    let lane = P::LANES - 1 - P::LANES / 8;
    let mut states: Vec<LaneState> = (0..lane).map(|i| fresh(config, 100 + i)).collect();
    states.push(state.clone());
    Lane(GapRtlXW::from_lanes(config, &states), lane)
}

impl Kind {
    fn host(self, config: GapRtlXWConfig, state: &LaneState) -> Box<dyn Host> {
        match self {
            Kind::Scalar => Box::new(GapRtl::from_lane_state(config.chip(0), state)),
            Kind::U64 => Box::new(wide::<u64>(config, state)),
            Kind::W128 => Box::new(wide::<W128>(config, state)),
            Kind::W256 => Box::new(wide::<W256>(config, state)),
            Kind::W512 => Box::new(wide::<W512>(config, state)),
        }
    }
}

/// A scalar chip that never moved, after `gens` generations.
fn reference(config: GapRtlXWConfig, i: usize, gens: u64) -> GapRtl {
    let mut chip = GapRtl::new(config.chip(seed(i)));
    for _ in 0..gens {
        chip.step_generation();
    }
    chip
}

/// Run `k` generations on `from`, move to `to` and back, run `n` more on
/// `from`: everything must equal the unmoved chip after `k + n`.
fn round_trip(config: GapRtlXWConfig, from: Kind, to: Kind, k: u64, n: u64) {
    let i = 7;
    let mut host = from.host(config, &fresh(config, i));
    for _ in 0..k {
        host.step();
    }
    let moved = to.host(config, &host.state());
    let mut host = from.host(config, &moved.state());
    for _ in 0..n {
        host.step();
    }
    let want = reference(config, i, k + n);
    let got = host.state();
    assert_eq!(got, want.lane_state(), "{from:?} -> {to:?} -> {from:?}");
    assert_eq!(got.breakdown.total(), want.clock().cycles());
    assert_eq!((got.best_genome, got.best_fitness), {
        let (g, f) = want.best();
        (g.bits(), f)
    });
}

#[test]
fn every_round_trip_is_bit_exact() {
    for config in [GapRtlXWConfig::paper(), GapRtlXWConfig::unpipelined()] {
        for from in KINDS {
            for to in KINDS {
                if from != to {
                    round_trip(config, from, to, 3, 2);
                }
            }
        }
    }
}

#[test]
fn a_chain_through_every_kind_tracks_the_unmoved_chip() {
    // one generation in each kind, in both directions along the chain
    let config = GapRtlXWConfig::paper();
    let i = 3;
    let mut state = fresh(config, i);
    let chain = [
        KINDS,
        [Kind::W512, Kind::W256, Kind::W128, Kind::U64, Kind::Scalar],
    ];
    let mut gens = 0;
    for kind in chain.iter().flatten() {
        let mut host = kind.host(config, &state);
        host.step();
        gens += 1;
        state = host.state();
        let want = reference(config, i, gens).lane_state();
        assert_eq!(state, want, "after {gens} generations on {kind:?}");
    }
}

#[test]
fn filler_lanes_keep_tracking_their_own_chips() {
    let config = GapRtlXWConfig::paper();
    let Lane(mut gap, lane) = wide::<W256>(config, &fresh(config, 0));
    for _ in 0..3 {
        gap.step_generation();
    }
    for l in [0, 63, 64, 150, lane - 1] {
        assert_eq!(
            gap.lane_state(l),
            reference(config, 100 + l, 3).lane_state(),
            "lane {l}"
        );
    }
}

#[test]
fn a_lane_at_its_budget_or_converged_moves_and_stays_put() {
    let config = GapRtlXWConfig::paper();
    // one lane stopped by its budget, one run to convergence
    let budget = 4;
    let capped = reference(config, 1, budget);
    assert!(!capped.converged(), "seed must still be running at the cap");
    let mut solved = GapRtl::new(config.chip(seed(2)));
    assert!(solved.run_to_convergence(50_000));
    for chip in [capped, solved] {
        let state = chip.lane_state();
        for kind in KINDS {
            let mut host = kind.host(config, &state);
            host.run(budget);
            assert_eq!(host.state(), state, "{kind:?}");
        }
    }
}

#[test]
fn imported_scalar_chips_log_only_new_draws() {
    let config = GapRtlXWConfig::paper().recording();
    let mut chip = GapRtl::new(config.chip(seed(5)));
    chip.step_generation();
    let mut moved = GapRtl::from_lane_state(config.chip(0), &chip.lane_state());
    assert!(moved.drawn_log().is_empty());
    let before = chip.drawn_log().len();
    chip.step_generation();
    moved.step_generation();
    assert_eq!(moved.drawn_log(), &chip.drawn_log()[before..]);
    assert_eq!(moved.lane_state(), chip.lane_state());
}

#[test]
#[should_panic(expected = "population size")]
fn a_state_of_another_population_size_is_refused() {
    let config = GapRtlXWConfig::paper();
    let mut state = fresh(config, 0);
    state.population.pop();
    let _ = GapRtlXW::<u64>::from_lanes(config, &[state]);
}
