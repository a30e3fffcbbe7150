//! Lane-equivalence: the bit-sliced batch GAP at any plane width is that
//! many scalar RTL chips.
//!
//! The contract is total, not statistical: for every lane `l`, every
//! architecturally visible register of `GapRtlXW<u64>` — population words,
//! best-individual registers, generation and cycle counters, per-phase
//! breakdowns, and (in recording mode) the full consumed-RNG-word log —
//! is bit-for-bit the scalar `GapRtl` seeded with `seeds[l]`. The wide
//! planes (w128, w256, w512) are then pinned chunk-by-chunk to the
//! 64-lane engine, with full-state comparisons each generation, so every
//! registered width inherits the scalar contract transitively — and the
//! registry-coverage test plus the analysis gate's `plane-suite-coverage`
//! lint keep this suite and `plane_registry()` in lockstep.

use discipulus::params::GapParams;
use leonardo_faults::{Campaign, FaultModel};
use leonardo_rtl::bitslice::{
    plane_registry, GapRtlXW, GapRtlXWConfig, Plane, LANES, W128, W256, W512,
};
use leonardo_rtl::driver::rtl_convergence_batch_w;
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};
use leonardo_rtl::rng_rtl::CaRngRtl;

fn seeds(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| 0x1000 + 7 * i).collect()
}

fn assert_lane_matches(batch: &GapRtlXW<u64>, scalar: &GapRtl, l: usize, ctx: &str) {
    assert_eq!(
        batch.population(l),
        scalar.population(),
        "{ctx}: population lane {l}"
    );
    assert_eq!(batch.best(l), scalar.best(), "{ctx}: best lane {l}");
    assert_eq!(
        batch.generation(l),
        scalar.generation(),
        "{ctx}: generation lane {l}"
    );
    assert_eq!(
        batch.cycles(l),
        scalar.clock().cycles(),
        "{ctx}: cycles lane {l}"
    );
    assert_eq!(
        batch.breakdown(l),
        scalar.breakdown(),
        "{ctx}: breakdown lane {l}"
    );
}

/// All 64 lanes, 30 generations of lockstep, full-state comparison every
/// generation — drawn logs included.
#[test]
fn full_64_lane_lockstep_is_bit_exact() {
    let s = seeds(LANES);
    let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper().recording(), &s);
    let mut scalars: Vec<GapRtl> = s
        .iter()
        .map(|&seed| GapRtl::new(GapRtlConfig::paper(seed)))
        .collect();
    for (l, scalar) in scalars.iter().enumerate() {
        assert_lane_matches(&batch, scalar, l, "after init");
        assert_eq!(batch.drawn_log(l), scalar.drawn_log(), "init log lane {l}");
    }
    for gen in 0..30 {
        batch.step_generation();
        for (l, scalar) in scalars.iter_mut().enumerate() {
            scalar.step_generation();
            assert_lane_matches(&batch, scalar, l, &format!("gen {gen}"));
            assert_eq!(
                batch.drawn_log(l),
                scalar.drawn_log(),
                "drawn log lane {l} gen {gen}"
            );
        }
    }
}

/// Per-lane convergence: the batch engine freezes each lane at its own
/// convergence generation, and every lane lands exactly where its scalar
/// twin does — generation, cycle count and best register.
#[test]
fn run_to_convergence_matches_scalar_per_lane() {
    let s = seeds(LANES);
    let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
    let converged = batch.run_to_convergence(50_000);
    assert_eq!(converged, u64::MAX, "all 64 lanes should converge");
    for (l, &seed) in s.iter().enumerate() {
        let mut scalar = GapRtl::new(GapRtlConfig::paper(seed));
        assert!(scalar.run_to_convergence(50_000), "scalar seed {seed:#x}");
        assert_lane_matches(&batch, &scalar, l, "converged");
    }
}

/// The unpipelined ablation obeys the same contract.
#[test]
fn unpipelined_lockstep_is_bit_exact() {
    let s = seeds(16);
    let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::unpipelined().recording(), &s);
    let mut scalars: Vec<GapRtl> = s
        .iter()
        .map(|&seed| GapRtl::new(GapRtlConfig::unpipelined(seed)))
        .collect();
    for gen in 0..15 {
        batch.step_generation();
        for (l, scalar) in scalars.iter_mut().enumerate() {
            scalar.step_generation();
            assert_lane_matches(&batch, scalar, l, &format!("unpipelined gen {gen}"));
            assert_eq!(batch.drawn_log(l), scalar.drawn_log(), "log lane {l}");
        }
    }
}

/// A partially filled batch (fewer seeds than lanes) drives only the
/// enabled lanes and still matches scalar chips on those.
#[test]
fn partial_batches_match_scalar() {
    for n in [1usize, 5, 33] {
        let s = seeds(n);
        let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper().recording(), &s);
        for _ in 0..8 {
            batch.step_generation();
        }
        for (l, &seed) in s.iter().enumerate() {
            let mut scalar = GapRtl::new(GapRtlConfig::paper(seed));
            for _ in 0..8 {
                scalar.step_generation();
            }
            assert_lane_matches(&batch, &scalar, l, &format!("partial n={n}"));
        }
    }
}

/// E13's fault campaign through the lane-mask SEU port: each lane carries
/// its own upset stream (one random flip per generation), and stays
/// bit-exact with a scalar chip suffering the identical upsets.
#[test]
fn seu_injection_via_lane_masks_matches_scalar() {
    let s = seeds(LANES);
    let bits = GapParams::paper().population_bits() as u32;
    let mut batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &s);
    let mut batch_faults: Vec<CaRngRtl> = s
        .iter()
        .map(|&seed| CaRngRtl::new(seed ^ 0xA5A5_5A5A))
        .collect();
    for _ in 0..20 {
        batch.step_generation();
        for (l, fault) in batch_faults.iter_mut().enumerate() {
            fault.clock();
            let pos = (fault.word() % bits) as usize;
            batch.inject_upset(pos, 1u64 << l);
        }
    }
    for (l, &seed) in s.iter().enumerate() {
        let mut scalar = GapRtl::new(GapRtlConfig::paper(seed));
        let mut fault = CaRngRtl::new(seed ^ 0xA5A5_5A5A);
        for _ in 0..20 {
            scalar.step_generation();
            fault.clock();
            scalar.inject_upset((fault.word() % bits) as usize);
        }
        assert_lane_matches(&batch, &scalar, l, "after upsets");
    }
}

/// One wide engine against `P::LANES / 64` of the already-pinned 64-lane
/// engines on the same seed chunks: full visible state, every lane,
/// every generation, drawn logs included. With the scalar suites above,
/// this pins every wide lane to a scalar chip transitively — without
/// paying for `P::LANES` scalar replays per width.
fn wide_lanes_match_the_x64_engine<P: Plane>(generations: usize) {
    let s = seeds(P::LANES);
    let mut wide = GapRtlXW::<P>::new(GapRtlXWConfig::paper().recording(), &s);
    let mut chunks: Vec<GapRtlXW<u64>> = s
        .chunks(LANES)
        .map(|c| GapRtlXW::<u64>::new(GapRtlXWConfig::paper().recording(), c))
        .collect();
    for gen in 0..generations {
        wide.step_generation();
        for chunk in &mut chunks {
            chunk.step_generation();
        }
        for l in 0..P::LANES {
            let (c, cl) = (l / LANES, l % LANES);
            let ctx = format!("{} gen {gen} lane {l}", P::NAME);
            assert_eq!(
                wide.population(l),
                chunks[c].population(cl),
                "{ctx}: population"
            );
            assert_eq!(wide.best(l), chunks[c].best(cl), "{ctx}: best");
            assert_eq!(
                wide.generation(l),
                chunks[c].generation(cl),
                "{ctx}: generation"
            );
            assert_eq!(wide.cycles(l), chunks[c].cycles(cl), "{ctx}: cycles");
            assert_eq!(
                wide.breakdown(l),
                chunks[c].breakdown(cl),
                "{ctx}: breakdown"
            );
            assert_eq!(
                wide.drawn_log(l),
                chunks[c].drawn_log(cl),
                "{ctx}: drawn log"
            );
        }
    }
}

#[test]
fn w128_lanes_match_the_x64_engine() {
    wide_lanes_match_the_x64_engine::<W128>(12);
}

#[test]
fn w256_lanes_match_the_x64_engine() {
    wide_lanes_match_the_x64_engine::<W256>(8);
}

#[test]
fn w512_lanes_match_the_x64_engine() {
    wide_lanes_match_the_x64_engine::<W512>(5);
}

/// Partial fills work at wide widths too: seed counts straddling every
/// limb boundary drive only the enabled lanes, and those match scalars.
#[test]
fn partial_wide_batches_match_scalar() {
    for n in [1usize, 64, 65, 127] {
        let s = seeds(n);
        let mut batch = GapRtlXW::<W128>::new(GapRtlXWConfig::paper(), &s);
        for _ in 0..6 {
            batch.step_generation();
        }
        for (l, &seed) in s.iter().enumerate() {
            let mut scalar = GapRtl::new(GapRtlConfig::paper(seed));
            for _ in 0..6 {
                scalar.step_generation();
            }
            assert_eq!(
                batch.population(l),
                scalar.population(),
                "w128 partial n={n} lane {l}"
            );
            assert_eq!(
                batch.cycles(l),
                scalar.clock().cycles(),
                "w128 n={n} lane {l}"
            );
        }
    }
}

/// The width registry and this suite cover each other exactly: the
/// analysis gate greps this file for every registered width name, and
/// this test pins the reverse direction — the suite instantiates no
/// width the registry doesn't know, and every probe passes.
#[test]
fn plane_registry_matches_this_suite() {
    let names: Vec<&str> = plane_registry().iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        ["u64", "w128", "w256", "w512"],
        "a width was added or removed; extend this suite and the registry together"
    );
    for w in plane_registry() {
        (w.probe)().unwrap_or_else(|e| panic!("{} probe: {e}", w.name));
    }
}

/// The parallel batch driver is scheduling-blind: per-seed results for
/// any thread count and any plane width are bit-identical to the
/// single-threaded 64-lane golden run.
#[test]
fn batch_driver_thread_count_and_width_are_unobservable() {
    let s: Vec<u32> = (0..100u32).map(|i| 0x2000 + 11 * i).collect();
    let golden = rtl_convergence_batch_w::<u64>(&s, 30_000, 1);
    for threads in [2, 8] {
        assert_eq!(
            rtl_convergence_batch_w::<u64>(&s, 30_000, threads),
            golden,
            "u64 @ {threads} threads"
        );
    }
    assert_eq!(
        rtl_convergence_batch_w::<W256>(&s, 30_000, 2),
        golden,
        "w256 @ 2 threads"
    );
}

/// Faulted lockstep over the whole campaign engine: for every fault
/// model, the same seeds and the same injection schedule run on the
/// scalar bank and on the X64 batch engine must produce identical
/// per-generation best-fitness traces, outcomes, generation counts and
/// cycle counts. This is the cross-engine half of the differential
/// recovery oracle, exercised end to end.
#[test]
fn faulted_campaigns_stay_in_cross_engine_lockstep() {
    // few lanes on purpose: the scalar side replays each lane separately,
    // so lane count multiplies debug-build wall time
    let s = seeds(4);
    for model in FaultModel::ALL {
        let campaign = Campaign::new(model, 1.0)
            .with_max_generations(15_000)
            .with_dwell_window(8)
            .recording();
        let x64 = campaign.run_x64(&s);
        let scalar = campaign.run_scalar(&s);
        x64.verify()
            .unwrap_or_else(|e| panic!("{model}: x64 oracle: {e}"));
        scalar
            .verify()
            .unwrap_or_else(|e| panic!("{model}: scalar oracle: {e}"));
        x64.agrees_with(&scalar)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let traces = x64.traces.as_ref().expect("recorded traces");
        assert_eq!(traces.len(), s.len());
        assert!(
            traces.iter().all(|t| !t.is_empty()),
            "{model}: every lane must record at least one generation"
        );
    }
}
