//! Property tests for the fault-injection layer.
//!
//! Two invariants carry the whole subsystem:
//!
//! * **Inject-then-revert is the identity** — for any seed, any fault
//!   model and any position, injecting a fault and reverting it leaves
//!   the machine bit-identical to an untouched twin, on both engines.
//!   The comparison covers every addressable storage bit *and* the
//!   downstream trajectory (both machines are stepped on after the
//!   revert and must stay in lockstep).
//! * **A rate-0.0 campaign is the fault-free driver** — the campaign
//!   harness adds no perturbation of its own: with nothing injected its
//!   per-tick best-fitness trace, generation counts and cycle counts are
//!   bit-exact with a plain `running_mask`/`step_generation_masked`
//!   driver loop.

use leonardo_faults::{Campaign, FaultModel, Injector, ScalarBank};
use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig};
use proptest::prelude::*;

/// Snapshot every bit the fault ports can address on one lane, plus the
/// observation surface.
fn snapshot<I: Injector>(engine: &I, lane: usize) -> (Vec<bool>, u64, u64, (u64, u32)) {
    let mut bits = Vec::new();
    for model in [
        FaultModel::PopulationFlip,
        FaultModel::RngUpset,
        FaultModel::GenomeRegFlip,
    ] {
        let domain = model.domain_bits(engine.params());
        for pos in 0..domain as usize {
            bits.push(engine.fault_bit(lane, model, pos));
        }
    }
    let (genome, fitness) = engine.best(lane);
    (
        bits,
        engine.generation(lane),
        engine.cycles(lane),
        (genome.bits(), fitness),
    )
}

fn assert_lockstep<I: Injector>(a: &I, b: &I, lane: usize, ctx: &str) -> Result<(), TestCaseError> {
    let (a_snap, b_snap) = (snapshot(a, lane), snapshot(b, lane));
    prop_assert!(a_snap == b_snap, "lane {} diverged {}", lane, ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scalar engine: inject + revert of any single fault is invisible —
    /// the touched chip stays bit-identical to an untouched twin, before
    /// and after stepping both onward.
    #[test]
    fn inject_then_revert_is_identity_on_scalar(
        seed in any::<u32>(),
        model_idx in 0usize..FaultModel::ALL.len(),
        raw_pos in any::<u32>(),
        warmup in 0u64..3,
    ) {
        let model = FaultModel::ALL[model_idx];
        let mut touched = ScalarBank::new(&[seed]);
        let mut twin = ScalarBank::new(&[seed]);
        for _ in 0..warmup {
            touched.step_lanes(1);
            twin.step_lanes(1);
        }
        let pos = (raw_pos % model.domain_bits(touched.params())) as usize;
        let applied = touched.inject(0, leonardo_faults::Fault { model, pos });
        touched.revert(0, applied);
        assert_lockstep(&touched, &twin, 0, "immediately after revert")?;
        for step in 0..3 {
            touched.step_lanes(1);
            twin.step_lanes(1);
            assert_lockstep(&touched, &twin, 0, &format!("{step} generations later"))?;
        }
    }

    /// Batch engine: same identity, per lane — and the *other* lanes of
    /// the touched engine never see the fault at all.
    #[test]
    fn inject_then_revert_is_identity_on_x64(
        base_seed in any::<u32>(),
        lane in 0usize..4,
        model_idx in 0usize..FaultModel::ALL.len(),
        raw_pos in any::<u32>(),
    ) {
        let model = FaultModel::ALL[model_idx];
        let seeds: Vec<u32> = (0..4).map(|i| base_seed.wrapping_add(7 * i)).collect();
        let mut touched = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
        let mut twin = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
        touched.step_lanes(0b1111);
        twin.step_lanes(0b1111);
        let pos = (raw_pos % model.domain_bits(touched.params())) as usize;
        let applied = touched.inject(lane, leonardo_faults::Fault { model, pos });
        for other in 0..4usize {
            if other != lane {
                assert_lockstep(&touched, &twin, other, "unfaulted lane must hold")?;
            }
        }
        touched.revert(lane, applied);
        for l in 0..4 {
            assert_lockstep(&touched, &twin, l, "after revert")?;
        }
        touched.step_lanes(0b1111);
        twin.step_lanes(0b1111);
        for l in 0..4 {
            assert_lockstep(&touched, &twin, l, "one generation after revert")?;
        }
    }
}

/// A rate-0.0 campaign is the fault-free driver, observed per tick: its
/// recorded best-fitness traces, generations and cycles are bit-exact
/// with a plain running-mask loop over the same engine.
#[test]
fn rate_zero_campaign_is_bit_exact_with_plain_driver() {
    const MAX_GENS: u64 = 20_000;
    let seeds: Vec<u32> = (0..8u32).map(|i| 0x2000 + 11 * i).collect();

    let report = Campaign::new(FaultModel::PopulationFlip, 0.0)
        .with_max_generations(MAX_GENS)
        .recording()
        .run_x64(&seeds);
    report.verify().expect("oracle");

    // the reference: the repo's ordinary batch-driver loop
    let mut plain = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds);
    let mut traces: Vec<Vec<u32>> = vec![Vec::new(); seeds.len()];
    loop {
        let running = GapRtlXW::running_mask(&plain, MAX_GENS);
        if running == 0 {
            break;
        }
        plain.step_generation_masked(running);
        for (l, trace) in traces.iter_mut().enumerate() {
            trace.push(GapRtlXW::best(&plain, l).1);
        }
    }

    assert_eq!(report.traces.as_ref(), Some(&traces));
    for (l, lane) in report.lanes.iter().enumerate() {
        assert_eq!(lane.generations, GapRtlXW::generation(&plain, l));
        assert_eq!(lane.cycles, GapRtlXW::cycles(&plain, l));
        assert_eq!(lane.injected, 0);
        assert_eq!(lane.cost_delta, Some(0));
    }
}
