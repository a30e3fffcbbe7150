//! Integration test for the telemetry layer around experiment E1
//! (paper fact F6: mean generations to maximum fitness).
//!
//! Drives the instrumented harness through an [`ExperimentSession`], then
//! checks the whole telemetry contract end to end:
//! * the JSONL event stream on disk parses and carries every trial;
//! * the generations mean recomputed **from the stream** equals the mean
//!   recomputed from the in-memory aggregator and lies inside the
//!   documented convergence window (EXPERIMENTS.md: the reproduction's
//!   27-level fitness staircase converges in tens-to-hundreds of
//!   generations where the paper's harsher landscape needed ≈2000 — the
//!   shape holds, the constant does not);
//! * the run manifest round-trips through disk and records params, seeds
//!   and simulated cycle totals — plus the `campaigns` section and
//!   `fault.recovery` events when the session runs a fault campaign.

use discipulus::params::GapParams;
use leonardo_bench::harness::{convergence_sample, trial_seeds};
use leonardo_bench::{trial_stats, ExperimentSession};
use leonardo_faults::{Campaign, FaultModel};
use leonardo_rtl::driver::rtl_convergence_batch_w;
use leonardo_telemetry as tele;
use leonardo_telemetry::json::Json;
use leonardo_telemetry::RunManifest;

const TRIALS: usize = 16;
const MAX_GENS: u64 = 50_000;

// One test function on purpose: a session is process-global state, and a
// parallel sibling test emitting trials would leak into this stream.
#[test]
fn e1_stream_manifest_and_recomputed_mean() {
    // Before any session exists: emit sites must stay silent and cheap.
    // This is the runtime half of the zero-cost contract (the
    // compile-time half — the no-op build — is tested in
    // leonardo-telemetry itself).
    assert!(!tele::enabled_at(tele::Level::Metric));
    let inert = convergence_sample(GapParams::paper(), &trial_seeds(2), MAX_GENS);
    assert_eq!(inert.failures, 0);

    let dir = std::env::temp_dir().join("leonardo-telemetry-e1-test");
    let _ = std::fs::remove_dir_all(&dir);
    let seeds = trial_seeds(TRIALS);

    let mut session = ExperimentSession::begin_in(&dir, "e1_convergence", tele::Level::Metric);
    session.set_param("trials", TRIALS as f64);
    session.set_param("max_generations", MAX_GENS as f64);
    session.set_seeds(&seeds);

    // the instrumented harness publishes one bench.trial event per seed
    // on each engine; keep the locally returned stats for cross-checking
    let local = convergence_sample(GapParams::paper(), &seeds, MAX_GENS);
    let rtl = rtl_convergence_batch_w::<u64>(&seeds, MAX_GENS, 0);

    // telemetry-derived statistics must equal the locally computed ones
    let from_stream = trial_stats(session.aggregator(), "behavioural");
    assert_eq!(from_stream.failures, local.failures);
    let mut stream_sorted = from_stream.generations.clone();
    let mut local_sorted = local.generations.clone();
    stream_sorted.sort_by(f64::total_cmp);
    local_sorted.sort_by(f64::total_cmp);
    assert_eq!(
        stream_sorted, local_sorted,
        "stream diverged from local stats"
    );

    let rtl_from_stream = trial_stats(session.aggregator(), "rtl_x64");
    assert_eq!(
        rtl_from_stream.generations.len() + rtl_from_stream.failures,
        TRIALS
    );
    let rtl_cycles: u64 = rtl.iter().map(|t| t.cycles).sum();
    assert_eq!(session.simulated_cycles(), rtl_cycles);

    // --- a mini fault campaign inside the same session -----------------
    let fault_seeds = [seeds[0], seeds[1]];
    let report = Campaign::new(FaultModel::PopulationFlip, 1.0)
        .with_max_generations(MAX_GENS)
        .run_x64(&fault_seeds);
    report.verify().expect("recovery oracle");
    session.add_row("campaigns", report.manifest_row());
    let campaign_cycles: u64 = report.lanes.iter().map(|l| l.cycles).sum();
    assert_eq!(
        session.aggregator().events("fault.recovery").len(),
        fault_seeds.len(),
        "one recovery event per campaign lane"
    );
    // campaign cycles join the session's simulated-cycle total
    assert_eq!(session.simulated_cycles(), rtl_cycles + campaign_cycles);

    let events_path = session.events_path().expect("stream file");
    let manifest_path = session.manifest_path();
    let manifest = session.finish();

    // --- recompute the F6 mean from the JSONL stream alone -------------
    let text = std::fs::read_to_string(&events_path).expect("events readable");
    let mut gens = Vec::new();
    for line in text.lines() {
        let event = Json::parse(line).expect("every line is valid JSON");
        if event.get("name").and_then(|n| n.as_str()) != Some("bench.trial") {
            continue;
        }
        let fields = event.get("fields").expect("trial events carry fields");
        if fields.get("engine").and_then(|e| e.as_str()) != Some("behavioural") {
            continue;
        }
        assert_eq!(
            fields.get("converged").and_then(|c| c.as_bool()),
            Some(true)
        );
        gens.push(
            fields
                .get("generations")
                .and_then(|g| g.as_f64())
                .expect("numeric generations"),
        );
    }
    assert_eq!(gens.len(), TRIALS, "one behavioural trial event per seed");

    // fault.recovery events land in the same stream, fully structured
    let mut recoveries = 0usize;
    for line in text.lines() {
        let event = Json::parse(line).expect("every line is valid JSON");
        if event.get("name").and_then(|n| n.as_str()) != Some("fault.recovery") {
            continue;
        }
        let fields = event.get("fields").expect("recovery events carry fields");
        assert_eq!(
            fields.get("engine").and_then(|e| e.as_str()),
            Some("rtl_x64")
        );
        assert_eq!(
            fields.get("model").and_then(|m| m.as_str()),
            Some("population_flip")
        );
        assert!(fields.get("outcome").and_then(|o| o.as_str()).is_some());
        assert!(fields.get("generations").and_then(|g| g.as_f64()).is_some());
        recoveries += 1;
    }
    assert_eq!(recoveries, fault_seeds.len());
    let stream_mean = gens.iter().sum::<f64>() / gens.len() as f64;
    let local_mean = local.summary.expect("converged trials").mean;
    assert!(
        (stream_mean - local_mean).abs() < 1e-9,
        "stream mean {stream_mean} != local mean {local_mean}"
    );
    // the documented convergence window for the reproduction (the paper's
    // ≈2000 sits inside the wide shape-holds band; see EXPERIMENTS.md E1)
    assert!(
        (10.0..8000.0).contains(&stream_mean),
        "mean generations {stream_mean} outside the documented window"
    );

    // --- manifest round-trip -------------------------------------------
    let back = RunManifest::read(&manifest_path).expect("manifest readable");
    assert_eq!(back, manifest);
    assert_eq!(back.param("trials"), Some(TRIALS as f64));
    assert_eq!(back.seeds.len(), TRIALS);
    assert_eq!(back.simulated_cycles, Some(rtl_cycles + campaign_cycles));
    assert_eq!(
        back.events_file.as_deref(),
        Some("e1_convergence.events.jsonl")
    );
    assert!(back.wall_seconds > 0.0);
    // the campaign summary row survives the disk round-trip
    assert_eq!(back.rows("campaigns").len(), 1);
    let row = &back.rows("campaigns")[0];
    let uint = |k| row.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(
        row.get("model").and_then(Json::as_str),
        Some("population_flip")
    );
    assert_eq!(row.get("engine").and_then(Json::as_str), Some("rtl_x64"));
    assert_eq!(uint("lanes") as usize, fault_seeds.len());
    assert_eq!(
        uint("recovered") + uint("corrupted") + uint("permanent_failures"),
        uint("lanes")
    );

    let _ = std::fs::remove_dir_all(&dir);

    // after the session is finished the process is back to inert
    assert!(!tele::enabled_at(tele::Level::Metric));
}
