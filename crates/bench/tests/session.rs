//! An experiment session's recorded stream and manifest.
//!
//! A test binary of its own: the telemetry sink is process-global, so a
//! trial run by another test in the same binary (every driver emits
//! `bench.trial`) would land in this session's stream and totals.

use leonardo_bench::{trial_stats, ExperimentSession};
use leonardo_telemetry as tele;
use leonardo_telemetry::RunManifest;

#[test]
fn session_records_trials_and_writes_manifest() {
    let dir = std::env::temp_dir().join("leonardo-bench-session-test");
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = ExperimentSession::begin_in(&dir, "unit", tele::Level::Metric);
    session.set_param("trials", 2.0);
    session.set_seeds(&[1, 2]);
    tele::emit(
        tele::Level::Metric,
        "bench.trial",
        &[
            ("engine", "rtl_scalar".into()),
            ("seed", 1u64.into()),
            ("converged", true.into()),
            ("generations", 10u64.into()),
            ("cycles", 500u64.into()),
        ],
    );
    tele::emit(
        tele::Level::Metric,
        "bench.trial",
        &[
            ("engine", "rtl_scalar".into()),
            ("seed", 2u64.into()),
            ("converged", false.into()),
            ("generations", 40u64.into()),
            ("cycles", 700u64.into()),
        ],
    );
    let stats = trial_stats(session.aggregator(), "rtl_scalar");
    assert_eq!(stats.generations, vec![10.0]);
    assert_eq!(stats.failures, 1);
    assert!(trial_stats(session.aggregator(), "other")
        .generations
        .is_empty());

    let events_path = session.events_path().expect("stream on disk");
    let manifest_path = session.manifest_path();
    let manifest = session.finish();
    assert_eq!(manifest.simulated_cycles, Some(1200));
    assert_eq!(manifest.seeds, vec![1, 2]);
    assert_eq!(manifest.param("trials"), Some(2.0));

    let back = RunManifest::read(&manifest_path).expect("manifest readable");
    assert_eq!(back, manifest);
    let stream = std::fs::read_to_string(&events_path).expect("events readable");
    assert_eq!(stream.lines().count(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
