//! The sweep's `landscape.shard` stream: one event per shard that
//! reached its end during a `Sweep::run` call, emitted in shard order
//! after the workers are done, so the stream is byte-identical for every
//! thread count.
//!
//! A test binary of its own: the telemetry sink is process-global, so a
//! sweep run by another test in the same binary would land in these
//! streams.

use leonardo_landscape::{StopToken, Sweep, SweepConfig, SweepStatus};
use leonardo_telemetry as tele;
use leonardo_telemetry::json::Json;
use leonardo_telemetry::sink::{JsonlSink, SharedBuf};
use std::sync::Arc;

/// 2^16 genomes in 37 uneven shards of 27 or 28 blocks.
const SHARDS: usize = 37;

/// The JSONL stream of one sweep run once per token in `stops`, and the
/// status of each run.
fn stream(threads: usize, stops: &[StopToken]) -> (String, Vec<SweepStatus>) {
    let mut cfg = SweepConfig::subspace(16);
    cfg.num_shards = SHARDS;
    cfg.threads = threads;
    cfg.chunk_blocks = 8;
    let buf = SharedBuf::new();
    let guard = tele::install(Arc::new(JsonlSink::new(buf.clone())), tele::Level::Trace);
    let mut sweep = Sweep::new(cfg);
    let statuses = stops.iter().map(|stop| sweep.run(stop)).collect();
    drop(guard);
    (buf.contents(), statuses)
}

/// The shard index of each `landscape.shard` line, in stream order.
fn shards_of(stream: &str) -> Vec<u64> {
    stream
        .lines()
        .map(|line| {
            let event = Json::parse(line).expect("a JSONL line");
            assert_eq!(
                event.get("name").and_then(Json::as_str),
                Some("landscape.shard")
            );
            let fields = event.get("fields").expect("a fields event");
            fields.get("shard").and_then(Json::as_u64).expect("shard")
        })
        .collect()
}

#[test]
fn shard_events_are_byte_identical_for_any_thread_count() {
    let (want, statuses) = stream(1, &[StopToken::never()]);
    assert_eq!(statuses, [SweepStatus::Complete]);
    assert_eq!(shards_of(&want), (0..SHARDS as u64).collect::<Vec<_>>());
    for threads in [2, 4] {
        let (got, _) = stream(threads, &[StopToken::never()]);
        assert_eq!(got, want, "{threads} threads");
    }
}

#[test]
fn a_continued_sweep_reports_each_shard_once() {
    for threads in [1, 2] {
        let stops = [StopToken::after_blocks(300), StopToken::never()];
        let (text, statuses) = stream(threads, &stops);
        assert_eq!(
            statuses,
            [SweepStatus::Interrupted, SweepStatus::Complete],
            "{threads} threads"
        );
        let mut shards = shards_of(&text);
        shards.sort_unstable();
        assert_eq!(
            shards,
            (0..SHARDS as u64).collect::<Vec<_>>(),
            "{threads} threads"
        );
    }
}
