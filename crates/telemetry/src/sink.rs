//! Pluggable event sinks: JSONL stream, in-memory aggregator, fan-out.
//!
//! This module only exists when the `runtime` feature is on; without it
//! the facade in the crate root compiles every emit call to nothing and
//! there is nothing to sink into.

use crate::event::{Event, Level, Payload, Value};
use crate::json::{escape_into, render_number};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where events go. Implementations must be thread-safe: the experiment
/// harness emits from every worker thread.
pub trait Sink: Send + Sync {
    /// Deliver one event. Called from arbitrary threads.
    fn record(&self, event: &Event<'_>);

    /// Flush any buffered output. The default does nothing.
    fn flush(&self) {}
}

fn unpoison<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------- JSONL

/// A sink that writes one JSON object per event, one event per line.
///
/// Line schema (`seq` is assigned per sink, in arrival order):
///
/// ```json
/// {"seq":0,"level":"metric","name":"bench.trial","type":"fields","fields":{"seed":4096,"converged":true}}
/// {"seq":1,"level":"trace","name":"evo.ga.crossovers","type":"count","value":11}
/// {"seq":2,"level":"metric","name":"bench.trial.seconds","type":"observe","value":0.125}
/// ```
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
}

impl JsonlSink {
    /// Stream to any writer (a file, a [`SharedBuf`], …).
    pub fn new(writer: impl Write + Send + 'static) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(Box::new(writer)),
            seq: AtomicU64::new(0),
        }
    }

    /// Create (truncate) `path` and stream to it, buffered.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(io::BufWriter::new(file)))
    }

    fn render_line(seq: u64, event: &Event<'_>) -> String {
        let mut line = String::with_capacity(96);
        line.push_str("{\"seq\":");
        line.push_str(&seq.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(event.level.name());
        line.push_str("\",\"name\":");
        escape_into(&mut line, event.name);
        match event.payload {
            Payload::Count(n) => {
                line.push_str(",\"type\":\"count\",\"value\":");
                line.push_str(&n.to_string());
            }
            Payload::Observe(v) => {
                line.push_str(",\"type\":\"observe\",\"value\":");
                line.push_str(&render_number(v));
            }
            Payload::Fields(fields) => {
                line.push_str(",\"type\":\"fields\",\"fields\":{");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    escape_into(&mut line, key);
                    line.push(':');
                    match value {
                        Value::U64(v) => line.push_str(&v.to_string()),
                        Value::I64(v) => line.push_str(&v.to_string()),
                        Value::F64(v) => line.push_str(&render_number(*v)),
                        Value::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
                        Value::Str(v) => escape_into(&mut line, v),
                    }
                }
                line.push('}');
            }
        }
        line.push_str("}\n");
        line
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event<'_>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let line = JsonlSink::render_line(seq, event);
        // an I/O error on a telemetry stream must never take the run down
        let _ = unpoison(self.out.lock()).write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = unpoison(self.out.lock()).flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// A `Write` target shared with the test that inspects it — the in-memory
/// counterpart of handing [`JsonlSink::new`] a file.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// Snapshot the bytes written so far, decoded as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&unpoison(self.0.lock())).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        unpoison(self.0.lock()).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ----------------------------------------------------------- aggregator

/// One event captured wholesale by the [`Aggregator`].
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Arrival index within the aggregator.
    pub seq: u64,
    /// The event name.
    pub name: &'static str,
    /// The event level.
    pub level: Level,
    /// The field list, copied.
    pub fields: Vec<(&'static str, Value)>,
}

impl OwnedEvent {
    /// Named field as `f64` (numeric fields only).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }

    /// Named field as `u64`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// Named field as `bool`.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.field(key).and_then(Value::as_bool)
    }

    /// Named field as a static string.
    pub fn str_field(&self, key: &str) -> Option<&'static str> {
        self.field(key).and_then(Value::as_str)
    }

    fn field(&self, key: &str) -> Option<Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[derive(Default)]
struct AggregatorState {
    counters: BTreeMap<&'static str, u64>,
    observations: BTreeMap<&'static str, Vec<f64>>,
    events: Vec<OwnedEvent>,
}

/// The in-memory sink the experiment binaries consume their own run
/// through: counters sum, observations collect, structured events are
/// kept verbatim for grouped queries (e.g. "all `bench.trial` events
/// whose `engine` field is `rtl_x64`").
#[derive(Default)]
pub struct Aggregator {
    state: Mutex<AggregatorState>,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        unpoison(self.state.lock())
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All observations recorded under `name`, in arrival order.
    pub fn observations(&self, name: &str) -> Vec<f64> {
        unpoison(self.state.lock())
            .observations
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// All structured events named `name`, in arrival order.
    pub fn events(&self, name: &str) -> Vec<OwnedEvent> {
        unpoison(self.state.lock())
            .events
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }

    /// Human-readable summary of everything recorded — the "summary
    /// sink": counters, observation statistics and event counts by name.
    pub fn summary(&self) -> String {
        let state = unpoison(self.state.lock());
        let mut out = String::new();
        if !state.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &state.counters {
                out.push_str(&format!("  {name:<40} {value}\n"));
            }
        }
        if !state.observations.is_empty() {
            out.push_str("observations:\n");
            for (name, values) in &state.observations {
                let n = values.len();
                let sum: f64 = values.iter().sum();
                let mean = sum / n as f64;
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                out.push_str(&format!(
                    "  {name:<40} n {n}  mean {mean:.2}  min {min:.2}  max {max:.2}\n"
                ));
            }
        }
        if !state.events.is_empty() {
            let mut by_name: BTreeMap<&'static str, usize> = BTreeMap::new();
            for e in &state.events {
                *by_name.entry(e.name).or_default() += 1;
            }
            out.push_str("events:\n");
            for (name, count) in by_name {
                out.push_str(&format!("  {name:<40} {count}\n"));
            }
        }
        out
    }
}

impl Sink for Aggregator {
    fn record(&self, event: &Event<'_>) {
        let mut state = unpoison(self.state.lock());
        match event.payload {
            Payload::Count(n) => *state.counters.entry(event.name).or_default() += n,
            Payload::Observe(v) => state.observations.entry(event.name).or_default().push(v),
            Payload::Fields(fields) => {
                let seq = state.events.len() as u64;
                state.events.push(OwnedEvent {
                    seq,
                    name: event.name,
                    level: event.level,
                    fields: fields.to_vec(),
                });
            }
        }
    }
}

// -------------------------------------------------------------- fan-out

/// Deliver every event to several sinks (e.g. an [`Aggregator`] for the
/// binary's own summary plus a [`JsonlSink`] for the recorded stream).
pub struct Fanout {
    sinks: Vec<Arc<dyn Sink>>,
}

impl Fanout {
    /// Fan out to `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Fanout {
        Fanout { sinks }
    }
}

impl Sink for Fanout {
    fn record(&self, event: &Event<'_>) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<'a>(name: &'static str, payload: Payload<'a>) -> Event<'a> {
        Event {
            name,
            level: Level::Metric,
            payload,
        }
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        sink.record(&ev("a.count", Payload::Count(3)));
        sink.record(&ev("a.obs", Payload::Observe(1.5)));
        sink.record(&ev(
            "a.fields",
            Payload::Fields(&[
                ("seed", Value::U64(4096)),
                ("ok", Value::Bool(true)),
                ("engine", Value::Str("rtl_x64")),
                ("mean", Value::F64(104.0)),
            ]),
        ));
        sink.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = crate::json::Json::parse(line).expect("valid JSON line");
            assert_eq!(v.get("seq").unwrap().as_u64(), Some(i as u64));
            assert_eq!(v.get("level").unwrap().as_str(), Some("metric"));
        }
        let fields = crate::json::Json::parse(lines[2]).unwrap();
        assert_eq!(fields.get("type").unwrap().as_str(), Some("fields"));
        let f = fields.get("fields").unwrap().clone();
        assert_eq!(f.get("seed").unwrap().as_u64(), Some(4096));
        assert_eq!(f.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(f.get("engine").unwrap().as_str(), Some("rtl_x64"));
        assert_eq!(f.get("mean").unwrap().as_f64(), Some(104.0));
    }

    #[test]
    fn aggregator_sums_counters_and_collects_observations() {
        let agg = Aggregator::new();
        agg.record(&ev("c", Payload::Count(2)));
        agg.record(&ev("c", Payload::Count(5)));
        agg.record(&ev("o", Payload::Observe(1.0)));
        agg.record(&ev("o", Payload::Observe(3.0)));
        assert_eq!(agg.counter("c"), 7);
        assert_eq!(agg.counter("missing"), 0);
        assert_eq!(agg.observations("o"), vec![1.0, 3.0]);
        assert!(agg.observations("missing").is_empty());
    }

    #[test]
    fn aggregator_keeps_events_for_grouped_queries() {
        let agg = Aggregator::new();
        agg.record(&ev(
            "bench.trial",
            Payload::Fields(&[
                ("engine", Value::Str("scalar")),
                ("generations", Value::U64(10)),
            ]),
        ));
        agg.record(&ev(
            "bench.trial",
            Payload::Fields(&[
                ("engine", Value::Str("x64")),
                ("generations", Value::U64(20)),
            ]),
        ));
        agg.record(&ev("other", Payload::Fields(&[])));
        let trials = agg.events("bench.trial");
        assert_eq!(trials.len(), 2);
        assert_eq!(agg.events("other").len(), 1);
        let x64: Vec<_> = trials
            .iter()
            .filter(|e| e.str_field("engine") == Some("x64"))
            .collect();
        assert_eq!(x64.len(), 1);
        assert_eq!(x64[0].u64_field("generations"), Some(20));
        assert_eq!(x64[0].f64_field("generations"), Some(20.0));
        assert_eq!(x64[0].bool_field("generations"), None);
        assert_eq!(x64[0].str_field("missing"), None);
    }

    #[test]
    fn summary_renders_all_sections() {
        let agg = Aggregator::new();
        agg.record(&ev("rng.draws", Payload::Count(100)));
        agg.record(&ev("gens", Payload::Observe(104.0)));
        agg.record(&ev("bench.trial", Payload::Fields(&[])));
        let s = agg.summary();
        assert!(s.contains("rng.draws"));
        assert!(s.contains("mean 104.00"));
        assert!(s.contains("bench.trial"));
        assert!(Aggregator::new().summary().is_empty());
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = Arc::new(Aggregator::new());
        let b = Arc::new(Aggregator::new());
        let fan = Fanout::new(vec![a.clone(), b.clone()]);
        fan.record(&ev("c", Payload::Count(1)));
        fan.flush();
        assert_eq!(a.counter("c"), 1);
        assert_eq!(b.counter("c"), 1);
    }
}
