//! The traced run's span store.
//!
//! Spans are recorded from this benchmark's own code, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span carries its name, start, end, parent and op id.
//! Calls made millions of times per op (one GA generation step, one
//! 64-genome kernel block) would drown the run in records, so each
//! worker coalesces the consecutive calls of one name under one parent
//! into a single span with a call count, the summed busy time and a
//! work count (active lane-generations, lanes, blocks). A layer's self
//! time is its busy time minus the busy time of its children.
//!
//! Spans stay in memory and are written once, when the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span (or a coalesced run of same-named calls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id, from 1; parents refer to it.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The op (GA batch, sweep, request) the span belongs to.
    pub op: u32,
    /// Layer name, e.g. `rtl.step`.
    pub name: &'static str,
    /// Start of the first call, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End of the last call, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Calls covered (1 for a plain span).
    pub calls: u64,
    /// Summed duration of the calls.
    pub busy_ns: u64,
    /// Work done by the calls, in the layer's own unit (0 if none).
    pub work: u64,
}

impl Span {
    /// A single call with id `id`, from `start` to `end`.
    pub fn plain(
        id: u32,
        parent: u32,
        op: u32,
        name: &'static str,
        (start, end): (u64, u64),
        work: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: end.saturating_sub(start),
            work,
        }
    }
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Move a worker's local spans into the store.
    pub fn absorb(&self, local: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("a tracing worker panicked")
            .append(local);
    }

    /// Store one span.
    pub fn push(&self, span: Span) {
        self.absorb(&mut vec![span]);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self
            .spans
            .lock()
            .expect("a tracing worker panicked")
            .clone();
        all.sort_by_key(|s| s.id);
        all
    }
}

/// Coalesces consecutive calls of one layer under one parent.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    name: &'static str,
    first: u64,
    last: u64,
    calls: u64,
    busy: u64,
    work: u64,
}

impl Acc {
    /// An empty accumulator for layer `name`.
    pub fn new(name: &'static str) -> Acc {
        Acc {
            name,
            first: 0,
            last: 0,
            calls: 0,
            busy: 0,
            work: 0,
        }
    }

    /// Add one call that ran from `start` to `end` and did `work`.
    #[inline]
    pub fn add(&mut self, start: u64, end: u64, work: u64) {
        if self.calls == 0 {
            self.first = start;
        }
        self.last = end;
        self.calls += 1;
        self.busy += end - start;
        self.work += work;
    }

    /// Emit the coalesced span into `out` (nothing if no call was
    /// added).
    pub fn flush(&self, tracer: &Tracer, op: u32, parent: u32, out: &mut Vec<Span>) {
        if self.calls == 0 {
            return;
        }
        out.push(Span {
            id: tracer.id(),
            parent,
            op,
            name: self.name,
            start_ns: self.first,
            end_ns: self.last,
            calls: self.calls,
            busy_ns: self.busy,
            work: self.work,
        });
    }
}

/// One traced round of requests: a span of its own, one coalesced span
/// per layer for the cheap calls, and a span per call for the costly
/// ones.
pub struct Round {
    id: u32,
    op: u32,
    start: u64,
    accs: Vec<Acc>,
    spans: Vec<Span>,
}

impl Round {
    /// Open round `op` now.
    pub fn open(tracer: &Tracer, op: u32) -> Round {
        Round {
            id: tracer.id(),
            op,
            start: tracer.now(),
            accs: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Coalesce one cheap call of `layer` into the round.
    pub fn add(&mut self, layer: &'static str, start: u64, end: u64, work: u64) {
        match self.accs.iter_mut().find(|a| a.name == layer) {
            Some(acc) => acc.add(start, end, work),
            None => {
                let mut acc = Acc::new(layer);
                acc.add(start, end, work);
                self.accs.push(acc);
            }
        }
    }

    /// Record one costly call of `layer`, for request `op`, as a span of
    /// its own under the round.
    pub fn call(&mut self, tracer: &Tracer, layer: &'static str, op: u32, span: (u64, u64)) {
        self.spans
            .push(Span::plain(tracer.id(), self.id, op, layer, span, 0));
    }

    /// Close the round as a span named `name` and store everything.
    pub fn close(mut self, tracer: &Tracer, name: &'static str) {
        for acc in &self.accs {
            acc.flush(tracer, self.op, self.id, &mut self.spans);
        }
        let end = tracer.now();
        self.spans
            .push(Span::plain(self.id, 0, self.op, name, (self.start, end), 0));
        tracer.absorb(&mut self.spans);
    }
}

/// One layer's total within one op: `(busy seconds, calls, work)`.
pub type Totals = (f64, u64, u64);

/// Per-op totals of one layer, in op order.
pub fn per_op(spans: &[Span], name: &str) -> BTreeMap<u32, Totals> {
    let mut out: BTreeMap<u32, Totals> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = out.entry(s.op).or_default();
        e.0 += s.busy_ns as f64 * 1e-9;
        e.1 += s.calls;
        e.2 += s.work;
    }
    out
}

/// The median over ops of `pick` of one layer's per-op totals; 0 when
/// the layer never ran.
pub fn median_per_op(spans: &[Span], name: &str, pick: impl Fn(Totals) -> f64) -> f64 {
    let v: Vec<f64> = per_op(spans, name).into_values().map(pick).collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// The median over ops of the time the `worker` spans sat idle while
/// their `parent` span ran: Σ over workers of parent − worker duration.
pub fn median_idle(spans: &[Span], parent: &str, worker: &str) -> f64 {
    let workers = per_op(spans, worker);
    let idle: Vec<f64> = per_op(spans, parent)
        .iter()
        .map(|(op, p)| {
            let w = workers.get(op).copied().unwrap_or_default();
            w.1 as f64 * p.0 - w.0
        })
        .collect();
    if idle.is_empty() {
        0.0
    } else {
        median(&idle)
    }
}

/// Busy and self time per layer name over the whole run, in seconds,
/// sorted by name: `(name, spans, calls, busy, self)`.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, f64, f64)> {
    let mut child_busy: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_busy.entry(s.parent).or_default() += s.busy_ns;
    }
    let mut rows: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .busy_ns
            .saturating_sub(child_busy.get(&s.id).copied().unwrap_or(0));
        let r = rows.entry(s.name).or_default();
        r.0 += 1;
        r.1 += s.calls;
        r.2 += s.busy_ns;
        r.3 += own;
    }
    rows.into_iter()
        .map(|(name, (n, calls, busy, own))| {
            (name, n, calls, busy as f64 * 1e-9, own as f64 * 1e-9)
        })
        .collect()
}

/// Write the spans as JSON lines to `path`, creating its directory.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{},\"work\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns, s.work
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, op: u32, name: &'static str, busy: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: 0,
            end_ns: busy,
            calls: 1,
            busy_ns: busy,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, 0, "op", 100),
            span(2, 1, 0, "worker", 90),
            span(3, 2, 0, "step", 60),
            span(4, 2, 0, "reset", 20),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).copied().unwrap();
        assert!((get("op").4 - 10e-9).abs() < 1e-15);
        assert!((get("worker").4 - 10e-9).abs() < 1e-15);
        assert!((get("step").4 - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn accumulator_coalesces_calls() {
        let t = Tracer::new();
        let mut acc = Acc::new("step");
        acc.add(10, 15, 3);
        acc.add(20, 30, 4);
        let mut out = Vec::new();
        acc.flush(&t, 7, 1, &mut out);
        Acc::new("idle").flush(&t, 7, 1, &mut out);
        assert_eq!(out.len(), 1);
        let s = out[0];
        assert_eq!(
            (s.start_ns, s.end_ns, s.calls, s.busy_ns, s.work),
            (10, 30, 2, 15, 7)
        );
        let totals = per_op(&out, "step");
        assert_eq!(totals[&7].1, 2);
    }
}
