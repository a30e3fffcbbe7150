//! Experiment sessions: the telemetry consumer side of the harness.
//!
//! An [`ExperimentSession`] is what turns an `e*` binary into a
//! structured-telemetry producer: it installs a process-wide sink (an
//! in-memory aggregator fanned out with a JSONL stream on disk), lets
//! the binary derive its statistics *from the stream it recorded* rather
//! than from ad-hoc local bookkeeping, and on [`ExperimentSession::finish`]
//! writes a versioned [`RunManifest`] (params, seeds, git revision,
//! wall/cycle totals) next to the events file so the run is reproducible.

use crate::harness::ConvergenceStats;
use discipulus::stats::SampleSummary;
use leonardo_telemetry as tele;
use leonardo_telemetry::json::Json;
use leonardo_telemetry::sink::{Aggregator, Fanout, JsonlSink, Sink};
use leonardo_telemetry::RunManifest;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A live telemetry session for one experiment run.
///
/// Holds the installed sink guard: dropping the session (or calling
/// [`ExperimentSession::finish`]) flushes the JSONL stream and restores
/// the no-op telemetry state.
pub struct ExperimentSession {
    manifest: RunManifest,
    aggregator: Arc<Aggregator>,
    dir: PathBuf,
    start: Instant,
    // field order matters: the guard must drop (uninstalling the sink)
    // before the Arc<Aggregator> — not required for soundness, but keeps
    // the flush inside the session's lifetime.
    _guard: tele::SinkGuard,
}

impl ExperimentSession {
    /// Begin a session for `experiment`, recording into `results/`.
    ///
    /// Records [`tele::Level::Metric`] events by default; pass
    /// `--telemetry-trace` on the command line (checked here) to record
    /// per-generation [`tele::Level::Trace`] events as well.
    pub fn begin(experiment: &str) -> ExperimentSession {
        let level = if std::env::args().any(|a| a == "--telemetry-trace") {
            tele::Level::Trace
        } else {
            tele::Level::Metric
        };
        ExperimentSession::begin_in("results", experiment, level)
    }

    /// Begin a session recording into `dir` at `level`.
    ///
    /// The JSONL stream goes to `<dir>/<experiment>.events.jsonl`; if the
    /// directory cannot be created the session still runs with the
    /// in-memory aggregator alone (telemetry must never fail a run).
    pub fn begin_in(
        dir: impl AsRef<Path>,
        experiment: &str,
        level: tele::Level,
    ) -> ExperimentSession {
        let dir = dir.as_ref().to_path_buf();
        let aggregator = Arc::new(Aggregator::new());
        let mut manifest = RunManifest::new(experiment);
        let mut sinks: Vec<Arc<dyn Sink>> = vec![aggregator.clone()];
        let events_name = format!("{experiment}.events.jsonl");
        if std::fs::create_dir_all(&dir).is_ok() {
            if let Ok(jsonl) = JsonlSink::create(dir.join(&events_name)) {
                sinks.push(Arc::new(jsonl));
                manifest.events_file = Some(events_name);
            }
        }
        let sink: Arc<dyn Sink> = if sinks.len() == 1 {
            aggregator.clone()
        } else {
            Arc::new(Fanout::new(sinks))
        };
        let guard = tele::install(sink, level);
        ExperimentSession {
            manifest,
            aggregator,
            dir,
            start: Instant::now(),
            _guard: guard,
        }
    }

    /// The in-memory aggregator every event also lands in.
    pub fn aggregator(&self) -> &Aggregator {
        &self.aggregator
    }

    /// Record one named run parameter into the manifest.
    pub fn set_param(&mut self, name: &str, value: f64) {
        self.manifest.params.push((name.to_string(), value));
    }

    /// Record the trial seed list into the manifest.
    pub fn set_seeds(&mut self, seeds: &[u32]) {
        self.manifest.seeds = seeds.iter().map(|&s| u64::from(s)).collect();
    }

    /// Record the worker-thread count into the manifest. Zero means
    /// "auto" at the call sites, so it is resolved to the detected
    /// parallelism before it lands in the manifest.
    pub fn set_threads(&mut self, threads: usize) {
        self.manifest.threads = leonardo_exec::resolve_threads(threads) as u64;
    }

    /// Record the bit-slice plane width (lanes per plane word) the run's
    /// kernels used.
    pub fn set_plane_width(&mut self, lanes: usize) {
        self.manifest.plane_width = lanes as u64;
    }

    /// Record one summary row into the manifest's `section` (see
    /// [`RunManifest::push_row`], which panics on a row that does not
    /// match the section's declared columns).
    pub fn add_row(&mut self, section: &str, row: Json) {
        self.manifest.push_row(section, row);
    }

    /// Total simulated RTL cycles over all `bench.trial` and
    /// `fault.recovery` events recorded so far (0 when no event carried a
    /// `cycles` field).
    pub fn simulated_cycles(&self) -> u64 {
        ["bench.trial", "fault.recovery"]
            .iter()
            .map(|name| {
                self.aggregator
                    .events(name)
                    .iter()
                    .filter_map(|e| e.u64_field("cycles"))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Path the manifest will be written to.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir
            .join(format!("{}.manifest.json", self.manifest.experiment))
    }

    /// Path of the JSONL stream, when one is being recorded.
    pub fn events_path(&self) -> Option<PathBuf> {
        self.manifest
            .events_file
            .as_ref()
            .map(|name| self.dir.join(name))
    }

    /// Close the session: fill in wall/cycle totals, flush the stream,
    /// write `<dir>/<experiment>.manifest.json`, uninstall the sink, and
    /// return the finished manifest.
    pub fn finish(mut self) -> RunManifest {
        self.manifest.wall_seconds = self.start.elapsed().as_secs_f64();
        let cycles = self.simulated_cycles();
        if cycles > 0 {
            self.manifest.simulated_cycles = Some(cycles);
        }
        tele::flush();
        if let Err(e) = self.manifest.write(self.manifest_path()) {
            eprintln!(
                "warning: could not write {}: {e}",
                self.manifest_path().display()
            );
        }
        self.manifest
    }
}

/// Derive [`ConvergenceStats`] from the `bench.trial` events of one
/// engine — the telemetry-stream replacement for recomputing statistics
/// from locally collected trial vectors.
pub fn trial_stats(aggregator: &Aggregator, engine: &str) -> ConvergenceStats {
    let trials = aggregator.events("bench.trial");
    let mut generations = Vec::new();
    let mut failures = 0usize;
    for t in trials
        .iter()
        .filter(|t| t.str_field("engine") == Some(engine))
    {
        if t.bool_field("converged") == Some(true) {
            if let Some(g) = t.f64_field("generations") {
                generations.push(g);
            }
        } else {
            failures += 1;
        }
    }
    ConvergenceStats {
        summary: SampleSummary::of(&generations),
        generations,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
