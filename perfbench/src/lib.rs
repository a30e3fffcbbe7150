//! # perfbench — one command for the repository's end-to-end and
//! per-layer speed
//!
//! Four seeded, closed-loop workloads drive the public APIs of the GA
//! batch engines (`ga_x64`, `ga_w512`), the exhaustive landscape sweep
//! (`sweep`) and the job server (`serve_mixed`). Every output is checked
//! before any timing is trusted; a failed check is a failed op. The
//! untraced run reports the end-to-end metrics, and a separate traced
//! run re-drives each layer from this crate with spans around its public
//! calls and reports the per-layer metrics. `NOTES.md` beside this crate
//! explains the workloads, every metric and the noise rules.

mod ga;
pub mod host;
mod serve;
mod stats;
mod sweep;
pub mod trace;

use leonardo_telemetry::json::Json;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("work_per_s", "1/s")];

/// The per-layer metrics every traced run prints, with their units. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("rtl.new_s", "s"),
    ("rtl.step_s", "s"),
    ("rtl.step_calls", "count"),
    ("rtl.ns_per_lane_gen", "ns"),
    ("rtl.lane_occupancy", "ratio"),
    ("rtl.reset_s", "s"),
    ("rtl.lanes_reset", "count"),
    ("rtl.sim_cycles_op0", "count"),
    ("rtl.generations_op0", "count"),
    ("harness.harvest_s", "s"),
    ("harness.worker_busy_s", "s"),
    ("harness.worker_idle_s", "s"),
    ("landscape.new_s", "s"),
    ("landscape.kernel_s", "s"),
    ("landscape.ns_per_genome", "ns"),
    ("landscape.blocks", "count"),
    ("landscape.masks_s", "s"),
    ("landscape.fold_s", "s"),
    ("landscape.worker_idle_s", "s"),
    ("landscape.result_s", "s"),
    ("server.http.parse_s", "s"),
    ("server.http.write_s", "s"),
    ("server.dispatch_s.query", "s"),
    ("server.dispatch_s.evolve", "s"),
    ("server.evolve_engine_s", "s"),
    ("server.transport_s.query", "s"),
    ("server.transport_s.evolve", "s"),
    ("server.oracle.hit_ratio", "ratio"),
    ("server.responses_4xx", "count"),
    ("server.responses_5xx", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1024-seed GA batches on the 64-lane engine with lane refill.
    GaX64,
    /// The same batches on two 512-lane engines, no refill.
    GaW512,
    /// Exhaustive sweeps of the 2²⁸ genome subspace.
    Sweep,
    /// Two keep-alive connections of mixed queries and `/evolve` jobs.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::GaX64,
        Workload::GaW512,
        Workload::Sweep,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GaX64 => "ga_x64",
            Workload::GaW512 => "ga_w512",
            Workload::Sweep => "sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's command-line inputs.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Problem sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] only
/// exercises every code path, for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Seeds per GA op.
    pub ga_seeds: usize,
    /// Generation cap per GA trial.
    pub ga_max_generations: u64,
    /// Seeds per GA run re-checked against the scalar chip.
    pub ga_scalar_checks: usize,
    /// Set-up repetitions for `ga_x64`, `ga_w512`, `sweep`,
    /// `serve_mixed`.
    pub setup_reps: [usize; 4],
    /// Width of the swept subspace.
    pub sweep_bits: u32,
    /// Requests per connection round (one of them an `/evolve`).
    pub serve_round: usize,
    /// Distinct `/evolve` bodies, each checked against a direct engine
    /// call before timing. Odd, so that the traced (odd) and untraced
    /// (even) rounds of a traced run each cycle through the whole pool.
    pub evolve_pool: usize,
    /// `max_generations` of every `/evolve`.
    pub evolve_max_generations: u64,
    /// Distinct `/landscape?genome=` genomes.
    pub genome_pool: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        ga_seeds: 1024,
        ga_max_generations: 30_000,
        ga_scalar_checks: 4,
        setup_reps: [201, 61, 201, 41],
        sweep_bits: 28,
        serve_round: 200,
        evolve_pool: 257,
        evolve_max_generations: 20_000,
        genome_pool: 512,
    };

    /// Seconds-long sizes for the smoke test.
    pub const TINY: Size = Size {
        ga_seeds: 128,
        ga_max_generations: 200,
        ga_scalar_checks: 2,
        setup_reps: [3, 3, 3, 3],
        sweep_bits: 16,
        serve_round: 20,
        evolve_pool: 3,
        evolve_max_generations: 200,
        genome_pool: 8,
    };

    /// Set-up repetitions of `w`.
    pub fn reps(&self, w: Workload) -> usize {
        self.setup_reps[Workload::ALL
            .iter()
            .position(|&x| x == w)
            .expect("every workload is listed")]
    }
}

/// The load shape of a run, for the host record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Engine label (`rtl_x64`, `rtl_w512`, `landscape`, `server`).
    pub engine: &'static str,
    /// Lanes per plane word of the engine under test.
    pub plane_width: usize,
    /// Worker threads the program runs.
    pub threads: usize,
    /// Client connections (0 for in-process workloads).
    pub connections: usize,
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Name in the workload's own terms (`sim_cycles_per_s`).
    pub name: &'static str,
    /// The contract metric this reading is reported as, if any.
    pub metric: Option<&'static str>,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value (ops, requests or set-ups).
    pub samples: usize,
}

impl Reading {
    /// A reading that is also the contract metric of the same name.
    pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Reading {
        Reading {
            name,
            metric: Some(name),
            unit,
            value,
            samples,
        }
    }

    /// A reading reported under the contract name `metric`.
    pub fn alias(
        name: &'static str,
        metric: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Reading {
        Reading {
            name,
            metric: Some(metric),
            unit,
            value,
            samples,
        }
    }

    /// The per-layer metric `name`, with the unit [`PER_LAYER`] gives it.
    ///
    /// # Panics
    /// Panics if `name` is not a per-layer metric.
    pub fn layer(name: &'static str, value: f64, samples: usize) -> Reading {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .expect("a declared per-layer metric");
        Reading::metric(name, unit, value, samples)
    }

    /// A reading printed for people but not part of the contract.
    pub fn info(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Reading {
        Reading {
            name,
            metric: None,
            unit,
            value,
            samples,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Load shape.
    pub cell: Cell,
    /// Ops (batches, sweeps, requests) attempted.
    pub attempted: u64,
    /// Ops whose output failed a check, or that failed outright.
    pub failed: u64,
    /// Why checks failed: the checks made before timing, and the first
    /// few failed ops.
    pub errors: Vec<String>,
    /// Every reading, in print order.
    pub readings: Vec<Reading>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// An empty outcome for `cell`.
    pub fn new(cell: Cell) -> Outcome {
        Outcome {
            cell,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            readings: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Count one op and its check.
    pub fn op(&mut self, check: Result<(), String>) -> bool {
        self.attempted += 1;
        match check {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The contract metrics of this run: the end-to-end set untraced,
    /// the per-layer set traced. A per-layer metric of a layer the
    /// workload never calls reads 0.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .readings
                    .iter()
                    .find(|r| r.metric == Some(name))
                    .map_or(0.0, |r| r.value);
                (name, unit, value)
            })
            .collect()
    }

    /// The last line of the run's output: the contract JSON object.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                let metric = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(metric))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Set-up timings spread evenly over the measured region, so that one
/// noisy moment of the host cannot move their median.
pub struct Setups {
    target: usize,
    secs: Vec<f64>,
}

impl Setups {
    /// Plan `target` set-ups.
    pub fn new(target: usize) -> Setups {
        Setups {
            target,
            secs: Vec::with_capacity(target),
        }
    }

    /// Run set-ups until their count keeps pace with the share `done`
    /// (0 to 1) of the measured region already behind.
    pub fn keep_pace(&mut self, done: f64, mut once: impl FnMut() -> f64) {
        let due = (self.target as f64 * done.clamp(0.0, 1.0)).ceil() as usize;
        while self.secs.len() < due {
            self.secs.push(once());
        }
    }

    /// Record one set-up timed elsewhere.
    pub fn push(&mut self, secs: f64) {
        self.secs.push(secs);
    }

    /// The `setup_s` reading: the median set-up.
    pub fn reading(&self) -> Reading {
        Reading::metric("setup_s", "s", stats::median(&self.secs), self.secs.len())
    }
}

/// The op latency at the highest percentile that leaves ten samples
/// above it, when that is above the median.
pub fn tail_reading(op_secs: &[f64]) -> Option<Reading> {
    let (q, v) = stats::supported_tail(op_secs).filter(|t| t.0 > 0.5)?;
    let name = match (q * 1000.0).round() as u32 {
        999 => "op_p999_s",
        990 => "op_p99_s",
        900 => "op_p90_s",
        _ => "op_p75_s",
    };
    Some(Reading::info(name, "s", v, op_secs.len()))
}

/// Run one workload.
pub fn run(args: &Args, size: &Size) -> Outcome {
    match args.workload {
        Workload::GaX64 => ga::run::<u64>(args, size),
        Workload::GaW512 => ga::run::<leonardo_rtl::bitslice::W512>(args, size),
        Workload::Sweep => sweep::run(args, size),
        Workload::ServeMixed => serve::run(args, size),
    }
}

/// The human-readable report and the BENCH record line that precede
/// the result line.
pub fn report(args: &Args, host: &host::Host, outcome: &Outcome) -> Vec<String> {
    let w = args.workload.name();
    let c = outcome.cell;
    let mut lines = vec![
        format!(
            "# perfbench {w} seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host cores={} cpu_flags={} git_rev={}",
            host.cores,
            host.cpu_flags.join(","),
            host.git_rev
        ),
        format!(
            "cell workload={w} engine={} plane_width={} threads={} connections={}",
            c.engine, c.plane_width, c.threads, c.connections
        ),
    ];
    for r in &outcome.readings {
        let metric = match r.metric {
            Some(m) if m != r.name => format!("  (reported as {m})"),
            _ => String::new(),
        };
        lines.push(format!(
            "{w} {:<28} {:>16.6e} {:<6} n={}{metric}",
            r.name, r.value, r.unit, r.samples
        ));
    }
    if !outcome.spans.is_empty() {
        lines.push(format!(
            "{w} trace: {:<26} {:>8} {:>12} {:>12} {:>12}",
            "span", "spans", "calls", "busy_s", "self_s"
        ));
        for (name, n, calls, busy, own) in trace::self_times(&outcome.spans) {
            lines.push(format!(
                "{w} trace: {name:<26} {n:>8} {calls:>12} {busy:>12.6} {own:>12.6}"
            ));
        }
    }
    for e in &outcome.errors {
        lines.push(format!("{w} CHECK FAILED: {e}"));
    }
    lines.push(bench_record(args, host, outcome));
    lines
}

/// One BENCH record: `host { cores, cpu flags, git rev }` plus the cell
/// of this run with its readings.
fn bench_record(args: &Args, host: &host::Host, outcome: &Outcome) -> String {
    let c = outcome.cell;
    let str = |s: &str| Json::Str(s.to_string());
    let num = |n: f64| Json::Num(n);
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let readings = outcome
        .readings
        .iter()
        .filter(|r| r.value.is_finite())
        .map(|r| {
            obj(vec![
                ("name", str(r.name)),
                ("unit", str(r.unit)),
                ("value", num(r.value)),
                ("samples", num(r.samples as f64)),
            ])
        })
        .collect();
    obj(vec![
        (
            "host",
            obj(vec![
                ("cores", num(host.cores as f64)),
                (
                    "cpu_flags",
                    Json::Arr(host.cpu_flags.iter().map(|f| str(f)).collect()),
                ),
                ("git_rev", str(&host.git_rev)),
            ]),
        ),
        (
            "cells",
            Json::Arr(vec![obj(vec![
                ("workload", str(args.workload.name())),
                ("engine", str(c.engine)),
                ("plane_width", num(c.plane_width as f64)),
                ("threads", num(c.threads as f64)),
                ("connections", num(c.connections as f64)),
                ("seed", num(args.seed as f64)),
                ("seconds", num(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("attempted", num(outcome.attempted as f64)),
                ("failed", num(outcome.failed as f64)),
                ("readings", Json::Arr(readings)),
            ])]),
        ),
    ])
    .to_string()
}
