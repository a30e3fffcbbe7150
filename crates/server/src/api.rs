//! The wire types: typed request parsing and canonical response bodies.
//!
//! Every body the server reads or writes goes through this module, built
//! on the same hand-rolled [`Json`] tree the telemetry manifests use —
//! insertion-ordered objects and shortest-round-trip numbers are what
//! make the determinism contract ("same seed ⇒ byte-identical body")
//! checkable with `assert_eq!` on raw bytes. See `docs/SERVER.md` for
//! the documented schemas these types implement.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::Genome;
use evo::stats::Summary;
use leonardo_faults::campaign::CampaignReport;
use leonardo_faults::model::FaultModel;
use leonardo_problems::{problem_registry, MoCampaign, ProblemSpec, ProblemTrial};
use leonardo_rtl::driver::EvolvedTrial;
use leonardo_telemetry::json::Json;

/// Machine-readable error codes, one per failure class (documented in
/// `docs/SERVER.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be understood (malformed JSON, bad query
    /// parameter, missing required field). HTTP 400.
    BadRequest,
    /// No route matches the request path. HTTP 404.
    NotFound,
    /// The path exists but not with this method. HTTP 405.
    MethodNotAllowed,
    /// The declared request body exceeds the server's cap. HTTP 413.
    PayloadTooLarge,
    /// The request head exceeded the fixed header cap. HTTP 431.
    HeadTooLarge,
    /// A parameter is syntactically fine but over a configured limit
    /// (trial count, subspace bits, generation budget). HTTP 400.
    LimitExceeded,
    /// A handler panicked or otherwise failed internally. HTTP 500.
    Internal,
}

impl ErrorCode {
    /// The stable identifier clients switch on.
    pub const fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::HeadTooLarge => "head_too_large",
            ErrorCode::LimitExceeded => "limit_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// The HTTP status the code maps to.
    pub const fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::LimitExceeded => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::HeadTooLarge => 431,
            ErrorCode::Internal => 500,
        }
    }
}

/// A request-level failure: an [`ErrorCode`] plus a human message.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// The machine-readable failure class.
    pub code: ErrorCode,
    /// One sentence for the human reading the response.
    pub message: String,
}

impl ApiError {
    /// Construct an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// Shorthand for [`ErrorCode::LimitExceeded`].
    pub fn limit(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::LimitExceeded, message)
    }

    /// The canonical error body: `{"error":{"code":…,"message":…}}`.
    pub fn body(&self) -> String {
        Json::Obj(vec![(
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::Str(self.code.name().to_string())),
                ("message".to_string(), Json::Str(self.message.clone())),
            ]),
        )])
        .to_string()
    }
}

/// A 36-bit genome rendered the way every response renders genomes:
/// `0x` + 9 fixed hex digits.
pub fn genome_hex(bits: u64) -> String {
    format!("{bits:#011x}")
}

/// Parse a genome value: `0x`-prefixed hex or plain decimal, must fit
/// the 36-bit space.
pub fn parse_genome(s: &str) -> Result<u64, ApiError> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    let bits = parsed.map_err(|_| ApiError::bad_request(format!("unparseable genome `{s}`")))?;
    if bits >= 1 << 36 {
        return Err(ApiError::bad_request(format!(
            "genome {s} is outside the 36-bit space"
        )));
    }
    Ok(bits)
}

/// The engine widths `POST /evolve` can dispatch to; width `w` runs the
/// engine `/healthz` lists as `rtl_{w}`.
pub const EVOLVE_WIDTHS: [&str; 4] = ["x64", "w128", "w256", "w512"];

/// The evolution modes `POST /evolve` serves: `rules` runs the chip's
/// scalar rule-fitness GA on the bit-sliced batch engines; `objectives`
/// runs NSGA-II over the walker's multi-objective surface.
pub const EVOLVE_MODES: [&str; 2] = ["rules", "objectives"];

/// Generation budget ceiling in `objectives` mode — every generation
/// walks `population` genomes through the whole scenario catalog, so the
/// budget is orders of magnitude smaller than the rules-mode cap.
pub const OBJECTIVES_MAX_GENERATIONS: u64 = 200;

/// Population ceiling in `objectives` mode.
pub const OBJECTIVES_MAX_POPULATION: usize = 64;

/// Generation budget ceiling for non-gait registry problems — the
/// scalar GA pays a full trace replay (or rule evaluation) per fitness
/// call, so the cap sits well below the RTL engines' budget. 20 000
/// generations is 5x the recorded E17 budget.
pub const PROBLEM_MAX_GENERATIONS: u64 = 20_000;

/// A parsed `POST /evolve` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveRequest {
    /// Trial seeds, in order (either given explicitly as `seeds` or
    /// derived from `seed` + `trials` with the harness's +7 stride).
    pub seeds: Vec<u32>,
    /// Generation budget per trial.
    pub max_generations: u64,
    /// Engine width: one of [`EVOLVE_WIDTHS`] (`rules` mode only).
    pub width: String,
    /// Worker threads (0 = one engine per available core).
    pub threads: usize,
    /// Evolution mode: one of [`EVOLVE_MODES`].
    pub mode: String,
    /// NSGA-II population size (`objectives` mode only; even).
    pub population: usize,
    /// Registry problem to evolve (`rules` mode only). `"gait"` — the
    /// default — keeps the classic RTL batch-engine path; any other
    /// registered name runs the generic GA campaign driver with a
    /// kernel cross-check at the requested width.
    pub problem: String,
}

/// Configured ceilings the parser enforces (wired from `ServerConfig`).
#[derive(Debug, Clone, Copy)]
pub struct EvolveLimits {
    /// Most trials one request may ask for.
    pub max_trials: usize,
    /// Largest accepted generation budget.
    pub max_generations: u64,
}

impl EvolveRequest {
    /// Parse and validate a request body.
    pub fn parse(body: &[u8], limits: EvolveLimits) -> Result<EvolveRequest, ApiError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("request body is not JSON: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ApiError::bad_request("request body must be a JSON object"));
        }
        let known = [
            "seed",
            "trials",
            "seeds",
            "max_generations",
            "width",
            "threads",
            "mode",
            "population",
            "problem",
        ];
        if let Json::Obj(members) = &v {
            if let Some((k, _)) = members.iter().find(|(k, _)| !known.contains(&k.as_str())) {
                return Err(ApiError::bad_request(format!("unknown field `{k}`")));
            }
        }

        let seeds: Vec<u32> = match v.get("seeds") {
            Some(list) => {
                if v.get("seed").is_some() || v.get("trials").is_some() {
                    return Err(ApiError::bad_request(
                        "`seeds` is mutually exclusive with `seed`/`trials`",
                    ));
                }
                let items = list
                    .as_array()
                    .ok_or_else(|| ApiError::bad_request("`seeds` must be an array"))?;
                items
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .filter(|&s| s <= u64::from(u32::MAX))
                            .map(|s| s as u32)
                            .ok_or_else(|| {
                                ApiError::bad_request("`seeds` entries must be u32 integers")
                            })
                    })
                    .collect::<Result<_, _>>()?
            }
            None => {
                let seed = match v.get("seed") {
                    None => 0x1000,
                    Some(s) => s
                        .as_u64()
                        .filter(|&s| s <= u64::from(u32::MAX))
                        .ok_or_else(|| ApiError::bad_request("`seed` must be a u32 integer"))?
                        as u32,
                };
                let trials = match v.get("trials") {
                    None => 1,
                    Some(t) => t.as_u64().filter(|&t| t >= 1).ok_or_else(|| {
                        ApiError::bad_request("`trials` must be a positive integer")
                    })? as usize,
                };
                // the bench harness's deterministic stride (trial_seeds)
                (0..trials as u32)
                    .map(|i| seed.wrapping_add(7 * i))
                    .collect()
            }
        };
        if seeds.is_empty() {
            return Err(ApiError::bad_request("at least one seed is required"));
        }
        if seeds.len() > limits.max_trials {
            return Err(ApiError::limit(format!(
                "{} trials requested, server cap is {}",
                seeds.len(),
                limits.max_trials
            )));
        }

        let mode = match v.get("mode") {
            None => "rules".to_string(),
            Some(m) => {
                let m = m
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("`mode` must be a string"))?;
                if !EVOLVE_MODES.contains(&m) {
                    return Err(ApiError::bad_request(format!(
                        "unknown mode `{m}` (one of rules, objectives)"
                    )));
                }
                m.to_string()
            }
        };
        let objectives_mode = mode == "objectives";

        let problem = match v.get("problem") {
            None => "gait".to_string(),
            Some(p) => {
                let p = p
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("`problem` must be a string"))?;
                if ProblemSpec::find(p).is_none() {
                    return Err(ApiError::bad_request(format!(
                        "unknown problem `{p}` (one of {})",
                        problem_registry()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                p.to_string()
            }
        };
        let registry_mode = problem != "gait";
        if registry_mode && objectives_mode {
            return Err(ApiError::bad_request(
                "`problem` only applies to rules mode (the walker only evolves gaits)",
            ));
        }

        let max_generations = match v.get("max_generations") {
            None if objectives_mode => 12,
            None if registry_mode => 4000,
            None => 100_000,
            Some(m) => m.as_u64().filter(|&m| m >= 1).ok_or_else(|| {
                ApiError::bad_request("`max_generations` must be a positive integer")
            })?,
        };
        // objectives mode pays a scenario-catalog walk per evaluation and
        // registry problems a scalar fitness call per genome, so their
        // generation caps are far below the logic engines'
        let generation_cap = if objectives_mode {
            limits.max_generations.min(OBJECTIVES_MAX_GENERATIONS)
        } else if registry_mode {
            limits.max_generations.min(PROBLEM_MAX_GENERATIONS)
        } else {
            limits.max_generations
        };
        if max_generations > generation_cap {
            return Err(ApiError::limit(format!(
                "max_generations {max_generations} exceeds the {mode}-mode cap {generation_cap}"
            )));
        }

        let width = match v.get("width") {
            None => "x64".to_string(),
            Some(_) if objectives_mode => {
                return Err(ApiError::bad_request(
                    "`width` only applies to rules mode (objectives mode has no RTL engine)",
                ))
            }
            Some(w) => {
                let w = w
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("`width` must be a string"))?;
                if !EVOLVE_WIDTHS.contains(&w) {
                    return Err(ApiError::bad_request(format!(
                        "unknown width `{w}` (one of {})",
                        EVOLVE_WIDTHS.join(", ")
                    )));
                }
                w.to_string()
            }
        };

        let population = match v.get("population") {
            None => 16,
            Some(_) if !objectives_mode => {
                return Err(ApiError::bad_request(
                    "`population` only applies to objectives mode",
                ))
            }
            Some(p) => {
                let p = p
                    .as_u64()
                    .filter(|&p| p >= 2 && p % 2 == 0 && p <= OBJECTIVES_MAX_POPULATION as u64)
                    .ok_or_else(|| {
                        ApiError::bad_request(format!(
                            "`population` must be an even integer in 2..={OBJECTIVES_MAX_POPULATION}"
                        ))
                    })?;
                p as usize
            }
        };

        let threads =
            match v.get("threads") {
                None => 0,
                Some(t) => t.as_u64().filter(|&t| t <= 1024).ok_or_else(|| {
                    ApiError::bad_request("`threads` must be an integer in 0..=1024")
                })? as usize,
            };

        Ok(EvolveRequest {
            seeds,
            max_generations,
            width,
            threads,
            mode,
            population,
            problem,
        })
    }
}

/// Render the `POST /evolve` response body. The body is a pure function
/// of `(engine, seeds, max_generations, trials)` — thread count and wall
/// time never appear, which is what makes it byte-identical across
/// thread counts and widths (per-seed trial results already are).
pub fn evolve_response(engine: &str, req: &EvolveRequest, trials: &[EvolvedTrial]) -> String {
    let spec = FitnessSpec::paper();
    let rows: Vec<Json> = req
        .seeds
        .iter()
        .zip(trials)
        .map(|(&seed, t)| {
            Json::Obj(vec![
                ("seed".to_string(), Json::Num(f64::from(seed))),
                ("converged".to_string(), Json::Bool(t.trial.converged)),
                (
                    "generations".to_string(),
                    Json::Num(t.trial.generations as f64),
                ),
                ("cycles".to_string(), Json::Num(t.trial.cycles as f64)),
                (
                    "best_genome".to_string(),
                    Json::Str(genome_hex(t.best_genome.bits())),
                ),
                (
                    "best_fitness".to_string(),
                    Json::Num(f64::from(t.best_fitness)),
                ),
            ])
        })
        .collect();
    let generations: Vec<f64> = trials
        .iter()
        .filter(|t| t.trial.converged)
        .map(|t| t.trial.generations as f64)
        .collect();
    let converged = generations.len();
    let mut summary = vec![
        ("trials".to_string(), Json::Num(trials.len() as f64)),
        ("converged".to_string(), Json::Num(converged as f64)),
        (
            "success_rate".to_string(),
            Json::Num(converged as f64 / trials.len().max(1) as f64),
        ),
    ];
    summary.push((
        "generations".to_string(),
        match Summary::of(&generations) {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("mean".to_string(), Json::Num(s.mean)),
                ("stddev".to_string(), Json::Num(s.stddev)),
                ("min".to_string(), Json::Num(s.min)),
                ("median".to_string(), Json::Num(s.median)),
                ("max".to_string(), Json::Num(s.max)),
            ]),
        },
    ));
    Json::Obj(vec![
        ("engine".to_string(), Json::Str(engine.to_string())),
        (
            "max_generations".to_string(),
            Json::Num(req.max_generations as f64),
        ),
        (
            "max_fitness".to_string(),
            Json::Num(f64::from(spec.max_fitness())),
        ),
        ("trials".to_string(), Json::Arr(rows)),
        ("summary".to_string(), Json::Obj(summary)),
    ])
    .to_string()
}

/// Render the `POST /evolve` response body in `objectives` mode. A pure
/// function of `(req, campaigns)`; the campaigns themselves are
/// bit-identical at any thread count, so the body is too.
pub fn evolve_objectives_response(req: &EvolveRequest, campaigns: &[MoCampaign]) -> String {
    let names: Vec<Json> = leonardo_walker::objectives::objective_registry()
        .iter()
        .map(|s| Json::Str(s.name.to_string()))
        .collect();
    let rows: Vec<Json> = campaigns
        .iter()
        .map(|c| {
            let front: Vec<Json> = c
                .front
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("genome".to_string(), Json::Str(genome_hex(r.genome_bits))),
                        ("distance_mm".to_string(), Json::Num(r.distance_mm)),
                        ("min_margin_mm".to_string(), Json::Num(r.min_margin_mm)),
                        ("energy_j".to_string(), Json::Num(r.energy_j)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("seed".to_string(), Json::Num(c.seed as f64)),
                ("generations".to_string(), Json::Num(c.generations as f64)),
                ("evaluations".to_string(), Json::Num(c.evaluations as f64)),
                ("front".to_string(), Json::Arr(front)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("engine".to_string(), Json::Str("nsga2_walk".to_string())),
        (
            "max_generations".to_string(),
            Json::Num(req.max_generations as f64),
        ),
        ("population".to_string(), Json::Num(req.population as f64)),
        ("objectives".to_string(), Json::Arr(names)),
        ("campaigns".to_string(), Json::Arr(rows)),
    ])
    .to_string()
}

/// Render the `POST /evolve` response body for a non-gait registry
/// problem. A pure function of `(spec, seeds, max_generations, trials)`
/// — the campaign trials are bit-identical at any thread count and plane
/// width, so the body is too. Genome hex is scaled to the problem's
/// genome width rather than the gait register's.
pub fn evolve_problem_response(
    spec: &ProblemSpec,
    req: &EvolveRequest,
    trials: &[ProblemTrial],
) -> String {
    // "0x" plus one hex digit per genome nibble
    let hex_width = 2 + spec.width.div_ceil(4);
    let rows: Vec<Json> = trials
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("seed".to_string(), Json::Num(t.seed as f64)),
                ("converged".to_string(), Json::Bool(t.converged)),
                ("generations".to_string(), Json::Num(t.generations as f64)),
                ("evaluations".to_string(), Json::Num(t.evaluations as f64)),
                (
                    "best_genome".to_string(),
                    Json::Str(format!("{:#0hex_width$x}", t.best_genome)),
                ),
                (
                    "best_fitness".to_string(),
                    Json::Num(f64::from(t.best_fitness)),
                ),
            ])
        })
        .collect();
    let generations: Vec<f64> = trials
        .iter()
        .filter(|t| t.converged)
        .map(|t| t.generations as f64)
        .collect();
    let converged = generations.len();
    let mut summary = vec![
        ("trials".to_string(), Json::Num(trials.len() as f64)),
        ("converged".to_string(), Json::Num(converged as f64)),
        (
            "success_rate".to_string(),
            Json::Num(converged as f64 / trials.len().max(1) as f64),
        ),
    ];
    summary.push((
        "generations".to_string(),
        match Summary::of(&generations) {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("mean".to_string(), Json::Num(s.mean)),
                ("stddev".to_string(), Json::Num(s.stddev)),
                ("min".to_string(), Json::Num(s.min)),
                ("median".to_string(), Json::Num(s.median)),
                ("max".to_string(), Json::Num(s.max)),
            ]),
        },
    ));
    Json::Obj(vec![
        ("engine".to_string(), Json::Str("evo_ga".to_string())),
        ("problem".to_string(), Json::Str(spec.name.to_string())),
        ("genome_width".to_string(), Json::Num(spec.width as f64)),
        (
            "max_generations".to_string(),
            Json::Num(req.max_generations as f64),
        ),
        (
            "max_fitness".to_string(),
            Json::Num(f64::from(spec.max_fitness)),
        ),
        ("trials".to_string(), Json::Arr(rows)),
        ("summary".to_string(), Json::Obj(summary)),
    ])
    .to_string()
}

/// Render a `GET /campaign` response body from the campaign report.
pub fn campaign_response(report: &CampaignReport, dwell_window: u64) -> String {
    let lanes: Vec<Json> = report
        .lanes
        .iter()
        .map(|l| {
            let mut row = vec![
                ("seed".to_string(), Json::Num(f64::from(l.seed))),
                (
                    "outcome".to_string(),
                    Json::Str(l.outcome.name().to_string()),
                ),
                ("generations".to_string(), Json::Num(l.generations as f64)),
                ("cycles".to_string(), Json::Num(l.cycles as f64)),
                (
                    "clean_generations".to_string(),
                    match l.clean_generations {
                        Some(c) => Json::Num(c as f64),
                        None => Json::Null,
                    },
                ),
                (
                    "cost_delta".to_string(),
                    match l.cost_delta {
                        Some(d) => Json::Num(d as f64),
                        None => Json::Null,
                    },
                ),
                ("injected".to_string(), Json::Num(l.injected as f64)),
            ];
            if dwell_window > 0 {
                row.push(("dwell_ticks".to_string(), Json::Num(l.dwell_ticks as f64)));
            }
            Json::Obj(row)
        })
        .collect();
    let verified = report.verify();
    Json::Obj(vec![
        (
            "model".to_string(),
            Json::Str(report.model.name().to_string()),
        ),
        ("engine".to_string(), Json::Str(report.engine.to_string())),
        ("rate".to_string(), Json::Num(report.rate)),
        (
            "max_generations".to_string(),
            Json::Num(report.max_generations as f64),
        ),
        ("lanes".to_string(), Json::Arr(lanes)),
        (
            "summary".to_string(),
            Json::Obj(vec![
                (
                    "recovered".to_string(),
                    Json::Num(report.recovered() as f64),
                ),
                (
                    "corrupted".to_string(),
                    Json::Num(report.corrupted() as f64),
                ),
                (
                    "permanent_failures".to_string(),
                    Json::Num(report.permanent_failures() as f64),
                ),
                (
                    "mean_cost_delta".to_string(),
                    match report.mean_cost_delta() {
                        Some(d) => Json::Num(d),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        ("verified".to_string(), Json::Bool(verified.is_ok())),
    ])
    .to_string()
}

/// Parse a fault-model name as used in telemetry and manifest rows.
pub fn parse_fault_model(name: &str) -> Result<FaultModel, ApiError> {
    FaultModel::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown fault model `{name}` (one of {})",
                FaultModel::ALL.map(|m| m.name()).join(", ")
            ))
        })
}

/// Scalar fitness facts for a single genome (the `/landscape?genome=`
/// point query), cross-checked against the sweep kernel by the handler.
pub fn genome_response(bits: u64, kernel_fitness: u32) -> String {
    let spec = FitnessSpec::paper();
    let g = Genome::from_bits(bits);
    let b = spec.breakdown(g);
    debug_assert_eq!(
        spec.evaluate(g),
        kernel_fitness,
        "kernel disagrees with spec"
    );
    Json::Obj(vec![
        ("genome".to_string(), Json::Str(genome_hex(bits))),
        ("fitness".to_string(), Json::Num(f64::from(kernel_fitness))),
        (
            "is_max".to_string(),
            Json::Bool(kernel_fitness == spec.max_fitness()),
        ),
        (
            "breakdown".to_string(),
            Json::Obj(vec![
                (
                    "equilibrium".to_string(),
                    Json::Num(f64::from(b.equilibrium)),
                ),
                ("symmetry".to_string(), Json::Num(f64::from(b.symmetry))),
                ("coherence".to_string(), Json::Num(f64::from(b.coherence))),
            ]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: EvolveLimits = EvolveLimits {
        max_trials: 256,
        max_generations: 1_000_000,
    };

    #[test]
    fn evolve_defaults_and_seed_stride() {
        let r = EvolveRequest::parse(b"{}", LIMITS).unwrap();
        assert_eq!(r.seeds, vec![0x1000]);
        assert_eq!(r.max_generations, 100_000);
        assert_eq!(r.width, "x64");
        assert_eq!(r.threads, 0);
        let r = EvolveRequest::parse(br#"{"seed": 4096, "trials": 3}"#, LIMITS).unwrap();
        assert_eq!(r.seeds, vec![4096, 4103, 4110]);
    }

    #[test]
    fn evolve_explicit_seeds() {
        let r = EvolveRequest::parse(
            br#"{"seeds": [9, 8, 7], "width": "w256", "threads": 2, "max_generations": 5000}"#,
            LIMITS,
        )
        .unwrap();
        assert_eq!(r.seeds, vec![9, 8, 7]);
        assert_eq!(r.width, "w256");
        assert_eq!(r.threads, 2);
        assert_eq!(r.max_generations, 5000);
    }

    #[test]
    fn evolve_rejections() {
        let cases: [(&[u8], ErrorCode); 8] = [
            (b"not json", ErrorCode::BadRequest),
            (b"[1, 2]", ErrorCode::BadRequest),
            (br#"{"surprise": 1}"#, ErrorCode::BadRequest),
            (br#"{"seeds": [1], "seed": 2}"#, ErrorCode::BadRequest),
            (br#"{"seeds": "nope"}"#, ErrorCode::BadRequest),
            (br#"{"width": "w1024"}"#, ErrorCode::BadRequest),
            (br#"{"trials": 10000}"#, ErrorCode::LimitExceeded),
            (
                br#"{"max_generations": 99000000}"#,
                ErrorCode::LimitExceeded,
            ),
        ];
        for (body, want) in cases {
            let err = EvolveRequest::parse(body, LIMITS).unwrap_err();
            assert_eq!(err.code, want, "{}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn evolve_objectives_mode_defaults_and_caps() {
        let r = EvolveRequest::parse(br#"{"mode": "objectives"}"#, LIMITS).unwrap();
        assert_eq!(r.mode, "objectives");
        assert_eq!(r.max_generations, 12, "objectives default is small");
        assert_eq!(r.population, 16);
        assert_eq!(r.width, "x64", "width stays at its default, unused");
        let r = EvolveRequest::parse(br#"{}"#, LIMITS).unwrap();
        assert_eq!(r.mode, "rules");
        assert_eq!(r.population, 16);

        let cases: [(&[u8], ErrorCode); 5] = [
            (br#"{"mode": "walking"}"#, ErrorCode::BadRequest),
            (
                br#"{"mode": "objectives", "width": "x64"}"#,
                ErrorCode::BadRequest,
            ),
            (br#"{"population": 8}"#, ErrorCode::BadRequest),
            (
                br#"{"mode": "objectives", "population": 7}"#,
                ErrorCode::BadRequest,
            ),
            (
                br#"{"mode": "objectives", "max_generations": 5000}"#,
                ErrorCode::LimitExceeded,
            ),
        ];
        for (body, want) in cases {
            let err = EvolveRequest::parse(body, LIMITS).unwrap_err();
            assert_eq!(err.code, want, "{}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn evolve_problem_defaults_and_caps() {
        let r = EvolveRequest::parse(br#"{"problem": "fsm_traces"}"#, LIMITS).unwrap();
        assert_eq!(r.problem, "fsm_traces");
        assert_eq!(r.mode, "rules");
        assert_eq!(
            r.max_generations, 4000,
            "registry default is the E17 budget"
        );
        let r = EvolveRequest::parse(b"{}", LIMITS).unwrap();
        assert_eq!(r.problem, "gait", "gait stays the default problem");
        let r = EvolveRequest::parse(br#"{"problem": "gait"}"#, LIMITS).unwrap();
        assert_eq!(
            r.max_generations, 100_000,
            "explicit gait keeps the RTL budget"
        );

        let cases: [(&[u8], ErrorCode); 4] = [
            (br#"{"problem": "maze"}"#, ErrorCode::BadRequest),
            (br#"{"problem": 7}"#, ErrorCode::BadRequest),
            (
                br#"{"problem": "serial_adder", "mode": "objectives"}"#,
                ErrorCode::BadRequest,
            ),
            (
                br#"{"problem": "serial_adder", "max_generations": 50000}"#,
                ErrorCode::LimitExceeded,
            ),
        ];
        for (body, want) in cases {
            let err = EvolveRequest::parse(body, LIMITS).unwrap_err();
            assert_eq!(err.code, want, "{}", String::from_utf8_lossy(body));
        }
        let err = EvolveRequest::parse(br#"{"problem": "maze"}"#, LIMITS).unwrap_err();
        assert!(
            err.message.contains("gait, fsm_traces, serial_adder"),
            "the rejection lists the registry: {}",
            err.message
        );
    }

    #[test]
    fn problem_response_is_deterministic_and_width_scaled() {
        let req = EvolveRequest::parse(br#"{"problem": "serial_adder", "seeds": [4096]}"#, LIMITS)
            .unwrap();
        let spec = ProblemSpec::find("serial_adder").unwrap();
        let trials =
            leonardo_problems::problem_campaigns::<u64>(spec, &[4096], req.max_generations, 1);
        let a = evolve_problem_response(spec, &req, &trials);
        let b = evolve_problem_response(spec, &req, &trials);
        assert_eq!(a, b);
        assert!(a.contains("\"engine\":\"evo_ga\""));
        assert!(a.contains("\"problem\":\"serial_adder\""));
        assert!(a.contains("\"genome_width\":16"));
        assert!(a.contains("\"max_fitness\":48"));
        // 16-bit genome: "0x" + 4 hex digits, not the gait register's 9
        assert!(
            a.contains("\"best_genome\":\"0x") && !a.contains("\"best_genome\":\"0x00000"),
            "{a}"
        );
    }

    #[test]
    fn objectives_response_is_deterministic() {
        let req = EvolveRequest::parse(
            br#"{"mode": "objectives", "seeds": [17], "max_generations": 2,
                "population": 8}"#,
            LIMITS,
        )
        .unwrap();
        let problem = leonardo_problems::GaitMoProblem::flat_only();
        let campaigns = leonardo_problems::nsga2_campaigns(&problem, &[17], 2, 8, 1);
        let a = evolve_objectives_response(&req, &campaigns);
        let b = evolve_objectives_response(&req, &campaigns);
        assert_eq!(a, b);
        assert!(a.contains("\"engine\":\"nsga2_walk\""));
        assert!(a.contains("\"objectives\":[\"distance_mm\",\"min_margin_mm\",\"neg_energy_j\"]"));
        assert!(a.contains("\"front\":["));
    }

    #[test]
    fn genome_parsing_and_rendering() {
        assert_eq!(parse_genome("0x0000000fff").unwrap(), 0xfff);
        assert_eq!(parse_genome("4095").unwrap(), 0xfff);
        assert_eq!(genome_hex(0xfff), "0x000000fff");
        assert!(parse_genome("0xfffffffff0").is_err()); // 40 bits
        assert!(parse_genome("zebra").is_err());
    }

    #[test]
    fn error_bodies_are_canonical() {
        let e = ApiError::new(ErrorCode::NotFound, "no route matches `/nope`");
        assert_eq!(
            e.body(),
            r#"{"error":{"code":"not_found","message":"no route matches `/nope`"}}"#
        );
        assert_eq!(ErrorCode::PayloadTooLarge.status(), 413);
        assert_eq!(ErrorCode::LimitExceeded.status(), 400);
    }

    #[test]
    fn fault_model_names_round_trip() {
        for m in FaultModel::ALL {
            assert_eq!(parse_fault_model(m.name()).unwrap(), m);
        }
        assert!(parse_fault_model("cosmic_ray").is_err());
    }
}
