//! One handler per registered route.
//!
//! Handlers return `Result<String, ApiError>` — the `String` is the
//! complete 200 body, rendered through the canonical [`Json`] tree so
//! deterministic endpoints produce byte-identical bodies for identical
//! requests (see the schema documentation in `docs/SERVER.md`).

use crate::api::{self, ApiError, EvolveLimits, EvolveRequest, EVOLVE_WIDTHS};
use crate::http::Request;
use crate::routes::route_specs;
use crate::server::AppState;
use discipulus::fitness::FitnessSpec;
use leonardo_faults::campaign::Campaign;
use leonardo_landscape::FULL_SWEEP_MAX_SET;
use leonardo_problems::{nsga2_campaigns, problem_campaigns, GaitMoProblem, ProblemSpec};
use leonardo_rtl::bitslice::{W128, W256, W512};
use leonardo_rtl::driver::{engine_label, rtl_evolve_batch_w, EvolvedTrial};
use leonardo_telemetry::json::Json;
use leonardo_telemetry::MANIFEST_SCHEMA_VERSION;
use std::sync::atomic::Ordering;

/// Dispatch to the handler for `path` (the caller has already verified
/// the route exists and the method matches).
pub fn handle(state: &AppState, path: &str, request: &Request) -> Result<String, ApiError> {
    match path {
        "/evolve" => evolve(state, request),
        "/landscape" => landscape(state, request),
        "/campaign" => campaign(state, request),
        "/healthz" => Ok(healthz()),
        "/metrics" => Ok(metrics(state)),
        _ => unreachable!("dispatch only routes registered paths"),
    }
}

/// Reject query parameters the route does not declare — a typo like
/// `?bist=24` should fail loudly, not silently answer the default.
fn check_query(request: &Request, allowed: &[&str]) -> Result<(), ApiError> {
    for (k, _) in &request.query {
        if !allowed.contains(&k.as_str()) {
            return Err(ApiError::bad_request(format!(
                "unknown query parameter `{k}`"
            )));
        }
    }
    Ok(())
}

fn parse_param<T: std::str::FromStr>(
    request: &Request,
    name: &str,
    default: T,
) -> Result<T, ApiError> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<T>()
            .map_err(|_| ApiError::bad_request(format!("unparseable `{name}` value `{raw}`"))),
    }
}

/// `POST /evolve`: seeded GA runs on the bit-sliced batch engines.
fn evolve(state: &AppState, request: &Request) -> Result<String, ApiError> {
    check_query(request, &[])?;
    let req = EvolveRequest::parse(
        &request.body,
        EvolveLimits {
            max_trials: state.config.max_evolve_trials,
            max_generations: state.config.max_evolve_generations,
        },
    )?;
    if req.mode == "objectives" {
        // the same campaign driver e16_pareto runs — per-seed campaigns
        // are pure functions of their seeds, so served bytes equal a
        // local run's at any thread count
        let problem = GaitMoProblem::standard();
        let seeds: Vec<u64> = req.seeds.iter().map(|&s| u64::from(s)).collect();
        let campaigns = nsga2_campaigns(
            &problem,
            &seeds,
            req.max_generations,
            req.population,
            req.threads,
        );
        return Ok(api::evolve_objectives_response(&req, &campaigns));
    }
    if req.problem != "gait" {
        // the same generic campaign driver e17_fsm runs — per-seed trials
        // are pure functions of their seeds and unobservable to plane
        // width and thread count, so served bytes equal a local run's;
        // the width still selects the kernel used for the winner
        // cross-check
        let spec = ProblemSpec::find(&req.problem).expect("parse validated the problem");
        let seeds: Vec<u64> = req.seeds.iter().map(|&s| u64::from(s)).collect();
        let trials = match req.width.as_str() {
            "x64" => problem_campaigns::<u64>(spec, &seeds, req.max_generations, req.threads),
            "w128" => problem_campaigns::<W128>(spec, &seeds, req.max_generations, req.threads),
            "w256" => problem_campaigns::<W256>(spec, &seeds, req.max_generations, req.threads),
            _ => problem_campaigns::<W512>(spec, &seeds, req.max_generations, req.threads),
        };
        return Ok(api::evolve_problem_response(spec, &req, &trials));
    }
    // the same batch-refill driver a direct harness call runs — that, plus
    // the per-seed bit-exactness of the engines, is the determinism
    // contract: served bytes equal a local run's for any width and thread
    // count
    let trials: Vec<EvolvedTrial> = match req.width.as_str() {
        "x64" => rtl_evolve_batch_w::<u64>(&req.seeds, req.max_generations, req.threads),
        "w128" => rtl_evolve_batch_w::<W128>(&req.seeds, req.max_generations, req.threads),
        "w256" => rtl_evolve_batch_w::<W256>(&req.seeds, req.max_generations, req.threads),
        "w512" => rtl_evolve_batch_w::<W512>(&req.seeds, req.max_generations, req.threads),
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown width `{other}` (one of {})",
                EVOLVE_WIDTHS.join(", ")
            )))
        }
    };
    let engine = match req.width.as_str() {
        "x64" => engine_label::<u64>(),
        "w128" => engine_label::<W128>(),
        "w256" => engine_label::<W256>(),
        _ => engine_label::<W512>(),
    };
    Ok(api::evolve_response(engine, &req, &trials))
}

/// `GET /landscape`: the fitness-landscape oracle, subspace or point.
fn landscape(state: &AppState, request: &Request) -> Result<String, ApiError> {
    check_query(request, &["bits", "genome"])?;
    match (request.query_param("bits"), request.query_param("genome")) {
        (Some(_), Some(_)) => Err(ApiError::bad_request(
            "`bits` and `genome` are mutually exclusive",
        )),
        (None, None) => Err(ApiError::bad_request(
            "one of `bits` or `genome` is required",
        )),
        (Some(raw), None) => {
            let bits: u32 = raw
                .parse()
                .map_err(|_| ApiError::bad_request(format!("unparseable `bits` value `{raw}`")))?;
            if !(6..=36).contains(&bits) {
                return Err(ApiError::bad_request("`bits` must be in 6..=36"));
            }
            let answer = state.oracle.subspace(bits);
            Ok(Json::Obj(vec![
                ("bits".to_string(), Json::Num(f64::from(answer.bits))),
                ("genomes".to_string(), Json::Num(answer.genomes as f64)),
                (
                    "max_fitness".to_string(),
                    Json::Num(f64::from(answer.max_fitness)),
                ),
                (
                    "histogram".to_string(),
                    Json::Arr(answer.hist.iter().map(|&c| Json::Num(c as f64)).collect()),
                ),
                ("max_count".to_string(), Json::Num(answer.max_count as f64)),
                (
                    "max_samples".to_string(),
                    Json::Arr(
                        answer
                            .samples
                            .iter()
                            .map(|&g| Json::Str(api::genome_hex(g)))
                            .collect(),
                    ),
                ),
            ])
            .to_string())
        }
        (None, Some(raw)) => {
            let bits = api::parse_genome(raw)?;
            let fitness = state.oracle.genome_fitness(bits);
            Ok(api::genome_response(bits, fitness))
        }
    }
}

/// `GET /campaign`: one seeded fault campaign through the recovery
/// oracle.
fn campaign(state: &AppState, request: &Request) -> Result<String, ApiError> {
    check_query(
        request,
        &[
            "model",
            "rate",
            "lanes",
            "max_generations",
            "engine",
            "dwell",
            "seed",
        ],
    )?;
    let model = api::parse_fault_model(
        request
            .query_param("model")
            .ok_or_else(|| ApiError::bad_request("`model` is required"))?,
    )?;
    let rate: f64 = parse_param(request, "rate", 0.01)?;
    if !rate.is_finite() || !(0.0..=16.0).contains(&rate) {
        return Err(ApiError::bad_request(
            "`rate` must be a finite value in 0..=16",
        ));
    }
    let lanes: usize = parse_param(request, "lanes", 8)?;
    if !(1..=64).contains(&lanes) {
        return Err(ApiError::bad_request("`lanes` must be in 1..=64"));
    }
    let max_generations: u64 = parse_param(request, "max_generations", 50_000)?;
    if max_generations == 0 {
        return Err(ApiError::bad_request("`max_generations` must be positive"));
    }
    if max_generations > state.config.max_campaign_generations {
        return Err(ApiError::limit(format!(
            "max_generations {} exceeds server cap {}",
            max_generations, state.config.max_campaign_generations
        )));
    }
    let dwell: u64 = parse_param(request, "dwell", 0)?;
    if dwell > 100_000 {
        return Err(ApiError::limit("`dwell` cap is 100000"));
    }
    let seed: u32 = parse_param(request, "seed", 0x1000u32)?;
    let engine = request.query_param("engine").unwrap_or("x64");
    // the E13/E14 trial-seed stride
    let seeds: Vec<u32> = (0..lanes as u32)
        .map(|i| seed.wrapping_add(7 * i))
        .collect();
    let c = Campaign::new(model, rate)
        .with_max_generations(max_generations)
        .with_dwell_window(dwell);
    let report = match engine {
        "x64" => c.run_x64(&seeds),
        "scalar" => c.run_scalar(&seeds),
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown engine `{other}` (one of x64, scalar)"
            )))
        }
    };
    Ok(api::campaign_response(&report, dwell))
}

/// `GET /healthz`: static capability facts, fully deterministic.
fn healthz() -> String {
    let spec = FitnessSpec::paper();
    Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        (
            "schema_version".to_string(),
            Json::Num(MANIFEST_SCHEMA_VERSION as f64),
        ),
        (
            "engines".to_string(),
            Json::Arr(
                ["rtl_x64", "rtl_w128", "rtl_w256", "rtl_w512"]
                    .iter()
                    .map(|e| Json::Str(e.to_string()))
                    .collect(),
            ),
        ),
        ("genome_bits".to_string(), Json::Num(36.0)),
        (
            "max_fitness".to_string(),
            Json::Num(f64::from(spec.max_fitness())),
        ),
        (
            "full_sweep_max_set".to_string(),
            Json::Num(FULL_SWEEP_MAX_SET as f64),
        ),
        (
            "routes".to_string(),
            Json::Arr(
                route_specs()
                    .iter()
                    .map(|s| Json::Str(s.label.to_string()))
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// `GET /metrics`: live counters (declared non-deterministic in the
/// route registry — this is the one endpoint whose body depends on
/// history).
fn metrics(state: &AppState) -> String {
    let m = &state.metrics;
    let per_route: Vec<(String, Json)> = route_specs()
        .iter()
        .zip(&m.per_route)
        .map(|(s, c)| {
            (
                s.label.to_string(),
                Json::Num(c.load(Ordering::Relaxed) as f64),
            )
        })
        .collect();
    let mut members = vec![
        (
            "connections".to_string(),
            Json::Num(m.connections.load(Ordering::Relaxed) as f64),
        ),
        ("requests".to_string(), Json::Obj(per_route)),
        (
            "unmatched".to_string(),
            Json::Num(m.unmatched.load(Ordering::Relaxed) as f64),
        ),
        (
            "responses".to_string(),
            Json::Obj(vec![
                (
                    "2xx".to_string(),
                    Json::Num(m.ok_2xx.load(Ordering::Relaxed) as f64),
                ),
                (
                    "4xx".to_string(),
                    Json::Num(m.err_4xx.load(Ordering::Relaxed) as f64),
                ),
                (
                    "5xx".to_string(),
                    Json::Num(m.err_5xx.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
    ];
    if let Some(agg) = &state.config.aggregator {
        members.push((
            "telemetry".to_string(),
            Json::Obj(vec![
                ("events".to_string(), Json::Num(agg.event_count() as f64)),
                (
                    "requests_observed".to_string(),
                    Json::Num(agg.events("server.request").len() as f64),
                ),
            ]),
        ));
    }
    Json::Obj(members).to_string()
}
