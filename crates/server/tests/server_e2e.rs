//! End-to-end tests over real TCP: a `leonardo-server` instance per
//! test, driven by a minimal in-test HTTP client.
//!
//! Three layers of pinning:
//!
//! * **error paths** — malformed JSON, unknown routes and query
//!   parameters, wrong methods, oversized bodies and mid-stream
//!   disconnects each get the documented status + error code, and the
//!   server survives all of them;
//! * **determinism** — the `POST /evolve` body for a fixed seed is
//!   byte-identical across engine widths and thread counts, and equal to
//!   what a direct `rtl_evolve_batch_w` harness call renders;
//! * **golden bytes** — that body is pinned as a golden file
//!   (regenerate after an intentional schema change with
//!   `UPDATE_GOLDEN=1 cargo test -p leonardo-server --test server_e2e`).

use leonardo_server::{ServerConfig, ServerHandle};
use leonardo_telemetry::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/evolve_seed4096.json"
);

fn start_server() -> ServerHandle {
    leonardo_server::start(ServerConfig {
        threads: 2,
        max_body_bytes: 64 * 1024,
        max_evolve_trials: 64,
        max_evolve_generations: 200_000,
        max_campaign_generations: 60_000,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
}

/// One request on a fresh connection; returns (status, body).
fn request(server: &ServerHandle, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    read_response(&mut BufReader::new(stream))
}

fn read_response<S: Read>(reader: &mut BufReader<S>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn error_code(body: &str) -> String {
    Json::parse(body)
        .expect("error body parses")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .expect("error.code present")
        .to_string()
}

#[test]
fn error_paths_get_documented_codes_and_the_server_survives() {
    let server = start_server();
    let cases: [(&str, &str, &str, u16, &str); 6] = [
        ("POST", "/evolve", "not json at all", 400, "bad_request"),
        (
            "POST",
            "/evolve",
            r#"{"width": "w1024"}"#,
            400,
            "bad_request",
        ),
        (
            "POST",
            "/evolve",
            r#"{"trials": 9999}"#,
            400,
            "limit_exceeded",
        ),
        ("GET", "/nowhere", "", 404, "not_found"),
        ("GET", "/evolve", "", 405, "method_not_allowed"),
        ("GET", "/landscape?bist=12", "", 400, "bad_request"),
    ];
    for (method, target, body, want_status, want_code) in cases {
        let (status, body) = request(&server, method, target, body);
        assert_eq!(status, want_status, "{method} {target}");
        assert_eq!(error_code(&body), want_code, "{method} {target}");
    }
    // after all that abuse the server still answers
    let (status, body) = request(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&body).unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );
}

#[test]
fn oversized_body_gets_413_and_connection_closes() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // declare a body far over the 64 KiB cap without sending it
    write!(
        stream,
        "POST /evolve HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n"
    )
    .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 413);
    assert_eq!(error_code(&body), "payload_too_large");
    // the server closed the out-of-sync connection
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty());
}

#[test]
fn midstream_disconnects_leave_the_server_healthy() {
    let server = start_server();
    // half a request line, then gone
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"POST /evo").expect("partial send");
    }
    // headers promising a body that never comes, then gone
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /evolve HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"se")
            .expect("partial send");
    }
    let (status, _) = request(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("send");
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200);
    }
    let metrics = request(&server, "GET", "/metrics", "").1;
    let v = Json::parse(&metrics).expect("metrics parse");
    let healthz = v
        .get("requests")
        .and_then(|r| r.get("GET /healthz"))
        .and_then(Json::as_u64)
        .expect("healthz counter");
    assert_eq!(healthz, 3);
}

const EVOLVE_BODY: &str =
    r#"{"seed": 4096, "trials": 6, "max_generations": 100000, "width": "x64", "threads": 2}"#;

#[test]
fn evolve_bytes_are_identical_across_widths_and_threads() {
    let server = start_server();
    let (status, reference) = request(&server, "POST", "/evolve", EVOLVE_BODY);
    assert_eq!(status, 200);
    for (width, threads) in [("x64", 1), ("w128", 4), ("w256", 1), ("w512", 3)] {
        let body = format!(
            r#"{{"seed": 4096, "trials": 6, "max_generations": 100000, "width": "{width}", "threads": {threads}}}"#
        );
        let (status, got) = request(&server, "POST", "/evolve", &body);
        assert_eq!(status, 200, "{width}/{threads}");
        // the engine label names the width; everything else must match
        let expect = reference.replace(
            "rtl_x64",
            &format!("rtl_{}", if width == "x64" { "x64" } else { width }),
        );
        assert_eq!(got, expect, "{width} at {threads} threads");
    }
}

#[test]
fn served_evolve_equals_a_direct_harness_call() {
    use leonardo_rtl::driver::rtl_evolve_batch_w;
    let server = start_server();
    let (status, served) = request(&server, "POST", "/evolve", EVOLVE_BODY);
    assert_eq!(status, 200);
    let seeds: Vec<u32> = (0..6u32).map(|i| 4096 + 7 * i).collect();
    let trials = rtl_evolve_batch_w::<u64>(&seeds, 100_000, 2);
    let req = leonardo_server::api::EvolveRequest {
        seeds,
        max_generations: 100_000,
        width: "x64".to_string(),
        threads: 2,
        mode: "rules".to_string(),
        population: 16,
        problem: "gait".to_string(),
    };
    let direct = leonardo_server::api::evolve_response("rtl_x64", &req, &trials);
    assert_eq!(
        served, direct,
        "served bytes must equal a direct sweep call"
    );
}

#[test]
fn evolve_objectives_mode_serves_deterministic_fronts() {
    let server = start_server();
    let body = r#"{"mode": "objectives", "seeds": [23], "max_generations": 2, "population": 8, "threads": 1}"#;
    let (status, served) = request(&server, "POST", "/evolve", body);
    assert_eq!(status, 200, "{served}");
    assert!(served.contains("\"engine\":\"nsga2_walk\""));
    assert!(served.contains("\"objectives\":[\"distance_mm\",\"min_margin_mm\",\"neg_energy_j\"]"));
    // thread count must be unobservable in the served bytes
    let rethreaded = r#"{"mode": "objectives", "seeds": [23], "max_generations": 2, "population": 8, "threads": 4}"#;
    let (status, again) = request(&server, "POST", "/evolve", rethreaded);
    assert_eq!(status, 200);
    assert_eq!(served, again, "objectives bytes vary with thread count");
    // and the served bytes equal a direct campaign call
    let problem = leonardo_problems::GaitMoProblem::standard();
    let campaigns = leonardo_problems::nsga2_campaigns(&problem, &[23], 2, 8, 1);
    let req = leonardo_server::api::EvolveRequest {
        seeds: vec![23],
        max_generations: 2,
        width: "x64".to_string(),
        threads: 1,
        mode: "objectives".to_string(),
        population: 8,
        problem: "gait".to_string(),
    };
    let direct = leonardo_server::api::evolve_objectives_response(&req, &campaigns);
    assert_eq!(served, direct);
}

#[test]
fn evolve_problem_mode_serves_registry_campaigns() {
    let server = start_server();
    let body =
        r#"{"problem": "fsm_traces", "seeds": [4096], "max_generations": 200, "threads": 1}"#;
    let (status, served) = request(&server, "POST", "/evolve", body);
    assert_eq!(status, 200, "{served}");
    assert!(served.contains("\"engine\":\"evo_ga\""));
    assert!(served.contains("\"problem\":\"fsm_traces\""));
    assert!(served.contains("\"genome_width\":24"));
    // plane width and thread count must be unobservable in the served bytes
    let reconfigured = r#"{"problem": "fsm_traces", "seeds": [4096], "max_generations": 200, "width": "w512", "threads": 3}"#;
    let (status, again) = request(&server, "POST", "/evolve", reconfigured);
    assert_eq!(status, 200);
    assert_eq!(served, again, "problem bytes vary with width or threads");
    // and the served bytes equal a direct campaign call
    let spec = leonardo_problems::ProblemSpec::find("fsm_traces").unwrap();
    let trials = leonardo_problems::problem_campaigns::<u64>(spec, &[4096], 200, 1);
    let req = leonardo_server::api::EvolveRequest {
        seeds: vec![4096],
        max_generations: 200,
        width: "x64".to_string(),
        threads: 1,
        mode: "rules".to_string(),
        population: 16,
        problem: "fsm_traces".to_string(),
    };
    let direct = leonardo_server::api::evolve_problem_response(spec, &req, &trials);
    assert_eq!(served, direct);
    // an unknown problem is rejected with the registry in the message
    let (status, err) = request(&server, "POST", "/evolve", r#"{"problem": "maze"}"#);
    assert_eq!(status, 400);
    assert_eq!(error_code(&err), "bad_request");
}

#[test]
fn evolve_bytes_match_the_golden_pin() {
    let server = start_server();
    let (status, body) = request(&server, "POST", "/evolve", EVOLVE_BODY);
    assert_eq!(status, 200);
    let rendered = format!("{body}\n");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p leonardo-server --test server_e2e",
    );
    assert_eq!(
        rendered, golden,
        "the served /evolve bytes drifted from the golden pin; if the \
         schema or the engines changed intentionally, regenerate with \
         UPDATE_GOLDEN=1"
    );
}

/// The curl examples in docs/SERVER.md are real bytes: the `/evolve`
/// example must be the golden file verbatim, and the quoted `/healthz`
/// and `/landscape` bodies must equal what a live server answers.
#[test]
fn server_md_examples_match_served_bytes() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVER.md"))
        .expect("docs/SERVER.md");
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    assert!(
        md.contains(golden.trim_end()),
        "the /evolve example in docs/SERVER.md must be the golden response verbatim"
    );
    let server = start_server();
    for target in [
        "/healthz",
        "/landscape?bits=8",
        "/landscape?genome=0x71b80381b",
    ] {
        let (status, body) = request(&server, "GET", target, "");
        assert_eq!(status, 200, "{target}");
        assert!(
            md.contains(&format!("# {body}")),
            "the quoted `{target}` example body in docs/SERVER.md is stale"
        );
    }
}

#[test]
fn landscape_subspace_answers_match_the_scalar_oracle() {
    use discipulus::fitness::FitnessSpec;
    use discipulus::genome::Genome;
    let server = start_server();
    let (status, body) = request(&server, "GET", "/landscape?bits=12", "");
    assert_eq!(status, 200);
    let v = Json::parse(&body).expect("landscape body");
    let spec = FitnessSpec::paper();
    let mut hist = vec![0u64; spec.max_fitness() as usize + 1];
    for g in 0..1u64 << 12 {
        hist[spec.evaluate(Genome::from_bits(g)) as usize] += 1;
    }
    let got: Vec<u64> = v
        .get("histogram")
        .and_then(Json::as_array)
        .expect("histogram")
        .iter()
        .map(|c| c.as_u64().expect("count"))
        .collect();
    assert_eq!(got, hist);
    // identical bytes on the second ask (cache must not leak into bodies)
    let (_, again) = request(&server, "GET", "/landscape?bits=12", "");
    assert_eq!(body, again);

    // point query cross-checked against the scalar spec
    let (status, body) = request(&server, "GET", "/landscape?genome=0x000000fff", "");
    assert_eq!(status, 200);
    let v = Json::parse(&body).expect("genome body");
    assert_eq!(
        v.get("fitness").and_then(Json::as_u64),
        Some(u64::from(spec.evaluate(Genome::from_bits(0xfff))))
    );
}

/// The whole 2³⁶ landscape is one query: the histogram E15's sweep
/// committed, and the lowest maximal genomes of the analytic max set.
#[test]
fn full_landscape_answers_with_the_e15_histogram() {
    use discipulus::fitness::max_fitness_genomes;
    let server = start_server();
    let (status, body) = request(&server, "GET", "/landscape?bits=36", "");
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("landscape body");
    let e15 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/e15_landscape.txt"
    ))
    .expect("results/e15_landscape.txt");
    let want: Vec<u64> = e15
        .lines()
        .skip_while(|l| !l.starts_with("exact fitness histogram"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .expect("count")
        })
        .collect();
    assert_eq!(want.len(), 27);
    let got: Vec<u64> = v
        .get("histogram")
        .and_then(Json::as_array)
        .expect("histogram")
        .iter()
        .map(|c| c.as_u64().expect("count"))
        .collect();
    assert_eq!(got, want);
    assert_eq!(v.get("max_count").and_then(Json::as_u64), Some(86_436));
    let mut lowest: Vec<u64> = max_fitness_genomes().map(|g| g.bits()).collect();
    lowest.sort_unstable();
    let lowest: Vec<String> = lowest[..32]
        .iter()
        .map(|&g| leonardo_server::api::genome_hex(g))
        .collect();
    let samples: Vec<String> = v
        .get("max_samples")
        .and_then(Json::as_array)
        .expect("max_samples")
        .iter()
        .map(|s| s.as_str().expect("hex").to_string())
        .collect();
    assert_eq!(samples, lowest);
}

#[test]
fn campaign_runs_and_reports_a_verified_oracle() {
    let server = start_server();
    let (status, body) = request(
        &server,
        "GET",
        "/campaign?model=population_flip&rate=0.01&lanes=4&max_generations=50000",
        "",
    );
    assert_eq!(status, 200);
    let v = Json::parse(&body).expect("campaign body");
    assert_eq!(v.get("verified").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("model").and_then(|m| m.as_str()),
        Some("population_flip")
    );
    assert_eq!(
        v.get("lanes").and_then(Json::as_array).map(<[Json]>::len),
        Some(4)
    );
    let (status, body) = request(&server, "GET", "/campaign?model=cosmic_ray", "");
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");
}
