//! `loadgen` — the load generator and latency reporter for
//! `leonardo-server`.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7878] [--requests 64] [--clients 4]
//!         [--mix all|health|landscape|evolve] [--out FILE]
//!         [--manifest FILE] [--label NAME]
//! ```
//!
//! `--clients` accepts a comma list (`--clients 1,4,16`): each entry is
//! one measurement pass of `--requests` requests spread over that many
//! concurrent keep-alive connections. Per-request latency is recorded
//! and summarised (p50/p99/mean via `evo`'s one-sort percentile helper,
//! plus completed requests per second); the JSON report goes to stdout
//! or `--out`, and `--manifest` additionally writes a `RunManifest`
//! with each pass as one row of its `server` section. Exit status is 1 if
//! any request failed (non-2xx or transport error) — the CI smoke step
//! relies on that.

#![forbid(unsafe_code)]

use evo::stats::Summary;
use leonardo_bench::harness::arg_or;
use leonardo_telemetry::json::Json;
use leonardo_telemetry::RunManifest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One request template the mix cycles through.
struct Template {
    method: &'static str,
    target: &'static str,
    body: &'static str,
}

fn mix_templates(mix: &str) -> Vec<Template> {
    let health = Template {
        method: "GET",
        target: "/healthz",
        body: "",
    };
    let landscape = Template {
        method: "GET",
        target: "/landscape?bits=16",
        body: "",
    };
    let evolve = Template {
        method: "POST",
        target: "/evolve",
        body: r#"{"seed": 4096, "trials": 1, "max_generations": 20000}"#,
    };
    match mix {
        "health" => vec![health],
        "landscape" => vec![landscape],
        "evolve" => vec![evolve],
        "all" => vec![health, landscape, evolve],
        other => {
            eprintln!("error: unknown --mix `{other}` (one of all, health, landscape, evolve)");
            std::process::exit(2);
        }
    }
}

/// Send one request on an open connection and read the full response.
/// Returns the status code.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    t: &Template,
) -> std::io::Result<u16> {
    // one write_all per request — fragmented writes trip over Nagle +
    // delayed ACK and inflate every latency sample by ~40 ms
    let wire = format!(
        "{} {} HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n\r\n{}",
        t.method,
        t.target,
        t.body.len(),
        t.body
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()?;
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line `{}`", status_line.trim_end()),
            )
        })?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(status)
}

/// One measurement pass: `requests` requests over `clients` keep-alive
/// connections. Returns (latencies in micros, ok count, error count,
/// wall seconds).
fn run_pass(
    addr: &str,
    requests: usize,
    clients: usize,
    templates: &[Template],
) -> (Vec<f64>, u64, u64, f64) {
    let started = Instant::now();
    let results: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let stream = TcpStream::connect(addr).inspect(|s| {
                        let _ = s.set_nodelay(true);
                    });
                    let Ok(mut stream) = stream else {
                        // connection refused: every request this client
                        // owned counts as an error
                        let owned = (c..requests).step_by(clients.max(1)).count();
                        return vec![(0.0, false); owned];
                    };
                    let Ok(read_half) = stream.try_clone() else {
                        return vec![(0.0, false)];
                    };
                    let mut reader = BufReader::new(read_half);
                    // client c owns global request indices c, c+C, …
                    for i in (c..requests).step_by(clients.max(1)) {
                        let t = &templates[i % templates.len()];
                        let sent = Instant::now();
                        let ok = matches!(
                            roundtrip(&mut stream, &mut reader, t),
                            Ok(status) if (200..300).contains(&status)
                        );
                        out.push((sent.elapsed().as_micros() as f64, ok));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(requests);
    let (mut ok, mut errors) = (0u64, 0u64);
    for (micros, success) in results.into_iter().flatten() {
        latencies.push(micros);
        if success {
            ok += 1;
        } else {
            errors += 1;
        }
    }
    (latencies, ok, errors, wall)
}

fn main() {
    let addr: String = arg_or("--addr", "127.0.0.1:7878".to_string());
    let requests: usize = arg_or("--requests", 64usize);
    let clients_list: String = arg_or("--clients", "4".to_string());
    let mix: String = arg_or("--mix", "all".to_string());
    let out: String = arg_or("--out", String::new());
    let manifest_path: String = arg_or("--manifest", String::new());
    let label: String = arg_or("--label", "loadgen".to_string());
    let templates = mix_templates(&mix);

    let concurrencies: Vec<usize> = clients_list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| match s.trim().parse::<usize>() {
            Ok(c) if c >= 1 => c,
            _ => {
                eprintln!("error: bad --clients entry `{s}`");
                std::process::exit(2);
            }
        })
        .collect();
    if requests == 0 || concurrencies.is_empty() {
        eprintln!("error: need --requests >= 1 and at least one --clients entry");
        std::process::exit(2);
    }

    let mut passes: Vec<Json> = Vec::new();
    let mut total_errors = 0u64;
    for &clients in &concurrencies {
        let (latencies, ok, errors, wall) = run_pass(&addr, requests, clients, &templates);
        total_errors += errors;
        let pcts = Summary::percentiles(&latencies, &[50.0, 99.0]).unwrap_or(vec![0.0, 0.0]);
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let rps = if wall > 0.0 {
            (ok + errors) as f64 / wall
        } else {
            0.0
        };
        passes.push(Json::Obj(vec![
            ("route".into(), "ALL".into()),
            ("clients".into(), clients.into()),
            ("requests".into(), (ok + errors).into()),
            ("ok".into(), ok.into()),
            ("errors".into(), errors.into()),
            ("p50_micros".into(), pcts[0].into()),
            ("p99_micros".into(), pcts[1].into()),
            ("mean_micros".into(), mean.into()),
            ("rps".into(), rps.into()),
        ]));
        eprintln!(
            "loadgen: clients={clients} requests={} ok={ok} errors={errors} \
             p50={:.0}us p99={:.0}us rps={rps:.0}",
            ok + errors,
            pcts[0],
            pcts[1],
        );
    }

    let report = Json::Obj(vec![
        ("label".to_string(), Json::Str(label.clone())),
        ("addr".to_string(), Json::Str(addr.clone())),
        ("mix".to_string(), Json::Str(mix.clone())),
        ("requests_per_pass".to_string(), Json::Num(requests as f64)),
        ("passes".to_string(), Json::Arr(passes.clone())),
    ])
    .to_string();
    if out.is_empty() {
        println!("{report}");
    } else if let Err(e) = std::fs::write(&out, format!("{report}\n")) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }

    if !manifest_path.is_empty() {
        let mut manifest = RunManifest::new(label);
        manifest.threads = concurrencies.iter().copied().max().unwrap_or(1) as u64;
        manifest
            .params
            .push(("requests_per_pass".to_string(), requests as f64));
        for pass in passes {
            manifest.push_row("server", pass);
        }
        if let Err(e) = manifest.write(&manifest_path) {
            eprintln!("error: cannot write {manifest_path}: {e}");
            std::process::exit(1);
        }
    }

    if total_errors > 0 {
        eprintln!("loadgen: {total_errors} request(s) failed");
        std::process::exit(1);
    }
}
