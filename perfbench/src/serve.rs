//! `serve_mixed`: an in-process `leonardo_server` with 2 workers on
//! loopback, driven by 2 client threads over 2 keep-alive connections in
//! a closed loop.
//!
//! Each connection repeats a round of 200 requests: one `POST /evolve`
//! (gait, x64, 4 seeded trials), at position 0 on one connection and 100
//! on the other, and 199 queries cycling through `/healthz`,
//! `/landscape?genome=<seeded>`, `/landscape?bits=22` (cache-hot after
//! set-up) and `/metrics`. Cheap reads share the two cores with
//! `/evolve` compute.

use crate::stats::{derive, median, percentile, secs_since};
use crate::sweep::golden_max_set;
use crate::trace::{Round, Tracer};
use crate::{Args, Cell, Outcome, Reading, Setups, Size};
use discipulus::fitness::FitnessSpec;
use discipulus::genome::Genome;
use leonardo_bench::harness::{engine_label, parallel_map_threads, rtl_evolve_batch_w};
use leonardo_server::api::{evolve_response, genome_hex, EvolveLimits, EvolveRequest};
use leonardo_server::http::read_request;
use leonardo_server::oracle::RESPONSE_SAMPLE_CAP;
use leonardo_server::server::dispatch;
use leonardo_server::{start, AppState, ServerConfig, ServerHandle};
use leonardo_telemetry::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Instant;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client connections, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Trials per `/evolve`.
const EVOLVE_TRIALS: u32 = 4;
/// Subspace of the cache-hot landscape query.
const BITS_QUERY: u32 = 22;

const STREAM_GENOME: u64 = 0x676e;
const STREAM_EVOLVE: u64 = 0x6576;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /healthz`.
    Health,
    /// `GET /landscape?genome=`.
    Genome,
    /// `GET /landscape?bits=22`.
    Bits,
    /// `GET /metrics`.
    Metrics,
    /// `POST /evolve`.
    Evolve,
}

const QUERY_CYCLE: [Kind; 4] = [Kind::Health, Kind::Genome, Kind::Bits, Kind::Metrics];

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// The request sequence of both connections and the expected answers.
pub struct Schedule {
    round: usize,
    health: Vec<u8>,
    bits: Vec<u8>,
    metrics: Vec<u8>,
    /// `(request, genome hex, fitness)`.
    genomes: Vec<(Vec<u8>, String, u32)>,
    /// `(request, parsed body, expected response body)`.
    evolves: Vec<(Vec<u8>, EvolveRequest, Vec<u8>)>,
    /// Set-up answers every later `/healthz` and `/landscape?bits=22`
    /// must repeat byte for byte.
    health_body: Vec<u8>,
    bits_body: Vec<u8>,
}

impl Schedule {
    /// Build the pools from the workload seed; every `/evolve` body's
    /// expected answer comes from a direct engine call.
    fn new(seed: u64, size: &Size, limits: EvolveLimits) -> Result<Schedule, String> {
        let spec = FitnessSpec::paper();
        let genomes = (0..size.genome_pool as u64)
            .map(|i| {
                let g = derive(seed, STREAM_GENOME, i) & ((1 << 36) - 1);
                let hex = genome_hex(g);
                let request = get(&format!("/landscape?genome={hex}"));
                (request, hex, spec.evaluate(Genome::from_bits(g)))
            })
            .collect();
        let bodies: Vec<String> = (0..size.evolve_pool as u64)
            .map(|i| {
                format!(
                    "{{\"seed\":{},\"trials\":{EVOLVE_TRIALS},\"max_generations\":{},\"width\":\"x64\",\"problem\":\"gait\"}}",
                    derive(seed, STREAM_EVOLVE, i) as u32,
                    size.evolve_max_generations
                )
            })
            .collect();
        let parsed = bodies
            .iter()
            .map(|b| EvolveRequest::parse(b.as_bytes(), limits).map_err(|e| e.body()))
            .collect::<Result<Vec<_>, _>>()?;
        let expected = parallel_map_threads(WORKERS, &parsed, |req| {
            let trials = rtl_evolve_batch_w::<u64>(&req.seeds, req.max_generations, req.threads);
            evolve_response(engine_label::<u64>(), req, &trials).into_bytes()
        });
        let evolves = bodies
            .iter()
            .zip(parsed)
            .zip(expected)
            .map(|((body, req), want)| {
                let request = format!(
                    "POST /evolve HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                (request.into_bytes(), req, want)
            })
            .collect();
        Ok(Schedule {
            round: size.serve_round,
            health: get("/healthz"),
            bits: get(&format!("/landscape?bits={BITS_QUERY}")),
            metrics: get("/metrics"),
            genomes,
            evolves,
            health_body: Vec::new(),
            bits_body: Vec::new(),
        })
    }

    /// Request `k` of connection `conn`: its kind and pool index.
    pub fn pick(&self, conn: usize, k: usize) -> (Kind, usize) {
        let (r, p) = (k / self.round, k % self.round);
        let offset = conn * self.round / CONNECTIONS;
        if p == offset {
            return (Kind::Evolve, (r * CONNECTIONS + conn) % self.evolves.len());
        }
        let q = r * (self.round - 1) + if p < offset { p } else { p - 1 };
        let kind = QUERY_CYCLE[q % QUERY_CYCLE.len()];
        let idx = (q / QUERY_CYCLE.len() * CONNECTIONS + conn) % self.genomes.len();
        (kind, idx)
    }

    fn request(&self, kind: Kind, idx: usize) -> &[u8] {
        match kind {
            Kind::Health => &self.health,
            Kind::Genome => &self.genomes[idx].0,
            Kind::Bits => &self.bits,
            Kind::Metrics => &self.metrics,
            Kind::Evolve => &self.evolves[idx].0,
        }
    }

    /// The response is a 200 carrying the expected answer.
    fn check(&self, kind: Kind, idx: usize, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{kind:?} answered {status}"));
        }
        let ok = match kind {
            Kind::Health => body == self.health_body,
            Kind::Bits => body == self.bits_body,
            Kind::Metrics => body.starts_with(b"{\"connections\":"),
            Kind::Evolve => body == self.evolves[idx].2,
            Kind::Genome => {
                let (_, hex, fitness) = &self.genomes[idx];
                let text = String::from_utf8_lossy(body);
                text.contains(&format!("\"genome\":\"{hex}\""))
                    && text.contains(&format!("\"fitness\":{fitness},"))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{kind:?} #{idx}: unexpected body {}",
                String::from_utf8_lossy(body)
            ))
        }
    }
}

/// One keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and read its whole response.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response head");
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(bad)?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            if line == "\r\n" {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad())?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn fetch(conn: &mut Conn, request: &[u8]) -> Result<Vec<u8>, String> {
    match conn.exchange(request) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!(
            "set-up request answered {status}: {}",
            String::from_utf8_lossy(&body)
        )),
        Err(e) => Err(format!("set-up request failed: {e}")),
    }
}

/// One cold set-up: start a server, wait for the first `/healthz` 200,
/// fill the `/landscape?bits=22` chunk cache. Returns the server, the
/// seconds it took and the two answers.
fn cold_setup(sched: &Schedule) -> Result<(ServerHandle, f64, Vec<u8>, Vec<u8>), String> {
    let t = Instant::now();
    let server = start(ServerConfig {
        threads: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let mut conn = Conn::open(server.addr()).map_err(|e| format!("connect failed: {e}"))?;
    let health = fetch(&mut conn, &sched.health)?;
    let bits = fetch(&mut conn, &sched.bits)?;
    let secs = secs_since(t);
    Ok((server, secs, health, bits))
}

/// The set-up answers are right: `/healthz` is ok and the `bits=22`
/// landscape has full mass and the golden max set.
fn check_setup_answers(health: &[u8], bits: &[u8]) -> Result<(), String> {
    let parse = |b: &[u8]| Json::parse(&String::from_utf8_lossy(b)).map_err(|e| e.to_string());
    let h = parse(health)?;
    if h.get("status").and_then(Json::as_str) != Some("ok") {
        return Err("/healthz is not ok".to_string());
    }
    let l = parse(bits)?;
    let genomes = 1u64 << BITS_QUERY;
    let mass: u64 = l
        .get("histogram")
        .and_then(Json::as_array)
        .map_or(0, |h| h.iter().filter_map(Json::as_u64).sum());
    let golden = golden_max_set(BITS_QUERY)?;
    let samples: Vec<String> = l
        .get("max_samples")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect();
    let want: Vec<String> = golden
        .iter()
        .take(RESPONSE_SAMPLE_CAP)
        .map(|&g| genome_hex(g))
        .collect();
    if l.get("genomes").and_then(Json::as_u64) != Some(genomes)
        || mass != genomes
        || l.get("max_count").and_then(Json::as_u64) != Some(golden.len() as u64)
        || samples != want
    {
        return Err(format!(
            "/landscape?bits={BITS_QUERY} disagrees with the golden max set"
        ));
    }
    Ok(())
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// `(kind, latency or +inf if failed, traced)` per request.
    requests: Vec<(Kind, f64, bool)>,
    errors: Vec<String>,
    secs: f64,
}

/// Closed loop on connection `conn` for `seconds`, from request `*k`
/// of its schedule on. With a tracer, every other round is traced: a
/// `client.round` span with the queries coalesced into one
/// `client.query` span and a `client.evolve` span for the `/evolve`.
fn client(
    addr: SocketAddr,
    conn: usize,
    k: &mut usize,
    sched: &Schedule,
    seconds: f64,
    barrier: &Barrier,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut c = Conn::open(addr);
    let mut round: Option<Round> = None;
    barrier.wait();
    let start = Instant::now();
    while secs_since(start) < seconds {
        let (kind, idx) = sched.pick(conn, *k);
        let (r, p) = (*k / sched.round, *k % sched.round);
        let traced = tracer.filter(|_| r % 2 == 1);
        if let Some(t) = traced {
            if p == 0 || round.is_none() {
                if let Some(done) = round.take() {
                    done.close(t, "client.round");
                }
                round = Some(Round::open(t, (r * CONNECTIONS + conn) as u32));
            }
        }
        let s0 = traced.map_or(0, Tracer::now);
        let t0 = Instant::now();
        let answer = match c.as_mut() {
            Ok(c) => c.exchange(sched.request(kind, idx)),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        };
        let latency = secs_since(t0);
        if let (Some(t), Some(round)) = (traced, round.as_mut()) {
            let s1 = t.now();
            if kind == Kind::Evolve {
                round.call(
                    t,
                    "client.evolve",
                    (*k * CONNECTIONS + conn) as u32,
                    (s0, s1),
                );
            } else {
                round.add("client.query", s0, s1, 1);
            }
        }
        let checked = match answer {
            Ok((status, body)) => sched.check(kind, idx, status, &body),
            Err(e) => {
                // a broken connection is replaced; the request counts as
                // failed either way
                c = Conn::open(addr);
                Err(format!("transport error: {e}"))
            }
        };
        match checked {
            Ok(()) => log.requests.push((kind, latency, traced.is_some())),
            Err(e) => {
                log.requests.push((kind, f64::INFINITY, traced.is_some()));
                if log.errors.len() < 4 {
                    log.errors.push(e);
                }
            }
        }
        *k += 1;
    }
    if let (Some(t), Some(done)) = (tracer, round) {
        done.close(t, "client.round");
    }
    log.secs = secs_since(start);
    log
}

/// Both clients in a closed loop for `seconds`, each continuing its
/// schedule from `next[conn]`.
fn load(
    server: &ServerHandle,
    sched: &Schedule,
    seconds: f64,
    tracer: Option<&Tracer>,
    next: &mut [usize; CONNECTIONS],
) -> Vec<ClientLog> {
    let barrier = Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = next
            .iter_mut()
            .enumerate()
            .map(|(conn, k)| {
                let barrier = &barrier;
                scope.spawn(move || client(server.addr(), conn, k, sched, seconds, barrier, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Latencies of one kind of request (`evolve` or not), optionally only
/// the traced or untraced rounds.
fn latencies(logs: &[ClientLog], evolve: bool, traced: Option<bool>) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.requests)
        .filter(|r| (r.0 == Kind::Evolve) == evolve && traced.is_none_or(|t| r.2 == t))
        .map(|r| r.1)
        .collect()
}

fn account(out: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        for r in &log.requests {
            out.attempted += 1;
            if r.1.is_infinite() {
                out.failed += 1;
            }
        }
        out.errors.extend(log.errors.iter().take(4).cloned());
    }
}

/// The untraced run's load is cut into this many slices, with cold
/// set-ups of fresh servers between them.
const SLICES: usize = 10;

/// Run `serve_mixed`.
pub fn run(args: &Args, size: &Size) -> Outcome {
    let mut out = Outcome::new(Cell {
        engine: "server",
        plane_width: 64,
        threads: WORKERS,
        connections: CONNECTIONS,
    });
    let config = ServerConfig::default();
    let limits = EvolveLimits {
        max_trials: config.max_evolve_trials,
        max_generations: config.max_evolve_generations,
    };
    let mut sched = match Schedule::new(args.seed, size, limits) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("before timing: {e}"));
            return out;
        }
    };
    let (mut server, first_setup) =
        match cold_setup(&sched).and_then(|(server, secs, health, bits)| {
            check_setup_answers(&health, &bits)?;
            sched.health_body = health;
            sched.bits_body = bits;
            Ok((server, secs))
        }) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(format!("before timing: {e}"));
                return out;
            }
        };
    let mut next = [0usize; CONNECTIONS];
    if args.trace {
        traced(args, &sched, &server, &mut next, &mut out);
        server.stop();
        return out;
    }
    let mut setups = Setups::new(size.reps(args.workload));
    setups.push(first_setup);
    let mut setup_errors = Vec::new();
    let mut logs = Vec::new();
    let mut wall = 0.0;
    for slice in 0..SLICES {
        let part = load(
            &server,
            &sched,
            args.seconds / SLICES as f64,
            None,
            &mut next,
        );
        wall += part.iter().map(|l| l.secs).fold(0.0, f64::max);
        logs.extend(part);
        setups.keep_pace((slice + 1) as f64 / SLICES as f64, || {
            match cold_setup(&sched) {
                Ok((_, secs, health, bits))
                    if health == sched.health_body && bits == sched.bits_body =>
                {
                    secs
                }
                Ok(_) => {
                    setup_errors.push("set-up answers differ between servers".to_string());
                    f64::INFINITY
                }
                Err(e) => {
                    setup_errors.push(e);
                    f64::INFINITY
                }
            }
        });
    }
    server.stop();
    account(&mut out, &logs);
    out.errors.extend(setup_errors);
    let queries = latencies(&logs, false, None);
    let evolves = latencies(&logs, true, None);
    let completed = logs
        .iter()
        .flat_map(|l| &l.requests)
        .filter(|r| r.1.is_finite())
        .count();
    out.readings.extend([
        setups.reading(),
        Reading::alias(
            "req_per_s",
            "work_per_s",
            "1/s",
            completed as f64 / wall,
            completed,
        ),
        Reading::info("query_p50_s", "s", median(&queries), queries.len()),
        Reading::info(
            "query_p99_s",
            "s",
            percentile(&queries, 0.99),
            queries.len(),
        ),
        Reading::info("evolve_p50_s", "s", median(&evolves), evolves.len()),
        Reading::info(
            "evolve_p90_s",
            "s",
            percentile(&evolves, 0.9),
            evolves.len(),
        ),
    ]);
    out
}

/// One replayed request's timings, in seconds.
struct Probe {
    evolve: bool,
    parse: f64,
    dispatch: f64,
    write: f64,
    /// The direct engine call (`/evolve` only).
    engine: f64,
}

/// The median of `f` over the probes of one class (`/evolve` or not), or
/// of all; 0 if there are none.
fn probe_median(probes: &[Probe], evolve: Option<bool>, f: impl Fn(&Probe) -> f64) -> f64 {
    let xs: Vec<f64> = probes
        .iter()
        .filter(|p| evolve.is_none_or(|e| p.evolve == e))
        .map(f)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&xs)
    }
}

/// What one replay thread measured, and each request's check.
struct Replay {
    probes: Vec<Probe>,
    checks: Vec<Result<(), String>>,
}

/// Replay connection `conn`'s schedule in-process for `seconds`: parse
/// the recorded bytes, dispatch, write the response into memory and, for
/// `/evolve`, call the engine directly.
fn replay(
    conn: usize,
    sched: &Schedule,
    state: &AppState,
    tracer: &Tracer,
    seconds: f64,
) -> Replay {
    let mut out = Replay {
        probes: Vec::new(),
        checks: Vec::new(),
    };
    let start = Instant::now();
    let mut k = 0usize;
    let mut round: Option<Round> = None;
    while out.probes.is_empty() || secs_since(start) < seconds {
        let (kind, idx) = sched.pick(conn, k);
        if k.is_multiple_of(sched.round) {
            if let Some(done) = round.take() {
                done.close(tracer, "server.probe.round");
            }
        }
        let nth = k / sched.round * CONNECTIONS + conn;
        let round = round.get_or_insert_with(|| Round::open(tracer, nth as u32));
        let bytes = sched.request(kind, idx);
        let op = (k * CONNECTIONS + conn) as u32;
        k += 1;
        let t0 = tracer.now();
        let parsed = read_request(&mut BufReader::new(bytes), state.config.max_body_bytes);
        let t1 = tracer.now();
        let Ok(request) = parsed else {
            out.checks.push(Err(format!(
                "{kind:?} #{idx}: recorded request does not parse"
            )));
            continue;
        };
        let response = dispatch(state, &request);
        let t2 = tracer.now();
        let mut wire = Vec::with_capacity(response.body.len() + 128);
        let written = response.write_to(&mut wire, false);
        let t3 = tracer.now();
        let mut checked = sched
            .check(kind, idx, response.status, &response.body)
            .and_then(|()| written.map_err(|e| e.to_string()));
        let mut engine = 0.0;
        if kind == Kind::Evolve {
            let req = &sched.evolves[idx].1;
            let e0 = tracer.now();
            let trials = rtl_evolve_batch_w::<u64>(&req.seeds, req.max_generations, req.threads);
            let e1 = tracer.now();
            engine = (e1 - e0) as f64 * 1e-9;
            for (layer, span) in [
                ("server.http.parse", (t0, t1)),
                ("server.dispatch.evolve", (t1, t2)),
                ("server.http.write", (t2, t3)),
                ("server.evolve_engine", (e0, e1)),
            ] {
                round.call(tracer, layer, op, span);
            }
            if checked.is_ok()
                && evolve_response(engine_label::<u64>(), req, &trials).as_bytes()
                    != sched.evolves[idx].2
            {
                checked = Err(format!("direct engine call for /evolve #{idx} differs"));
            }
        } else {
            round.add("server.http.parse", t0, t1, bytes.len() as u64);
            round.add("server.dispatch.query", t1, t2, 1);
            round.add("server.http.write", t2, t3, wire.len() as u64);
        }
        out.checks.push(checked);
        let s = |a: u64, b: u64| (b - a) as f64 * 1e-9;
        out.probes.push(Probe {
            evolve: kind == Kind::Evolve,
            parse: s(t0, t1),
            dispatch: s(t1, t2),
            write: s(t2, t3),
            engine,
        });
    }
    if let Some(done) = round {
        done.close(tracer, "server.probe.round");
    }
    out
}

/// The traced run: half the time the clients load the server, tracing
/// every other round; the other half replays the same request bytes
/// in-process on as many threads (see [`replay`]). Within a replayed
/// round the queries coalesce into one span per layer; each `/evolve`
/// keeps spans of its own. The medians come from every request's own
/// timings.
fn traced(
    args: &Args,
    sched: &Schedule,
    server: &ServerHandle,
    next: &mut [usize; CONNECTIONS],
    out: &mut Outcome,
) {
    let tracer = Tracer::new();
    let logs = load(server, sched, args.seconds / 2.0, Some(&tracer), next);
    account(out, &logs);
    let state = server.state();
    // the replay runs on as many threads as there are connections, so
    // its requests meet the same competition for the cores as served ones
    let replays: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let tracer = &tracer;
                scope.spawn(move || replay(conn, sched, state, tracer, args.seconds / 2.0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replay thread panicked"))
            .collect()
    });
    let mut probes = Vec::new();
    for r in replays {
        for checked in r.checks {
            out.op(checked);
        }
        probes.extend(r.probes);
    }
    let client_query = median(&latencies(&logs, false, Some(false)));
    let client_evolve = median(&latencies(&logs, true, Some(false)));
    let traced_query = median(&latencies(&logs, false, Some(true)));
    let in_process = |p: &Probe| p.parse + p.dispatch + p.write;
    let oracle = &state.oracle;
    let lookups = oracle.hits() + oracle.misses();
    let m = &state.metrics;
    let n = |evolve: Option<bool>| {
        probes
            .iter()
            .filter(|p| evolve.is_none_or(|e| p.evolve == e))
            .count()
    };
    out.readings.extend(
        [
            (
                "server.http.parse_s",
                probe_median(&probes, None, |p| p.parse),
                n(None),
            ),
            (
                "server.http.write_s",
                probe_median(&probes, None, |p| p.write),
                n(None),
            ),
            (
                "server.dispatch_s.query",
                probe_median(&probes, Some(false), |p| p.dispatch),
                n(Some(false)),
            ),
            (
                "server.dispatch_s.evolve",
                probe_median(&probes, Some(true), |p| p.dispatch),
                n(Some(true)),
            ),
            (
                "server.evolve_engine_s",
                probe_median(&probes, Some(true), |p| p.engine),
                n(Some(true)),
            ),
            (
                "server.transport_s.query",
                client_query - probe_median(&probes, Some(false), in_process),
                n(Some(false)),
            ),
            (
                "server.transport_s.evolve",
                client_evolve - probe_median(&probes, Some(true), in_process),
                n(Some(true)),
            ),
            (
                "server.oracle.hit_ratio",
                oracle.hits() as f64 / lookups.max(1) as f64,
                lookups as usize,
            ),
            (
                "server.responses_4xx",
                m.err_4xx.load(Ordering::Relaxed) as f64,
                1,
            ),
            (
                "server.responses_5xx",
                m.err_5xx.load(Ordering::Relaxed) as f64,
                1,
            ),
            ("trace.overhead_ratio", traced_query / client_query, n(None)),
        ]
        .map(|(name, value, samples)| Reading::layer(name, value, samples)),
    );
    out.readings.extend([
        Reading::info("client_query_p50_s", "s", client_query, n(Some(false))),
        Reading::info("client_evolve_p50_s", "s", client_evolve, n(Some(true))),
    ]);
    out.spans = tracer.spans();
}
