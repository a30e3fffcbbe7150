//! The reactor: a blocking accept loop feeding connection jobs to a
//! [`leonardo_exec::WorkerPool`].
//!
//! No async runtime exists in this workspace (the no-new-dependencies
//! rule), and none is needed at this service's scale: each accepted
//! connection becomes one pool job that reads requests off the socket in
//! a keep-alive loop and dispatches them through the route registry.
//! Handler panics are caught per request and answered as 500s, so one
//! bad request cannot take down a connection, let alone the server.
//! `ServerHandle::stop` unblocks the accept loop with a self-connect —
//! the listener stays in plain blocking mode throughout.

use crate::api::{ApiError, ErrorCode};
use crate::handlers;
use crate::http::{read_request, ReadError, Response, DEFAULT_MAX_BODY_BYTES};
use crate::oracle::LandscapeOracle;
use crate::routes::{route_specs, spec_for_path};
use discipulus::fitness::FitnessSpec;
use leonardo_telemetry as tele;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Everything tunable about a server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection worker threads (0 = one per available core, capped
    /// at 8).
    pub threads: usize,
    /// Request body cap in bytes; larger declared bodies get a 413.
    pub max_body_bytes: usize,
    /// Most trials one `/evolve` request may run.
    pub max_evolve_trials: usize,
    /// Largest `/evolve` generation budget.
    pub max_evolve_generations: u64,
    /// Largest `/campaign` generation budget.
    pub max_campaign_generations: u64,
    /// When set, `/metrics` additionally reports this aggregator's view
    /// of the telemetry stream (the binary wires one up; embedded test
    /// servers usually run without).
    pub aggregator: Option<Arc<tele::sink::Aggregator>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            max_evolve_trials: 4096,
            max_evolve_generations: 1_000_000,
            max_campaign_generations: 200_000,
            aggregator: None,
        }
    }
}

/// Monotonic request counters, readable via `GET /metrics`.
pub struct Metrics {
    /// Requests dispatched per registered route (indexed like
    /// [`route_specs`]).
    pub per_route: Vec<AtomicU64>,
    /// Requests that matched no route (404s and 405s).
    pub unmatched: AtomicU64,
    /// Responses by status class.
    pub ok_2xx: AtomicU64,
    /// 4xx responses.
    pub err_4xx: AtomicU64,
    /// 5xx responses.
    pub err_5xx: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            per_route: route_specs().iter().map(|_| AtomicU64::new(0)).collect(),
            unmatched: AtomicU64::new(0),
            ok_2xx: AtomicU64::new(0),
            err_4xx: AtomicU64::new(0),
            err_5xx: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        }
    }

    fn record(&self, route_idx: Option<usize>, status: u16) {
        match route_idx {
            Some(i) => self.per_route[i].fetch_add(1, Ordering::Relaxed),
            None => self.unmatched.fetch_add(1, Ordering::Relaxed),
        };
        let class = match status {
            200..=299 => &self.ok_2xx,
            400..=499 => &self.err_4xx,
            _ => &self.err_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared state every handler sees.
pub struct AppState {
    /// The configuration the server started with.
    pub config: ServerConfig,
    /// The closed-form landscape oracle.
    pub oracle: LandscapeOracle,
    /// Request counters.
    pub metrics: Metrics,
}

/// A running server: its bound address and the stop control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    state: Arc<AppState>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests read the metrics and oracle through it).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stop accepting, drain in-flight connections, join the threads.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // unblock the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind, spawn the reactor, return the handle.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let threads = match config.threads {
        0 => leonardo_exec::available_threads().min(8),
        t => t,
    };
    let state = Arc::new(AppState {
        oracle: LandscapeOracle::new(FitnessSpec::paper()),
        metrics: Metrics::new(),
        config,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
        std::thread::spawn(move || {
            // the pool lives (and on return drains + joins) inside the
            // accept thread, so ServerHandle::stop's join waits for
            // in-flight connections too
            let pool = leonardo_exec::WorkerPool::new(threads);
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // responses are single small packets; waiting for ACKs
                // to coalesce them would cost ~40 ms per request
                let _ = stream.set_nodelay(true);
                state.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let state = Arc::clone(&state);
                pool.submit(move || serve_connection(&state, stream));
            }
        })
    };
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        state,
    })
}

/// The per-connection keep-alive loop.
fn serve_connection(state: &AppState, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, state.config.max_body_bytes) {
            Ok(r) => r,
            // clean end of a keep-alive session, or the peer vanished
            // mid-request: nothing is owed either way
            Err(ReadError::Closed) | Err(ReadError::Disconnected(_)) => return,
            Err(e) => {
                let api = match e {
                    ReadError::Malformed(why) => ApiError::new(ErrorCode::BadRequest, why),
                    ReadError::HeadTooLarge => ApiError::new(
                        ErrorCode::HeadTooLarge,
                        "request head exceeds the 8 KiB cap",
                    ),
                    ReadError::BodyTooLarge(n) => ApiError::new(
                        ErrorCode::PayloadTooLarge,
                        format!(
                            "declared body of {n} bytes exceeds the {}-byte cap",
                            state.config.max_body_bytes
                        ),
                    ),
                    _ => unreachable!("disconnects handled above"),
                };
                let response = Response::json(api.code.status(), api.body());
                state.metrics.record(None, response.status);
                // the body was never read, so the connection is out of
                // sync: answer and close
                let _ = response.write_to(&mut write_half, true);
                return;
            }
        };
        let close = request.wants_close();
        let response = dispatch(state, &request);
        if response.write_to(&mut write_half, close).is_err() || close {
            return;
        }
    }
}

/// Route one request: registry match, panic isolation, telemetry.
pub fn dispatch(state: &AppState, request: &crate::http::Request) -> Response {
    let start = std::time::Instant::now();
    let spec = spec_for_path(&request.path);
    let (route_idx, label) = match spec {
        Some(s) => (route_specs().iter().position(|r| r.path == s.path), s.label),
        None => (None, "unmatched"),
    };
    let response = match spec {
        None => {
            let e = ApiError::new(
                ErrorCode::NotFound,
                format!("no route matches `{}`", request.path),
            );
            Response::json(e.code.status(), e.body())
        }
        Some(s) if s.method != request.method => {
            let e = ApiError::new(
                ErrorCode::MethodNotAllowed,
                format!("`{}` requires {}", s.path, s.method),
            );
            Response::json(e.code.status(), e.body())
        }
        Some(s) => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handlers::handle(state, s.path, request)
            }));
            match outcome {
                Ok(Ok(body)) => Response::json(200, body),
                Ok(Err(e)) => Response::json(e.code.status(), e.body()),
                Err(_) => {
                    let e = ApiError::new(ErrorCode::Internal, "handler panicked");
                    Response::json(e.code.status(), e.body())
                }
            }
        }
    };
    state.metrics.record(route_idx, response.status);
    if tele::enabled_at(tele::Level::Metric) {
        tele::emit(
            tele::Level::Metric,
            "server.request",
            &[
                ("route", label.into()),
                ("status", u64::from(response.status).into()),
                ("micros", (start.elapsed().as_micros() as u64).into()),
                ("bytes", (response.body.len() as u64).into()),
            ],
        );
    }
    response
}
