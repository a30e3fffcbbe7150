//! # leonardo-server — evolution as a service
//!
//! The repo's batch engines answer three kinds of question: *evolve*
//! (seeded GA runs on the bit-sliced [`GapRtlXW`] engines, via the RTL
//! crate's lane-refill driver), *landscape* (exact oracle queries over
//! the 2³⁶ fitness landscape, answered in closed form), and *campaign*
//! (seeded fault-injection runs through the differential recovery
//! oracle). This
//! crate puts those behind a documented HTTP/JSON surface —
//! `POST /evolve`, `GET /landscape`, `GET /campaign`, plus `GET /healthz`
//! and `GET /metrics` for operability — served by a hand-rolled
//! HTTP/1.1 reactor (a blocking accept loop feeding a
//! [`leonardo_exec::WorkerPool`]; no async runtime exists in this
//! workspace and none is needed).
//!
//! The load-bearing property is **determinism**: every compute endpoint
//! is a pure function of its request. Same request ⇒ byte-identical
//! response body, for any server thread count and any engine width —
//! because the handlers reuse the exact deterministic drivers the CLI
//! experiments run ([`leonardo_rtl::driver::rtl_evolve_batch_w`], the
//! landscape crate's closed form, [`Campaign`]), and bodies render
//! through the telemetry [`Json`](leonardo_telemetry::json::Json) tree
//! with insertion-ordered keys. A served `/evolve` is bit-identical to a direct driver call —
//! pinned by integration tests and golden files.
//!
//! Module map: [`http`] (the wire protocol), [`routes`] (the registry
//! that dispatch, telemetry and the `analysis` doc lint all share),
//! [`api`] (typed request/response bodies), [`oracle`] (the closed-form
//! landscape oracle), [`handlers`] (one function per route), [`server`]
//! (the reactor). Full API reference with curl examples: `docs/SERVER.md`.
//!
//! [`GapRtlXW`]: leonardo_rtl::bitslice::GapRtlXW
//! [`Campaign`]: leonardo_faults::campaign::Campaign

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod handlers;
pub mod http;
pub mod oracle;
pub mod routes;
pub mod server;

pub use routes::{route_specs, RouteSpec};
pub use server::{start, AppState, ServerConfig, ServerHandle};
