//! The route registry: one [`RouteSpec`] per endpoint, in one place.
//!
//! The registry is load-bearing three times over: the dispatcher matches
//! requests against it (so an unlisted path can never reach a handler),
//! per-request telemetry takes its `&'static` route labels from it (the
//! telemetry [`Value::Str`](leonardo_telemetry::event::Value) payload
//! holds `&'static str` only), and the `analysis check` gate walks it to
//! verify that `docs/SERVER.md` documents every route's request and
//! response schema — implementation and documentation cannot silently
//! diverge because they share this single source of truth.

/// One endpoint's contract surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSpec {
    /// HTTP method (`GET` / `POST`).
    pub method: &'static str,
    /// Exact request path (no trailing slash, no templating).
    pub path: &'static str,
    /// The `METHOD /path` label used in telemetry events and manifest
    /// rows.
    pub label: &'static str,
    /// One sentence of what the endpoint does.
    pub summary: &'static str,
    /// Whether the endpoint reads a JSON request body.
    pub has_request_body: bool,
    /// Query parameter names the endpoint understands.
    pub query_params: &'static [&'static str],
    /// Whether the response body is deterministic — a pure function of
    /// the request. `false` only for observability endpoints that report
    /// wall-clock or request history.
    pub deterministic: bool,
}

/// Every route the server serves, in documentation order.
pub const fn route_specs() -> &'static [RouteSpec] {
    &[
        RouteSpec {
            method: "POST",
            path: "/evolve",
            label: "POST /evolve",
            summary: "run seeded GA trials on the bit-sliced batch engines",
            has_request_body: true,
            query_params: &[],
            deterministic: true,
        },
        RouteSpec {
            method: "GET",
            path: "/landscape",
            label: "GET /landscape",
            summary: "query the exhaustive fitness-landscape oracle",
            has_request_body: false,
            query_params: &["bits", "genome"],
            deterministic: true,
        },
        RouteSpec {
            method: "GET",
            path: "/campaign",
            label: "GET /campaign",
            summary: "run a seeded fault-injection campaign with its recovery oracle",
            has_request_body: false,
            query_params: &[
                "model",
                "rate",
                "lanes",
                "max_generations",
                "engine",
                "dwell",
                "seed",
            ],
            deterministic: true,
        },
        RouteSpec {
            method: "GET",
            path: "/healthz",
            label: "GET /healthz",
            summary: "liveness probe with the server's static capability facts",
            has_request_body: false,
            query_params: &[],
            deterministic: true,
        },
        RouteSpec {
            method: "GET",
            path: "/metrics",
            label: "GET /metrics",
            summary: "request counters and latency aggregates",
            has_request_body: false,
            query_params: &[],
            deterministic: false,
        },
    ]
}

/// Find the spec for `path`, regardless of method.
pub fn spec_for_path(path: &str) -> Option<&'static RouteSpec> {
    route_specs().iter().find(|s| s.path == path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for spec in route_specs() {
            assert!(matches!(spec.method, "GET" | "POST"), "{}", spec.label);
            assert!(spec.path.starts_with('/'), "{}", spec.label);
            assert_eq!(
                spec.label,
                format!("{} {}", spec.method, spec.path),
                "label must be `METHOD /path`"
            );
            assert!(!spec.summary.is_empty());
            assert_eq!(spec.has_request_body, spec.method == "POST");
        }
        // paths are unique — the dispatcher relies on it
        let mut paths: Vec<_> = route_specs().iter().map(|s| s.path).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), route_specs().len());
    }

    #[test]
    fn path_lookup() {
        assert_eq!(spec_for_path("/evolve").unwrap().method, "POST");
        assert!(spec_for_path("/nope").is_none());
    }
}
