//! The per-request telemetry stream: every dispatched request is one
//! `server.request` event carrying its route label and status, and
//! `GET /metrics` reports the server's own counters only.
//!
//! The telemetry sink is process-global, so this suite is a test binary
//! of its own: no other test's requests can land in the stream it reads.

use leonardo_server::{ServerConfig, ServerHandle};
use leonardo_telemetry::json::Json;
use leonardo_telemetry::sink::{JsonlSink, SharedBuf};
use leonardo_telemetry::{self as tele, Level};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// One `GET` on a fresh connection the server closes after answering;
/// returns (status, body).
fn get(server: &ServerHandle, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n"
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head and body");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in `{head}`"));
    (status, body.to_string())
}

#[test]
fn every_request_is_one_server_request_event() {
    let stream = SharedBuf::new();
    let _session = tele::install(Arc::new(JsonlSink::new(stream.clone())), Level::Metric);
    let server = leonardo_server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0");

    // each event is emitted before its response is written, and every
    // request waits for its response, so the stream is in request order
    let mut want = vec![("GET /healthz", 200); 5];
    for _ in 0..5 {
        assert_eq!(get(&server, "/healthz").0, 200);
    }
    want.push(("unmatched", 404));
    assert_eq!(get(&server, "/no/such/route").0, 404);
    want.push(("GET /metrics", 200));
    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).expect("metrics body parses");
    assert!(metrics.get("telemetry").is_none(), "{body}");

    let text = stream.contents();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), want.len(), "{text}");
    for (line, (route, status)) in lines.iter().zip(&want) {
        let event = Json::parse(line).expect("event line parses");
        assert_eq!(
            event.get("name").and_then(Json::as_str),
            Some("server.request"),
            "{line}"
        );
        let fields = event.get("fields").expect("fields");
        assert_eq!(fields.get("route").and_then(Json::as_str), Some(*route));
        assert_eq!(fields.get("status").and_then(Json::as_u64), Some(*status));
    }
}
