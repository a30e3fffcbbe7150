//! The `leonardo-server` binary: bind, serve, run until killed.
//!
//! ```text
//! leonardo-server [--addr 127.0.0.1:7878] [--threads 0] [--telemetry PATH]
//! ```
//!
//! With `--telemetry PATH` every request is appended to a JSONL event
//! stream (`server.request` events). The stream is written through, one
//! `write_all` per event: the server runs until it is killed, so nothing
//! would ever flush a buffer.

#![forbid(unsafe_code)]

use leonardo_exec::arg_or;
use leonardo_server::ServerConfig;
use leonardo_telemetry as tele;
use std::sync::Arc;

fn main() {
    let config = ServerConfig {
        addr: arg_or("--addr", "127.0.0.1:7878".to_string()),
        threads: arg_or("--threads", 0usize),
        ..ServerConfig::default()
    };

    // hold the telemetry session guard for the life of the process
    let telemetry_path: String = arg_or("--telemetry", String::new());
    let _guard = if telemetry_path.is_empty() {
        None
    } else {
        let file = match std::fs::File::create(&telemetry_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot open telemetry stream {telemetry_path}: {e}");
                std::process::exit(1);
            }
        };
        let jsonl = Arc::new(tele::sink::JsonlSink::new(file));
        Some(tele::install(jsonl, tele::Level::Metric))
    };

    let handle = match leonardo_server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // the CI smoke step greps for this exact line to learn the port
    println!("leonardo-server listening on http://{}", handle.addr());

    // no signal handling without external crates: serve until killed
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
