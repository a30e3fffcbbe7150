//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a readable report, one BENCH
//! record line and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `perfbench/out/<workload>-seed<n>.trace.jsonl`.

use perfbench::{host::Host, report, run, Args, Size};
use std::path::{Path, PathBuf};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <ga_x64|ga_w512|sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let host = Host::probe(Path::new("."));
    let outcome = run(&args, &Size::FULL);
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = perfbench::trace::write_jsonl(&outcome.spans, &path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    for line in report(&args, &host, &outcome) {
        println!("{line}");
    }
    println!("{}", outcome.result_line(args.trace));
}
