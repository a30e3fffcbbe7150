//! Tiny-size runs of every workload, traced and untraced: the result
//! line has exactly the contract keys, and its metric names and units
//! are those `BENCHMARK.json` declares.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use leonardo_telemetry::json::Json;
use perfbench::host::Host;
use perfbench::{report, run, Args, Size, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_and_workloads_match_the_code() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 0.3,
                trace,
            };
            let outcome = run(&args, &Size::TINY);
            let label = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct(), "{label}: {:?}", outcome.errors);
            let line = Json::parse(&outcome.result_line(trace)).expect("result line is JSON");
            let Json::Obj(members) = &line else {
                panic!("{label}: result line is not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{label}"
            );
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert!(
                line.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{label}"
            );
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("{label}: no metrics object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{label} {name}"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let want = owned(if trace { &PER_LAYER } else { &END_TO_END });
            assert_eq!(printed, want, "{label}");
            // the readable report prints every measured metric with its
            // unit, and untraced runs measure every end-to-end metric
            let lines = report(&args, &Host::probe(std::path::Path::new(".")), &outcome);
            for (name, unit) in &want {
                let Some(r) = outcome
                    .readings
                    .iter()
                    .find(|r| r.metric == Some(name.as_str()))
                else {
                    assert!(trace, "{label}: {name} was not measured");
                    continue;
                };
                let shown = lines.iter().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.get(1) == Some(&r.name) && words.contains(&unit.as_str())
                });
                assert!(shown, "{label}: report lacks {name} [{unit}]");
            }
            if !trace {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{label}: end-to-end metric {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn simulated_totals_repeat_and_agree_across_widths() {
    let totals = |workload| {
        let args = Args {
            workload,
            seed: 11,
            seconds: 0.1,
            trace: true,
        };
        let outcome = run(&args, &Size::TINY);
        assert!(outcome.correct(), "{:?}", outcome.errors);
        let metrics = outcome.metrics(true);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.2)
                .expect("metric present")
        };
        (get("rtl.sim_cycles_op0"), get("rtl.generations_op0"))
    };
    let x64 = totals(Workload::GaX64);
    assert!(x64.0 > 0.0 && x64.1 > 0.0);
    assert_eq!(x64, totals(Workload::GaX64));
    assert_eq!(x64, totals(Workload::GaW512));
}
