//! `BENCHMARK.json` is what the driver reads; `metrics.rs` and
//! `workloads.rs` are what the binaries print. This test keeps the two from
//! drifting apart, and holds the file to the limits of the driver's
//! contract so a bad edit fails here rather than at submission.

use std::path::Path;

use dice_benchmark::metrics::{END_TO_END, PER_LAYER};
use dice_benchmark::workloads::Workload;
use serde_json::Value;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    serde_json::parse_value(&text).expect("BENCHMARK.json is valid JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("expected a number, found {other:?}"),
    }
}

#[test]
fn top_level_has_exactly_the_contract_keys() {
    let m = manifest();
    let mut got = keys(&m);
    got.sort_unstable();
    assert_eq!(
        got,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = number(&m["run_seconds"]);
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 × workloads runs, two builds and every set-up in 3420 s: the
    // run length must leave room (README, "Time budget").
    let runs = 4.0 + 22.0 * items(&m["workloads"]).len() as f64;
    assert!(
        runs * (seconds + 6.0) + 300.0 <= 3420.0,
        "{runs} runs of {seconds} s do not fit the driver's time cap"
    );
}

#[test]
fn command_and_paths_stay_inside_the_benchmark_directory() {
    let m = manifest();
    let paths: Vec<&str> = items(&m["paths"]).iter().map(text).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = items(&m["command"]).iter().map(text).collect();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    // Every file the command names lives under `paths` and exists.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for arg in command.iter().filter(|a| a.contains('/')) {
        assert!(arg.starts_with("benchmark/"), "{arg} is outside paths");
        assert!(root.join(arg).is_file(), "{arg} does not exist");
    }
}

#[test]
fn workloads_match_the_code() {
    let m = manifest();
    let listed: Vec<(&str, &str)> = items(&m["workloads"])
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (text(&w["name"]), text(&w["why"]))
        })
        .collect();
    let coded: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(listed, coded);
}

#[test]
fn end_to_end_metrics_match_the_catalogue() {
    let m = manifest();
    let listed: Vec<(&str, &str, &str, f64)> = items(&m["end_to_end"])
        .iter()
        .map(|e| {
            assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
            (
                text(&e["name"]),
                text(&e["unit"]),
                text(&e["better"]),
                number(&e["bound"]),
            )
        })
        .collect();
    let coded: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .filter(|d| d.everywhere)
        .map(|d| (d.name, d.unit, d.better.as_str(), d.bound))
        .collect();
    assert_eq!(listed, coded);
}

#[test]
fn per_layer_metrics_match_the_catalogue() {
    let m = manifest();
    let listed: Vec<(&str, &str, &str)> = items(&m["per_layer"])
        .iter()
        .map(|e| {
            assert_eq!(keys(e), ["name", "unit", "better"]);
            (text(&e["name"]), text(&e["unit"]), text(&e["better"]))
        })
        .collect();
    let coded: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|d| (d.name, d.unit, d.better.as_str()))
        .collect();
    assert_eq!(listed, coded);
}
