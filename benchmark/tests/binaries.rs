//! The two binaries, driven the way the driver and `run.sh` drive them:
//! the last line of standard output is the contract's JSON object, records
//! land under `--out`, one seed reproduces its digest and exact metrics,
//! another seed does not, and `compare` reads what runs wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dice_benchmark::metrics::{END_TO_END, PER_LAYER};
use serde_json::Value;

const E2E: &str = env!("CARGO_BIN_EXE_dice-benchmark");
const TRACE: &str = env!("CARGO_BIN_EXE_dice-benchmark-trace");

/// A fresh directory under the test target directory (tests run in
/// parallel and must not share files).
fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the test output directory");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8");
    let line = stdout.lines().last().expect("prints at least one line");
    serde_json::parse_value(line).expect("the last line is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn record(dir: &Path, file: &str) -> Value {
    let text = std::fs::read_to_string(dir.join(file)).expect("record written");
    serde_json::parse_value(&text).expect("record is JSON")
}

#[test]
fn end_to_end_run_prints_the_contract_line_and_repeats_exactly() {
    let dir = out_dir("e2e");
    let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
    let invoke = |seed: &str, out: &Path| {
        run(
            E2E,
            &[
                "--workload",
                "nemesis_detect",
                "--seed",
                seed,
                "--sweeps",
                "12",
                "--trace",
                "0",
                "--out",
                out.to_str().expect("utf-8 path"),
            ],
        )
    };
    let first = invoke("5", &a);
    assert!(first.status.success(), "{first:?}");
    let line = last_line(&first);
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["correct"], Value::Bool(true));
    assert_eq!(line["attempted"], Value::U64(12));
    assert_eq!(line["failed"], Value::U64(0));
    let listed: Vec<&str> = END_TO_END
        .iter()
        .filter(|d| d.everywhere)
        .map(|d| d.name)
        .collect();
    assert_eq!(keys(&line["metrics"]), listed);
    for name in &listed {
        let entry = &line["metrics"][*name];
        assert_eq!(keys(entry), ["value", "unit"], "{name}");
        assert!(
            matches!(entry["value"], Value::F64(v) if v > 0.0)
                || matches!(entry["value"], Value::U64(v) if v > 0),
            "{name} must be a non-zero number: {entry:?}"
        );
    }
    // One `workload metric value unit` line per catalogue metric.
    let stdout = String::from_utf8(first.stdout.clone()).expect("utf-8");
    for d in END_TO_END {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("nemesis_detect {} ", d.name))
                    && l.ends_with(&format!(" {}", d.unit))),
            "no line for {}",
            d.name
        );
    }

    assert!(invoke("5", &b).status.success());
    assert!(invoke("6", &c).status.success());
    let (ra, rb, rc) = (
        record(&a, "nemesis_detect.json"),
        record(&b, "nemesis_detect.json"),
        record(&c, "nemesis_detect.json"),
    );
    assert_eq!(ra["normalized_sha256"], rb["normalized_sha256"]);
    assert_ne!(ra["normalized_sha256"], rc["normalized_sha256"]);
    for d in END_TO_END.iter().filter(|d| d.exact) {
        assert_eq!(
            ra["metrics"][d.name]["value"], rb["metrics"][d.name]["value"],
            "{} must repeat exactly for one seed",
            d.name
        );
    }
    assert_ne!(
        ra["metrics"]["coverage_union_mean"]["value"],
        rc["metrics"]["coverage_union_mean"]["value"]
    );
    assert_eq!(ra["metrics"]["failed_share"]["value"], Value::U64(0));
    assert!(matches!(ra["details"]["frames_dropped"], Value::U64(n) if n > 0));

    // `compare` reads the records back: same seed → exact rows `same`.
    let same = run(
        E2E,
        &[
            "compare",
            a.to_str().expect("utf-8"),
            b.to_str().expect("utf-8"),
        ],
    );
    let table = String::from_utf8(same.stdout.clone()).expect("utf-8");
    assert!(same.status.success(), "{table}");
    assert!(table.contains("nemesis_detect | normalized_sha256 | | | | | == | same"));
    assert!(table.contains("nemesis_detect | detect_share | ratio |"));
    assert!(table.contains("| == | same\n"));
    assert!(!table.contains("REGRESSED"));
    // A single run per set resolves no timing row.
    assert!(table
        .lines()
        .filter(|l| l.contains("| rounds_per_s |"))
        .all(|l| l.ends_with("unresolved") || l.ends_with("better")));
    let missing = run(
        E2E,
        &["compare", a.to_str().expect("utf-8"), "/nonexistent"],
    );
    assert_eq!(missing.status.code(), Some(2));
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_its_spans() {
    let dir = out_dir("trace");
    let out = run(
        TRACE,
        &[
            "--workload",
            "nemesis_detect",
            "--seed",
            "5",
            "--sweeps",
            "4",
            "--trace",
            "1",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let line = last_line(&out);
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["correct"], Value::Bool(true));
    assert_eq!(line["attempted"], Value::U64(4));
    let listed: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(keys(&line["metrics"]), listed);
    for name in &listed {
        assert!(
            matches!(
                line["metrics"][*name]["value"],
                Value::F64(_) | Value::U64(_)
            ),
            "{name} must be a number: {:?}",
            line["metrics"][*name]
        );
    }
    // The counting allocator is installed in this binary.
    assert!(matches!(line["metrics"]["alloc.explore_per_exec"]["value"], Value::F64(v) if v > 1.0));
    // The workload is what it claims to be: exploration-bound.
    assert!(
        matches!(line["metrics"]["round.share.concolic.explore"]["value"], Value::F64(v) if v > 0.5)
    );

    let spans = record(&dir, "trace-nemesis_detect.json");
    let Value::Array(spans) = spans else {
        panic!("span dump must be an array")
    };
    let named = |n: &str| spans.iter().filter(|s| s["name"] == *n).count();
    assert_eq!(named("sweep"), 4);
    assert_eq!(named("round"), 12);
    assert_eq!(named("concolic.explore"), 12);
    assert_eq!(named("concolic.twin_replay"), 12);
    assert!(named("validate") > 12 && named("netsim.sim.drive") == named("validate"));
    let round = spans
        .iter()
        .find(|s| s["name"] == *"round")
        .expect("a round span");
    assert_eq!(
        keys(round),
        ["id", "parent", "round", "name", "start_ns", "end_ns"]
    );
    assert_eq!(record(&dir, "layers-nemesis_detect.json")["kind"], "trace");
}

#[test]
fn misuse_exits_non_zero_without_a_result_line() {
    for (bin, args) in [
        (E2E, vec!["--workload", "demo27_sweep", "--trace", "1"]),
        (TRACE, vec!["--workload", "demo27_sweep", "--trace", "0"]),
        (E2E, vec!["--workload", "no_such_workload"]),
        (E2E, vec![]),
    ] {
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: "));
    }
}
