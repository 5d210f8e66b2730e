//! Reflection-style check of the determinism contract: serialize a real
//! `CampaignReport::normalized()` to JSON, then walk the *value tree* and
//! assert every wall-clock-named field (`wall_*`, `*_us`, `*_ms`,
//! `*_us_cum`, `*_ms_cum`, `*_micros`) and every perf-counter field is
//! zero — whatever struct it lives in, at any nesting depth.
//!
//! This is the one guard of the zeroing contract (DESIGN.md §6; the
//! `schema-drift` lint rule that substring-matched `normalized()` bodies
//! is retired): it proves the zeroing actually happens on a populated
//! report, including fields added by future PRs — any new `*_us` field
//! that serializes nonzero after normalization fails here without any
//! test edit. A nested report struct only serializes if the campaign
//! produced one, so the test also asserts *by name* that the walk met every
//! wall-clock key the report types declare, and a non-empty `perf` subtree.

use std::collections::BTreeSet;

use dice_system::dice::{scenarios, Campaign};
use dice_system::netsim::{SimDuration, SimTime};
use serde_json::Value;

/// A wall-clock-named report field: a host-time measurement, which the
/// determinism contract requires `normalized()` to zero.
fn is_wall_clock_name(name: &str) -> bool {
    name.starts_with("wall_")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.ends_with("_us_cum")
        || name.ends_with("_ms_cum")
        || name.ends_with("_micros")
}

fn is_zero(v: &Value) -> bool {
    matches!(v, Value::U64(0) | Value::I64(0)) || matches!(v, Value::F64(f) if *f == 0.0)
}

/// Every wall-clock key a report type declares, and where it lives:
/// `CampaignReport` / `RoundReport` / `KindSummary` (`wall_us`, `wall_ms`),
/// `ClassDetection` (`*_cum` — serialized only once a class is detected)
/// and `SnapshotMetrics` (`wall_micros` — only once a cut is taken).
const DECLARED_WALL_KEYS: [&str; 5] = [
    "wall_us",
    "wall_ms",
    "wall_us_cum",
    "wall_ms_cum",
    "wall_micros",
];

/// What the walk verified: how many fields, and which keys.
#[derive(Default)]
struct Checked {
    fields: usize,
    wall_keys: BTreeSet<String>,
    perf_fields: usize,
}

/// Recursively check `v`, accumulating the dotted path for diagnostics
/// and recording the wall-clock and perf fields verified.
fn check(v: &Value, path: &str, in_perf: bool, checked: &mut Checked) {
    match v {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let child_path = format!("{path}.{key}");
                if is_wall_clock_name(key) || in_perf {
                    assert!(
                        is_zero(child),
                        "normalized() left `{child_path}` nonzero: {child:?}"
                    );
                    checked.fields += 1;
                    if in_perf {
                        checked.perf_fields += 1;
                    } else {
                        checked.wall_keys.insert(key.clone());
                    }
                }
                check(child, &child_path, in_perf || key == "perf", checked);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                check(child, &format!("{path}[{i}]"), in_perf, checked);
            }
        }
        _ => {}
    }
}

#[test]
fn normalized_report_zeroes_every_wall_clock_and_perf_field() {
    let mut sim = scenarios::mixed_bgp_gossip(9, true);
    sim.run_until(SimTime::from_nanos(12_000_000_000));
    let report = Campaign::new(&sim)
        .executions(32)
        .validate_top(4)
        .horizon(SimDuration::from_secs(30))
        .run(&mut sim)
        .expect("mixed campaign runs");

    // The raw report must actually measure something, or "all zeroed"
    // would be vacuous — and it must hold the nested shapes: a detection
    // (its cumulative clocks) and a round that paid for its cut.
    assert!(report.wall_us > 0, "raw report should carry wall time");
    assert!(
        report.detection.iter().any(|d| d.wall_us_cum > 0),
        "the campaign must detect a class, or ClassDetection never serializes"
    );
    assert!(
        report.rounds.iter().any(|r| r.snapshot.wall_micros > 0),
        "the campaign must take a cut, or SnapshotMetrics carries no wall time"
    );

    let json = serde_json::to_string(&report.normalized()).expect("serializes");
    let value: Value = serde_json::from_str(&json).expect("parses back");
    let mut checked = Checked::default();
    check(&value, "report", false, &mut checked);
    assert!(
        checked.fields >= 10,
        "expected to verify many wall-clock/perf fields, saw {}",
        checked.fields
    );
    for key in DECLARED_WALL_KEYS {
        assert!(
            checked.wall_keys.contains(key),
            "the walk never met `{key}` — the struct declaring it did not serialize (saw {:?})",
            checked.wall_keys
        );
    }
    assert!(
        checked.perf_fields > 0,
        "the `perf` subtree is empty — PerfCounters did not serialize"
    );
}
