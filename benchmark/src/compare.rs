//! `compare <set-a> <set-b>`: judge two sets of end-to-end records by the
//! benchmark's own bounds. A set is a directory (searched recursively) of
//! `out/*.json` records, usually ten interleaved runs per workload made by
//! `run.sh`. One row per (workload, metric): both medians and quartiles,
//! the change, the bound and a verdict.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::metrics::{Better, EndToEndDef, RunKind, END_TO_END};
use crate::stats;
use crate::workloads::Workload;

/// What a (workload, metric) pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, equal medians.
    Same,
    /// Exact metric, medians differ for the better.
    ExactBetter,
    /// Exact metric, medians differ for the worse.
    ExactWorse,
    /// Median of B no worse than A's by more than the bound, and the
    /// sets' own spread is within the bound.
    Unchanged,
    /// Every run of B reads better than every run of A.
    Better,
    /// Median of B worse than A's by more than the bound (and, where the
    /// spread exceeds the bound, every run of B worse than every run of A).
    Regressed,
    /// The sets' own spread exceeds the bound (or a set has a single run):
    /// the pair resolves neither way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::ExactBetter => "differs-better",
            Verdict::ExactWorse => "DIFFERS-WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }

    fn is_regression(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::ExactWorse)
    }
}

/// How much worse `b` is than `a`, as a share of `a`, signed so that
/// positive is worse whatever the metric's direction.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge one metric on one workload from the two sets' samples.
pub fn judge(def: &EndToEndDef, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let worse = worse_by(def.better, ma, mb);
    if def.exact {
        return Some(if ma == mb {
            Verdict::Same
        } else if worse > 0.0 {
            Verdict::ExactWorse
        } else {
            Verdict::ExactBetter
        });
    }
    // One run says nothing about a set's own spread: no timing verdict.
    let (Some(spread_a), Some(spread_b)) = (stats::spread(a), stats::spread(b)) else {
        return Some(Verdict::Unresolved);
    };
    let every_pair = |pred: fn(f64) -> bool| {
        a.iter()
            .all(|&x| b.iter().all(|&y| pred(worse_by(def.better, x, y))))
    };
    if every_pair(|w| w < 0.0) {
        return Some(Verdict::Better);
    }
    let resolved = spread_a.max(spread_b) <= def.bound;
    Some(
        if worse > def.bound && (resolved || every_pair(|w| w > 0.0)) {
            Verdict::Regressed
        } else if resolved {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        },
    )
}

/// The end-to-end records under one set directory.
#[derive(Debug, Default)]
pub struct RecordSet {
    /// Samples per (workload name, metric name).
    pub samples: BTreeMap<(String, String), Vec<f64>>,
    /// `(seed, sweeps, digest)` per workload name, one entry per record.
    pub digests: BTreeMap<String, Vec<(u64, u64, String)>>,
    /// Records read.
    pub records: usize,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

impl RecordSet {
    /// Fold one parsed record in; anything that is not an end-to-end
    /// record is ignored.
    pub fn absorb(&mut self, record: &Value) {
        if record["kind"] != *RunKind::EndToEnd.as_str() {
            return;
        }
        let Value::String(workload) = &record["workload"] else {
            return;
        };
        let Value::Object(metrics) = &record["metrics"] else {
            return;
        };
        self.records += 1;
        for (name, entry) in metrics.iter() {
            if let Some(v) = number(&entry["value"]) {
                self.samples
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        if let Value::String(digest) = &record["normalized_sha256"] {
            let seed = number(&record["seed"]).unwrap_or(-1.0) as u64;
            let sweeps = number(&record["details"]["sweeps"]).unwrap_or(-1.0) as u64;
            self.digests
                .entry(workload.clone())
                .or_default()
                .push((seed, sweeps, digest.clone()));
        }
    }

    /// Read every `*.json` under `dir`, recursively. Span dumps
    /// (`trace-*.json`) are skipped unread: they are large and carry no
    /// metrics.
    pub fn load(dir: &Path) -> Result<RecordSet, String> {
        let mut set = RecordSet::default();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(d) = pending.pop() {
            let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
            for entry in entries {
                let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if path.is_dir() {
                    pending.push(path);
                } else if name.ends_with(".json") && !name.starts_with("trace-") {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let record = serde_json::parse_value(&text)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    set.absorb(&record);
                }
            }
        }
        if set.records == 0 {
            return Err(format!("{}: no end-to-end records found", dir.display()));
        }
        Ok(set)
    }
}

fn quartile_cell(samples: &[f64]) -> String {
    let median = stats::median(samples).expect("callers pass non-empty samples");
    match stats::quartiles(samples) {
        Some((q1, _, q3)) => format!("{median:.4} [{q1:.4}, {q3:.4}] n={}", samples.len()),
        None => format!("{median:.4} n=1"),
    }
}

/// Render the comparison table; the flag says whether any pair regressed.
pub fn render(a: &RecordSet, b: &RecordSet) -> (String, bool) {
    let mut out = String::from(
        "workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B worse by | bound | verdict\n\
         ---|---|---|---|---|---|---|---\n",
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for def in END_TO_END {
            let key = (workload.name().to_string(), def.name.to_string());
            let (Some(sa), Some(sb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                continue;
            };
            let Some(verdict) = judge(def, sa, sb) else {
                continue;
            };
            regressed |= verdict.is_regression();
            let worse = worse_by(
                def.better,
                stats::median(sa).expect("judged"),
                stats::median(sb).expect("judged"),
            );
            let bound = if def.exact {
                "==".to_string()
            } else {
                format!("{:.0}%", def.bound * 100.0)
            };
            out.push_str(&format!(
                "{} | {} | {} | {} | {} | {:+.2}% | {} | {}\n",
                workload.name(),
                def.name,
                def.unit,
                quartile_cell(sa),
                quartile_cell(sb),
                worse * 100.0,
                bound,
                verdict.as_str()
            ));
        }
        // Digests are comparable between records of one seed and length.
        let (Some(da), Some(db)) = (
            a.digests.get(workload.name()),
            b.digests.get(workload.name()),
        ) else {
            continue;
        };
        let comparable: Vec<bool> = da
            .iter()
            .flat_map(|x| db.iter().map(move |y| (x, y)))
            .filter(|(x, y)| (x.0, x.1) == (y.0, y.1))
            .map(|(x, y)| x.2 == y.2)
            .collect();
        let verdict = if comparable.is_empty() {
            "not comparable (no records share seed and sweep count)"
        } else if comparable.iter().all(|&same| same) {
            "same"
        } else {
            regressed = true;
            "DIFFERS: same inputs, different normalized reports"
        };
        out.push_str(&format!(
            "{} | normalized_sha256 | | | | | == | {verdict}\n",
            workload.name()
        ));
    }
    (out, regressed)
}

/// The `compare` subcommand. `Err` = could not compare; otherwise prints
/// the table and fails (exit 1) when a pair regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (RecordSet::load(a)?, RecordSet::load(b)?);
    let (table, regressed) = render(&a, &b);
    print!("{table}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEndDef {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("catalogue")
    }

    /// Ten samples around `centre`, interquartile spread ≈ `spread`.
    fn set(centre: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + spread * (i as f64 - 4.5) / 5.5))
            .collect()
    }

    /// A tight set whose median is `by` worse than 100 for metric `d`.
    fn worse(d: &EndToEndDef, by: f64) -> Vec<f64> {
        match d.better {
            Better::Higher => set(100.0 * (1.0 - by), 0.02),
            Better::Lower => set(100.0 * (1.0 + by), 0.02),
        }
    }

    #[test]
    fn tight_sets_resolve_both_ways() {
        let a = set(100.0, 0.02);
        for name in ["rounds_per_s", "sweep_ms_p50"] {
            let d = def(name);
            assert_eq!(judge(d, &a, &worse(d, -0.01)), Some(Verdict::Unchanged));
            assert_eq!(
                judge(d, &a, &worse(d, d.bound - 0.03)),
                Some(Verdict::Unchanged),
                "{name}: worse, but inside the bound"
            );
            assert_eq!(
                judge(d, &a, &worse(d, d.bound + 0.03)),
                Some(Verdict::Regressed),
                "{name}"
            );
            assert_eq!(judge(d, &a, &worse(d, -0.2)), Some(Verdict::Better));
        }
    }

    #[test]
    fn noisy_sets_are_unresolved_not_unchanged() {
        let d = def("rounds_per_s");
        let noisy = set(100.0, 2.0 * d.bound);
        assert_eq!(
            judge(d, &noisy, &set(97.0, 2.0 * d.bound)),
            Some(Verdict::Unresolved)
        );
        // … unless every run of B is on one side of every run of A.
        assert_eq!(
            judge(d, &noisy, &set(25.0, 2.0 * d.bound)),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            judge(d, &noisy, &set(400.0, 2.0 * d.bound)),
            Some(Verdict::Better)
        );
        // One run per set has no spread to speak of.
        assert_eq!(judge(d, &[100.0], &[99.0]), Some(Verdict::Unresolved));
        assert_eq!(
            judge(d, &[100.0, 101.0], &[50.0]),
            Some(Verdict::Unresolved)
        );
        assert_eq!(judge(d, &[], &[99.0]), None);
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let d = def("coverage_union_mean"); // higher is better
        assert_eq!(judge(d, &[12.5, 12.5], &[12.5]), Some(Verdict::Same));
        assert_eq!(judge(d, &[12.5], &[12.500001]), Some(Verdict::ExactBetter));
        assert_eq!(judge(d, &[12.5], &[12.4]), Some(Verdict::ExactWorse));
        let d = def("failed_share"); // lower is better, 0 when all is well
        assert_eq!(judge(d, &[0.0], &[0.0]), Some(Verdict::Same));
        assert_eq!(judge(d, &[0.0], &[0.01]), Some(Verdict::ExactWorse));
    }

    fn record(workload: &str, seed: u64, rounds_per_s: f64, digest: &str) -> Value {
        serde_json::json!({
            "kind": "end_to_end",
            "workload": workload,
            "seed": seed,
            "normalized_sha256": digest,
            "metrics": serde_json::json!({
                "rounds_per_s": serde_json::json!({"value": rounds_per_s, "unit": "rounds/s"}),
                "detect_share": serde_json::json!({"value": Value::Null, "unit": "ratio"})
            }),
            "details": serde_json::json!({"sweeps": 5})
        })
    }

    #[test]
    fn table_has_a_row_per_measured_pair_and_flags_digest_drift() {
        let mut a = RecordSet::default();
        let mut b = RecordSet::default();
        for i in 0..10 {
            a.absorb(&record("demo27_sweep", 1, 70.0 + i as f64 * 0.1, "aa"));
            b.absorb(&record("demo27_sweep", 1, 50.0 + i as f64 * 0.1, "aa"));
        }
        // Not an end-to-end record: ignored.
        a.absorb(&serde_json::json!({"kind": "trace", "workload": "demo27_sweep"}));
        assert_eq!(a.records, 10);
        let (table, regressed) = render(&a, &b);
        assert!(regressed);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(rows.len(), 2, "{table}");
        assert!(rows[0].starts_with("demo27_sweep | rounds_per_s | rounds/s | 70.45"));
        assert!(rows[0].ends_with("| 25% | REGRESSED"), "{}", rows[0]);
        assert!(rows[1].ends_with("| == | same"), "{}", rows[1]);

        let mut c = RecordSet::default();
        c.absorb(&record("demo27_sweep", 1, 70.0, "bb"));
        c.absorb(&record("demo27_sweep", 2, 70.0, "cc"));
        let (table, regressed) = render(&a, &c);
        assert!(regressed && table.contains("DIFFERS: same inputs"));
        let mut other_seed = RecordSet::default();
        other_seed.absorb(&record("demo27_sweep", 2, 70.3, "cc"));
        assert!(render(&a, &other_seed).0.contains("not comparable"));
    }
}
