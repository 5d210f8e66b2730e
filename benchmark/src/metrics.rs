//! The metric catalogue — every name, unit, direction and bound the
//! benchmark reports — and the three output forms of a run: one
//! `workload metric value unit` line per metric, the `out/*.json` record,
//! and the single JSON line the driver reads.
//!
//! `BENCHMARK.json` repeats the catalogue for the driver;
//! `tests/contract.rs` fails when the two disagree.

use serde_json::{json, Map, Value};

use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of an end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression.
    pub bound: f64,
    /// Computed from the simulation alone: repeats exactly for one seed
    /// and one sweep count, so `compare` judges it with `==`.
    pub exact: bool,
    /// Listed in `BENCHMARK.json` and printed on the driver line. The
    /// driver's contract admits only metrics that are defined and non-zero
    /// on every workload and whose spread over ten runs stays inside the
    /// bound; `detect_*` exist on `nemesis_detect` only, `failed_share` is
    /// 0 when all is well, and the tail's spread ran from 4 % in a quiet
    /// hour to 92 % in a noisy one. Those live in `out/*.json`, the metric
    /// lines and `compare` only.
    pub everywhere: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    everywhere: bool,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
        exact,
        everywhere,
    }
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: &[EndToEndDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, false, true),
    e2e(
        "rounds_per_s",
        "rounds/s",
        Better::Higher,
        0.25,
        false,
        true,
    ),
    e2e("sweep_ms_p50", "ms", Better::Lower, 0.25, false, true),
    e2e("cpu_ms_per_round", "ms", Better::Lower, 0.25, false, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false, true),
    e2e(
        "live_sim_ms_per_sweep",
        "sim_ms",
        Better::Lower,
        0.05,
        true,
        true,
    ),
    e2e(
        "coverage_union_mean",
        "branches",
        Better::Higher,
        0.05,
        true,
        true,
    ),
    e2e("sweep_ms_tail", "ms", Better::Lower, 0.25, false, false),
    e2e("detect_share", "ratio", Better::Higher, 0.0, true, false),
    e2e(
        "detect_inputs_p50",
        "inputs",
        Better::Lower,
        0.0,
        true,
        false,
    ),
    e2e("failed_share", "ratio", Better::Lower, 0.0, true, false),
];

/// Definition of a per-layer metric (no bound: layers explain, they do
/// not gate).
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name, prefixed with the layer (`crate.module.`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// The per-layer metrics, in print order. README's interaction table says
/// which end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[LayerDef] = &[
    // Where a traced round's wall time went (shares of the `round` span).
    layer("round.ms", "ms", Better::Lower),
    layer("round.share.concolic.explore", "ratio", Better::Lower),
    layer("round.share.netsim.sim.drive", "ratio", Better::Lower),
    layer("round.share.netsim.sim.clone", "ratio", Better::Lower),
    layer("round.share.core.snapshot.cut", "ratio", Better::Lower),
    layer("round.share.core.check", "ratio", Better::Lower),
    layer("round.share.core.sut.plan", "ratio", Better::Lower),
    layer("round.share.self", "ratio", Better::Lower),
    // concolic: exploration and solver.
    layer("concolic.explore.ms", "ms", Better::Lower),
    layer("concolic.explore.execs_per_s", "1/s", Better::Higher),
    layer("concolic.explore.twin_share", "ratio", Better::Lower),
    layer("concolic.explore.path_ratio", "ratio", Better::Higher),
    layer("concolic.explore.coverage", "branches", Better::Higher),
    layer("concolic.solve.queries", "count", Better::Lower),
    layer("concolic.solve.steps", "count", Better::Lower),
    layer("concolic.solve.sat_ratio", "ratio", Better::Higher),
    layer("concolic.solve.unknown", "count", Better::Lower),
    layer("concolic.solve.unary_memo_hits", "count", Better::Higher),
    layer("concolic.solve.refuted_hits", "count", Better::Higher),
    layer("concolic.solve.covered_skips", "count", Better::Higher),
    // netsim: the validation drive, the wire path, clones.
    layer("netsim.sim.drive_ms", "ms", Better::Lower),
    layer("netsim.sim.drive_msgs", "count", Better::Lower),
    layer("netsim.sim.drive_timers", "count", Better::Lower),
    layer("netsim.sim.drive_msgs_per_s", "1/s", Better::Higher),
    layer("netsim.buf.wire_bytes", "bytes", Better::Lower),
    layer("netsim.buf.hit_ratio", "ratio", Better::Higher),
    layer("netsim.buf.batches", "count", Better::Lower),
    layer("netsim.buf.max_batch", "frames", Better::Higher),
    layer("netsim.sim.clone_fresh_us", "us", Better::Lower),
    layer("netsim.sim.clone_reset_us", "us", Better::Lower),
    // Snapshots: the cut on the live system.
    layer("core.snapshot.cut_ms", "ms", Better::Lower),
    layer("core.snapshot.cut_sim_ms", "sim_ms", Better::Lower),
    layer("core.snapshot.bytes", "bytes", Better::Lower),
    layer("netsim.snapshot.nodes_recaptured", "count", Better::Lower),
    layer("netsim.snapshot.delta_bytes", "bytes", Better::Lower),
    // Checkers and the SUT seam.
    layer("core.check.run_us", "us", Better::Lower),
    layer("core.check.baseline_us", "us", Better::Lower),
    layer("core.check.verdicts", "count", Better::Higher),
    layer("core.sut.plan_us", "us", Better::Lower),
    // The campaign engine against the sum of its phases.
    layer("core.campaign.engine_ratio", "ratio", Better::Lower),
    layer("core.campaign.parallel_speedup", "ratio", Better::Higher),
    // Set-up, phase by phase.
    layer("netsim.topology.build_ms", "ms", Better::Lower),
    layer("netsim.sim.converge_ms", "ms", Better::Lower),
    layer("netsim.sim.converge_msgs_per_s", "1/s", Better::Higher),
    layer("core.interface.registry_ms", "ms", Better::Lower),
    layer("core.campaign.new_ms", "ms", Better::Lower),
    // The fault layer (must read 0 on the three healthy workloads).
    layer("netsim.faults.frames_dropped", "count", Better::Higher),
    layer("netsim.faults.link_retransmits", "count", Better::Lower),
    // Verdict quality of the traced sweeps (0 where nothing is seeded).
    layer("core.verdict.detect_share", "ratio", Better::Higher),
    layer("core.verdict.detect_inputs_p50", "inputs", Better::Lower),
    // Wire codecs on three fixed messages.
    layer("bgp.wire.decode_ns", "ns", Better::Lower),
    layer("bgp.wire.encode_into_ns", "ns", Better::Lower),
    layer("gossip.wire.decode_ns", "ns", Better::Lower),
    layer("gossip.wire.encode_into_ns", "ns", Better::Lower),
    // Heap allocations, from the trace binary's counting allocator.
    layer("alloc.explore_per_exec", "count", Better::Lower),
    layer("alloc.validate_per_input", "count", Better::Lower),
    layer("alloc.cut_per_node", "count", Better::Lower),
    // What tracing itself costs and how much of a round it explains.
    layer("trace.overhead_ratio", "ratio", Better::Lower),
    layer("trace.accounted_ratio", "ratio", Better::Higher),
];

/// Which binary produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// `dice-benchmark`: tracing off.
    EndToEnd,
    /// `dice-benchmark-trace`: the sequential traced pipeline.
    Trace,
}

impl RunKind {
    /// The `kind` field of an `out/*.json` record.
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::EndToEnd => "end_to_end",
            RunKind::Trace => "trace",
        }
    }
}

/// One measured value. `None` = not measurable here (no `/proc`) or not
/// defined on this workload; printed as `null`.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value.
    pub value: Option<f64>,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Producer.
    pub kind: RunKind,
    /// Workload measured.
    pub workload: Workload,
    /// The `--seed`.
    pub seed: u64,
    /// Host, toolchain and run-length facts (see [`crate::host::header`]).
    pub header: Value,
    /// Every catalogue metric of `kind`, in catalogue order.
    pub metrics: Vec<Measured>,
    /// Operations (sweeps) attempted.
    pub attempted: usize,
    /// Operations that returned `Err`, panicked or failed a check.
    pub failed: usize,
    /// Run-level checks that failed (stimulus, determinism), plus the
    /// first few per-sweep failures, for the log.
    pub failures: Vec<String>,
    /// SHA-256 over every sweep's normalized report, in order.
    pub normalized_sha256: String,
    /// Free-form extras (`sweep_samples`, `tail_percentile`, …).
    pub details: Value,
}

impl RunRecord {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The `workload metric value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = match m.value {
                Some(v) => format!("{v}"),
                None => "null".into(),
            };
            out.push_str(&format!(
                "{} {} {} {}\n",
                self.workload.name(),
                m.name,
                value,
                m.unit
            ));
        }
        out
    }

    fn metrics_json(&self, keep: impl Fn(&Measured) -> bool) -> Value {
        let mut map = Map::new();
        for m in self.metrics.iter().filter(|m| keep(m)) {
            // The contract wants a number; an unmeasurable metric has
            // none, and inventing one would be worse than failing loudly.
            let value = m.value.map_or(Value::Null, Value::F64);
            map.insert(m.name.to_string(), json!({"value": value, "unit": m.unit}));
        }
        Value::Object(map)
    }

    /// The record written to `out/<workload>.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "kind": self.kind.as_str(),
            "workload": self.workload.name(),
            "seed": self.seed,
            "header": self.header,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "normalized_sha256": self.normalized_sha256,
            "metrics": self.metrics_json(|_| true),
            "details": self.details
        })
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and the metrics `BENCHMARK.json` lists for this kind.
    pub fn driver_line(&self) -> String {
        let listed = |m: &Measured| match self.kind {
            RunKind::EndToEnd => END_TO_END.iter().any(|d| d.name == m.name && d.everywhere),
            RunKind::Trace => true,
        };
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(listed)
        });
        serde_json::to_string(&line).expect("values serialise")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let mut names = std::collections::BTreeSet::new();
        for d in END_TO_END {
            assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
            assert!((0.0..=0.25).contains(&d.bound), "{}", d.name);
            assert!(names.insert(d.name), "duplicate {}", d.name);
        }
        for d in PER_LAYER {
            assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
            assert!(names.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END.iter().filter(|d| d.everywhere).count() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn driver_line_carries_exactly_the_contract_keys() {
        let record = RunRecord {
            kind: RunKind::EndToEnd,
            workload: Workload::Demo27Sweep,
            seed: 1,
            header: json!({}),
            metrics: vec![
                Measured {
                    name: "setup_s",
                    unit: "s",
                    value: Some(0.5),
                },
                Measured {
                    name: "failed_share",
                    unit: "ratio",
                    value: Some(0.0),
                },
            ],
            attempted: 3,
            failed: 0,
            failures: vec![],
            normalized_sha256: String::new(),
            details: json!({}),
        };
        let line = serde_json::parse_value(&record.driver_line()).expect("valid JSON");
        let Value::Object(top) = &line else {
            panic!("driver line must be an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"], Value::Bool(true));
        assert_eq!(line["metrics"]["setup_s"]["unit"], "s");
        // failed_share is not defined everywhere: out file only.
        assert_eq!(line["metrics"]["failed_share"], Value::Null);
        assert_eq!(record.to_json()["metrics"]["failed_share"]["unit"], "ratio");
        assert_eq!(
            record.lines(),
            "demo27_sweep setup_s 0.5 s\ndemo27_sweep failed_share 0 ratio\n"
        );
    }
}
