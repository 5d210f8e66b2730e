//! The traced run: the per-layer numbers. Four passes over the same sweeps
//! of one workload, each on its own identically seeded deployment:
//!
//! 1. **traced** — [`crate::pipeline::traced_sweep`], sequential, spans
//!    and counts recorded; then twin replay of every executed input.
//! 2. **engine, sequential** — `Campaign::run` at `pair_workers = workers
//!    = 1`: the wall the traced phases are compared against
//!    (`core.campaign.engine_ratio`, `trace.overhead_ratio`), and the
//!    reports the traced rounds must equal byte for byte.
//! 3. **engine, parallel** — the same at [`PARALLELISM`]
//!    (`core.campaign.parallel_speedup`).
//! 4. **allocations** — the traced pipeline again for a few sweeps with
//!    the counting allocator's gate open; only its counts are used.
//!
//! plus micro-spans around the wire codecs on three fixed messages.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dice_core::{hash, Sha256, SutCatalog};
use serde_json::json;

use crate::e2e::{note, run_guarded, RunLength};
use crate::metrics::{Measured, RunKind, RunRecord, PER_LAYER};
use crate::pipeline::{
    campaign_registry, normalized_rounds_json, traced_sweep, twin_replay, LayerCounts,
};
use crate::spans::{self, NameTotal, Recorder, Span};
use crate::sweep::{check_sweep, detection_effort, SweepSource};
use crate::workloads::{Seeds, Workload, PARALLELISM};
use crate::{alloc, host, stats, wire};

/// Share of a `--seconds` budget the traced pass may use; the two engine
/// passes replay the same sweeps (the sequential one costs about as much,
/// the parallel one less), and twin replay, the allocation pass and the
/// deployments share the rest.
const TRACED_SHARE: f64 = 0.3;

/// Sweeps of the allocation pass.
const ALLOC_SWEEPS: usize = 2;

/// Spans and record of a traced run.
pub struct TracedRun {
    /// The record (`out/trace-<workload>.metrics.json`, driver line).
    pub record: RunRecord,
    /// Every span of the traced pass, twin replay and wire micro-spans.
    pub spans: Vec<Span>,
}

fn total(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> NameTotal {
    totals.get(name).copied().unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Engine wall over sweeps `0..sweeps` at `parallelism`, and each sweep's
/// normalized rounds.
fn engine_pass(
    workload: Workload,
    seeds: Seeds,
    parallelism: usize,
    sweeps: usize,
) -> Result<(f64, Vec<String>), String> {
    let mut source = SweepSource::new(workload, seeds, parallelism);
    let mut wall_s = 0.0;
    let mut rounds = Vec::new();
    for i in 0..sweeps {
        let sweep = source.sweep(i)?;
        let t = Instant::now();
        let report = run_guarded(&sweep.campaign, sweep.live);
        wall_s += t.elapsed().as_secs_f64();
        // A failed engine sweep compares unequal to any traced one.
        rounds.push(report.map_or_else(
            |e| format!("engine sweep failed: {e}"),
            |r| normalized_rounds_json(&r.normalized().rounds),
        ));
    }
    Ok((wall_s, rounds))
}

/// Measure `workload` layer by layer.
pub fn run(workload: Workload, seed: u64, length: RunLength) -> Result<TracedRun, String> {
    host::require_cores()?;
    let seeds = Seeds(seed);
    let catalog = SutCatalog::default();

    // Pass 1: traced.
    let mut rec = Recorder::timing();
    let mut counts = LayerCounts::default();
    let mut source = SweepSource::new(workload, seeds, 1);
    let mut traced_rounds: Vec<String> = Vec::new();
    let mut digest = Sha256::new();
    let mut bad_sweeps: BTreeSet<usize> = BTreeSet::new();
    let mut failures: Vec<String> = Vec::new();
    let mut seeded_total = 0usize;
    let mut defects_found = 0usize;
    let mut efforts: Vec<f64> = Vec::new();
    let mut traced_s = 0.0f64;
    let mut registry_s: Vec<f64> = Vec::new();
    // Set-up phases of the traced pass's first deployment.
    let mut setup = None;
    let budget = match length {
        RunLength::Seconds(s) => RunLength::Seconds(s * TRACED_SHARE),
        sweeps => sweeps,
    };
    let mut done = 0usize;
    while budget.wants_more(done, traced_s) {
        let i = done;
        done += 1;
        let sweep = source.sweep(i)?;
        setup = setup.or(sweep.deployed);
        let (live, campaign) = (sweep.live, sweep.campaign);
        let nodes = live.topology().len();
        let t = Instant::now();
        let registry = campaign_registry(&catalog, live);
        registry_s.push(t.elapsed().as_secs_f64());

        let first_span = rec.spans().len();
        let outcome = traced_sweep(&mut rec, &mut counts, live, &campaign, &catalog, &registry);
        rec.close_all();
        traced_s += rec.spans()[first_span].duration_ns() as f64 / 1e9;
        let sweep = match outcome {
            Ok(sweep) => sweep,
            Err(e) => {
                bad_sweeps.insert(i);
                note(&mut failures, format!("traced sweep {i}: {e}"));
                traced_rounds.push(format!("traced sweep failed: {e}"));
                continue;
            }
        };
        for job in &sweep.replay {
            twin_replay(&mut rec, &catalog, job)?;
        }
        for needle in workload.seeded_defects() {
            seeded_total += 1;
            if let Some(effort) = detection_effort(&sweep.rounds, needle) {
                defects_found += 1;
                efforts.push(effort as f64);
            }
        }
        let normalized = normalized_rounds_json(&sweep.rounds);
        digest.update(normalized.as_bytes());
        traced_rounds.push(normalized);
        let problems = check_sweep(workload, nodes, sweep.facts());
        if !problems.is_empty() {
            bad_sweeps.insert(i);
            note(
                &mut failures,
                format!("traced sweep {i}: {}", problems.join("; ")),
            );
        }
    }
    let sweeps = done;
    drop(source);

    // Passes 2 and 3: the engine over the same sweeps.
    let (engine_seq_s, sequential_rounds) = engine_pass(workload, seeds, 1, sweeps)?;
    let (engine_par_s, parallel_rounds) = engine_pass(workload, seeds, PARALLELISM, sweeps)?;
    for (i, traced) in traced_rounds.iter().enumerate() {
        if *traced != sequential_rounds[i] || *traced != parallel_rounds[i] {
            bad_sweeps.insert(i);
            note(
                &mut failures,
                format!("traced sweep {i}: rounds differ from the engine's — the spans time another program"),
            );
        }
    }

    // Pass 4: allocation counts.
    let mut alloc_rec = Recorder::counting();
    let mut alloc_counts = LayerCounts::default();
    {
        let mut source = SweepSource::new(workload, seeds, 1);
        for i in 0..sweeps.min(ALLOC_SWEEPS) {
            let sweep = source.sweep(i)?;
            let (live, campaign) = (sweep.live, sweep.campaign);
            let registry = campaign_registry(&catalog, live);
            alloc::set_counting(true);
            let outcome = traced_sweep(
                &mut alloc_rec,
                &mut alloc_counts,
                live,
                &campaign,
                &catalog,
                &registry,
            );
            alloc::set_counting(false);
            alloc_rec.close_all();
            outcome.map_err(|e| format!("allocation pass, sweep {i}: {e}"))?;
        }
    }
    let counting = alloc::count() > 0;

    wire::micro_spans(&mut rec);

    // Run-level stimulus check: lossy links must actually lose frames.
    // (`check_sweep` already holds the healthy workloads to zero dropped,
    // duplicated and reordered frames, sweep by sweep.)
    if !workload.seeded_defects().is_empty() && counts.wire.frames_dropped == 0 {
        failures.push("5% link loss dropped no frame over the traced sweeps".into());
    }

    // Metrics.
    let totals = spans::totals(rec.spans());
    let alloc_totals = spans::totals(alloc_rec.spans());
    let t = |name: &str| total(&totals, name);
    let ns = |name: &str| t(name).total_ns as f64;
    let round_ns = ns("round");
    let rounds = counts.rounds as f64;
    let clone_ns = ns("netsim.sim.clone_fresh") + ns("netsim.sim.clone_reset");
    let check_ns = ns("core.check.run") + ns("core.check.baseline");
    let phase_ns = ns("core.snapshot.cut")
        + ns("core.sut.plan")
        + ns("concolic.explore")
        + ns("netsim.sim.drive")
        + clone_ns
        + check_ns;
    let per_call = |name: &str, scale: f64| ratio(ns(name) / scale, t(name).count as f64);
    let per_round = |x: f64| ratio(x, rounds);
    let solver = &counts.solver;
    let wire = &counts.wire;
    let allocs_in = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| total(&alloc_totals, n).allocs as f64)
            .sum()
    };
    let counted = |x: Option<f64>| if counting { x } else { None };
    let value = |name: &str| -> Option<f64> {
        match name {
            "round.ms" => per_call("round", 1e6),
            "round.share.concolic.explore" => ratio(ns("concolic.explore"), round_ns),
            "round.share.netsim.sim.drive" => ratio(ns("netsim.sim.drive"), round_ns),
            "round.share.netsim.sim.clone" => ratio(clone_ns, round_ns),
            "round.share.core.snapshot.cut" => ratio(ns("core.snapshot.cut"), round_ns),
            "round.share.core.check" => ratio(check_ns, round_ns),
            "round.share.core.sut.plan" => ratio(ns("core.sut.plan"), round_ns),
            "round.share.self" => ratio(
                (t("round").self_ns + t("validate").self_ns) as f64,
                round_ns,
            ),
            "concolic.explore.ms" => per_call("concolic.explore", 1e6),
            "concolic.explore.execs_per_s" => {
                ratio(counts.executions as f64, ns("concolic.explore") / 1e9)
            }
            "concolic.explore.twin_share" => {
                ratio(ns("concolic.twin_replay"), ns("concolic.explore"))
            }
            "concolic.explore.path_ratio" => {
                ratio(counts.distinct_paths as f64, counts.executions as f64)
            }
            "concolic.explore.coverage" => per_round(counts.coverage as f64),
            "concolic.solve.queries" => per_round(solver.queries as f64),
            "concolic.solve.steps" => per_round(solver.steps as f64),
            "concolic.solve.sat_ratio" => ratio(solver.sat as f64, solver.queries as f64),
            "concolic.solve.unknown" => per_round(solver.unknown as f64),
            "concolic.solve.unary_memo_hits" => per_round(solver.unary_memo_hits as f64),
            "concolic.solve.refuted_hits" => per_round(solver.cache_hits as f64),
            "concolic.solve.covered_skips" => per_round(solver.covered_skips as f64),
            "netsim.sim.drive_ms" => per_round(ns("netsim.sim.drive") / 1e6),
            "netsim.sim.drive_msgs" => per_round(counts.drive_msgs as f64),
            "netsim.sim.drive_timers" => per_round(counts.drive_timers as f64),
            "netsim.sim.drive_msgs_per_s" => {
                ratio(counts.drive_msgs as f64, ns("netsim.sim.drive") / 1e9)
            }
            "netsim.buf.wire_bytes" => per_round(wire.wire_bytes as f64),
            "netsim.buf.hit_ratio" => ratio(
                wire.buf_hits as f64,
                (wire.buf_hits + wire.buf_misses) as f64,
            ),
            "netsim.buf.batches" => per_round(wire.batches as f64),
            "netsim.buf.max_batch" => Some(wire.max_batch as f64),
            "netsim.sim.clone_fresh_us" => per_call("netsim.sim.clone_fresh", 1e3),
            "netsim.sim.clone_reset_us" => per_call("netsim.sim.clone_reset", 1e3),
            "core.snapshot.cut_ms" => per_call("core.snapshot.cut", 1e6),
            "core.snapshot.cut_sim_ms" => ratio(counts.cut_sim_ns as f64 / 1e6, counts.cuts as f64),
            "core.snapshot.bytes" => ratio(counts.snapshot_bytes as f64, counts.cuts as f64),
            "netsim.snapshot.nodes_recaptured" => {
                ratio(counts.nodes_recaptured as f64, counts.cuts as f64)
            }
            "netsim.snapshot.delta_bytes" => ratio(counts.delta_bytes as f64, counts.cuts as f64),
            "core.check.run_us" => per_call("core.check.run", 1e3),
            "core.check.baseline_us" => per_call("core.check.baseline", 1e3),
            "core.check.verdicts" => per_round(counts.verdicts as f64),
            "core.sut.plan_us" => per_call("core.sut.plan", 1e3),
            "core.campaign.engine_ratio" => ratio(engine_seq_s, phase_ns / 1e9),
            "core.campaign.parallel_speedup" => ratio(engine_seq_s, engine_par_s),
            "netsim.topology.build_ms" => setup.map(|s| s.times.topology_build_s * 1e3),
            "netsim.sim.converge_ms" => setup.map(|s| s.times.converge_s * 1e3),
            "netsim.sim.converge_msgs_per_s" => {
                setup.and_then(|s| ratio(s.times.converge_msgs as f64, s.times.converge_s))
            }
            "core.interface.registry_ms" => stats::median(&registry_s).map(|s| s * 1e3),
            "core.campaign.new_ms" => setup.map(|s| s.times.campaign_new_s * 1e3),
            "netsim.faults.frames_dropped" => per_round(wire.frames_dropped as f64),
            "netsim.faults.link_retransmits" => per_round(wire.link_retransmits as f64),
            "core.verdict.detect_share" => {
                Some(ratio(defects_found as f64, seeded_total as f64).unwrap_or(0.0))
            }
            "core.verdict.detect_inputs_p50" => Some(stats::median(&efforts).unwrap_or(0.0)),
            "bgp.wire.decode_ns" => wire::ns_per_op(&totals, "bgp.wire.decode"),
            "bgp.wire.encode_into_ns" => wire::ns_per_op(&totals, "bgp.wire.encode_into"),
            "gossip.wire.decode_ns" => wire::ns_per_op(&totals, "gossip.wire.decode"),
            "gossip.wire.encode_into_ns" => wire::ns_per_op(&totals, "gossip.wire.encode_into"),
            "alloc.explore_per_exec" => counted(ratio(
                allocs_in(&["concolic.explore"]),
                alloc_counts.executions as f64,
            )),
            "alloc.validate_per_input" => counted(ratio(
                allocs_in(&["validate"]),
                alloc_counts.validated as f64,
            )),
            "alloc.cut_per_node" => counted(ratio(
                allocs_in(&["core.snapshot.cut"]),
                alloc_counts.cut_nodes as f64,
            )),
            "trace.overhead_ratio" => ratio(traced_s, engine_seq_s),
            "trace.accounted_ratio" => ratio(phase_ns, round_ns),
            other => unreachable!("metric {other} has no per-layer definition"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|d| Measured {
            name: d.name,
            unit: d.unit,
            value: value(d.name),
        })
        .collect();

    let record = RunRecord {
        kind: RunKind::Trace,
        workload,
        seed,
        header: host::header(length.to_json()),
        metrics,
        attempted: sweeps,
        failed: bad_sweeps.len(),
        failures,
        normalized_sha256: hash::hex(&digest.finalize()),
        details: json!({
            "sweeps": sweeps,
            "rounds": counts.rounds,
            "spans": rec.spans().len(),
            "traced_s": traced_s,
            "engine_sequential_s": engine_seq_s,
            "engine_parallel_s": engine_par_s,
            "allocation_sweeps": sweeps.min(ALLOC_SWEEPS),
            "counting_allocator": counting
        }),
    };
    Ok(TracedRun {
        record,
        spans: rec.into_spans(),
    })
}
