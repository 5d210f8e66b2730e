//! One campaign sweep replayed through **public functions only**, with a
//! span around every call into a layer. This is the program the per-layer
//! numbers time, so it must be the program the engine runs: it follows
//! `Campaign::run` → `explore_stage` → `validate_one` → `check_stage` step
//! for step (same seeds, same clone reuse, same candidate order), and
//! `tests/fidelity.rs` holds its `RoundReport`s byte-equal to the
//! engine's.
//!
//! Span tree of a sweep:
//!
//! ```text
//! sweep
//! └─ round                       (one per (explorer, peer) pair)
//!    ├─ core.snapshot.cut        take_consistent_snapshot   (first peer only)
//!    ├─ core.check.baseline      flips_baseline             (first peer only)
//!    ├─ core.sut.plan            ExplorableNode::exploration_plan
//!    ├─ concolic.explore         dice_concolic::explore
//!    └─ validate                 (one per candidate input)
//!       ├─ netsim.sim.clone_fresh | netsim.sim.clone_reset
//!       ├─ netsim.sim.drive      deliver_direct + run_until_quiet
//!       └─ core.check.run        run_checkers
//! ```
//!
//! Candidate selection and the verdict fold land in `round` self time.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dice_concolic::{
    explore, ConcolicCtx, ExplorationReport, ExploreConfig, RunStatus, SolverStats, SymInput,
};
use dice_core::check::{default_checkers, flips_baseline, run_checkers, CheckContext, CheckReport};
use dice_core::snapshot::{take_consistent_snapshot, SnapshotMetrics};
use dice_core::{AttestationRegistry, Campaign, DiceConfig, FaultReport, RoundReport, SutCatalog};
use dice_netsim::{NodeId, Schedule, ShadowSnapshot, SimRng, Simulator, TraceStats, WireStats};

use crate::spans::Recorder;
use crate::sweep::SweepFacts;

/// Counts read at the span boundaries, summed over the traced sweeps.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Rounds traced.
    pub rounds: u64,
    /// Consistent cuts taken.
    pub cuts: u64,
    /// Nodes in the cut systems, summed over cuts.
    pub cut_nodes: u64,
    /// Simulated nanoseconds the live system spent inside cuts.
    pub cut_sim_ns: u64,
    /// Approximate shadow footprint, summed over cuts.
    pub snapshot_bytes: u64,
    /// Node checkpoints re-captured by the cuts.
    pub nodes_recaptured: u64,
    /// Bytes those re-captures copied.
    pub delta_bytes: u64,
    /// Concolic executions.
    pub executions: u64,
    /// Distinct handler paths, summed over rounds.
    pub distinct_paths: u64,
    /// Final branch coverage, summed over rounds.
    pub coverage: u64,
    /// Solver statistics, summed over rounds.
    pub solver: SolverStats,
    /// Inputs validated system-wide (null input included).
    pub validated: u64,
    /// Messages delivered on validation clones during the drive.
    pub drive_msgs: u64,
    /// Timers fired on validation clones during the drive.
    pub drive_timers: u64,
    /// Wire-path counters drained from the validation clones.
    pub wire: WireStats,
    /// Verdicts the checkers published.
    pub verdicts: u64,
}

/// What twin replay needs from a round once its sweep is over.
pub struct ReplayJob {
    /// Request id of the round.
    pub round: u32,
    shadow: Arc<ShadowSnapshot>,
    explorer: NodeId,
    peer: NodeId,
    cfg: DiceConfig,
    inputs: Vec<(Vec<u8>, BTreeMap<u32, u8>)>,
}

/// Result of one traced sweep.
pub struct TracedSweep {
    /// The rounds, as the engine would report them (`wall_us` is the
    /// traced round span).
    pub rounds: Vec<RoundReport>,
    /// Branch-coverage union over the rounds.
    pub coverage_union: usize,
    /// Dynamics-schedule actions applied.
    pub churn_events: u64,
    /// Node checkpoints re-captured.
    pub nodes_recaptured: u64,
    /// Frames dropped, duplicated or reordered on validation clones.
    pub frames_perturbed: u64,
    /// One job per round, for [`twin_replay`].
    pub replay: Vec<ReplayJob>,
}

impl TracedSweep {
    /// The facts the correctness checks look at.
    pub fn facts(&self) -> SweepFacts<'_> {
        SweepFacts {
            rounds: &self.rounds,
            churn_events: self.churn_events,
            nodes_recaptured: self.nodes_recaptured,
            frames_perturbed: self.frames_perturbed,
        }
    }
}

/// The registry `Campaign::new` derives for `live` (it salts with the
/// default template seed, not the campaign's later `.seed(..)`).
pub fn campaign_registry(catalog: &SutCatalog, live: &Simulator) -> AttestationRegistry {
    catalog.build_registry(live, DiceConfig::new(NodeId(0), NodeId(0)).seed)
}

fn add_solver(into: &mut SolverStats, s: &SolverStats) {
    into.queries += s.queries;
    into.sat += s.sat;
    into.unsat += s.unsat;
    into.unknown += s.unknown;
    into.steps += s.steps;
    into.cache_hits += s.cache_hits;
    into.covered_skips += s.covered_skips;
    into.unary_memo_hits += s.unary_memo_hits;
}

/// `explore_stage`'s candidate order, from public `ExecutionRecord`
/// fields: the null input, then crashes first, then highest new coverage,
/// distinct input bytes only, capped at `validate_top` real inputs.
fn select_candidates(exploration: &ExplorationReport, validate_top: usize) -> Vec<Option<Vec<u8>>> {
    let mut order: Vec<usize> = (0..exploration.executions.len()).collect();
    order.sort_by_key(|&i| {
        let e = &exploration.executions[i];
        let crash = matches!(e.status, RunStatus::Crash(_));
        (
            core::cmp::Reverse(crash as u8),
            core::cmp::Reverse(e.new_coverage),
            i,
        )
    });
    let mut seen: BTreeSet<&[u8]> = BTreeSet::new();
    let mut candidates: Vec<Option<Vec<u8>>> = vec![None];
    for i in order {
        if candidates.len() > validate_top {
            break;
        }
        let input = &exploration.executions[i].input;
        if seen.insert(input) {
            candidates.push(Some(input.clone()));
        }
    }
    candidates
}

/// `check_stage`'s fold of per-clone check reports into a `RoundReport`.
#[allow(clippy::too_many_arguments)]
fn fold_round(
    round: u64,
    cfg: &DiceConfig,
    kind: &str,
    sessions: dice_core::SessionHealth,
    snapshot: SnapshotMetrics,
    exploration: &ExplorationReport,
    results: &[CheckReport],
) -> RoundReport {
    let mut faults: Vec<FaultReport> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut verdicts_total = 0;
    let mut verdicts_failed = 0;
    let mut detection: BTreeMap<String, usize> = BTreeMap::new();
    for (i, report) in results.iter().enumerate() {
        verdicts_total += report.verdicts.len();
        verdicts_failed += report.failed();
        for f in &report.faults {
            detection.entry(f.class.to_string()).or_insert(i + 1);
            if seen.insert(f.key()) {
                faults.push(f.clone());
            }
        }
    }
    RoundReport {
        round,
        explorer: cfg.explorer,
        inject_peer: cfg.inject_peer,
        explorer_kind: kind.to_string(),
        explorer_sessions: sessions,
        snapshot,
        executions: exploration.executions.len(),
        distinct_paths: exploration.distinct_paths,
        branch_coverage: exploration.final_coverage(),
        validated: results.len(),
        faults,
        verdicts_total,
        verdicts_failed,
        detection_input_ordinal: detection,
        wall_us: 0,
        wall_ms: 0,
        solver_queries: exploration.solver.queries + exploration.solver.cache_hits,
        solver_sat: exploration.solver.sat,
    }
}

fn stats_delta(after: TraceStats, before: TraceStats) -> (u64, u64) {
    (
        after.msgs_delivered.saturating_sub(before.msgs_delivered),
        after.timers_fired.saturating_sub(before.timers_fired),
    )
}

/// Run one sweep of `campaign` against `live`, recording spans into `rec`
/// and counts into `counts`. Sequential: one thread, one reusable clone —
/// what the engine does at `pair_workers = workers = 1`.
pub fn traced_sweep(
    rec: &mut Recorder,
    counts: &mut LayerCounts,
    live: &mut Simulator,
    campaign: &Campaign,
    catalog: &SutCatalog,
    registry: &AttestationRegistry,
) -> Result<TracedSweep, String> {
    let template = &campaign.config_ref().template;
    let sweep_span = rec.enter("sweep");

    let topo = live.topology().clone();
    let plan = campaign.sweep_plan();
    if plan.is_empty() {
        return Err("campaign has no eligible (explorer, peer) pairs".into());
    }
    let checkers = default_checkers(template.oscillation_threshold);
    live.set_delta_snapshots(template.delta_snapshots);
    let _ = live.take_snapshot_stats();
    let mut schedule = match &template.schedule {
        Some(spec) if !spec.is_empty() => {
            let mut rng = SimRng::seed_from_u64(template.seed).split(0x5C4ED);
            spec.expand(&topo, live.now(), &mut rng)
        }
        _ => Schedule::default(),
    };
    schedule.apply_due(live);

    let mut out = TracedSweep {
        rounds: Vec::new(),
        coverage_union: 0,
        churn_events: 0,
        nodes_recaptured: 0,
        frames_perturbed: 0,
        replay: Vec::new(),
    };
    let mut coverage_union: BTreeSet<(u32, bool)> = BTreeSet::new();
    // The engine's per-worker clone pool at pool_size 1: the first
    // validation builds a simulator, every later one resets it in place.
    let mut pooled: Option<Simulator> = None;
    let mut round_no = 0u32;

    for (explorer, peers) in &plan {
        let mut cut: Option<(Arc<ShadowSnapshot>, _)> = None;
        for peer in peers {
            round_no += 1;
            rec.set_round(round_no);
            let round_span = rec.enter("round");

            // The first peer's round pays for the cut all peers share.
            let mut snapshot = SnapshotMetrics {
                sim_duration_nanos: 0,
                wall_micros: 0,
                nodes: 0,
                in_flight: 0,
                bytes: 0,
            };
            if cut.is_none() {
                let (shadow, metrics) = rec.leaf("core.snapshot.cut", || {
                    take_consistent_snapshot(live, *explorer, template.snapshot_deadline)
                })?;
                let stats = live.take_snapshot_stats();
                counts.cuts += 1;
                counts.cut_nodes += metrics.nodes as u64;
                counts.cut_sim_ns += metrics.sim_duration_nanos;
                counts.snapshot_bytes += metrics.bytes as u64;
                counts.nodes_recaptured += stats.nodes_recaptured;
                counts.delta_bytes += stats.delta_bytes;
                out.nodes_recaptured += stats.nodes_recaptured;
                out.churn_events += stats.churn_events;
                let shadow = shadow.into_shared();
                let baseline = rec.leaf("core.check.baseline", || flips_baseline(catalog, &shadow));
                snapshot = metrics;
                cut = Some((shadow, baseline));
            }
            let (shadow, baseline) = cut.as_ref().expect("cut taken above");

            let mut cfg = template.clone();
            cfg.explorer = *explorer;
            cfg.inject_peer = *peer;

            // Stage 2: concolic exploration of the explorer's handler twin.
            let explorer_node = shadow
                .nodes()
                .get(explorer)
                .ok_or("explorer node missing from snapshot")?;
            let sut = catalog
                .resolve(explorer_node.as_ref())
                .ok_or("explorer node is not explorable (no SUT probe matched)")?;
            let kind = sut.kind();
            let sessions = sut.check_view().session_health();
            let exploration_plan = rec.leaf("core.sut.plan", || {
                sut.exploration_plan(*peer, cfg.grammar_seeds, cfg.seed)
            })?;
            let mut program = exploration_plan.program;
            let explore_cfg = ExploreConfig {
                strategy: cfg.strategy,
                max_executions: cfg.concolic_executions,
                solver_budget: cfg.solver_budget,
                solver_cache: cfg.solver_cache,
            };
            let exploration = rec.leaf("concolic.explore", || {
                explore(
                    &mut *program,
                    &exploration_plan.seeds,
                    &exploration_plan.marker,
                    &explore_cfg,
                )
            });
            let candidates = select_candidates(&exploration, cfg.validate_top);

            // Stage 3: validate every candidate on an isolated clone.
            let end = shadow.base_time() + cfg.horizon;
            let mut results: Vec<CheckReport> = Vec::with_capacity(candidates.len());
            for (i, input) in candidates.iter().enumerate() {
                let validate_span = rec.enter("validate");
                let seed = cfg.seed ^ (i as u64) << 16;
                let mut clone = match pooled.take() {
                    Some(mut sim) => {
                        rec.leaf("netsim.sim.clone_reset", || {
                            sim.reset_from_shadow(shadow, seed)
                        });
                        sim
                    }
                    None => rec.leaf("netsim.sim.clone_fresh", || {
                        Simulator::from_shadow(shadow, &topo, seed)
                    }),
                };
                clone.set_wire_config(cfg.wire_pool, cfg.batch_delivery);
                clone.set_delta_snapshots(cfg.delta_snapshots);
                if let Some(faults) = cfg.link_faults {
                    clone.set_link_faults(faults);
                }
                clone.set_unreliable_links(cfg.unreliable_links);
                let before = clone.trace().stats();
                let quiet = rec.leaf("netsim.sim.drive", || {
                    if let Some(bytes) = input {
                        clone.deliver_direct(cfg.inject_peer, cfg.explorer, bytes);
                    }
                    clone.run_until_quiet(cfg.quiet_window, end)
                });
                let (msgs, timers) = stats_delta(clone.trace().stats(), before);
                counts.drive_msgs += msgs;
                counts.drive_timers += timers;
                let report = rec.leaf("core.check.run", || {
                    run_checkers(
                        &checkers,
                        &CheckContext {
                            sim: &clone,
                            catalog,
                            registry,
                            baseline_flips: baseline,
                            quiet,
                            injected: input.is_some(),
                        },
                    )
                });
                let wire = clone.take_wire_stats();
                out.frames_perturbed +=
                    wire.frames_dropped + wire.frames_duplicated + wire.frames_reordered;
                counts.wire.absorb(wire);
                pooled = Some(clone);
                results.push(report);
                rec.exit(validate_span);
            }

            // Stage 4: fold the verdicts.
            let mut report = fold_round(
                u64::from(round_no),
                &cfg,
                kind,
                sessions,
                snapshot,
                &exploration,
                &results,
            );
            rec.exit(round_span);
            let round_ns = rec.spans()[round_span as usize].duration_ns();
            report.wall_us = round_ns / 1_000;
            report.wall_ms = report.wall_us / 1_000;

            counts.rounds += 1;
            counts.executions += exploration.executions.len() as u64;
            counts.distinct_paths += exploration.distinct_paths as u64;
            counts.coverage += exploration.final_coverage() as u64;
            add_solver(&mut counts.solver, &exploration.solver);
            counts.validated += results.len() as u64;
            counts.verdicts += report.verdicts_total as u64;
            coverage_union.extend(exploration.coverage.sites());
            out.replay.push(ReplayJob {
                round: round_no,
                shadow: Arc::clone(shadow),
                explorer: *explorer,
                peer: *peer,
                cfg,
                inputs: exploration
                    .executions
                    .into_iter()
                    .map(|e| (e.input, e.oracles))
                    .collect(),
            });
            out.rounds.push(report);
        }
    }
    rec.set_round(0);
    rec.exit(sweep_span);
    out.coverage_union = coverage_union.len();
    Ok(out)
}

/// Re-run every input a round's exploration executed through the handler
/// twin alone — marker, context, `program.run` — under a
/// `concolic.twin_replay` span. `concolic.explore` minus this is what the
/// solver and the search loop cost.
pub fn twin_replay(
    rec: &mut Recorder,
    catalog: &SutCatalog,
    job: &ReplayJob,
) -> Result<(), String> {
    let node = job
        .shadow
        .nodes()
        .get(&job.explorer)
        .ok_or("explorer node missing from snapshot")?;
    let sut = catalog
        .resolve(node.as_ref())
        .ok_or("explorer node is not explorable")?;
    // A fresh twin: the explored one has already run these inputs.
    let plan = sut.exploration_plan(job.peer, job.cfg.grammar_seeds, job.cfg.seed)?;
    let mut program = plan.program;
    rec.set_round(job.round);
    rec.leaf("concolic.twin_replay", || {
        for (bytes, oracles) in &job.inputs {
            let mask = (plan.marker)(bytes);
            let input = SymInput::with_mask(bytes.clone(), mask);
            let mut ctx = ConcolicCtx::with_oracles(input, oracles.clone());
            std::hint::black_box(program.run(&mut ctx));
        }
    });
    rec.set_round(0);
    Ok(())
}

/// The rounds of a sweep as the byte string engine and traced pipeline
/// must agree on: every host wall-clock field zeroed, as `normalized()`
/// zeroes them.
pub fn normalized_rounds_json(rounds: &[RoundReport]) -> String {
    let rounds: Vec<RoundReport> = rounds
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.wall_us = 0;
            r.wall_ms = 0;
            r.snapshot.wall_micros = 0;
            r
        })
        .collect();
    serde_json::to_string(&rounds).expect("round reports serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_concolic::ExecutionRecord;

    fn exec(input: &[u8], status: RunStatus, new_coverage: usize) -> ExecutionRecord {
        ExecutionRecord {
            input: input.to_vec(),
            oracles: BTreeMap::new(),
            status,
            path_len: 0,
            path_sig: 0,
            new_coverage,
        }
    }

    #[test]
    fn candidates_are_null_then_crashes_then_coverage_without_duplicates() {
        let exploration = ExplorationReport {
            executions: vec![
                exec(b"low", RunStatus::Ok, 1),
                exec(b"high", RunStatus::Ok, 9),
                exec(b"crash", RunStatus::Crash("boom".into()), 0),
                exec(b"high", RunStatus::Rejected("dup".into()), 9),
                exec(b"mid", RunStatus::Ok, 5),
            ],
            ..ExplorationReport::default()
        };
        let pick = |top| -> Vec<Option<Vec<u8>>> { select_candidates(&exploration, top) };
        let some = |b: &[u8]| Some(b.to_vec());
        assert_eq!(
            pick(8),
            vec![
                None,
                some(b"crash"),
                some(b"high"),
                some(b"mid"),
                some(b"low")
            ]
        );
        assert_eq!(pick(2), vec![None, some(b"crash"), some(b"high")]);
        assert_eq!(pick(0), vec![None]);
    }
}
