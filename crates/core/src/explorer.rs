//! The DiCE runtime: one exploration *round* per the paper's Figure 2.
//!
//! 1. Choose an explorer node and establish a consistent shadow snapshot of
//!    local node checkpoints (in-band Chandy–Lamport).
//! 2. Exercise the explorer node's input handler with concolic execution
//!    over the instrumented twin delivered by its
//!    [`ExplorationPlan`](crate::sut::ExplorationPlan) — for BGP routers,
//!    the UPDATE-handler twin seeded by grammar-generated messages
//!    ("test suite" seeds, Oasis-style).
//! 3. Validate each interesting input system-wide: clone the snapshot into
//!    an isolated simulator, inject the input as if received from a peer,
//!    run to quiescence, and run the property-checker battery.
//! 4. Aggregate local verdicts through the information-sharing interface
//!    into fault reports.
//!
//! The runtime never names a concrete protocol: nodes are resolved through
//! the [`SutCatalog`] probe chain, so federations mixing BGP routers with
//! other [`ExplorableNode`](crate::sut::ExplorableNode) implementors
//! explore uniformly.
//!
//! This module owns the round's stages (`explore_stage`, `validate_one`,
//! `check_stage`); the `executor` module is the one place that schedules
//! them (explore every round, barrier, validate every candidate), and
//! [`crate::campaign::Campaign`] is the one driver that takes the cuts and
//! submits the rounds. A fixed `(explorer, inject_peer)` pair is a sweep
//! over that one pair.

use std::collections::{BTreeMap, BTreeSet};

use dice_concolic::{
    ExplorationReport, ExploreConfig, ExploreState, RunStatus, SolverBudget, Strategy,
};
use dice_netsim::{NodeId, ShadowSnapshot, SimDuration, Topology};
use serde::{Deserialize, Serialize};

use crate::campaign::PhaseTimes;
use crate::check::{run_checkers, CheckContext, Checker, FaultClass, FaultReport};
use crate::interface::AttestationRegistry;
use crate::snapshot::SnapshotMetrics;
use crate::sut::SutCatalog;

/// Configuration of the DiCE runtime.
///
/// Serializes (and, with a full serde backend, deserializes) so experiment
/// binaries and CI perf jobs can persist and load configurations as JSON.
/// Deserialization is hand-written (below) so the perf knobs added after
/// the format was first persisted (`solver_cache`, `wire_pool`, ...)
/// default instead of erroring when absent, and fields since retired are
/// ignored — config files written by earlier builds keep loading.
#[derive(Debug, Clone, Serialize)]
pub struct DiceConfig {
    /// The node whose actions are explored this round.
    pub explorer: NodeId,
    /// The neighbor whose inputs are impersonated during exploration.
    pub inject_peer: NodeId,
    /// Concolic execution budget (phase 2).
    pub concolic_executions: usize,
    /// Maximum inputs validated system-wide (phase 3).
    pub validate_top: usize,
    /// Simulated horizon each clone runs for.
    pub horizon: SimDuration,
    /// Idle window that counts as quiescent.
    pub quiet_window: SimDuration,
    /// Simulated deadline for snapshot establishment.
    pub snapshot_deadline: SimDuration,
    /// Concolic search strategy.
    pub strategy: Strategy,
    /// Grammar-generated seed count. `0` disables the grammar layer
    /// entirely: exploration starts from one fixed minimal seed.
    pub grammar_seeds: usize,
    /// Per-query solver budget.
    pub solver_budget: SolverBudget,
    /// Best-route flips beyond baseline that count as oscillation.
    pub oscillation_threshold: u64,
    /// Validation workers (1 = sequential).
    pub workers: usize,
    /// Master seed for grammar and clone simulators.
    pub seed: u64,
    /// Which solver answers a round's negation queries: the one-pass
    /// `PathSolver` behind the cross-seed unary memo (`true`, the default)
    /// or the from-scratch reference solver
    /// ([`ExploreConfig::solver_cache`](dice_concolic::ExploreConfig::solver_cache)).
    /// Exploration outcomes are identical either way; only solver time
    /// differs.
    pub solver_cache: bool,
    /// Recycle payload buffers through the netsim
    /// [`BufPool`](dice_netsim::BufPool) on validation clones. Reports
    /// are byte-identical on or off; only allocation counts differ.
    pub wire_pool: bool,
    /// Coalesce same-instant frame deliveries into one batch on
    /// validation clones. The event schedule is mode-invariant, so
    /// reports are byte-identical on or off.
    pub batch_delivery: bool,
    /// Serve consistent-snapshot node checkpoints from the per-node
    /// delta cache (nodes untouched since the previous cut share their
    /// `Arc` with the prior shadow). A cached checkpoint of an unmutated
    /// node is state-identical to a fresh clone, so reports are
    /// byte-identical on or off; only the `nodes_recaptured` /
    /// `snapshot_delta_bytes` perf counters observe the difference.
    pub delta_snapshots: bool,
    /// Deterministic dynamics schedule (partition/heal windows, node
    /// churn) applied to the **live** system at the quiescent point
    /// before each sweep's snapshots. `None` (the default) and an empty
    /// spec are byte-identical to no schedule at all.
    pub schedule: Option<dice_netsim::ScheduleSpec>,
    /// Subject validation clones to the per-link channel-fidelity layer
    /// (probabilistic drop/duplication/reordering/burst loss per
    /// [`DiceConfig::link_faults`]). Off by default: clones then replay
    /// over the reliable channels the snapshot was taken on.
    pub unreliable_links: bool,
    /// Fault profile applied when [`DiceConfig::unreliable_links`] is on.
    /// `None` uses the netsim default ([`dice_netsim::LinkFaults`]'s 5%
    /// lossy profile).
    pub link_faults: Option<dice_netsim::LinkFaults>,
}

impl Deserialize for DiceConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            Deserialize::from_value(v.field(name)).map_err(|e| e.at(&format!("DiceConfig.{name}")))
        }
        /// Later-added field: absent (`Null`) reads as its default.
        fn field_or<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::DeError> {
            match v.field(name) {
                serde::Value::Null => Ok(default),
                present => Deserialize::from_value(present)
                    .map_err(|e| e.at(&format!("DiceConfig.{name}"))),
            }
        }
        Ok(DiceConfig {
            explorer: field(v, "explorer")?,
            inject_peer: field(v, "inject_peer")?,
            concolic_executions: field(v, "concolic_executions")?,
            validate_top: field(v, "validate_top")?,
            horizon: field(v, "horizon")?,
            quiet_window: field(v, "quiet_window")?,
            snapshot_deadline: field(v, "snapshot_deadline")?,
            strategy: field(v, "strategy")?,
            grammar_seeds: field(v, "grammar_seeds")?,
            solver_budget: field(v, "solver_budget")?,
            oscillation_threshold: field(v, "oscillation_threshold")?,
            workers: field(v, "workers")?,
            seed: field(v, "seed")?,
            solver_cache: field_or(v, "solver_cache", true)?,
            wire_pool: field_or(v, "wire_pool", true)?,
            batch_delivery: field_or(v, "batch_delivery", true)?,
            delta_snapshots: field_or(v, "delta_snapshots", true)?,
            schedule: field_or(v, "schedule", None)?,
            unreliable_links: field_or(v, "unreliable_links", false)?,
            link_faults: field_or(v, "link_faults", None)?,
        })
    }
}

/// The single derivation of every millisecond wall-clock report field
/// (`wall_ms`, `wall_ms_cum`, ...) from its microsecond counter:
/// truncating division, so a derived field is never larger than its
/// source implies. All report builders must go through this helper —
/// mixing rounding modes across fields would break the byte-identity
/// contract of [`crate::campaign::CampaignReport::normalized`] checks
/// that compare reports across code paths.
pub(crate) fn us_to_ms(us: u64) -> u64 {
    us / 1_000
}

impl DiceConfig {
    /// Sensible defaults for exploring `explorer` via `inject_peer`.
    pub fn new(explorer: NodeId, inject_peer: NodeId) -> Self {
        DiceConfig {
            explorer,
            inject_peer,
            concolic_executions: 192,
            validate_top: 48,
            horizon: SimDuration::from_secs(60),
            quiet_window: SimDuration::from_secs(5),
            snapshot_deadline: SimDuration::from_secs(10),
            strategy: Strategy::Generational,
            grammar_seeds: 8,
            solver_budget: SolverBudget::default(),
            oscillation_threshold: 20,
            workers: 1,
            seed: 0xD1CE,
            solver_cache: true,
            wire_pool: true,
            batch_delivery: true,
            delta_snapshots: true,
            schedule: None,
            unreliable_links: false,
            link_faults: None,
        }
    }
}

/// Outcome of one DiCE round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round number.
    pub round: u64,
    /// The node explored this round.
    pub explorer: NodeId,
    /// The peer whose inputs were impersonated.
    pub inject_peer: NodeId,
    /// Protocol tag of the explorer node ("bgp", ...).
    pub explorer_kind: String,
    /// Explorer session health at snapshot time (configured vs
    /// established sessions).
    pub explorer_sessions: crate::sut::SessionHealth,
    /// Snapshot cost accounting.
    pub snapshot: SnapshotMetrics,
    /// Concolic executions performed.
    pub executions: usize,
    /// Distinct code paths observed at the explorer node.
    pub distinct_paths: usize,
    /// Final branch coverage (site, direction) count.
    pub branch_coverage: usize,
    /// Inputs validated system-wide (including the null input).
    pub validated: usize,
    /// Deduplicated fault reports.
    pub faults: Vec<FaultReport>,
    /// Verdicts published through the information-sharing interface.
    pub verdicts_total: usize,
    /// Failing verdicts.
    pub verdicts_failed: usize,
    /// For each fault class detected: how many validated inputs ran before
    /// detection (1 = the null input / first input).
    pub detection_input_ordinal: BTreeMap<String, usize>,
    /// Host wall-clock cost of the round, in microseconds: the snapshot
    /// share (for the round that paid for the cut), its exploration, and
    /// the sum of its own validation units' times — whichever workers ran
    /// them, and however they overlapped. A cost, not an elapsed interval:
    /// with several validating threads it can exceed the time the round
    /// was in flight.
    pub wall_us: u64,
    /// Host wall-clock duration of the round, in milliseconds (derived
    /// from [`RoundReport::wall_us`]; kept for report compatibility).
    pub wall_ms: u64,
    /// Negation queries answered during exploration. Every one is a
    /// solver call now: the refutation cache that answered some of them is
    /// gone, and the hit count still added in here
    /// (`dice_concolic::SolverStats::cache_hits`) reads 0 until
    /// `benchmark/` stops naming it (ROADMAP items 17 and 3B). The same
    /// count whichever solver [`DiceConfig::solver_cache`] selects.
    pub solver_queries: u64,
    /// Solver SAT answers.
    pub solver_sat: u64,
}

impl RoundReport {
    /// The set of fault classes detected this round.
    pub fn classes(&self) -> BTreeSet<FaultClass> {
        self.faults.iter().map(|f| f.class).collect()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "round {} ({}@{} via {}): {} execs, {} paths, {} validated, {} faults ({} classes), {}ms",
            self.round,
            self.explorer_kind,
            self.explorer,
            self.inject_peer,
            self.executions,
            self.distinct_paths,
            self.validated,
            self.faults.len(),
            self.classes().len(),
            self.wall_ms
        )
    }
}

/// One explored `(explorer, peer)` pair: the public report plus the full
/// exploration record the campaign layer aggregates coverage from.
pub(crate) struct PairOutcome {
    pub(crate) report: RoundReport,
    pub(crate) exploration: ExplorationReport,
}

/// Output of the explore stage: everything the later stages need, with
/// the validation candidates broken out so the executor can hand them out
/// as independent units across its workers.
pub(crate) struct ExploreStage {
    pub(crate) kind: String,
    pub(crate) explorer_sessions: crate::sut::SessionHealth,
    pub(crate) exploration: ExplorationReport,
    /// System-wide validation inputs, null input first.
    pub(crate) candidates: Vec<Option<Vec<u8>>>,
}

/// What a round keeps of one validated candidate. The verdicts themselves
/// are counted and dropped with the clone's `CheckReport`: a sweep holds
/// one of these per unit until its fold.
pub(crate) struct Validated {
    /// Verdicts published through the information-sharing interface.
    pub(crate) verdicts: usize,
    /// Failing verdicts among them.
    pub(crate) failed: usize,
    /// Faults the checkers reported on this clone.
    pub(crate) faults: Vec<FaultReport>,
}

/// Stage 2 + candidate selection: run concolic exploration of the
/// explorer node's handler twin over the (shared) snapshot, then pick the
/// inputs worth validating system-wide — crashes first, then highest new
/// coverage, distinct input bytes only.
///
/// Pure function of `(shadow, cfg)`: safe to call concurrently for
/// different rounds over the same `ShadowSnapshot`. `state` is the calling
/// worker's exploration state, warm from its earlier rounds; what the
/// stage finds does not depend on it. Also returns the stage's host time
/// split into its plan, twin and solve phases (the three sum to the
/// stage's whole time, truncated to microseconds once; the twin's share
/// is estimated from a sample of its runs, [`TWIN_SAMPLE`]).
pub(crate) fn explore_stage(
    shadow: &ShadowSnapshot,
    cfg: &DiceConfig,
    catalog: &SutCatalog,
    state: &mut ExploreState,
) -> (Result<ExploreStage, String>, PhaseTimes) {
    #[expect(
        clippy::disallowed_methods,
        reason = "per-round phase accounting; zeroed by normalized()"
    )]
    let start = std::time::Instant::now();
    let mut phases = PhaseTimes::default();
    let stage = explore_timed(shadow, cfg, catalog, state, start, &mut phases);
    let whole = start.elapsed().as_micros() as u64;
    let rest = whole.saturating_sub(phases.plan_us);
    phases.twin_us = phases.twin_us.min(rest);
    phases.solve_us = rest - phases.twin_us;
    (stage, phases)
}

/// Of a session's twin runs after the first, one in this many is timed,
/// and the rest of the session's twin time is scaled up from those: two
/// clock reads around every run cost 1–1.5 % of a cold BGP session (an
/// in-process probe alternating the two), which a sweep of one such
/// session — `nemesis_detect` — pays in full.
const TWIN_SAMPLE: u32 = 8;

/// A program whose runs are timed — the first, then one in
/// [`TWIN_SAMPLE`]: what a session spends in the twin.
struct Timed<'p> {
    program: &'p mut dyn dice_concolic::ConcolicProgram,
    runs: u32,
    /// The first run: a seed, which interns most of what the session
    /// builds, so it stands for itself alone.
    first: std::time::Duration,
    /// The later runs timed, and their count.
    sampled: std::time::Duration,
    timed: u32,
}

impl Timed<'_> {
    /// The twin time of every run, estimated from the timed ones. On the
    /// twin cases of `dice_bench`, 40 sessions each, it read 0.99–1.05 of
    /// the exact time on gossip sessions and 0.91–1.13 on BGP ones, whose
    /// runs differ more in length.
    fn twin_us(&self) -> u64 {
        let rest = self.sampled * self.runs.saturating_sub(1) / self.timed.max(1);
        (self.first + rest).as_micros() as u64
    }

    /// One run of the program, timed if it is in the sample.
    fn run(&mut self, ctx: &mut dice_concolic::ConcolicCtx) -> RunStatus {
        self.runs += 1;
        if self.runs != 1 && self.runs % TWIN_SAMPLE != 2 {
            return self.program.run(ctx);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-round phase accounting; zeroed by normalized()"
        )]
        let start = std::time::Instant::now();
        let status = self.program.run(ctx);
        let took = start.elapsed();
        match self.runs {
            1 => self.first = took,
            _ => {
                self.sampled += took;
                self.timed += 1;
            }
        }
        status
    }
}

/// [`explore_stage`] itself; it fills in `phases.plan_us` (cumulative
/// from `start`) and `phases.twin_us` (the estimate).
#[expect(
    clippy::indexing_slicing,
    reason = "order permutes 0..executions.len(), so the index stays in bounds"
)]
fn explore_timed(
    shadow: &ShadowSnapshot,
    cfg: &DiceConfig,
    catalog: &SutCatalog,
    state: &mut ExploreState,
    start: std::time::Instant,
    phases: &mut PhaseTimes,
) -> Result<ExploreStage, String> {
    let explorer_node = shadow
        .nodes()
        .get(&cfg.explorer)
        .ok_or("explorer node missing from snapshot")?;
    let sut = catalog
        .resolve(explorer_node.as_ref())
        .ok_or("explorer node is not explorable (no SUT probe matched)")?;
    let kind = sut.kind();
    let explorer_sessions = sut.check_view().session_health();
    let plan = sut.exploration_plan(cfg.inject_peer, cfg.grammar_seeds, cfg.seed);
    phases.plan_us = start.elapsed().as_micros() as u64;
    let plan = plan?;
    let mut program = plan.program;
    let explore_cfg = ExploreConfig {
        strategy: cfg.strategy,
        max_executions: cfg.concolic_executions,
        solver_budget: cfg.solver_budget,
        solver_cache: cfg.solver_cache,
    };
    let mut timed = Timed {
        program: &mut *program,
        runs: 0,
        first: std::time::Duration::ZERO,
        sampled: std::time::Duration::ZERO,
        timed: 0,
    };
    let mut run = |ctx: &mut dice_concolic::ConcolicCtx| timed.run(ctx);
    let exploration = state.explore(&mut run, &plan.seeds, &plan.marker, &explore_cfg);
    phases.twin_us = timed.twin_us();

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
    let mut seen_inputs: BTreeSet<&[u8]> = BTreeSet::new();
    let mut candidates: Vec<Option<Vec<u8>>> = vec![None]; // null input first
    for i in order {
        if candidates.len() > cfg.validate_top {
            break;
        }
        let e = &exploration.executions[i];
        if seen_inputs.insert(&e.input) {
            candidates.push(Some(e.input.clone()));
        }
    }

    Ok(ExploreStage {
        kind: kind.to_string(),
        explorer_sessions,
        exploration,
        candidates,
    })
}

/// Validate one candidate on an isolated clone of the snapshot and run
/// the checker battery over the outcome — the unit of validation-level
/// parallelism. Deterministic in `(shadow, cfg, i, input)` regardless of
/// whether the clone came from `pool` reset in place or freshly built;
/// the pool only recycles allocations. Also returns the unit's host time
/// split into its acquire, drive and check phases (the three sum to the
/// unit's whole time, truncated to microseconds once).
#[expect(
    clippy::too_many_arguments,
    reason = "one validation unit reads the whole round context; the executor passes it straight from its Sweep"
)]
pub(crate) fn validate_one(
    i: usize,
    input: Option<&Vec<u8>>,
    shadow: &ShadowSnapshot,
    topo: &Topology,
    cfg: &DiceConfig,
    catalog: &SutCatalog,
    registry: &AttestationRegistry,
    baseline: &crate::check::CheckBaseline,
    checkers: &[Box<dyn Checker>],
    pool: &mut crate::pool::ClonePool,
) -> (Validated, PhaseTimes) {
    #[expect(
        clippy::disallowed_methods,
        reason = "per-unit phase accounting; zeroed by normalized()"
    )]
    let start = std::time::Instant::now();
    let mut clone = pool.acquire(shadow, topo, cfg.seed ^ (i as u64) << 16);
    clone.set_wire_config(cfg.wire_pool, cfg.batch_delivery);
    clone.set_delta_snapshots(cfg.delta_snapshots);
    if let Some(faults) = cfg.link_faults {
        clone.set_link_faults(faults);
    }
    clone.set_unreliable_links(cfg.unreliable_links);
    let acquired = start.elapsed();
    if let Some(bytes) = input {
        clone.deliver_direct(cfg.inject_peer, cfg.explorer, bytes);
    }
    let end = shadow.base_time() + cfg.horizon;
    let quiet = clone.run_until_quiet(cfg.quiet_window, end);
    let driven = start.elapsed();
    let report = {
        let cx = CheckContext {
            sim: &clone,
            catalog,
            registry,
            baseline_flips: baseline,
            quiet,
            injected: input.is_some(),
        };
        run_checkers(checkers, &cx)
    };
    pool.release(clone);
    let (acquired_us, driven_us) = (acquired.as_micros() as u64, driven.as_micros() as u64);
    let times = PhaseTimes {
        acquire_us: acquired_us,
        drive_us: driven_us - acquired_us,
        check_us: start.elapsed().as_micros() as u64 - driven_us,
        ..PhaseTimes::default()
    };
    let validated = Validated {
        verdicts: report.verdicts.len(),
        failed: report.failed(),
        faults: report.faults,
    };
    (validated, times)
}

/// Stage 4: fold per-clone check results into the round's [`RoundReport`].
/// `results` must be in candidate order; the fold is deterministic, so a
/// parallel executor reproduces the sequential report exactly.
pub(crate) fn check_stage<'v>(
    stage: ExploreStage,
    results: impl Iterator<Item = &'v Validated>,
    cfg: &DiceConfig,
    round: u64,
    snap_metrics: SnapshotMetrics,
    wall_us: u64,
) -> PairOutcome {
    let mut faults: Vec<FaultReport> = Vec::new();
    let mut seen_keys = BTreeSet::new();
    let mut verdicts_total = 0;
    let mut verdicts_failed = 0;
    let mut detection: BTreeMap<String, usize> = BTreeMap::new();
    for (i, unit) in results.enumerate() {
        verdicts_total += unit.verdicts;
        verdicts_failed += unit.failed;
        for f in &unit.faults {
            detection.entry(f.class.to_string()).or_insert(i + 1);
            if seen_keys.insert(f.key()) {
                faults.push(f.clone());
            }
        }
    }

    let exploration = stage.exploration;
    let report = RoundReport {
        round,
        explorer: cfg.explorer,
        inject_peer: cfg.inject_peer,
        explorer_kind: stage.kind,
        explorer_sessions: stage.explorer_sessions,
        snapshot: snap_metrics,
        executions: exploration.executions.len(),
        distinct_paths: exploration.distinct_paths,
        branch_coverage: exploration.final_coverage(),
        validated: stage.candidates.len(),
        faults,
        verdicts_total,
        verdicts_failed,
        detection_input_ordinal: detection,
        wall_us,
        wall_ms: us_to_ms(wall_us),
        solver_queries: exploration.solver.queries + exploration.solver.cache_hits,
        solver_sat: exploration.solver.sat,
    };
    PairOutcome {
        report,
        exploration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp_sut;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::scenarios;
    use crate::sut::ExplorableNode;
    use dice_netsim::{SimTime, Simulator};

    /// A BGP router that is inert on the live system and panics on the
    /// first message any *copy* of it handles — i.e. only inside a
    /// validation clone. `as_any` forwards to the wrapped router, so the
    /// SUT catalog and the checkers see a plain `BgpRouter`.
    struct Tripwire {
        inner: dice_bgp::BgpRouter,
        armed: bool,
    }

    impl dice_netsim::Node for Tripwire {
        fn on_start(&mut self, api: &mut dice_netsim::NodeApi<'_>) {
            self.inner.on_start(api);
        }
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut dice_netsim::NodeApi<'_>) {
            if self.armed {
                panic!("tripwire boom: the clone's own failure");
            }
            self.inner.on_message(from, data, api);
        }
        fn on_timer(&mut self, token: u64, api: &mut dice_netsim::NodeApi<'_>) {
            self.inner.on_timer(token, api);
        }
        fn on_session(
            &mut self,
            peer: NodeId,
            ev: dice_netsim::SessionEvent,
            api: &mut dice_netsim::NodeApi<'_>,
        ) {
            self.inner.on_session(peer, ev, api);
        }
        fn clone_node(&self) -> Box<dyn dice_netsim::Node> {
            Box::new(Tripwire {
                inner: self.inner.clone(),
                armed: true,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            &self.inner
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            &mut self.inner
        }
    }

    #[test]
    fn validation_clone_panic_surfaces_its_own_message() {
        // The explorer's handler panics inside a validation clone on a
        // pool worker: `Campaign::run` must re-raise *that* panic, not the
        // scope join's generic "a scoped thread panicked".
        use dice_bgp::{BgpRouter, RouterConfig, RouterId};
        use dice_netsim::{LinkParams, Node};
        let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut sim = Simulator::new(topo.clone(), 5);
        for i in topo.node_ids() {
            let mut cfg =
                RouterConfig::minimal(scenarios::asn_of(i.0), RouterId(0x0A00_0001 + i.0))
                    .with_network(scenarios::prefix_of(i.0));
            for m in topo.neighbors(i) {
                cfg = cfg.with_neighbor(m, scenarios::asn_of(m.0), "all", "all");
            }
            let router = BgpRouter::new(cfg);
            let node: Box<dyn Node> = if i == NodeId(1) {
                Box::new(Tripwire {
                    inner: router,
                    armed: false,
                })
            } else {
                Box::new(router)
            };
            sim.set_node(i, node);
        }
        sim.start();
        sim.run_until(SimTime::from_nanos(10_000_000_000));

        let mut template = DiceConfig::new(NodeId(1), NodeId(0));
        template.concolic_executions = 16;
        template.validate_top = 4;
        template.workers = 4;
        let campaign = Campaign::new(&sim).config(CampaignConfig {
            explorers: vec![NodeId(1)],
            max_peers_per_explorer: 1,
            template,
            ..CampaignConfig::default()
        });
        assert_eq!(campaign.sweep_plan(), [(NodeId(1), vec![NodeId(0)])]);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| campaign.run(&mut sim)))
                .expect_err("the clone's panic must propagate");
        // Both the tripwire's literal and the scope join's generic message
        // are `&'static str` payloads.
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("tripwire boom: the clone's own failure"),
            "the clone's own panic must surface, got: {msg}"
        );
    }

    #[test]
    fn zero_grammar_seeds_disables_grammar_layer() {
        // Regression: `grammar_seeds = 0` is documented to disable the
        // grammar layer but used to seed two generated messages anyway.
        let sim = scenarios::healthy_line(3, 13);
        let router = bgp_sut::as_bgp(sim.node(NodeId(1))).expect("node 1 is a router");
        let plan = router
            .exploration_plan(NodeId(0), 0, 0xD1CE)
            .expect("node 0 is node 1's neighbour");
        // The only seed is the fixed minimal message.
        assert_eq!(
            plan.seeds,
            [bgp_sut::minimal_seed(scenarios::asn_of(0))],
            "grammar layer must be fully disabled at zero seeds"
        );
    }

    #[test]
    fn config_json_without_new_perf_knobs_still_loads() {
        // Config files persisted before the perf knobs existed must keep
        // deserializing, with the new knobs at their defaults.
        let cfg = DiceConfig::new(NodeId(1), NodeId(0));
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json
            .replace(",\"solver_cache\":true", "")
            .replace(",\"wire_pool\":true", "")
            .replace(",\"batch_delivery\":true", "")
            .replace(",\"delta_snapshots\":true", "")
            .replace(",\"schedule\":null", "")
            .replace(",\"unreliable_links\":false", "")
            .replace(",\"link_faults\":null", "");
        assert_ne!(json, stripped, "all knobs were present and removed");
        let back: DiceConfig = serde_json::from_str(&stripped).unwrap();
        assert!(back.solver_cache, "absent solver_cache defaults to on");
        assert!(back.wire_pool, "absent wire_pool defaults to on");
        assert!(back.batch_delivery, "absent batch_delivery defaults to on");
        assert!(
            back.delta_snapshots,
            "absent delta_snapshots defaults to on"
        );
        assert!(back.schedule.is_none(), "absent schedule defaults to none");
        assert!(
            !back.unreliable_links,
            "absent unreliable_links defaults to off"
        );
        assert!(back.link_faults.is_none(), "absent link_faults defaults");
        assert_eq!(back.explorer, cfg.explorer);
        assert_eq!(back.concolic_executions, cfg.concolic_executions);
        // And the full round-trip still holds when the knobs are present.
        let full: DiceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), json);
    }
}
