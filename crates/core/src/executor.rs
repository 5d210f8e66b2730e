//! One DiCE round per the paper's Figure 2, and the parallel executor that
//! runs a sweep of them: **explore → barrier → validate**, inside one
//! [`std::thread::scope`] per sweep.
//!
//! 1. **Cut.** [`Campaign::run`] establishes a consistent shadow snapshot
//!    of local node checkpoints (in-band Chandy–Lamport), one per
//!    explorer, shared by all of that explorer's rounds.
//! 2. **Explore** ([`Sweep::explore_stage`]). Exercise the explorer
//!    node's input handler with concolic execution over the instrumented
//!    twin delivered by its [`ExplorationPlan`](crate::sut::ExplorationPlan)
//!    — for BGP routers, the UPDATE-handler twin seeded by
//!    grammar-generated messages ("test suite" seeds, Oasis-style).
//! 3. **Validate** ([`Sweep::validate_one`]). Each interesting input,
//!    system-wide: clone the snapshot into an isolated simulator, inject
//!    the input as if received from the peer, run to quiescence, and run
//!    the property-checker battery.
//! 4. **Aggregate** ([`Sweep::check_stage`], then the campaign's fold).
//!    Local verdicts, through the information-sharing interface, become
//!    fault reports.
//!
//! The runtime never names a concrete protocol: nodes are resolved through
//! the [`SutCatalog`] probe chain, so federations mixing BGP routers with
//! other [`ExplorableNode`](crate::sut::ExplorableNode) implementors
//! explore uniformly.
//!
//! Once a sweep's cuts are taken, every exploration and every validated
//! input is a pure function of the shadow and the campaign's one round
//! template, so scheduling them needs no shared mutable state beyond two
//! claim counters. A sweep explores *sessions*, not rounds: `Campaign::run`
//! numbers each round's session when it plans the sweep, and the rounds of
//! an explorer whose plan does not read the inject peer
//! ([`ExplorableNode::plan_depends_on_peer`](crate::sut::ExplorableNode::plan_depends_on_peer))
//! share one — a gossip16 sweep explores 16 sessions for its 64 rounds.
//! Every one of the sweep's `workers` threads runs the same three steps:
//!
//! 1. **Explore.** Claim whole sessions from `session_next`, explore each
//!    from its first round's task and publish its [`ExploreStage`] exactly
//!    once (a [`OnceLock`] per session). A worker explores its sessions
//!    on one [`ExploreState`] of its own, built when it claims its first
//!    session and kept for the sweep: which sessions share a state is the
//!    schedule's choice, and no report field depends on it.
//! 2. **Barrier.** All workers meet at one [`Barrier`]; behind it every
//!    session's candidate list is final and readable by everyone.
//! 3. **Validate.** Claim flat `(round, candidate)` units of the *whole
//!    sweep* from `unit_next` — a long round's tail is shared by every
//!    worker, never waited out by one — and keep what each produced (a
//!    [`UnitDone`] per unit, not the clone's `CheckReport`). Every round
//!    validates its session's candidates, each injected from the round's
//!    own peer.
//!
//! Workers hand their units back through their join handles; the calling
//! thread sorts them by `(round, candidate)` and folds the rounds in
//! ordinal order, each round reading its session's stage by reference.
//! Nothing a worker writes is visible to another worker except through
//! the `OnceLock`s and the barrier, so there is no lock to order, poison
//! or audit — and the schedule cannot influence any report field except
//! wall-clock times and the clone-pool counters:
//! [`crate::campaign::CampaignReport::normalized`] is byte-stable across
//! worker counts, which `tests/heterogeneous.rs` locks in, and across
//! sharing, which `shared_sessions_fold_to_the_unshared_report` does.
//!
//! Panics: a worker that unwinds while exploring still has to reach the
//! barrier (the others would wait for it forever), so the exploration
//! phase runs under `catch_unwind` and re-raises behind the barrier. A
//! validation panic simply ends its worker; the rest drain the remaining
//! units. Either way [`run_rounds`] joins every worker and re-raises the
//! worker's own payload, not the scope's generic "a scoped thread
//! panicked".

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use dice_concolic::{ConcolicCtx, ExplorationReport, ExploreConfig, ExploreState, RunStatus};
use dice_netsim::{NodeId, ShadowSnapshot, Topology};

use crate::campaign::{us_to_ms, Campaign, DiceConfig, PhaseTimes, RoundReport};
use crate::check::{run_checkers, CheckBaseline, CheckContext, Checker, FaultReport};
use crate::interface::AttestationRegistry;
use crate::pool::{ClonePool, PoolStats};
use crate::snapshot::SnapshotMetrics;
use crate::sut::{SessionHealth, SutCatalog};

/// One scheduled `(explorer, peer)` round: its deterministic ordinal, its
/// pair, the shared (Arc'd) snapshot context it explores over, and the
/// exploration session it validates.
pub(crate) struct RoundTask {
    /// 1-based round ordinal in sweep order; fixes report ordering, seed
    /// context, and first-detection attribution independent of schedule.
    pub(crate) ordinal: u64,
    /// The node explored.
    pub(crate) explorer: NodeId,
    /// The neighbour whose inputs are impersonated.
    pub(crate) peer: NodeId,
    /// The consistent snapshot shared by all of this explorer's rounds.
    pub(crate) shadow: Arc<ShadowSnapshot>,
    /// Flip baseline computed once per snapshot.
    pub(crate) baseline: Arc<CheckBaseline>,
    /// Snapshot cost carried by the first round per snapshot, zeroed for
    /// the reuse rounds (see `Campaign::run` docs); its `wall_micros` is
    /// the cut's share of the round's `wall_us`.
    pub(crate) snap_metrics: SnapshotMetrics,
    /// The sweep's exploration session whose candidates this round
    /// validates, numbered from 0 in task order. Rounds that share a
    /// session are adjacent, and the first of them explores it.
    pub(crate) exploration: usize,
}

/// A completed round plus when it finished on the campaign clock (for
/// online detection-latency accounting) and where its time went.
pub(crate) struct RoundDone<'s> {
    pub(crate) report: RoundReport,
    /// The session the round validated, which several rounds may read:
    /// the campaign aggregates coverage from its exploration record.
    pub(crate) stage: &'s ExploreStage,
    /// Whether this round explored its session: `false` for a round that
    /// validates an earlier round's, whose work is already counted.
    pub(crate) explored: bool,
    /// Its exploration (if it ran one) and its own validation units, by
    /// phase (no cut: the campaign counts each cut once, where it is
    /// taken).
    pub(crate) phases: PhaseTimes,
    /// Campaign wall-clock micros elapsed when the round's last
    /// validation unit finished.
    pub(crate) completed_wall_us: u64,
}

/// Output of the explore stage: everything the later stages need, with
/// the validation candidates broken out so the executor can hand them out
/// as independent units across its workers.
pub(crate) struct ExploreStage {
    pub(crate) kind: &'static str,
    explorer_sessions: SessionHealth,
    pub(crate) exploration: ExplorationReport,
    /// System-wide validation inputs, null input first.
    candidates: Vec<Option<Vec<u8>>>,
}

/// One session's exploration as its worker published it: the stage (or
/// the error of the round that explored it) and the wall micros exploring
/// took, by phase.
type Explored = (Result<ExploreStage, String>, PhaseTimes);

/// What a worker keeps of one validated `(round, candidate)` unit. The
/// verdicts themselves are counted and dropped with the clone's
/// `CheckReport`: a sweep holds one of these per unit until its fold.
struct UnitDone {
    /// Index into the task list.
    round: usize,
    /// Index into that round's candidate list (null input = 0).
    candidate: usize,
    /// Verdicts published through the information-sharing interface.
    verdicts: usize,
    /// Failing verdicts among them.
    failed: usize,
    /// Faults the checkers reported on this clone.
    faults: Vec<FaultReport>,
    /// Wall micros this unit took, by phase — billed to its own round,
    /// whichever worker ran it.
    phases: PhaseTimes,
    /// Campaign wall-clock micros elapsed when the unit finished.
    finished_us: u64,
}

/// One sweep's schedule: the read-only round context plus everything the
/// workers share.
struct Sweep<'e> {
    tasks: &'e [RoundTask],
    /// The campaign's one round template; its `explorer` and
    /// `inject_peer` are not read — each task names its pair.
    template: &'e DiceConfig,
    topo: &'e Topology,
    catalog: &'e SutCatalog,
    registry: &'e AttestationRegistry,
    checkers: &'e [Box<dyn Checker>],
    campaign_start: Instant,
    /// Next unclaimed exploration session. `Relaxed`: a claim publishes
    /// nothing — the stage goes out through `explored`.
    session_next: AtomicUsize,
    /// Per-session exploration results, indexed by
    /// [`RoundTask::exploration`]; each is set once, by the worker that
    /// claimed the session.
    explored: Vec<OnceLock<Explored>>,
    /// Where the exploration phase ends for every worker at once.
    barrier: Barrier,
    /// Next unclaimed validation unit, counted across the whole sweep in
    /// `(round, candidate)` order. `Relaxed`: the candidate lists it
    /// indexes were published by the barrier.
    unit_next: AtomicUsize,
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
    first: Duration,
    /// The later runs timed, and their count.
    sampled: Duration,
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
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        self.runs += 1;
        if self.runs != 1 && self.runs % TWIN_SAMPLE != 2 {
            return self.program.run(ctx);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-round phase accounting; zeroed by normalized()"
        )]
        let start = Instant::now();
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

impl Sweep<'_> {
    /// The stage round `task` validates, once the barrier has published it.
    fn stage_of(&self, task: &RoundTask) -> Option<&Explored> {
        self.explored.get(task.exploration)?.get()
    }

    /// Exploration phase of one worker: claim sessions until none is
    /// left, each explored from the task of its first round, all on the
    /// worker's one [`ExploreState`] — built on its first claimed session
    /// (a worker that claims none builds none), as [`Sweep::worker`]
    /// builds its clone pool, and dropped with the sweep.
    fn explore_sessions(&self) {
        let mut state = None;
        loop {
            let idx = self.session_next.fetch_add(1, Ordering::Relaxed);
            // Sessions are numbered in task order, so the first round of
            // session `idx` follows every round of the ones before it.
            let first = self.tasks.partition_point(|t| t.exploration < idx);
            let (Some(task), Some(slot)) = (self.tasks.get(first), self.explored.get(idx)) else {
                return;
            };
            let state = state.get_or_insert_with(ExploreState::new);
            let explored = self.explore_stage(task, state);
            // Each index is claimed once, so the slot is still empty.
            let _ = slot.set(explored);
        }
    }

    /// Stage 2 + candidate selection: run concolic exploration of the
    /// explorer node's handler twin over the (shared) snapshot, then pick
    /// the inputs worth validating system-wide — crashes first, then
    /// highest new coverage, distinct input bytes only.
    ///
    /// Pure function of the task's shadow and pair and the template: safe
    /// to call concurrently for different rounds over the same
    /// `ShadowSnapshot`. `state` is the calling worker's exploration
    /// state, warm from its earlier sessions; what the stage finds does
    /// not depend on it. Also returns the stage's host time split into its
    /// plan, twin and solve phases (the three sum to the stage's whole
    /// time, truncated to microseconds once; the twin's share is estimated
    /// from a sample of its runs, [`TWIN_SAMPLE`]).
    fn explore_stage(&self, task: &RoundTask, state: &mut ExploreState) -> Explored {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-round phase accounting; zeroed by normalized()"
        )]
        let start = Instant::now();
        let mut phases = PhaseTimes::default();
        let stage = self.explore_timed(task, state, start, &mut phases);
        let whole = start.elapsed().as_micros() as u64;
        let rest = whole.saturating_sub(phases.plan_us);
        phases.twin_us = phases.twin_us.min(rest);
        phases.solve_us = rest - phases.twin_us;
        (stage, phases)
    }

    /// [`Sweep::explore_stage`] itself; it fills in `phases.plan_us`
    /// (cumulative from `start`) and `phases.twin_us` (the estimate).
    #[expect(
        clippy::indexing_slicing,
        reason = "order permutes 0..executions.len(), so the index stays in bounds"
    )]
    fn explore_timed(
        &self,
        task: &RoundTask,
        state: &mut ExploreState,
        start: Instant,
        phases: &mut PhaseTimes,
    ) -> Result<ExploreStage, String> {
        let cfg = self.template;
        let explorer_node = task
            .shadow
            .nodes()
            .get(&task.explorer)
            .ok_or("explorer node missing from snapshot")?;
        let sut = self
            .catalog
            .resolve(explorer_node.as_ref())
            .ok_or("explorer node is not explorable (no SUT probe matched)")?;
        let kind = sut.kind();
        let explorer_sessions = sut.check_view().session_health();
        let plan = sut.exploration_plan(task.peer, cfg.grammar_seeds, cfg.seed);
        phases.plan_us = start.elapsed().as_micros() as u64;
        let plan = plan?;
        let mut program = plan.program;
        let explore_cfg = ExploreConfig {
            strategy: cfg.strategy,
            max_executions: cfg.concolic_executions,
            solver_budget: cfg.solver_budget,
            ..ExploreConfig::default()
        };
        let mut timed = Timed {
            program: &mut *program,
            runs: 0,
            first: Duration::ZERO,
            sampled: Duration::ZERO,
            timed: 0,
        };
        let mut run = |ctx: &mut ConcolicCtx| timed.run(ctx);
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
            kind,
            explorer_sessions,
            exploration,
            candidates,
        })
    }

    /// Validate candidate `candidate` of round `round` (whose task and
    /// stage these are) on an isolated clone of the snapshot from the
    /// calling worker's `pool`, and run the checker battery over the
    /// outcome — the unit of validation-level parallelism. Deterministic
    /// in the shadow, the template, the pair and the candidate, whether
    /// the clone was reset in place or freshly built; the pool only
    /// recycles allocations. The unit's host time is split into its
    /// acquire, drive and check phases (the three sum to the unit's whole
    /// time, truncated to microseconds once).
    fn validate_one(
        &self,
        round: usize,
        candidate: usize,
        task: &RoundTask,
        stage: &ExploreStage,
        pool: &mut ClonePool,
    ) -> Option<UnitDone> {
        let input = stage.candidates.get(candidate)?.as_ref();
        let cfg = self.template;
        #[expect(
            clippy::disallowed_methods,
            reason = "per-unit phase accounting; zeroed by normalized()"
        )]
        let start = Instant::now();
        let mut clone = pool.acquire(&task.shadow, self.topo, cfg.seed ^ (candidate as u64) << 16);
        if let Some(faults) = cfg.link_faults {
            clone.set_link_faults(faults);
        }
        clone.set_unreliable_links(cfg.unreliable_links);
        let acquired = start.elapsed();
        if let Some(bytes) = input {
            clone.deliver_direct(task.peer, task.explorer, bytes);
        }
        let end = task.shadow.base_time() + cfg.horizon;
        let quiet = clone.run_until_quiet(cfg.quiet_window, end);
        let driven = start.elapsed();
        let report = {
            let cx = CheckContext {
                sim: &clone,
                catalog: self.catalog,
                registry: self.registry,
                baseline_flips: &task.baseline,
                quiet,
                injected: input.is_some(),
            };
            run_checkers(self.checkers, &cx)
        };
        pool.release(clone);
        let (acquired_us, driven_us) = (acquired.as_micros() as u64, driven.as_micros() as u64);
        Some(UnitDone {
            round,
            candidate,
            verdicts: report.verdicts.len(),
            failed: report.failed(),
            faults: report.faults,
            phases: PhaseTimes {
                acquire_us: acquired_us,
                drive_us: driven_us - acquired_us,
                check_us: start.elapsed().as_micros() as u64 - driven_us,
                ..PhaseTimes::default()
            },
            finished_us: self.campaign_start.elapsed().as_micros() as u64,
        })
    }

    /// Stage 4: fold round `task`'s units, in candidate order, into its
    /// [`RoundReport`]. The fold is deterministic, so a parallel executor
    /// reproduces the sequential report exactly. `stage` is the round's
    /// exploration session, read, not taken: every round that shares the
    /// session reports the same exploration fields.
    fn check_stage(
        &self,
        task: &RoundTask,
        stage: &ExploreStage,
        units: &[UnitDone],
        wall_us: u64,
    ) -> RoundReport {
        let mut faults: Vec<FaultReport> = Vec::new();
        let mut seen_keys = BTreeSet::new();
        let mut verdicts_total = 0;
        let mut verdicts_failed = 0;
        let mut detection: BTreeMap<String, usize> = BTreeMap::new();
        for (i, unit) in units.iter().enumerate() {
            verdicts_total += unit.verdicts;
            verdicts_failed += unit.failed;
            for f in &unit.faults {
                detection.entry(f.class.to_string()).or_insert(i + 1);
                if seen_keys.insert(f.key()) {
                    faults.push(f.clone());
                }
            }
        }

        let exploration = &stage.exploration;
        RoundReport {
            round: task.ordinal,
            explorer: task.explorer,
            inject_peer: task.peer,
            explorer_kind: stage.kind.to_string(),
            explorer_sessions: stage.explorer_sessions,
            snapshot: task.snap_metrics,
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
            solver_queries: exploration.solver.queries,
            solver_sat: exploration.solver.sat,
        }
    }

    /// One worker, start to finish: explore, meet the others, then
    /// validate. Returns the units it ran and its clone pool's counters.
    fn worker(&self) -> (Vec<UnitDone>, PoolStats) {
        // An unwinding explorer must still arrive at the barrier, or the
        // other workers block on it forever.
        let explored = catch_unwind(AssertUnwindSafe(|| self.explore_sessions()));
        self.barrier.wait();
        if let Err(payload) = explored {
            resume_unwind(payload);
        }

        // Claimed unit numbers only grow, so one pass over the rounds with
        // a running base offset maps each to its `(round, candidate)`.
        let mut pool = ClonePool::new();
        let mut units = Vec::new();
        let mut unit = self.unit_next.fetch_add(1, Ordering::Relaxed);
        let mut base = 0usize;
        for (round, task) in self.tasks.iter().enumerate() {
            let Some((Ok(stage), _)) = self.stage_of(task) else {
                continue; // a failed round has nothing to validate
            };
            let end = base + stage.candidates.len();
            while unit < end {
                units.extend(self.validate_one(round, unit - base, task, stage, &mut pool));
                unit = self.unit_next.fetch_add(1, Ordering::Relaxed);
            }
            base = end;
        }
        (units, pool.stats)
    }
}

/// Execute `tasks` over `campaign`'s template, catalog and registry on
/// its `workers` threads (`0` counts as `1`), each exploring and then
/// validating, and hand each round's result to `fold`, in task order;
/// return the aggregated clone-pool counters, or the first failed round's
/// error (after the rounds before it were folded). `tasks` must number
/// their sessions from 0 in task order ([`RoundTask::exploration`]).
pub(crate) fn run_rounds(
    campaign: &Campaign,
    tasks: &[RoundTask],
    topo: &Topology,
    checkers: &[Box<dyn Checker>],
    campaign_start: Instant,
    mut fold: impl FnMut(&RoundTask, RoundDone<'_>),
) -> Result<PoolStats, String> {
    let template = &campaign.cfg.template;
    let workers = template.workers.max(1);
    let sessions = tasks.last().map_or(0, |t| t.exploration + 1);
    let sweep = Sweep {
        tasks,
        template,
        topo,
        catalog: &campaign.catalog,
        registry: &campaign.registry,
        checkers,
        campaign_start,
        session_next: AtomicUsize::new(0),
        explored: (0..sessions).map(|_| OnceLock::new()).collect(),
        barrier: Barrier::new(workers),
        unit_next: AtomicUsize::new(0),
    };
    let worked: Vec<(Vec<UnitDone>, PoolStats)> = if workers == 1 {
        // No thread to spawn or join; a panic propagates directly.
        vec![sweep.worker()]
    } else {
        // Every worker is spawned (the calling thread only joins), and
        // every handle is joined here, so a worker's panic is re-raised
        // with its own payload.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| sweep.worker())).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };

    let mut pool_stats = PoolStats::default();
    let mut units: Vec<UnitDone> = Vec::new();
    for (done, stats) in worked {
        pool_stats.absorb(stats);
        units.extend(done);
    }
    // Arrival order is the schedule's; the fold must not see it.
    units.sort_unstable_by_key(|u| (u.round, u.candidate));
    let mut rest = units.as_slice();
    let mut explored_last = None;
    for task in tasks {
        let (stage, explore_phases) = sweep.stage_of(task).ok_or("round never explored")?;
        let stage = stage.as_ref().map_err(String::clone)?;
        // The first round of a session carries its exploration; the rest
        // read the same stage and add only their own units.
        let explored = explored_last.replace(task.exploration) != Some(task.exploration);
        let mut phases = if explored {
            *explore_phases
        } else {
            PhaseTimes::default()
        };
        let (own, later) = rest
            .split_at_checked(stage.candidates.len())
            .ok_or("round never completed")?;
        rest = later;
        for unit in own {
            phases.add(unit.phases);
        }
        let wall_us = task.snap_metrics.wall_micros + phases.total_us();
        fold(
            task,
            RoundDone {
                report: sweep.check_stage(task, stage, own, wall_us),
                stage,
                explored,
                phases,
                completed_wall_us: own.iter().map(|u| u.finished_us).max().unwrap_or(0),
            },
        );
    }
    Ok(pool_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::check::CheckReport;
    use crate::scenarios;
    use crate::snapshot::take_consistent_snapshot;
    use dice_netsim::{SimDuration, SimTime, Simulator};

    /// A checker that panics while validating — stands in for any defect
    /// in round code running on a pool worker.
    struct ExplodingChecker;

    impl Checker for ExplodingChecker {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn check_into(&self, _cx: &CheckContext<'_>, _report: &mut CheckReport) {
            panic!("checker boom: the original failure");
        }
    }

    #[test]
    fn worker_panic_propagates_its_own_message() {
        // Regression: a panicking validation unit must surface *its* panic
        // through the scope join — not a secondary "poisoned mutex" panic
        // from one of the surviving workers.
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let campaign = Campaign::new(&sim)
            .executions(8)
            .validate_top(4)
            .horizon(SimDuration::from_secs(20))
            .workers(3);
        let topo = sim.topology().clone();
        let (shadow, snap_metrics) =
            take_consistent_snapshot(&mut sim, NodeId(1), SimDuration::from_secs(10))
                .expect("snapshot completes");
        let shadow = shadow.into_shared();
        let baseline = Arc::new(crate::check::flips_baseline(&campaign.catalog, &shadow));
        let mk_task = |ordinal: u64, peer: u32| RoundTask {
            ordinal,
            explorer: NodeId(1),
            peer: NodeId(peer),
            shadow: Arc::clone(&shadow),
            baseline: Arc::clone(&baseline),
            snap_metrics,
            exploration: ordinal as usize - 1,
        };
        let tasks = vec![mk_task(1, 0), mk_task(2, 2)];
        let checkers: Vec<Box<dyn Checker>> = vec![Box::new(ExplodingChecker)];
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                &campaign,
                &tasks,
                &topo,
                &checkers,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "campaign start reference for latency fields"
                )]
                Instant::now(),
                |_, _| {},
            )
        }));
        let payload = match outcome {
            Ok(_) => panic!("panicking checker must propagate"),
            Err(payload) => payload,
        };
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(
            msg.contains("checker boom: the original failure"),
            "the worker's own panic must surface, got: {msg}"
        );
    }

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
}
