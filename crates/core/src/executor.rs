//! The campaign-level parallel round executor: **explore → barrier →
//! validate**, inside one [`std::thread::scope`] per sweep.
//!
//! Once a sweep's cuts are taken, every exploration and every validated
//! input is a pure function of `(shadow, cfg)`, so scheduling them needs
//! no shared mutable state beyond two claim counters. A sweep explores
//! *sessions*, not rounds: `Campaign::run` numbers each round's session
//! when it plans the sweep, and the rounds of an explorer whose plan does
//! not read the inject peer
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

use dice_concolic::ExploreState;
use dice_netsim::{ShadowSnapshot, Topology};

use crate::campaign::PhaseTimes;
use crate::check::Checker;
use crate::explorer::{
    check_stage, explore_stage, validate_one, DiceConfig, ExploreStage, PairOutcome, Validated,
};
use crate::interface::AttestationRegistry;
use crate::pool::{ClonePool, PoolStats};
use crate::snapshot::SnapshotMetrics;
use crate::sut::SutCatalog;

/// One scheduled `(explorer, peer)` round: its deterministic ordinal, the
/// per-round configuration, the shared (Arc'd) snapshot context it
/// explores over, and the exploration session it validates.
pub(crate) struct RoundTask {
    /// 1-based round ordinal in sweep order; fixes report ordering, seed
    /// context, and first-detection attribution independent of schedule.
    pub(crate) ordinal: u64,
    /// Round configuration (template with `explorer` / `inject_peer` set).
    pub(crate) cfg: DiceConfig,
    /// The consistent snapshot shared by all of this explorer's rounds.
    pub(crate) shadow: Arc<ShadowSnapshot>,
    /// Flip baseline computed once per snapshot.
    pub(crate) baseline: Arc<crate::check::CheckBaseline>,
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
    pub(crate) outcome: PairOutcome<'s>,
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

/// One session's exploration as its worker published it: the stage (or
/// the error of the round that explored it) and the wall micros exploring
/// took, by phase.
type Explored = (Result<ExploreStage, String>, PhaseTimes);

/// What a worker keeps of one validated `(round, candidate)` unit.
struct UnitDone {
    /// Index into the task list.
    round: usize,
    /// Index into that round's candidate list (null input = 0).
    candidate: usize,
    validated: Validated,
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
            let explored = explore_stage(&task.shadow, &task.cfg, self.catalog, state);
            // Each index is claimed once, so the slot is still empty.
            let _ = slot.set(explored);
        }
    }

    /// Validate candidate `candidate` of round `round` (whose task and
    /// stage these are) on the calling worker's pooled clone.
    fn validate_unit(
        &self,
        round: usize,
        candidate: usize,
        task: &RoundTask,
        stage: &ExploreStage,
        pool: &mut ClonePool,
    ) -> Option<UnitDone> {
        let input = stage.candidates.get(candidate)?;
        let (validated, phases) = validate_one(
            candidate,
            input.as_ref(),
            &task.shadow,
            self.topo,
            &task.cfg,
            self.catalog,
            self.registry,
            &task.baseline,
            self.checkers,
            pool,
        );
        Some(UnitDone {
            round,
            candidate,
            validated,
            phases,
            finished_us: self.campaign_start.elapsed().as_micros() as u64,
        })
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
                units.extend(self.validate_unit(round, unit - base, task, stage, &mut pool));
                unit = self.unit_next.fetch_add(1, Ordering::Relaxed);
            }
            base = end;
        }
        (units, pool.stats)
    }
}

/// Execute `tasks` on `workers` threads (`0` counts as `1`), each
/// exploring and then validating, and hand each round's result to
/// `fold`, in task order; return the aggregated clone-pool counters, or
/// the first failed round's error (after the rounds before it were
/// folded). `tasks` must number their sessions from 0 in task order
/// ([`RoundTask::exploration`]).
#[expect(
    clippy::too_many_arguments,
    reason = "one sweep reads the whole campaign context; Campaign::run passes it straight through"
)]
pub(crate) fn run_rounds(
    tasks: &[RoundTask],
    workers: usize,
    topo: &Topology,
    catalog: &SutCatalog,
    registry: &AttestationRegistry,
    checkers: &[Box<dyn Checker>],
    campaign_start: Instant,
    mut fold: impl FnMut(&RoundTask, RoundDone<'_>),
) -> Result<PoolStats, String> {
    let workers = workers.max(1);
    let sessions = tasks.last().map_or(0, |t| t.exploration + 1);
    let sweep = Sweep {
        tasks,
        topo,
        catalog,
        registry,
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
        let outcome = check_stage(
            stage,
            own.iter().map(|u| &u.validated),
            &task.cfg,
            task.ordinal,
            task.snap_metrics,
            wall_us,
        );
        fold(
            task,
            RoundDone {
                outcome,
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
    use crate::check::{CheckContext, CheckReport};
    use crate::scenarios;
    use crate::snapshot::take_consistent_snapshot;
    use dice_netsim::{NodeId, SimDuration, SimTime};
    use std::panic::AssertUnwindSafe;

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
        let catalog = SutCatalog::default();
        let registry = catalog.build_registry(&sim, 1);
        let topo = sim.topology().clone();
        let (shadow, snap_metrics) =
            take_consistent_snapshot(&mut sim, NodeId(1), SimDuration::from_secs(10))
                .expect("snapshot completes");
        let shadow = shadow.into_shared();
        let baseline = Arc::new(crate::check::flips_baseline(&catalog, &shadow));
        let mk_task = |ordinal: u64, peer: u32| {
            let mut cfg = DiceConfig::new(NodeId(1), NodeId(peer));
            cfg.concolic_executions = 8;
            cfg.validate_top = 4;
            cfg.horizon = SimDuration::from_secs(20);
            RoundTask {
                ordinal,
                cfg,
                shadow: Arc::clone(&shadow),
                baseline: Arc::clone(&baseline),
                snap_metrics,
                exploration: ordinal as usize - 1,
            }
        };
        let tasks = vec![mk_task(1, 0), mk_task(2, 2)];
        let checkers: Vec<Box<dyn Checker>> = vec![Box::new(ExplodingChecker)];
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                &tasks,
                3,
                &topo,
                &catalog,
                &registry,
                &checkers,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "campaign start reference for latency fields"
                )]
                std::time::Instant::now(),
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
}
