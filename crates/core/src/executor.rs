//! The campaign-level parallel round executor: **explore → barrier →
//! validate**, inside one [`std::thread::scope`] per sweep.
//!
//! Once a sweep's cuts are taken, every exploration and every validated
//! input is a pure function of `(shadow, cfg)`, so scheduling them needs
//! no shared mutable state beyond two claim counters:
//!
//! 1. **Explore.** The first `pair_workers` workers claim whole rounds
//!    from `round_next` and publish each round's [`ExploreStage`] exactly
//!    once (a [`OnceLock`] per round). Each explores its rounds on one
//!    [`ExploreState`] of its own, kept for the sweep: which rounds share
//!    a state is the schedule's choice, and no report field depends on it.
//! 2. **Barrier.** All `max(pair_workers, workers)` workers meet at one
//!    [`Barrier`]; behind it every round's candidate list is final and
//!    readable by everyone.
//! 3. **Validate.** Workers claim flat `(round, candidate)` units of the
//!    *whole sweep* from `unit_next` — a long round's tail is shared by
//!    every worker, never waited out by one — and each keeps what it
//!    produced (a [`UnitDone`] per unit, not the clone's `CheckReport`).
//!
//! Workers hand their units back through their join handles; the calling
//! thread sorts them by `(round, candidate)` and folds the rounds in
//! ordinal order. Nothing a worker writes is visible to another worker
//! except through the `OnceLock`s and the barrier, so there is no lock to
//! order, poison or audit — and the schedule cannot influence any report
//! field except wall-clock times and the clone-pool counters:
//! [`crate::campaign::CampaignReport::normalized`] is byte-stable across
//! `(pair_workers, workers)`, which `tests/heterogeneous.rs` locks in.
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
/// per-round configuration, and the shared (Arc'd) snapshot context it
/// explores over.
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
}

/// A completed round plus when it finished on the campaign clock (for
/// online detection-latency accounting) and where its time went.
pub(crate) struct RoundDone {
    pub(crate) outcome: PairOutcome,
    /// Its exploration and its own validation units, by phase (no cut:
    /// the campaign counts each cut once, where it is taken).
    pub(crate) phases: PhaseTimes,
    /// Campaign wall-clock micros elapsed when the round's last
    /// validation unit finished.
    pub(crate) completed_wall_us: u64,
}

/// One round's exploration as its worker published it: the stage (or the
/// round's error) and the wall micros exploring took, by phase.
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
    /// Next unclaimed round. `Relaxed`: a claim publishes nothing — the
    /// stage goes out through `explored`.
    round_next: AtomicUsize,
    /// Per-round exploration results, indexed like `tasks`; each is set
    /// once, by the worker that claimed the round.
    explored: Vec<OnceLock<Explored>>,
    /// Where the exploration phase ends for every worker at once.
    barrier: Barrier,
    /// Next unclaimed validation unit, counted across the whole sweep in
    /// `(round, candidate)` order. `Relaxed`: the candidate lists it
    /// indexes were published by the barrier.
    unit_next: AtomicUsize,
}

impl Sweep<'_> {
    /// Exploration phase of one worker: claim rounds until none is left,
    /// all explored on the worker's one [`ExploreState`] — built here, as
    /// [`Sweep::worker`] builds its clone pool, and dropped with the
    /// sweep.
    fn explore_rounds(&self) {
        let mut state = ExploreState::new();
        loop {
            let idx = self.round_next.fetch_add(1, Ordering::Relaxed);
            let (Some(task), Some(slot)) = (self.tasks.get(idx), self.explored.get(idx)) else {
                return;
            };
            let explored = explore_stage(&task.shadow, &task.cfg, self.catalog, &mut state);
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

    /// One worker, start to finish: explore (if it is one of the
    /// `pair_workers`), meet the others, then validate. Returns the units
    /// it ran and its clone pool's counters.
    fn worker(&self, explores: bool) -> (Vec<UnitDone>, PoolStats) {
        // An unwinding explorer must still arrive at the barrier, or the
        // other workers block on it forever.
        let explored = catch_unwind(AssertUnwindSafe(|| {
            if explores {
                self.explore_rounds();
            }
        }));
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
        for (round, (task, slot)) in self.tasks.iter().zip(&self.explored).enumerate() {
            let Some((Ok(stage), _)) = slot.get() else {
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

/// Execute `tasks` with `pair_workers` threads exploring and
/// `pool_workers` threads validating (`max` of the two are spawned), and
/// return per-round results in task order plus the aggregated clone-pool
/// counters.
#[expect(
    clippy::too_many_arguments,
    reason = "the campaign's whole sweep context, taken once and stored in Sweep"
)]
pub(crate) fn run_rounds(
    tasks: &[RoundTask],
    pair_workers: usize,
    pool_workers: usize,
    topo: &Topology,
    catalog: &SutCatalog,
    registry: &AttestationRegistry,
    checkers: &[Box<dyn Checker>],
    campaign_start: Instant,
) -> (Vec<Result<RoundDone, String>>, PoolStats) {
    let explorers = pair_workers.max(1);
    let workers = pool_workers.max(explorers);
    let sweep = Sweep {
        tasks,
        topo,
        catalog,
        registry,
        checkers,
        campaign_start,
        round_next: AtomicUsize::new(0),
        explored: tasks.iter().map(|_| OnceLock::new()).collect(),
        barrier: Barrier::new(workers),
        unit_next: AtomicUsize::new(0),
    };
    let worked: Vec<(Vec<UnitDone>, PoolStats)> = if workers == 1 {
        // No thread to spawn or join; a panic propagates directly.
        vec![sweep.worker(true)]
    } else {
        // Every worker is spawned (the calling thread only joins), and
        // every handle is joined here, so a worker's panic is re-raised
        // with its own payload.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|index| {
                    let sweep = &sweep;
                    s.spawn(move || sweep.worker(index < explorers))
                })
                .collect();
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
    let results = tasks
        .iter()
        .zip(sweep.explored)
        .map(|(task, slot)| {
            let (stage, mut phases) = slot.into_inner().ok_or("round never explored")?;
            let stage = stage?;
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
            Ok(RoundDone {
                outcome,
                phases,
                completed_wall_us: own.iter().map(|u| u.finished_us).max().unwrap_or(0),
            })
        })
        .collect();
    (results, pool_stats)
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
            }
        };
        let tasks = vec![mk_task(1, 0), mk_task(2, 2)];
        let checkers: Vec<Box<dyn Checker>> = vec![Box::new(ExplodingChecker)];
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                &tasks,
                2,
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
