//! The campaign-level parallel round executor.
//!
//! One worker pool, two task granularities. *Round tasks* run the explore
//! and check stages of a whole `(explorer, peer)` round; *validation
//! tasks* run one clone-validate-check unit of some round currently in
//! flight. Workers prefer claiming a fresh round (round-level parallelism
//! is what moves the campaign's rounds/s); when no unclaimed round remains
//! — or the worker's index is beyond the `pair_workers` concurrency cap —
//! they steal validation units from open rounds, so the tail of a round's
//! validation fan-out never idles the pool while another round explores.
//!
//! Determinism: rounds receive their ordinals before execution starts,
//! every stage is a pure function of `(shadow, cfg)`, and validation
//! results are collected keyed by candidate index and re-sorted before the
//! check stage folds them. The schedule (which worker runs what, in what
//! order) therefore cannot influence any report field except wall-clock
//! times — [`crate::campaign::CampaignReport::normalized`] is byte-stable
//! across `pair_workers` values, which `tests/heterogeneous.rs` locks in.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use dice_netsim::{ShadowSnapshot, Topology};

use crate::check::{CheckReport, Checker};
use crate::explorer::{check_stage, explore_stage, validate_one, DiceConfig, PairOutcome};
use crate::interface::AttestationRegistry;
use crate::pool::{ClonePool, PoolStats};
use crate::snapshot::SnapshotMetrics;
use crate::sut::SutCatalog;
use crate::sync::lock_unpoisoned;

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
    /// the reuse rounds (see `Campaign::run` docs).
    pub(crate) snap_metrics: SnapshotMetrics,
    /// Wall micros spent establishing the snapshot (first round only).
    pub(crate) snap_wall_us: u64,
}

/// A completed round plus when it finished on the campaign clock (for
/// online detection-latency accounting).
pub(crate) struct RoundDone {
    pub(crate) outcome: PairOutcome,
    /// Campaign wall-clock micros elapsed when the round completed.
    pub(crate) completed_wall_us: u64,
}

/// Validation fan-out state of one in-flight round, stealable by any
/// pool worker.
struct ValBatch {
    /// Index into the task list (identifies shadow/cfg/baseline context).
    task: usize,
    /// Validation candidates, null input first.
    candidates: Vec<Option<Vec<u8>>>,
    /// Next unclaimed candidate index.
    next: AtomicUsize,
    /// Completed candidate count.
    done: AtomicUsize,
    /// Collected `(candidate index, report)` pairs, re-sorted by the
    /// round owner before the check stage.
    results: Mutex<Vec<(usize, CheckReport)>>,
}

/// Read-only context shared by every worker.
struct Shared<'e> {
    tasks: &'e [RoundTask],
    topo: &'e Topology,
    catalog: &'e SutCatalog,
    registry: &'e AttestationRegistry,
    checkers: &'e [Box<dyn Checker>],
    campaign_start: std::time::Instant,
    /// Next unclaimed round.
    round_next: AtomicUsize,
    /// Completed round count (terminates the worker loop).
    rounds_done: AtomicUsize,
    /// Rounds currently fanning out validation units.
    open: Mutex<Vec<Arc<ValBatch>>>,
    /// Per-round results, indexed like `tasks`.
    slots: Mutex<Vec<Option<Result<RoundDone, String>>>>,
    /// Set when any worker unwinds, so the remaining workers stop waiting
    /// on counters the dead worker can no longer advance and
    /// [`run_rounds`] can re-raise the original panic instead of hanging.
    panicked: AtomicBool,
    /// The payload of the first worker panic, re-raised by [`run_rounds`]
    /// after the pool drains. Without this, the scope's automatic join
    /// replaces the worker's message with a generic "a scoped thread
    /// panicked".
    first_panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Clone-pool counters, absorbed once per retiring worker (worker
    /// pools are thread-local; only the final sums are shared).
    pool_stats: Mutex<PoolStats>,
}

impl Shared<'_> {
    /// Claim and run one validation unit from `batch` using the calling
    /// worker's clone pool. Returns `false` when the batch has no
    /// unclaimed candidates left.
    // dice-lint: allow(panic-freedom): batch.task is a round index minted by run_rounds
    fn run_val_unit(&self, batch: &ValBatch, pool: &mut ClonePool) -> bool {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        let Some(candidate) = batch.candidates.get(i) else {
            return false;
        };
        let task = &self.tasks[batch.task];
        let report = validate_one(
            i,
            candidate.as_ref(),
            &task.shadow,
            self.topo,
            &task.cfg,
            self.catalog,
            self.registry,
            &task.baseline,
            self.checkers,
            pool,
        );
        lock_unpoisoned(&batch.results, "val-results").push((i, report));
        batch.done.fetch_add(1, Ordering::Release);
        true
    }

    /// Steal one validation unit from any open round. Returns `false` if
    /// nothing was stealable.
    fn steal_val_unit(&self, pool: &mut ClonePool) -> bool {
        let batch = {
            let open = lock_unpoisoned(&self.open, "open-batches");
            open.iter()
                .find(|b| b.next.load(Ordering::Relaxed) < b.candidates.len())
                .cloned()
        };
        match batch {
            Some(b) => self.run_val_unit(&b, pool),
            None => false,
        }
    }

    /// Run round `idx` to completion: explore, fan validation out on the
    /// shared pool (helping other rounds while waiting for stolen units),
    /// then fold the check stage and store the result.
    // dice-lint: allow(panic-freedom): idx comes from the round_next counter, bounded by tasks.len()
    fn run_round(&self, idx: usize, pool: &mut ClonePool) {
        let task = &self.tasks[idx];
        // dice-lint: allow(determinism-zone): per-round wall-clock accounting; zeroed by normalized()
        let stage_start = std::time::Instant::now();
        let result = match explore_stage(&task.shadow, &task.cfg, self.catalog) {
            Err(e) => Err(e),
            Ok(mut stage) => {
                let candidates = std::mem::take(&mut stage.candidates);
                let total = candidates.len();
                let batch = Arc::new(ValBatch {
                    task: idx,
                    candidates,
                    next: AtomicUsize::new(0),
                    done: AtomicUsize::new(0),
                    results: Mutex::new(Vec::with_capacity(total)),
                });
                lock_unpoisoned(&self.open, "open-batches").push(Arc::clone(&batch));
                // Drain own candidates; free workers steal concurrently.
                while self.run_val_unit(&batch, pool) {}
                // Wait for stolen units, helping other rounds meanwhile.
                // Time spent executing *foreign* validation units must not
                // be billed to this round: per-round wall_us feeds the
                // per-kind workload breakdown, and charging a BGP round
                // for a stolen gossip unit (or vice versa) would
                // misattribute cost across protocols.
                let mut foreign_us = 0u64;
                while batch.done.load(Ordering::Acquire) < batch.candidates.len() {
                    if self.panicked.load(Ordering::Acquire) {
                        // A stolen unit's worker is unwinding and will
                        // never advance `done`; abandon the round so the
                        // scope can join and re-raise its panic.
                        return;
                    }
                    // dice-lint: allow(determinism-zone): foreign-unit cost carve-out; zeroed by normalized()
                    let steal_start = std::time::Instant::now();
                    if self.steal_val_unit(pool) {
                        foreign_us += steal_start.elapsed().as_micros() as u64;
                    } else {
                        idle_wait();
                    }
                }
                lock_unpoisoned(&self.open, "open-batches").retain(|b| !Arc::ptr_eq(b, &batch));
                let mut results =
                    std::mem::take(&mut *lock_unpoisoned(&batch.results, "val-results"));
                results.sort_by_key(|(i, _)| *i);
                let results: Vec<CheckReport> = results.into_iter().map(|(_, r)| r).collect();
                let wall_us = task.snap_wall_us
                    + (stage_start.elapsed().as_micros() as u64).saturating_sub(foreign_us);
                Ok(check_stage(
                    stage,
                    &results,
                    &task.cfg,
                    task.ordinal,
                    task.snap_metrics,
                    wall_us,
                ))
            }
        };
        let result = result.map(|outcome| RoundDone {
            outcome,
            completed_wall_us: self.campaign_start.elapsed().as_micros() as u64,
        });
        lock_unpoisoned(&self.slots, "round-slots")[idx] = Some(result);
        self.rounds_done.fetch_add(1, Ordering::Release);
    }

    /// The worker loop. Workers `< round_workers` claim whole rounds;
    /// the rest only steal validation units (they exist when the
    /// validation `workers` knob exceeds `pair_workers`). Each worker
    /// owns a clone pool for its lifetime; counters fold into the shared
    /// sums on retirement.
    fn worker(&self, index: usize, round_workers: usize) {
        let mut pool = ClonePool::new();
        self.worker_loop(index, round_workers, &mut pool);
        self.retire_pool(&pool);
    }

    fn worker_loop(&self, index: usize, round_workers: usize, pool: &mut ClonePool) {
        let total = self.tasks.len();
        loop {
            if self.panicked.load(Ordering::Acquire)
                || self.rounds_done.load(Ordering::Acquire) >= total
            {
                return;
            }
            if index < round_workers {
                let i = self.round_next.fetch_add(1, Ordering::Relaxed);
                if i < total {
                    self.run_round(i, pool);
                    continue;
                }
            }
            if self.steal_val_unit(pool) {
                continue;
            }
            if self.rounds_done.load(Ordering::Acquire) >= total {
                return;
            }
            idle_wait();
        }
    }

    fn retire_pool(&self, pool: &ClonePool) {
        lock_unpoisoned(&self.pool_stats, "pool-stats").absorb(pool.stats);
    }
}

/// Back off briefly when a worker finds nothing to run. A hot
/// `yield_now` loop is fine on idle multi-core hosts but on saturated or
/// single-core ones it steals timeslices from the workers doing real
/// work; a short sleep keeps the tail overhead bounded (≤ a few hundred
/// microseconds per wait) without any notification plumbing.
fn idle_wait() {
    std::thread::sleep(std::time::Duration::from_micros(100));
}

/// Test-only fault injection for the executor's shared locks, re-exported
/// as `dice_core::executor_test_support`. Thread-local on purpose: the
/// flag is armed and consumed on the campaign's calling thread, so
/// parallel tests in one binary cannot poison each other's runs.
#[doc(hidden)]
pub mod test_support {
    use std::cell::Cell;

    thread_local! {
        static POISON_OPEN_LOCK: Cell<bool> = const { Cell::new(false) };
    }

    /// Arm the one-shot poison: the calling thread's next `run_rounds`
    /// deliberately poisons its open-batches mutex before workers start.
    pub fn poison_next_run() {
        POISON_OPEN_LOCK.with(|c| c.set(true));
    }

    /// Consume the flag (internal).
    pub(crate) fn poison_armed() -> bool {
        POISON_OPEN_LOCK.with(|c| c.replace(false))
    }
}

/// Execute `tasks` with at most `pair_workers` rounds in flight over a
/// pool of `pool_workers` threads (`pool_workers >= pair_workers`), and
/// return per-round results in task order plus the aggregated clone-pool
/// counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rounds(
    tasks: &[RoundTask],
    pair_workers: usize,
    pool_workers: usize,
    topo: &Topology,
    catalog: &SutCatalog,
    registry: &AttestationRegistry,
    checkers: &[Box<dyn Checker>],
    campaign_start: std::time::Instant,
) -> (Vec<Result<RoundDone, String>>, PoolStats) {
    let shared = Shared {
        tasks,
        topo,
        catalog,
        registry,
        checkers,
        campaign_start,
        round_next: AtomicUsize::new(0),
        rounds_done: AtomicUsize::new(0),
        open: Mutex::new(Vec::new()),
        slots: Mutex::new((0..tasks.len()).map(|_| None).collect()),
        panicked: AtomicBool::new(false),
        first_panic: Mutex::new(None),
        pool_stats: Mutex::new(PoolStats::default()),
    };
    // Test-only fault injection: poison the open-batches lock before any
    // worker starts, proving campaign results never depend on pristine
    // lock state (every access goes through lock_unpoisoned). The panic
    // unwinds through the held guard — that is what sets the poison flag
    // — and is caught on this thread before the pool spins up.
    if test_support::poison_armed() {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.open.lock();
            panic!("deliberate poison injection"); // dice-lint: allow(panic-freedom): test-only poison injection, caught on this thread
        }));
        debug_assert!(shared.open.is_poisoned());
    }
    let round_workers = pair_workers.max(1);
    let pool_workers = pool_workers.max(round_workers);
    if round_workers == 1 && pool_workers == 1 {
        // Degenerate pool: run inline, no threads to spawn or join;
        // panics propagate directly.
        let mut pool = ClonePool::new();
        for i in 0..tasks.len() {
            shared.run_round(i, &mut pool);
        }
        shared.retire_pool(&pool);
    } else {
        // Each worker catches its own unwind, records the payload of the
        // *first* panic, and raises the `panicked` flag so the surviving
        // workers stop waiting on counters the dead worker can no longer
        // advance. The scope then joins cleanly and the original panic is
        // re-raised below with its message intact.
        std::thread::scope(|s| {
            for index in 0..pool_workers {
                let shared = &shared;
                s.spawn(move || {
                    let body = std::panic::AssertUnwindSafe(|| {
                        shared.worker(index, round_workers);
                    });
                    if let Err(payload) = std::panic::catch_unwind(body) {
                        shared.panicked.store(true, Ordering::Release);
                        let mut slot = lock_unpoisoned(&shared.first_panic, "first-panic");
                        slot.get_or_insert(payload);
                    }
                });
            }
        });
    }
    if let Some(payload) = lock_unpoisoned(&shared.first_panic, "first-panic").take() {
        std::panic::resume_unwind(payload);
    }
    let pool_stats = shared
        .pool_stats
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let slots = shared
        .slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // Every slot is Some unless a worker died without reporting — panics
    // resume_unwind above, so surface the gap as a round error instead
    // of crashing the harness.
    let results = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err("round never completed".into())))
        .collect();
    (results, pool_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckContext;
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
                snap_wall_us: 0,
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
                // dice-lint: allow(determinism-zone): campaign start reference for latency fields
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
