//! Federation-scale orchestration: the one driver of DiCE rounds, from a
//! single fixed `(explorer, inject_peer)` pair to every eligible pair.
//!
//! A [`Campaign`] discovers the eligible pairs through the
//! [`SutCatalog`] probe chain, snapshots **once per explorer** (one
//! Chandy–Lamport pass amortized over all of that node's peers), explores
//! up to [`Campaign::pair_workers`] whole rounds concurrently, validates
//! the sweep's candidates on [`Campaign::workers`] threads (see the
//! `executor` module), and aggregates the per-pair
//! [`RoundReport`](crate::explorer::RoundReport)s in
//! deterministic round-ordinal order into a serializable
//! [`CampaignReport`]: per-class detection latency, branch-coverage union
//! (global and per-explorer), fault union, and wall/sim-time totals.
//!
//! ```
//! use dice_core::{scenarios, Campaign};
//! use dice_netsim::{NodeId, SimDuration, SimTime};
//!
//! let mut live = scenarios::healthy_line(3, 7);
//! live.run_until(SimTime::from_nanos(10_000_000_000));
//! let report = Campaign::new(&live)
//!     .rounds(1)
//!     .workers(2)
//!     .executions(24)
//!     .validate_top(3)
//!     .horizon(SimDuration::from_secs(30))
//!     .run(&mut live)
//!     .unwrap();
//! assert_eq!(report.rounds.len(), 4); // line 0-1-2 has 4 directed pairs
//! assert!(report.faults.is_empty());
//! ```
//!
//! Module map: `config` ([`CampaignConfig`] and the builder methods),
//! `report` (the report types, [`CampaignReport::normalized`] and the fold
//! of per-round outcomes into them), this module ([`Campaign::run`]:
//! schedule, cuts, rounds, fold).

use dice_netsim::{NodeId, Simulator};

use crate::executor::RoundTask;
use crate::interface::AttestationRegistry;
use crate::snapshot::take_consistent_snapshot;
use crate::sut::SutCatalog;

mod config;
mod report;

pub use config::{CampaignConfig, MAX_WORKERS};
pub use report::{
    CampaignReport, ClassDetection, ExplorerSummary, KindSummary, PerfCounters, PhaseTimes,
};

/// Builder-style orchestrator sweeping DiCE rounds across a federation.
///
/// Construction discovers the eligible `(explorer, peer)` pairs and
/// builds the shared attestation registry from the live system; the
/// builder methods then narrow the sweep and tune per-round budgets;
/// [`Campaign::run`] executes against the (still running) deployment.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
    catalog: SutCatalog,
    pairs: Vec<(NodeId, NodeId)>,
    registry: AttestationRegistry,
}

impl Campaign {
    /// Discover eligible pairs in `live` using the default catalog (BGP
    /// routers and gossip nodes) and derive the attestation registry.
    pub fn new(live: &Simulator) -> Self {
        Self::with_catalog(live, SutCatalog::default())
    }

    /// Like [`Campaign::new`] but over a custom SUT catalog — the entry
    /// point for heterogeneous federations.
    pub fn with_catalog(live: &Simulator, catalog: SutCatalog) -> Self {
        let cfg = CampaignConfig::default();
        let pairs = catalog.eligible_pairs(live);
        let registry = catalog.build_registry(live, cfg.template.seed);
        Campaign {
            cfg,
            catalog,
            pairs,
            registry,
        }
    }

    /// Execute the campaign, four phases per sweep (so at most one
    /// sweep's snapshots are held in memory at a time):
    ///
    /// 1. **Snapshot** (sequential, on the live system): one consistent
    ///    Chandy–Lamport snapshot per explorer, shared behind `Arc` by
    ///    all of that explorer's peer rounds. Rounds never touch the
    ///    live system, so pre-taking a sweep's snapshots is
    ///    byte-identical to interleaving them with rounds.
    /// 2. **Exploration** (parallel): `pair_workers` threads claim whole
    ///    `(explorer, peer)` rounds and explore them; the phase ends, for
    ///    all `max(pair_workers, workers)` threads of the sweep at once,
    ///    when the last round is explored.
    /// 3. **Validation** (parallel): every thread claims `(round,
    ///    candidate)` units from the sweep's one list, so a long round's
    ///    validation is shared by all of them (see the `executor` module).
    /// 4. **Aggregation** (sequential, in round-ordinal order): fold the
    ///    per-round outcomes into the [`CampaignReport`]. Because every
    ///    stage is a pure function of `(snapshot, config)` and the fold
    ///    runs in ordinal order, the report is identical for any
    ///    `pair_workers` and `workers` values modulo wall-clock fields
    ///    ([`CampaignReport::normalized`]).
    ///
    /// Snapshot cost accounting: the Chandy–Lamport pass is shared by all
    /// of an explorer's peer rounds, so its cost (wall and simulated
    /// time, and round-wall inclusion) is attributed to the *first* round
    /// that used it; subsequent rounds reusing the snapshot report zero
    /// snapshot cost. Summing `rounds[i].snapshot` over a campaign
    /// therefore counts each snapshot exactly once. A round's `wall_us` is
    /// that share plus its exploration plus its own validation units; a
    /// detection's `wall_us_cum` is the campaign clock when the detecting
    /// round's last unit finished.
    ///
    /// Calling `run` again sweeps the live system as it is by then, with
    /// the registry built at construction. A worker count above
    /// [`MAX_WORKERS`] is an `Err` naming the field, returned before any
    /// cut is taken or thread started.
    pub fn run(&self, live: &mut Simulator) -> Result<CampaignReport, String> {
        for (field, n) in [
            ("pair_workers", self.cfg.pair_workers),
            ("template.workers", self.cfg.template.workers),
        ] {
            if n > MAX_WORKERS {
                return Err(format!("{field} {n} exceeds MAX_WORKERS ({MAX_WORKERS})"));
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "campaign wall-clock accounting; zeroed by normalized()"
        )]
        let wall = std::time::Instant::now();
        let sim_start = live.now();
        let topo = live.topology().clone();
        let plan = self.sweep_plan();
        if plan.is_empty() {
            return Err("campaign has no eligible (explorer, peer) pairs".into());
        }
        let checkers = crate::check::default_checkers(self.cfg.template.oscillation_threshold);
        let pair_workers = self.cfg.pair_workers.max(1);
        let pool_workers = pair_workers.max(self.cfg.template.workers.max(1));

        // Delta snapshots on the live system: scope the counters to this
        // campaign by draining whatever a previous run left behind.
        live.set_delta_snapshots(self.cfg.template.delta_snapshots);
        let _ = live.take_snapshot_stats();
        // Expand the dynamics schedule once, deterministically from the
        // campaign seed and the live clock at campaign start. Actions are
        // applied at the quiescent point before each sweep's snapshots
        // (never mid-cut: an in-band fault firing during a Chandy–Lamport
        // pass would abort the snapshot).
        let mut schedule = match &self.cfg.template.schedule {
            Some(spec) if !spec.is_empty() => {
                let mut rng =
                    dice_netsim::SimRng::seed_from_u64(self.cfg.template.seed).split(0x5C4ED);
                spec.expand(&topo, live.now(), &mut rng)
            }
            _ => dice_netsim::Schedule::default(),
        };

        let mut fold = report::Fold::default();
        let mut round_no = 0u64;

        // One sweep at a time, so only the current sweep's snapshots are
        // alive: memory stays bounded by the explorer count, not by
        // `rounds × explorers`. Rounds never touch the live system, so
        // the snapshot schedule (and every snapshot's content) is the
        // same as if all sweeps were snapshotted up front.
        for _sweep in 0..self.cfg.rounds.max(1) {
            // Dynamics due by now (partitions opening/healing, churn)
            // fire between sweeps, while no cut is in flight.
            schedule.apply_due(live);
            // Phase 1: snapshots, sequential against the live system.
            let mut tasks: Vec<RoundTask> = Vec::new();
            for (explorer, peers) in &plan {
                let (shadow, snap_metrics) =
                    take_consistent_snapshot(live, *explorer, self.cfg.template.snapshot_deadline)?;
                fold.cut(&snap_metrics, live.take_snapshot_stats());
                let shadow = shadow.into_shared();
                // The flip baseline is a function of the shared snapshot;
                // compute it once per explorer.
                let baseline =
                    std::sync::Arc::new(crate::check::flips_baseline(&self.catalog, &shadow));
                for (k, peer) in peers.iter().enumerate() {
                    round_no += 1;
                    // The first peer round carries the snapshot cost;
                    // reuse rounds report zero (see method docs).
                    let round_metrics = if k == 0 {
                        snap_metrics
                    } else {
                        crate::snapshot::SnapshotMetrics::default()
                    };
                    let mut cfg = self.cfg.template.clone();
                    cfg.explorer = *explorer;
                    cfg.inject_peer = *peer;
                    tasks.push(RoundTask {
                        ordinal: round_no,
                        cfg,
                        shadow: std::sync::Arc::clone(&shadow),
                        baseline: std::sync::Arc::clone(&baseline),
                        snap_metrics: round_metrics,
                    });
                }
            }

            // Phases 2 and 3: explore this sweep's rounds, then validate
            // their candidates.
            let (done, pool_stats) = crate::executor::run_rounds(
                &tasks,
                pair_workers,
                pool_workers,
                &topo,
                &self.catalog,
                &self.registry,
                &checkers,
                wall,
            );
            fold.pool(pool_stats);

            // Phase 4: deterministic aggregation in round-ordinal order.
            for (task, done) in tasks.iter().zip(done) {
                fold.round(task, done?);
            }
        }

        let wall_us = wall.elapsed().as_micros() as u64;
        Ok(fold.finish(wall_us, (live.now() - sim_start).as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::FaultClass;
    use crate::scenarios;
    use dice_netsim::{SimDuration, SimTime};

    pub(super) fn quick(campaign: Campaign) -> Campaign {
        campaign
            .executions(24)
            .validate_top(4)
            .horizon(SimDuration::from_secs(30))
    }

    #[test]
    fn campaign_sweeps_all_pairs_of_a_line() {
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim)).run(&mut sim).expect("runs");
        assert_eq!(report.rounds.len(), 4, "0-1-2 line has 4 directed pairs");
        assert_eq!(report.per_explorer.len(), 3);
        assert!(report.faults.is_empty(), "healthy: {:?}", report.faults);
        assert!(report.coverage_union > 0);
        assert!(report.executions_total >= report.rounds.len());
        // Middle node got both peers, ends one each.
        let middle = report
            .per_explorer
            .iter()
            .find(|e| e.explorer == NodeId(1))
            .unwrap();
        assert_eq!(middle.rounds, 2);
    }

    #[test]
    fn campaign_finds_seeded_bug_and_reports_latency() {
        let mut sim = scenarios::buggy_parser_scenario(7);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let report = quick(Campaign::new(&sim))
            .explorers([NodeId(1)])
            .executions(160)
            .validate_top(16)
            .workers(2)
            .run(&mut sim)
            .expect("runs");
        assert!(report.classes().contains(&FaultClass::ProgrammingError));
        let det = report
            .detection
            .iter()
            .find(|d| d.class == FaultClass::ProgrammingError)
            .expect("detection latency recorded");
        assert!(det.round >= 1);
        assert!(det.input_ordinal >= 1);
        assert_eq!(det.explorer, NodeId(1));
    }

    #[test]
    fn unreliable_links_keep_detection_and_meter_faults() {
        // Validation clones replay under 5% loss: the seeded bug class
        // must still be detected (the injected input bypasses the
        // channel layer; only the surrounding dynamics degrade), the
        // fault counters must populate, and the normalized report must
        // stay byte-identical across pair_workers per seed.
        let run = |pair_workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(7);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            quick(Campaign::new(&sim))
                .explorers([NodeId(1)])
                .executions(160)
                .validate_top(16)
                .pair_workers(pair_workers)
                .unreliable_links(true)
                .link_faults(dice_netsim::LinkFaults::lossy(0.05))
                .run(&mut sim)
                .expect("lossy campaign runs")
        };
        let report = run(1);
        assert!(
            report.classes().contains(&FaultClass::ProgrammingError),
            "seeded bug must survive 5% loss: {:?}",
            report.classes()
        );
        assert!(
            report.perf.frames_dropped > 0,
            "5% loss must drop frames: {:?}",
            report.perf
        );
        let n = report.normalized();
        assert_eq!(n.perf.frames_dropped, 0, "fault counters normalize away");
        assert_eq!(
            serde_json::to_string(&run(3).normalized()).unwrap(),
            serde_json::to_string(&n).unwrap(),
            "fault sampling must be schedule-independent"
        );
    }

    #[test]
    fn wall_clock_fields_mean_what_their_docs_say() {
        // One thread, two fault classes first seen in different rounds:
        // node 2's unattested origin shows on round 1's null input, node
        // 1's parser defect only once a round explores node 1.
        let mut sim = scenarios::buggy_parser_scenario(7);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let campaign = quick(Campaign::new(&sim)).executions(160).validate_top(16);
        scenarios::apply_hijack(&mut sim);
        sim.run_until(SimTime::from_nanos(25_000_000_000));
        let report = campaign.run(&mut sim).expect("runs");

        // A round costs at least the cut it paid for.
        assert!(report.rounds.iter().any(|r| r.snapshot.wall_micros > 0));
        for r in &report.rounds {
            assert!(r.wall_us >= r.snapshot.wall_micros, "{}", r.summary());
        }
        // Units run in (round, candidate) order on one thread, so a later
        // round's last unit never finishes before an earlier round's.
        let mut stamps: Vec<(u64, u64)> = report
            .detection
            .iter()
            .map(|d| (d.round, d.wall_us_cum))
            .collect();
        stamps.sort_unstable();
        assert!(
            stamps.len() >= 2 && stamps[0].0 < stamps[stamps.len() - 1].0,
            "two classes, two rounds: {:?}",
            report.detection
        );
        assert!(stamps.windows(2).all(|w| w[0].1 <= w[1].1), "{stamps:?}");
    }

    #[test]
    fn multi_sweep_counts_rounds() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .rounds(2)
            .executions(8)
            .validate_top(2)
            .run(&mut sim)
            .expect("runs");
        assert_eq!(report.rounds.len(), 4, "2 pairs x 2 sweeps");
        assert!(report.wall_ms > 0 || report.rounds_per_sec() > 0.0);
        assert!(report.sim_nanos > 0, "snapshots consume simulated time");
    }

    #[test]
    fn pair_workers_do_not_change_the_report() {
        // Identical fresh systems, different round-level parallelism: the
        // normalized reports must serialize byte-identically.
        let run = |pair_workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(5);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            let report = quick(Campaign::new(&sim))
                .executions(48)
                .validate_top(6)
                .workers(2)
                .pair_workers(pair_workers)
                .run(&mut sim)
                .expect("campaign runs");
            serde_json::to_string(&report.normalized()).unwrap()
        };
        let sequential = run(1);
        assert_eq!(run(3), sequential);
        assert!(sequential.contains("\"wall_us\":0"), "wall fields zeroed");
    }

    #[test]
    fn delta_snapshots_shrink_recapture_without_changing_reports() {
        // Multi-sweep campaign on a quiescent system: with delta
        // snapshots on, later sweeps serve unmutated nodes from the
        // checkpoint cache instead of re-cloning them, and the report is
        // byte-identical to the full-recapture run.
        let run = |delta: bool| {
            let mut sim = scenarios::healthy_line(3, 5);
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            quick(Campaign::new(&sim))
                .rounds(3)
                .executions(8)
                .validate_top(2)
                .delta_snapshots(delta)
                .run(&mut sim)
                .expect("runs")
        };
        let on = run(true);
        let off = run(false);
        assert!(
            on.perf.nodes_recaptured < off.perf.nodes_recaptured,
            "delta cuts must re-capture fewer nodes: {} vs {}",
            on.perf.nodes_recaptured,
            off.perf.nodes_recaptured
        );
        assert!(on.perf.snapshot_delta_bytes < off.perf.snapshot_delta_bytes);
        assert_eq!(
            serde_json::to_string(&on.normalized()).unwrap(),
            serde_json::to_string(&off.normalized()).unwrap(),
            "delta snapshots must not alter the report"
        );
    }

    #[test]
    fn internet_scale_steady_state_recaptures_far_fewer_nodes_than_the_system() {
        // The T1 acceptance criterion, at test-suite size: on a quiescent
        // internet-like topology the first cut captures everything cold,
        // and every later cut re-captures only nodes actually dirtied —
        // far fewer than the node count (`nodes_recaptured` ≪ n).
        use dice_netsim::{InternetParams, SimRng, Topology};
        let n = 120usize;
        let params = InternetParams {
            peering_prob: 8.0 / n as f64,
            ..InternetParams::default()
        };
        let mut rng = SimRng::seed_from_u64(0xD1CE);
        let topo = Topology::internet_like(n, &params, &mut rng);
        let mut sim = scenarios::build_system_with_originators(&topo, 4, 17);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(600_000_000_000),
        );
        let cuts = 3u64;
        let report = quick(Campaign::new(&sim))
            .explorers([NodeId(0)])
            .max_peers_per_explorer(1)
            .rounds(cuts as usize)
            .executions(8)
            .validate_top(2)
            .run(&mut sim)
            .expect("internet campaign runs");
        let total = report.perf.nodes_recaptured;
        assert!(
            total >= n as u64,
            "first cut must capture the whole system: {total}"
        );
        let steady = (total - n as u64) / (cuts - 1);
        assert!(
            steady * 8 < n as u64,
            "steady-state recapture must be ≪ {n} nodes/cut, got {steady}"
        );
    }

    #[test]
    fn dynamics_schedule_is_deterministic_and_counted() {
        // A churn schedule (node leaves, later rejoins) applied at the
        // quiescent points between sweeps: the victim is drawn from
        // `SimRng`, so two identical runs replay the same dynamics and
        // produce byte-identical normalized reports.
        use dice_netsim::ScheduleSpec;
        let run = || {
            let mut sim = scenarios::healthy_line(4, 9);
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            let spec = ScheduleSpec {
                churn: 1,
                churn_len: SimDuration::from_millis(1),
                window: SimDuration::ZERO,
                protect_first: 2, // never churn the swept pair (0, 1)
                ..ScheduleSpec::default()
            };
            quick(Campaign::new(&sim))
                .explorers([NodeId(0)])
                .max_peers_per_explorer(1)
                .rounds(2)
                .executions(8)
                .validate_top(2)
                .schedule(spec)
                .run(&mut sim)
                .expect("campaign survives churn")
        };
        let a = run();
        assert_eq!(
            a.perf.churn_events, 2,
            "crash before sweep 1, restart before sweep 2: {:?}",
            a.perf
        );
        let b = run();
        assert_eq!(b.perf.churn_events, a.perf.churn_events);
        assert_eq!(
            serde_json::to_string(&a.normalized()).unwrap(),
            serde_json::to_string(&b.normalized()).unwrap(),
            "schedules replay deterministically from the campaign seed"
        );
    }

    #[test]
    fn worker_counts_above_the_ceiling_are_refused_before_any_cut() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let before = sim.now();
        let err = Campaign::new(&sim)
            .workers(usize::MAX)
            .run(&mut sim)
            .unwrap_err();
        assert!(err.contains("template.workers"), "{err}");
        let err = Campaign::new(&sim)
            .pair_workers(MAX_WORKERS + 1)
            .run(&mut sim)
            .unwrap_err();
        assert!(err.contains("pair_workers"), "{err}");
        assert_eq!(sim.now(), before, "no cut ran on the live system");
    }

    #[test]
    fn empty_plan_is_an_error() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let err = Campaign::new(&sim)
            .explorers([NodeId(99)])
            .run(&mut sim)
            .unwrap_err();
        assert!(err.contains("no eligible"));
    }
}
