//! Federation-scale orchestration: the one driver of DiCE rounds, from a
//! single fixed `(explorer, inject_peer)` pair to every eligible pair.
//!
//! A [`Campaign`] discovers the eligible pairs through the
//! [`SutCatalog`] probe chain, snapshots **once per explorer** (one
//! Chandy–Lamport pass amortized over all of that node's peers), explores
//! **once per explorer** too when the node's plan does not read the
//! inject peer, runs each sweep on [`Campaign::workers`] threads that
//! each explore whole sessions and then validate the sweep's candidates
//! (see the `executor` module), and aggregates the per-pair
//! [`RoundReport`]s in deterministic round-ordinal order into a
//! serializable [`CampaignReport`]: per-class detection latency,
//! branch-coverage union (global and per-explorer), fault union, and
//! wall/sim-time totals.
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
//! Module map: `config` ([`CampaignConfig`], the round template
//! [`DiceConfig`] and the builder methods), `report` (the report types,
//! [`RoundReport`] among them, [`CampaignReport::normalized`] and the fold
//! of per-round outcomes into them), this module ([`Campaign::run`]:
//! schedule, cuts, rounds, fold). A round's stages are the `executor`'s.

use std::sync::Arc;

use dice_netsim::{NodeId, Simulator};

use crate::executor::RoundTask;
use crate::interface::AttestationRegistry;
use crate::snapshot::take_consistent_snapshot;
use crate::sut::SutCatalog;

mod config;
mod report;

pub(crate) use config::us_to_ms;
pub use config::{CampaignConfig, DiceConfig, MAX_WORKERS};
pub use report::{
    CampaignReport, ClassDetection, CutFailure, ExplorerSummary, KindSummary, PerfCounters,
    PhaseTimes, RoundReport,
};

/// The salt of every campaign's attestation registry. The registry is
/// built once, at construction — the hijack examples build it while the
/// system is still healthy — so the campaign seed, set later, cannot
/// reach it. Verdicts do not depend on the salt, only the registry's
/// digests do.
pub const REGISTRY_SEED: u64 = 0xD1CE;

/// Builder-style orchestrator sweeping DiCE rounds across a federation.
///
/// Construction discovers the eligible `(explorer, peer)` pairs and
/// builds the shared attestation registry from the live system; the
/// builder methods then narrow the sweep and tune per-round budgets;
/// [`Campaign::run`] executes against the (still running) deployment.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) cfg: CampaignConfig,
    pub(crate) catalog: SutCatalog,
    pairs: Vec<(NodeId, NodeId)>,
    pub(crate) registry: AttestationRegistry,
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
        let pairs = catalog.eligible_pairs(live);
        let registry = catalog.build_registry(live, REGISTRY_SEED);
        Campaign {
            cfg: CampaignConfig::default(),
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
    ///    byte-identical to interleaving them with rounds. Here, too, each
    ///    round gets its exploration session: an explorer whose plan does
    ///    not read the inject peer
    ///    ([`ExplorableNode::plan_depends_on_peer`](crate::sut::ExplorableNode::plan_depends_on_peer)
    ///    is `false`: gossip nodes) has one session for all of its
    ///    rounds, any other one session per round.
    /// 2. **Exploration** (parallel): the sweep's `workers` threads claim
    ///    whole sessions and explore each from its first round; the phase
    ///    ends, for all of them at once, when the last session is explored.
    /// 3. **Validation** (parallel): every thread claims `(round,
    ///    candidate)` units from the sweep's one list, so a long round's
    ///    validation is shared by all of them (see the `executor` module).
    ///    A round validates its session's candidates, injected from its
    ///    own peer.
    /// 4. **Aggregation** (sequential, in round-ordinal order): fold the
    ///    per-round outcomes into the [`CampaignReport`]. Because every
    ///    stage is a pure function of `(snapshot, config)` and the fold
    ///    runs in ordinal order, the report is identical for any
    ///    `workers` value modulo wall-clock fields
    ///    ([`CampaignReport::normalized`]).
    ///
    /// Snapshot cost accounting: the Chandy–Lamport pass is shared by all
    /// of an explorer's peer rounds, so its cost (wall and simulated
    /// time, and round-wall inclusion) is attributed to the *first* round
    /// that used it; subsequent rounds reusing the snapshot report zero
    /// snapshot cost. Summing `rounds[i].snapshot` over a campaign
    /// therefore counts each snapshot exactly once. Exploration is counted
    /// the same way: a round's `wall_us` is that share, plus its session's
    /// exploration if the round explored it (the first round of a shared
    /// session did; the rest report the session's executions, paths,
    /// coverage and solver answers, but not its time), plus its own
    /// validation units. [`PerfCounters`] counts each session once
    /// ([`PerfCounters::explorations`]). A detection's `wall_us_cum` is
    /// the campaign clock when the detecting round's last unit finished.
    ///
    /// A cut that fails (it misses its deadline, or a session reset or a
    /// crash on its path aborts it) is a [`CutFailure`] in
    /// [`CampaignReport::cut_failures`]: that explorer's rounds are skipped
    /// in that sweep, and the round ordinals of the rest stay dense.
    ///
    /// Calling `run` again sweeps the live system as it is by then, with
    /// the registry built at construction. `run` returns `Err` for an
    /// empty plan, for a worker count above [`MAX_WORKERS`] (naming the
    /// field, before any cut is taken or thread started), or for a round
    /// whose exploration fails (the first such round's error, once its
    /// sweep is done).
    pub fn run(&self, live: &mut Simulator) -> Result<CampaignReport, String> {
        let workers = self.cfg.template.workers;
        if workers > MAX_WORKERS {
            return Err(format!(
                "template.workers {workers} exceeds MAX_WORKERS ({MAX_WORKERS})"
            ));
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

        // Scope the live system's cut counters to this campaign by draining
        // whatever a previous run left behind.
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
        for sweep in 1..=self.cfg.rounds.max(1) as u64 {
            // Dynamics due by now (partitions opening/healing, churn)
            // fire between sweeps, while no cut is in flight.
            schedule.apply_due(live);
            // Phase 1: snapshots, sequential against the live system, and
            // each round's exploration session.
            let tasks = self.plan_sweep(live, &plan, sweep, &mut round_no, &mut fold);
            // What the sweep's cuts re-captured and the dynamics fired
            // before them, drained once whether or not each cut succeeded:
            // a sweep whose every cut fails still counts its churn.
            fold.sweep_stats(live.take_snapshot_stats());
            if tasks.is_empty() {
                continue;
            }
            // Phases 2 and 3: explore this sweep's sessions, then validate
            // their rounds' candidates. Phase 4: deterministic aggregation
            // in round-ordinal order, as `run_rounds` hands the rounds back.
            let pool_stats =
                crate::executor::run_rounds(self, &tasks, &topo, &checkers, wall, |task, done| {
                    fold.round(task, done)
                })?;
            fold.pool(pool_stats);
        }

        let wall_us = wall.elapsed().as_micros() as u64;
        Ok(fold.finish(wall_us, (live.now() - sim_start).as_nanos()))
    }

    /// Phase 1 of one sweep of [`Campaign::run`]: cut the live system once
    /// per explorer of `plan` and return the sweep's rounds, numbered on
    /// from `round_no`, each with its exploration session. A failed cut is
    /// recorded in `fold` and its explorer has no round.
    fn plan_sweep(
        &self,
        live: &mut Simulator,
        plan: &[(NodeId, Vec<NodeId>)],
        sweep: u64,
        round_no: &mut u64,
        fold: &mut report::Fold,
    ) -> Vec<RoundTask> {
        let mut tasks: Vec<RoundTask> = Vec::new();
        let mut sessions = 0;
        for (explorer, peers) in plan {
            let cut =
                take_consistent_snapshot(live, *explorer, self.cfg.template.snapshot_deadline);
            let (shadow, snap_metrics) = match cut {
                Ok(cut) => cut,
                Err(error) => {
                    fold.cut_failed(CutFailure {
                        sweep,
                        explorer: *explorer,
                        error,
                    });
                    continue;
                }
            };
            fold.cut(&snap_metrics);
            let shadow = shadow.into_shared();
            // The flip baseline is a function of the shared snapshot;
            // compute it once per explorer.
            let baseline = Arc::new(crate::check::flips_baseline(&self.catalog, &shadow));
            // So is the exploration, for every peer, when the explorer's
            // plan does not read the peer.
            let one_session = shadow
                .nodes()
                .get(explorer)
                .and_then(|node| self.catalog.resolve(node.as_ref()))
                .is_some_and(|sut| !sut.plan_depends_on_peer());
            for (k, peer) in peers.iter().enumerate() {
                *round_no += 1;
                if k == 0 || !one_session {
                    sessions += 1;
                }
                // The first peer round carries the snapshot cost;
                // reuse rounds report zero (see `run`'s docs).
                let round_metrics = if k == 0 {
                    snap_metrics
                } else {
                    crate::snapshot::SnapshotMetrics::default()
                };
                tasks.push(RoundTask {
                    ordinal: *round_no,
                    explorer: *explorer,
                    peer: *peer,
                    shadow: Arc::clone(&shadow),
                    baseline: Arc::clone(&baseline),
                    snap_metrics: round_metrics,
                    exploration: sessions - 1,
                });
            }
        }
        tasks
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
        // stay byte-identical across worker counts per seed.
        let run = |workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(7);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            quick(Campaign::new(&sim))
                .explorers([NodeId(1)])
                .executions(160)
                .validate_top(16)
                .workers(workers)
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

    /// A gossip node whose validation-clone copies crash on a subscribe
    /// frame, naming its sender. The live system sends no subscribe once
    /// its sessions are up, so only an injected one trips it. Real gossip
    /// nodes reach the same verdicts whichever peer an input came from;
    /// this one makes a round that injects from another round's peer
    /// visible in the report.
    struct NamesTheSender {
        inner: dice_gossip::GossipNode,
        armed: bool,
    }

    impl dice_netsim::Node for NamesTheSender {
        fn on_start(&mut self, api: &mut dice_netsim::NodeApi<'_>) {
            self.inner.on_start(api);
        }
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut dice_netsim::NodeApi<'_>) {
            if self.armed && data.first() == Some(&dice_gossip::OP_SUBSCRIBE) {
                api.crash(format!("subscribe from {from}"));
                return;
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
            Box::new(NamesTheSender {
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

    /// A started full mesh of four gossip nodes (as
    /// [`scenarios::gossip_mesh`] builds one) whose node 0 names the
    /// sender of a subscribe in its clones.
    fn mesh_naming_the_sender() -> Simulator {
        use dice_netsim::{LinkParams, Topology};
        let topo = Topology::full_mesh(4, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut sim = Simulator::new(topo.clone(), 11);
        for i in topo.node_ids() {
            let mut cfg = dice_gossip::GossipConfig::new(scenarios::gossip_origin_of(i.0))
                .publish(scenarios::topic_of(i.0));
            for peer in topo.neighbors(i) {
                cfg = cfg.with_peer(peer);
            }
            for t in 0..4 {
                cfg = cfg.subscribe(scenarios::topic_of(t));
            }
            let inner = dice_gossip::GossipNode::new(cfg);
            let node: Box<dyn dice_netsim::Node> = if i == NodeId(0) {
                Box::new(NamesTheSender {
                    inner,
                    armed: false,
                })
            } else {
                Box::new(inner)
            };
            sim.set_node(i, node);
        }
        sim.start();
        sim
    }

    #[test]
    fn shared_sessions_fold_to_the_unshared_report() {
        // A gossip explorer's rounds validate one shared session. The same
        // rounds, each explored on its own session, fold to the same
        // normalized report — in the mesh whose node 0 names the sender,
        // only if each round injects from its own peer. BGP rounds never
        // share: the line's middle router explores once per peer.
        let fold_of = |campaign: &Campaign, sim: &Simulator, tasks: &[RoundTask]| {
            let checkers = crate::check::default_checkers(20);
            let mut fold = report::Fold::default();
            crate::executor::run_rounds(
                campaign,
                tasks,
                sim.topology(),
                &checkers,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "campaign start reference for latency fields"
                )]
                std::time::Instant::now(),
                |task, done| fold.round(task, done),
            )
            .expect("rounds run");
            fold.finish(0, 0)
        };
        // (system, rounds, sessions, faults): 4 gossip explorers of 3
        // peers, healthy and with node 0's crash once per peer; 2 BGP
        // routers of 1 and 3 gossip nodes of 2, node 2 with the seeded
        // digest defect; 3 routers of 1, 2 and 1.
        for (mut sim, rounds, sessions, faults) in [
            (scenarios::gossip_mesh(4, 11), 12, 4, 0),
            (mesh_naming_the_sender(), 12, 4, 3),
            (scenarios::mixed_bgp_gossip(13, true), 8, 5, 1),
            (scenarios::healthy_line(3, 5), 4, 4, 0),
        ] {
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            let campaign = quick(Campaign::new(&sim))
                .executions(48)
                .validate_top(6)
                .workers(2);
            let shared = campaign.plan_sweep(
                &mut sim,
                &campaign.sweep_plan(),
                1,
                &mut 0,
                &mut report::Fold::default(),
            );
            let alone: Vec<RoundTask> = shared
                .iter()
                .enumerate()
                .map(|(i, t)| RoundTask {
                    ordinal: t.ordinal,
                    explorer: t.explorer,
                    peer: t.peer,
                    shadow: Arc::clone(&t.shadow),
                    baseline: Arc::clone(&t.baseline),
                    snap_metrics: t.snap_metrics,
                    exploration: i,
                })
                .collect();
            let with_sharing = fold_of(&campaign, &sim, &shared);
            let on_their_own = fold_of(&campaign, &sim, &alone);
            assert_eq!(with_sharing.rounds.len(), rounds);
            assert_eq!(with_sharing.perf.explorations, sessions);
            assert_eq!(on_their_own.perf.explorations, rounds as u64);
            assert_eq!(
                serde_json::to_string(&with_sharing.normalized()).unwrap(),
                serde_json::to_string(&on_their_own.normalized()).unwrap(),
            );
            assert_eq!(
                with_sharing.faults.len(),
                faults,
                "{:?}",
                with_sharing.faults
            );
        }
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
    fn workers_do_not_change_the_report() {
        // Identical fresh systems, different parallelism: the normalized
        // reports must serialize byte-identically.
        let run = |workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(5);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            let report = quick(Campaign::new(&sim))
                .executions(48)
                .validate_top(6)
                .workers(workers)
                .run(&mut sim)
                .expect("campaign runs");
            serde_json::to_string(&report.normalized()).unwrap()
        };
        let sequential = run(1);
        assert_eq!(run(3), sequential);
        assert!(sequential.contains("\"wall_us\":0"), "wall fields zeroed");
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
        assert_eq!(sim.now(), before, "no cut ran on the live system");
    }

    #[test]
    fn the_campaign_seed_does_not_salt_the_registry() {
        // The registry is built at construction, while the system is
        // healthy, salted with `REGISTRY_SEED`: two campaigns reseeded
        // apart judge the hijack staged afterwards alike.
        let hijacks = |seed: u64| {
            let mut live = scenarios::hijack_scenario(1003);
            live.run_until(SimTime::from_nanos(10_000_000_000));
            let campaign = quick(Campaign::new(&live))
                .explorers([NodeId(1)])
                .max_peers_per_explorer(1)
                .executions(32)
                .seed(seed);
            scenarios::apply_hijack(&mut live);
            live.run_until(SimTime::from_nanos(25_000_000_000));
            let report = campaign.run(&mut live).expect("runs");
            report
                .faults
                .iter()
                .filter(|f| f.class == FaultClass::OperatorMistake)
                .map(|f| (f.node, f.detail.clone()))
                .collect::<Vec<_>>()
        };
        let verdicts = hijacks(1);
        assert!(!verdicts.is_empty(), "the hijack is detected");
        assert_eq!(hijacks(0xBEEF), verdicts);
    }

    #[test]
    fn a_failed_cut_skips_its_explorer_for_that_sweep() {
        // No cut completes by a zero deadline: every explorer of every
        // sweep is a recorded failure, and the call still reports. The
        // next call, with time for its cuts, runs every round.
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let campaign = quick(Campaign::new(&sim)).rounds(2).executions(8);
        let mut cfg = campaign.config_ref().clone();
        cfg.template.snapshot_deadline = SimDuration::ZERO;
        let report = campaign
            .clone()
            .config(cfg)
            .run(&mut sim)
            .expect("failed cuts are recorded, not returned");
        assert!(report.rounds.is_empty());
        let failed: Vec<(u64, NodeId)> = report
            .cut_failures
            .iter()
            .map(|f| (f.sweep, f.explorer))
            .collect();
        let explorers = [NodeId(0), NodeId(1), NodeId(2)];
        let want: Vec<(u64, NodeId)> = [1, 2]
            .iter()
            .flat_map(|&s| explorers.map(|e| (s, e)))
            .collect();
        assert_eq!(failed, want);
        assert!(serde_json::to_string(&report)
            .unwrap()
            .contains("cut_failures"));

        let report = campaign.run(&mut sim).expect("runs");
        assert!(report.cut_failures.is_empty());
        let ordinals: Vec<u64> = report.rounds.iter().map(|r| r.round).collect();
        assert_eq!(ordinals, (1..=8).collect::<Vec<u64>>());
        assert!(!serde_json::to_string(&report)
            .unwrap()
            .contains("cut_failures"));
    }

    #[test]
    fn dynamics_before_a_failed_cut_are_counted() {
        // The churn schedule of `dynamics_schedule_is_deterministic_and_counted`
        // under a zero cut deadline: every cut fails, yet the crash the
        // campaign applied to the live system is in its report.
        let mut sim = scenarios::healthy_line(4, 9);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let campaign = quick(Campaign::new(&sim))
            .explorers([NodeId(0)])
            .max_peers_per_explorer(1)
            .executions(8)
            .schedule(dice_netsim::ScheduleSpec {
                churn: 1,
                churn_len: SimDuration::from_millis(1),
                window: SimDuration::ZERO,
                protect_first: 2,
                ..dice_netsim::ScheduleSpec::default()
            });
        let mut cfg = campaign.config_ref().clone();
        cfg.template.snapshot_deadline = SimDuration::ZERO;
        let report = campaign.config(cfg).run(&mut sim).expect("runs");
        assert_eq!(report.cut_failures.len(), 1);
        assert_eq!(report.perf.churn_events, 1, "{:?}", report.perf);
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
