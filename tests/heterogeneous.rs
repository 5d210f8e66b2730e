//! Heterogeneity round-trip: the DiCE runtime must explore federations
//! that mix BGP routers with arbitrary other `ExplorableNode`
//! implementors, and a campaign must sweep multiple explorers and report
//! per-explorer coverage.

use dice_system::bgp::{net, Asn, BgpRouter, Ipv4Net, RouterConfig, RouterId};
use dice_system::concolic::{ConcolicCtx, RunStatus, SiteId};
use dice_system::dice::sut::{
    CheckView, ExplorableNode, ExplorationPlan, SessionHealth, SutCatalog,
};
use dice_system::dice::{
    scenarios, AttestationRegistry, Campaign, CampaignConfig, DiceConfig, FaultClass,
};
use dice_system::gossip::{GossipConfig, GossipNode};
use dice_system::netsim::{
    LinkParams, Node, NodeApi, NodeId, SimDuration, SimTime, Simulator, Topology,
};

/// A trivial non-BGP protocol node: counts the bytes it receives and
/// "crashes" on a magic opcode — enough surface for DiCE to snapshot,
/// explore, validate and check it.
#[derive(Clone, Default)]
struct MonitorNode {
    peers: Vec<NodeId>,
    bytes_seen: u64,
    /// Test hook: the exploration twin panics instead of running.
    twin_panics: bool,
}

const MAGIC_CRASH_OPCODE: u8 = 0x99;

impl Node for MonitorNode {
    fn on_message(&mut self, _from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        self.bytes_seen += data.len() as u64;
        if data.first() == Some(&MAGIC_CRASH_OPCODE) {
            api.crash("monitor: magic opcode");
        }
    }
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
    fn state_size(&self) -> usize {
        8 + self.peers.len() * 4
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

impl CheckView for MonitorNode {
    fn for_each_route_flip(&self, _visit: &mut dyn FnMut(Ipv4Net, u64)) {}
    fn for_each_best_route(&self, _visit: &mut dyn FnMut(Ipv4Net, Asn)) {}
    fn session_health(&self) -> SessionHealth {
        SessionHealth {
            configured: self.peers.len(),
            established: 0,
        }
    }
}

impl ExplorableNode for MonitorNode {
    fn kind(&self) -> &'static str {
        "monitor"
    }
    fn injection_peers(&self) -> Vec<NodeId> {
        self.peers.clone()
    }
    fn exploration_plan(
        &self,
        peer: NodeId,
        _grammar_seeds: usize,
        _seed: u64,
    ) -> Result<ExplorationPlan, String> {
        if !self.peers.contains(&peer) {
            return Err("peer not monitored".into());
        }
        // Twin of on_message: branch on the magic opcode.
        let twin_panics = self.twin_panics;
        let program = move |ctx: &mut ConcolicCtx| -> RunStatus {
            if twin_panics {
                panic!("twin boom: the explorer's own failure");
            }
            if !ctx.in_bounds(0) {
                return RunStatus::Rejected("empty".into());
            }
            let op = ctx.read_u8(0);
            let magic = ctx.eq_const(op, MAGIC_CRASH_OPCODE as u64);
            if ctx.branch(SiteId(1), magic) {
                return RunStatus::Crash("monitor: magic opcode".into());
            }
            RunStatus::Ok
        };
        fn all_symbolic(bytes: &[u8]) -> Vec<bool> {
            vec![true; bytes.len()]
        }
        Ok(ExplorationPlan {
            program: Box::new(program),
            marker: all_symbolic,
            seeds: vec![vec![0u8; 4]],
        })
    }
    fn attest(&self, _registry: &mut AttestationRegistry) {}
    fn check_view(&self) -> &dyn CheckView {
        self
    }
}

fn monitor_probe(node: &dyn Node) -> Option<&dyn ExplorableNode> {
    node.as_any()
        .downcast_ref::<MonitorNode>()
        .map(|m| m as &dyn ExplorableNode)
}

/// 0 (BGP) — 1 (BGP) — 2 (monitor): BGP routers peer with each other;
/// the monitor observes node 1's traffic without speaking BGP.
fn mixed_system(seed: u64) -> Simulator {
    let topo = Topology::line(3, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo, seed);
    for i in 0..2u32 {
        let mut cfg = RouterConfig::minimal(Asn(65000 + i as u16), RouterId(i + 1))
            .with_network(net(&format!("10.{i}.0.0/16")));
        let peer = if i == 0 { 1 } else { 0 };
        cfg = cfg.with_neighbor(NodeId(peer), Asn(65000 + peer as u16), "all", "all");
        sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
    }
    sim.set_node(
        NodeId(2),
        Box::new(MonitorNode {
            peers: vec![NodeId(1)],
            ..MonitorNode::default()
        }),
    );
    sim.start();
    sim
}

fn mixed_catalog() -> SutCatalog {
    SutCatalog::default().with_probe(monitor_probe)
}

/// A campaign over the mixed catalog and the one pair `cfg` names; a
/// change in neighbour order fails here instead of quietly exploring
/// another pair.
fn mixed_pair_campaign(sim: &Simulator, cfg: DiceConfig) -> Campaign {
    let (explorer, peer) = (cfg.explorer, cfg.inject_peer);
    let campaign = Campaign::with_catalog(sim, mixed_catalog()).config(CampaignConfig {
        explorers: vec![explorer],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(campaign.sweep_plan(), [(explorer, vec![peer])]);
    campaign
}

#[test]
fn mixed_topology_round_trips_through_all_phases() {
    let mut sim = mixed_system(21);
    sim.run_until(SimTime::from_nanos(10_000_000_000));

    // A full DiCE round with the *monitor* as explorer: snapshot,
    // explore, validate, check — no panics, and the twin's crash branch
    // is reachable.
    let mut cfg = DiceConfig::new(NodeId(2), NodeId(1));
    cfg.concolic_executions = 16;
    cfg.validate_top = 4;
    cfg.horizon = SimDuration::from_secs(30);
    let report = mixed_pair_campaign(&sim, cfg)
        .run(&mut sim)
        .expect("monitor round runs")
        .rounds
        .remove(0);
    assert_eq!(report.explorer_kind, "monitor");
    assert_eq!(report.explorer_sessions.configured, 1);
    assert!(report.executions > 0);
    assert!(report.validated > 0);
    assert!(
        report.verdicts_total > 0,
        "checkers ran over the mixed clone"
    );
    // The concolic layer flips the magic-opcode branch, the validation
    // layer replays it on a clone, and the crash checker classifies it.
    assert!(
        report.classes().contains(&FaultClass::ProgrammingError),
        "magic-opcode crash must be surfaced: {:?}",
        report.faults
    );

    // A BGP round over the same mixed system also passes through cleanly.
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 24;
    cfg.validate_top = 4;
    cfg.horizon = SimDuration::from_secs(30);
    let report = mixed_pair_campaign(&sim, cfg)
        .run(&mut sim)
        .expect("bgp round runs")
        .rounds
        .remove(0);
    assert_eq!(report.explorer_kind, "bgp");
    assert!(report.verdicts_total > 0);
    assert_eq!(
        report.explorer_sessions.established, 1,
        "router 1's session to router 0 is up at snapshot time"
    );
}

#[test]
fn campaign_sweeps_mixed_federation() {
    let mut sim = mixed_system(22);
    sim.run_until(SimTime::from_nanos(10_000_000_000));
    let report = Campaign::with_catalog(&sim, mixed_catalog())
        .executions(16)
        .validate_top(3)
        .horizon(SimDuration::from_secs(30))
        .run(&mut sim)
        .expect("mixed campaign runs");
    // Pairs: (0,1), (1,0), (2,1) — both protocols explored.
    assert_eq!(report.rounds.len(), 3);
    let kinds: std::collections::BTreeSet<&str> = report
        .per_explorer
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    assert!(
        kinds.contains("bgp") && kinds.contains("monitor"),
        "{kinds:?}"
    );
}

#[test]
fn demo27_campaign_visits_multiple_explorers_with_coverage() {
    let mut sim = scenarios::demo27_system(4);
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let build = |sim: &Simulator, workers: usize| {
        Campaign::new(sim)
            .explorers([NodeId(11), NodeId(12)])
            .executions(16)
            .validate_top(3)
            .horizon(SimDuration::from_secs(30))
            .workers(workers)
    };
    let report = build(&sim, 4).run(&mut sim).expect("campaign runs");
    assert!(
        report.per_explorer.len() > 1,
        "campaign must visit >1 explorer: {:?}",
        report.per_explorer
    );
    for e in &report.per_explorer {
        assert!(e.coverage > 0, "per-explorer coverage reported: {e:?}");
        assert!(e.rounds >= 1);
    }
    assert!(report.coverage_union > 0);

    // Determinism: parallel validation (workers >= 4) detects exactly the
    // fault classes that the same sweep's rounds detect on one worker.
    let sequential = build(&sim, 1).run(&mut sim).expect("campaign runs");
    let sequential_classes: std::collections::BTreeSet<FaultClass> =
        sequential.rounds.iter().flat_map(|r| r.classes()).collect();
    assert_eq!(report.classes(), sequential_classes);
}

#[test]
fn scheduler_is_deterministic_across_pair_workers() {
    // The parallel round engine must produce the *same report* — faults,
    // coverage union, detection, per-explorer summaries, round ordering —
    // for any round-level parallelism, on a federation mixing BGP routers
    // with a non-BGP monitor node. Only wall-clock fields may differ;
    // `CampaignReport::normalized` zeroes those, and the serialized JSON
    // must then be byte-identical.
    let run = |pair_workers: usize| {
        let mut sim = mixed_system(33);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let report = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(32)
            .validate_top(5)
            .horizon(SimDuration::from_secs(30))
            .workers(2)
            .pair_workers(pair_workers)
            .run(&mut sim)
            .expect("mixed campaign runs");
        (
            report.classes(),
            serde_json::to_string(&report.normalized()).unwrap(),
        )
    };
    let (classes_1, json_1) = run(1);
    let (classes_2, json_2) = run(2);
    let (classes_4, json_4) = run(4);
    // The monitor node's magic-opcode crash is found regardless of
    // parallelism.
    assert!(classes_1.contains(&FaultClass::ProgrammingError));
    assert_eq!(classes_1, classes_2);
    assert_eq!(classes_1, classes_4);
    assert_eq!(json_1, json_2, "pair_workers=2 must match sequential");
    assert_eq!(json_1, json_4, "pair_workers=4 must match sequential");
}

/// Three *kinds* of node under one campaign:
///
/// ```text
/// 0 (bgp) — 1 (bgp) — 2 (gossip, seeded bug) — 3 (gossip) — 5 (monitor)
///                          \________ 4 (gossip) ________/
/// ```
///
/// BGP routers 0-1 peer over a line; gossip nodes 2-3-4 form a triangle
/// (node 2 carries the seeded digest-count defect); the monitor stub
/// watches gossip node 3. One link 1-2 bridges the domains so a single
/// Chandy–Lamport snapshot spans all three protocols.
fn three_kind_system(seed: u64) -> Simulator {
    let mut topo = Topology::with_nodes(6);
    let lp = || LinkParams::fixed(SimDuration::from_millis(5));
    let rel = dice_system::netsim::Relationship::Unlabeled;
    topo.add_edge(NodeId(0), NodeId(1), lp(), rel);
    topo.add_edge(NodeId(1), NodeId(2), lp(), rel);
    topo.add_edge(NodeId(2), NodeId(3), lp(), rel);
    topo.add_edge(NodeId(3), NodeId(4), lp(), rel);
    topo.add_edge(NodeId(4), NodeId(2), lp(), rel);
    topo.add_edge(NodeId(3), NodeId(5), lp(), rel);
    let mut sim = Simulator::new(topo, seed);
    for i in 0..2u32 {
        let peer = 1 - i;
        let cfg = RouterConfig::minimal(Asn(65000 + i as u16), RouterId(i + 1))
            .with_network(net(&format!("10.{i}.0.0/16")))
            .with_neighbor(NodeId(peer), Asn(65000 + peer as u16), "all", "all");
        sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
    }
    for i in 2..5u32 {
        let mut cfg = GossipConfig::new(61000 + i as u16).publish(i as u16);
        for j in 2..5u32 {
            if j != i {
                cfg = cfg.with_peer(NodeId(j));
            }
        }
        for t in 2..5u16 {
            cfg = cfg.subscribe(t);
        }
        if i == 2 {
            cfg.bugs.digest_count_overflow = true;
        }
        sim.set_node(NodeId(i), Box::new(GossipNode::new(cfg)));
    }
    sim.set_node(
        NodeId(5),
        Box::new(MonitorNode {
            peers: vec![NodeId(3)],
            ..MonitorNode::default()
        }),
    );
    sim.start();
    sim
}

fn three_kind_campaign(seed: u64, pair_workers: usize) -> dice_system::dice::CampaignReport {
    three_kind_campaign_at(seed, pair_workers, 2, false)
}

fn three_kind_campaign_at(
    seed: u64,
    pair_workers: usize,
    workers: usize,
    unreliable_links: bool,
) -> dice_system::dice::CampaignReport {
    let mut sim = three_kind_system(seed);
    sim.run_until(SimTime::from_nanos(12_000_000_000));
    Campaign::with_catalog(&sim, mixed_catalog())
        .validate_top(5)
        .horizon(SimDuration::from_secs(30))
        .workers(workers)
        .pair_workers(pair_workers)
        .unreliable_links(unreliable_links)
        .run(&mut sim)
        .expect("three-kind campaign runs")
}

#[test]
fn three_kind_campaign_visits_every_explorer_kind() {
    let report = three_kind_campaign(41, 2);
    // 2 BGP pairs + 6 gossip pairs + 1 monitor pair.
    assert_eq!(report.rounds.len(), 9);
    let kinds: std::collections::BTreeSet<&str> = report
        .per_explorer
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    assert_eq!(
        kinds,
        ["bgp", "gossip", "monitor"].into_iter().collect(),
        "campaign must explore all three protocol kinds"
    );
    // The per-kind workload rows partition the sweep.
    let by_kind: std::collections::BTreeMap<&str, usize> = report
        .per_kind
        .iter()
        .map(|k| (k.kind.as_str(), k.rounds))
        .collect();
    assert_eq!(by_kind["bgp"], 2);
    assert_eq!(by_kind["gossip"], 6);
    assert_eq!(by_kind["monitor"], 1);
    for k in &report.per_kind {
        assert!(k.coverage > 0, "per-kind coverage reported: {k:?}");
    }
}

#[test]
fn three_kind_campaign_detects_seeded_gossip_bug_via_gossip_explorer() {
    let report = three_kind_campaign(42, 2);
    // The seeded gossip defect is found, attributed to the buggy node.
    let gossip_fault = report
        .faults
        .iter()
        .find(|f| f.detail.contains("digest count overflow"))
        .expect("seeded gossip bug must be detected");
    assert_eq!(gossip_fault.class, FaultClass::ProgrammingError);
    assert_eq!(gossip_fault.node, NodeId(2));
    // ... by a round whose explorer speaks gossip, not BGP.
    let detecting_round = report
        .rounds
        .iter()
        .find(|r| {
            r.faults
                .iter()
                .any(|f| f.detail.contains("digest count overflow"))
        })
        .expect("a round carries the gossip fault");
    assert_eq!(detecting_round.explorer_kind, "gossip");
    assert_eq!(detecting_round.explorer, NodeId(2));
    // The per-kind row credits the gossip workload with the find.
    let gossip_kind = report.per_kind.iter().find(|k| k.kind == "gossip").unwrap();
    assert!(gossip_kind.faults > 0);
}

#[test]
fn three_kind_reports_are_byte_identical_across_pair_workers() {
    // The schedule-identity table: threads exploring x threads validating,
    // including more validators than explorers (3, 5) and the reverse
    // (4, 2), on reliable and on lossy clones. Which worker ran a unit, and
    // when, may show only in the fields `normalized()` zeroes.
    const SCHEDULES: [(usize, usize); 5] = [(1, 1), (1, 4), (2, 2), (4, 2), (3, 5)];
    for unreliable_links in [false, true] {
        let mut reference: Option<String> = None;
        for (pair_workers, workers) in SCHEDULES {
            let at = format!("(pair_workers, workers) = ({pair_workers}, {workers}), unreliable_links = {unreliable_links}");
            let report = three_kind_campaign_at(43, pair_workers, workers, unreliable_links);
            assert!(
                report
                    .faults
                    .iter()
                    .any(|f| f.detail.contains("digest count overflow")),
                "gossip bug found at {at}"
            );
            // One clone checkout per validated input; a worker builds at
            // most one simulator per sweep (this campaign is one sweep).
            let perf = &report.perf;
            assert_eq!(
                (perf.pool_hits + perf.pool_misses) as usize,
                report.validated_total,
                "one pool acquisition per validated input at {at}"
            );
            assert!(
                perf.pool_misses as usize <= pair_workers.max(workers),
                "{} fresh clones at {at}",
                perf.pool_misses
            );
            let json = serde_json::to_string(&report.normalized()).unwrap();
            match &reference {
                None => reference = Some(json),
                Some(first) => assert_eq!(
                    first, &json,
                    "normalized three-kind report at {at} differs from {:?}",
                    SCHEDULES[0]
                ),
            }
        }
    }
}

/// Run `f` on a thread of its own and fail if it has not returned within
/// a minute — a deadlocked executor must fail the test, not hang it.
fn under_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("watchdog: the campaign neither returned nor panicked within 60 s")
}

#[test]
fn exploration_panic_surfaces_its_own_message() {
    // The monitor's twin panics while a worker explores it, i.e. before
    // the executor's barrier, with a second explorer and a validate-only
    // worker due at the same barrier. The unwinding worker must still
    // arrive there (or the other two wait forever), and `Campaign::run`
    // must re-raise *that* panic, not the scope join's generic one.
    let payload = under_watchdog(|| {
        let mut sim = mixed_system(35);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        sim.node_mut(NodeId(2))
            .as_any_mut()
            .downcast_mut::<MonitorNode>()
            .expect("node 2 is the monitor")
            .twin_panics = true;
        let campaign = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(16)
            .validate_top(3)
            .horizon(SimDuration::from_secs(30))
            .pair_workers(2)
            .workers(3);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| campaign.run(&mut sim)))
            .expect_err("the twin's panic must propagate")
    });
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        msg.contains("twin boom: the explorer's own failure"),
        "the twin's own panic must surface, got: {msg}"
    );
}

#[test]
fn wire_knobs_are_byte_identical_across_the_whole_matrix() {
    // The zero-copy wire path adds two knobs to validation clones: the
    // payload-buffer pool and batched same-instant delivery. Both are
    // pure allocation/scheduling optimizations — the event schedule and
    // every delivered byte are identical in all four combinations — so a
    // mixed three-kind federation must produce byte-identical normalized
    // reports across the full {wire_pool} x {batch_delivery} x
    // {pair_workers} matrix. Only the (normalized-away) perf counters may
    // observe the difference.
    let run = |wire_pool: bool, batch: bool, pair_workers: usize| {
        let mut sim = three_kind_system(46);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(96)
            .validate_top(5)
            .horizon(SimDuration::from_secs(30))
            .workers(2)
            .pair_workers(pair_workers)
            .wire_pool(wire_pool)
            .batch_delivery(batch)
            .run(&mut sim)
            .expect("three-kind campaign runs");
        assert!(
            report.perf.wire_bytes > 0,
            "validation clones must move wire bytes: {:?}",
            report.perf
        );
        assert!(
            report.perf.delivered_batches > 0,
            "deliveries are counted as batches in both modes: {:?}",
            report.perf
        );
        if wire_pool {
            assert!(
                report.perf.buf_hits > 0,
                "wire pool on must recycle payload buffers: {:?}",
                report.perf
            );
        } else {
            assert_eq!(
                (report.perf.buf_hits, report.perf.buf_misses),
                (0, 0),
                "wire pool off never touches the free list"
            );
        }
        serde_json::to_string(&report.normalized()).unwrap()
    };
    let base = run(true, true, 1);
    assert_eq!(run(false, true, 1), base, "wire pool off differs");
    assert_eq!(run(true, false, 1), base, "batching off differs");
    assert_eq!(run(false, false, 1), base, "both knobs off differs");
    assert_eq!(run(true, true, 4), base, "default knobs parallel differs");
    assert_eq!(run(false, false, 4), base, "knobs off parallel differs");
    assert!(
        base.contains("\"buf_hits\":0") && base.contains("\"wire_bytes\":0"),
        "normalized() must zero the wire counters"
    );
}

#[test]
fn delta_and_schedule_knobs_are_byte_identical_across_the_whole_matrix() {
    // Delta snapshots serve unmutated node checkpoints from a per-node
    // cache (state-identical to fresh clones), and an *empty* dynamics
    // schedule expands to zero actions — so a mixed three-kind federation
    // must produce byte-identical normalized reports across the full
    // {delta_snapshots} x {schedule off/empty} x {pair_workers} matrix.
    // Only the (normalized-away) perf counters may observe the delta knob.
    use dice_system::netsim::ScheduleSpec;
    let run = |delta: bool, schedule: bool, pair_workers: usize| {
        let mut sim = three_kind_system(47);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let mut campaign = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(96)
            .validate_top(5)
            .horizon(SimDuration::from_secs(30))
            .workers(2)
            .pair_workers(pair_workers)
            .delta_snapshots(delta);
        if schedule {
            campaign = campaign.schedule(ScheduleSpec::default());
        }
        let report = campaign.run(&mut sim).expect("three-kind campaign runs");
        assert!(
            report.perf.nodes_recaptured > 0,
            "cuts capture checkpoints in both modes: {:?}",
            report.perf
        );
        assert_eq!(
            report.perf.churn_events, 0,
            "an empty schedule applies no dynamics"
        );
        serde_json::to_string(&report.normalized()).unwrap()
    };
    let base = run(true, false, 1);
    assert_eq!(run(false, false, 1), base, "delta off differs");
    assert_eq!(run(true, true, 1), base, "empty schedule differs");
    assert_eq!(run(false, true, 1), base, "delta off + schedule differs");
    assert_eq!(run(true, false, 4), base, "delta parallel differs");
    assert_eq!(run(false, false, 4), base, "delta off parallel differs");
    assert_eq!(run(true, true, 4), base, "schedule parallel differs");
    assert_eq!(run(false, true, 4), base, "off/on parallel differs");
    assert!(
        base.contains("\"nodes_recaptured\":0") && base.contains("\"churn_events\":0"),
        "normalized() must zero the delta counters"
    );
}

#[test]
fn link_fault_knobs_are_byte_identical_across_pair_workers() {
    // Channel fidelity is sampled from per-link RNG streams split off a
    // salted parent, so a lossy campaign is just as deterministic as a
    // reliable one: for a fixed seed and fault knob, the normalized
    // report must be byte-identical across round-level parallelism. A
    // no-op fault table behind `unreliable_links = true` must be
    // indistinguishable from the knob being off — `is_noop` short-circuits
    // before any stream is consumed.
    use dice_system::netsim::LinkFaults;
    let run = |unreliable: bool, faults: Option<LinkFaults>, pair_workers: usize| {
        let mut sim = three_kind_system(49);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let mut campaign = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(96)
            .validate_top(5)
            .horizon(SimDuration::from_secs(30))
            .workers(2)
            .pair_workers(pair_workers)
            .unreliable_links(unreliable);
        if let Some(f) = faults {
            campaign = campaign.link_faults(f);
        }
        let report = campaign.run(&mut sim).expect("three-kind campaign runs");
        if unreliable && faults.is_some_and(|f| !f.is_noop()) {
            assert!(
                report.perf.frames_dropped
                    + report.perf.frames_duplicated
                    + report.perf.frames_reordered
                    > 0,
                "lossy clones must meter channel perturbation: {:?}",
                report.perf
            );
            assert!(
                report
                    .faults
                    .iter()
                    .any(|f| f.detail.contains("digest count overflow")),
                "seeded gossip bug still detected at 5% loss"
            );
        } else {
            assert_eq!(
                report.perf.frames_dropped, 0,
                "reliable clones never drop frames"
            );
        }
        serde_json::to_string(&report.normalized()).unwrap()
    };
    let noop = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_window: SimDuration::ZERO,
        burst: None,
    };
    let reliable = run(false, None, 1);
    assert_eq!(run(false, None, 4), reliable, "reliable parallel differs");
    assert_eq!(
        run(true, Some(noop), 1),
        reliable,
        "no-op faults must be indistinguishable from reliable links"
    );
    assert_eq!(
        run(true, Some(noop), 4),
        reliable,
        "no-op faults parallel differs"
    );
    let lossy = run(true, Some(LinkFaults::lossy(0.05)), 1);
    assert_eq!(
        run(true, Some(LinkFaults::lossy(0.05)), 4),
        lossy,
        "lossy campaign must be byte-identical across pair_workers"
    );
    assert!(
        lossy.contains("\"frames_dropped\":0"),
        "normalized() must zero the channel-fidelity counters"
    );
}

#[test]
fn real_dynamics_schedule_replays_deterministically() {
    // A *non-empty* schedule changes what the campaign observes (nodes
    // leave and rejoin between sweeps) — but it must do so
    // deterministically: same seed, same spec, same normalized bytes.
    use dice_system::netsim::ScheduleSpec;
    let run = || {
        let mut sim = three_kind_system(48);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let spec = ScheduleSpec {
            partitions: 1,
            partition_len: SimDuration::from_millis(1),
            window: SimDuration::ZERO,
            ..ScheduleSpec::default()
        };
        let report = Campaign::with_catalog(&sim, mixed_catalog())
            .executions(16)
            .validate_top(3)
            .horizon(SimDuration::from_secs(30))
            .rounds(2)
            .schedule(spec)
            .run(&mut sim)
            .expect("campaign survives a partition window");
        (
            report.perf.churn_events,
            serde_json::to_string(&report.normalized()).unwrap(),
        )
    };
    let (events_a, json_a) = run();
    assert!(
        events_a >= 1,
        "the partition leg must fire before the first sweep"
    );
    let (events_b, json_b) = run();
    assert_eq!(events_a, events_b);
    assert_eq!(json_a, json_b, "dynamics must replay from the seed");
}

#[test]
fn buggy_campaign_matches_sequential_detection() {
    // Same determinism property on a system that actually faults: the
    // sweep at `workers(4)` detects what its rounds at `workers(1)` do.
    let mut sim = scenarios::buggy_parser_scenario(7);
    sim.run_until(SimTime::from_nanos(10_000_000_000));
    let build = |sim: &Simulator, workers: usize| {
        Campaign::new(sim)
            .explorers([NodeId(1)])
            .executions(160)
            .validate_top(16)
            .workers(workers)
    };
    assert_eq!(
        build(&sim, 1).sweep_plan(),
        [(NodeId(1), vec![NodeId(0), NodeId(2)])]
    );
    let campaign_classes = build(&sim, 4)
        .run(&mut sim)
        .expect("campaign runs")
        .classes();
    let sequential = build(&sim, 1).run(&mut sim).expect("campaign runs");
    let sequential_classes: std::collections::BTreeSet<FaultClass> =
        sequential.rounds.iter().flat_map(|r| r.classes()).collect();

    assert!(campaign_classes.contains(&FaultClass::ProgrammingError));
    assert_eq!(campaign_classes, sequential_classes);
}
