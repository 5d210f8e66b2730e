//! The campaign's contracts (ROADMAP aim 3) over generated scenarios
//! instead of hand-picked ones. A scenario is a line, ring, star or
//! Internet-like federation of up to 30 nodes — BGP routers and gossip
//! nodes, optionally configured to talk across the protocol seam, one of
//! them optionally running its seeded defect — over lossy links, with
//! channel faults on the clones, a dynamics schedule of up to 3 legs, an
//! explorer subset and up to 3 sweeps.
//!
//! `scenario_contracts` holds [`campaign_contracts`] on each:
//!
//! 1. `Campaign::run` returns `Ok` or `Err` and never panics (a failed cut
//!    is not an `Err`: it is a `cut_failures` entry in the report, and the
//!    contracts below hold for those entries as for the rounds);
//! 2. the normalized report (or the error) is byte-identical at `workers`
//!    = 1, 2 and the generated count in 1..=4;
//! 3. a repeat run is byte-identical;
//! 4. two successive `run` calls on one live system — the scenario's
//!    campaign, then one sweep without a schedule — report what one call of
//!    one sweep more reports, but for one documented difference: a call
//!    drops the legs of its schedule still pending when it returns. The
//!    property applies those legs by hand between the two calls and then
//!    asks for equality, so the difference it allows is exactly that one
//!    (`a_second_call_drops_the_first_calls_pending_legs` shows it).
//!
//! `null_input_clone_predicts_the_live_system` holds DiCE's premise on the
//! same scenarios: a clone started from a consistent cut shows what the
//! live system does. It cuts the warmed-up live system from a drawn node,
//! clones the cut on another seed, runs both 150 s past the cut without an
//! input, and compares every node of the cut's scope: the checkers' view
//! (best routes, session health, crash state), a router's AS paths, a
//! gossip node's stored and seen rumors. The one divergence it allows is
//! ROADMAP item 2a's gap, that a clone never fires a timer armed before the
//! cut ([`clone_misses_a_timer_armed_before_the_cut`]);
//! `a_clone_never_collects_expired_rumors` pins one instance of it.
//!
//! `config_json_loads_or_errs` feeds `CampaignConfig` / `DiceConfig` JSON
//! with dropped, retired and out-of-range fields to the loader: each must
//! load or give an `Err`, never panic, and what loads must save and load
//! back to the same JSON. A loaded config whose `workers` exceeds
//! `MAX_WORKERS` is run on a 2-node line and must give the `Err` that names
//! the field.
//!
//! CI runs them in release at fixed case counts:
//! `PROPTEST_CASES=1000 cargo test --release --test campaign_properties --
//! --skip null_input_clone_predicts_the_live_system` (about 27 s on a
//! 2-vCPU host), and the clone-vs-live property alone at
//! `PROPTEST_CASES=2000` (about 7 s).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dice_system::bgp::{Asn, BgpRouter, Ipv4Net, RouterConfig, RouterId};
use dice_system::dice::campaign::MAX_WORKERS;
use dice_system::dice::snapshot::take_consistent_snapshot;
use dice_system::dice::sut::{SessionHealth, SutCatalog};
use dice_system::dice::{scenarios, Campaign, CampaignConfig, CampaignReport, DiceConfig};
use dice_system::gossip::{GossipConfig, GossipNode};
use dice_system::netsim::{
    BurstLoss, InternetParams, LatencyModel, LinkFaults, LinkParams, NodeId, Schedule,
    ScheduleSpec, SimDuration, SimRng, SimTime, Simulator, Topology,
};
use proptest::prelude::*;
use serde_json::Value;

/// The salt `Campaign::run` splits its schedule stream from the campaign
/// seed with: the test expands the same legs to find the pending ones.
const SCHEDULE_SALT: u64 = 0x5C4ED;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Scenario {
    /// 0 line, 1 ring, 2 star, 3 Internet-like.
    shape: u8,
    nodes: usize,
    /// Bit `i` set: node `i` is a gossip node.
    gossip: u32,
    /// BGP routers and gossip nodes also configure each other as peers.
    cross_talk: bool,
    /// The node that runs its protocol's seeded defect.
    buggy: Option<u32>,
    latency_ms: u64,
    loss_permille: u32,
    /// Simulated time the live system runs before the campaign.
    warmup_ms: u64,
    /// Clone channel faults (`LinkFaults::lossy` at this rate); `None`
    /// leaves the clones' links reliable.
    fault_permille: Option<u32>,
    burst: bool,
    schedule: ScheduleSpec,
    explorers: Vec<NodeId>,
    peers: usize,
    rounds: usize,
    executions: usize,
    validate_top: usize,
    grammar_seeds: usize,
    seed: u64,
    /// The generated thread count.
    workers: usize,
}

impl Scenario {
    fn topology(&self) -> Topology {
        let latency = SimDuration::from_millis(self.latency_ms);
        let params = LinkParams {
            latency: LatencyModel::Fixed(latency),
            bandwidth_bps: None,
            loss: f64::from(self.loss_permille) / 1000.0,
        };
        // A ring and the Internet-like generator's tier-1 clique need 3.
        let n = self.nodes;
        match self.shape {
            0 => Topology::line(n, params),
            1 => Topology::ring(n.max(3), params),
            2 => Topology::star(n, params),
            _ => {
                let p = InternetParams {
                    median_latency: latency,
                    ..InternetParams::default()
                };
                Topology::internet_like(n.max(3), &p, &mut SimRng::seed_from_u64(self.seed))
            }
        }
    }

    fn is_gossip(&self, n: NodeId) -> bool {
        n.0 < 32 && self.gossip & (1 << n.0) != 0
    }

    /// The live system: `scenarios::build_system` when every node is a
    /// healthy BGP router, else the mix built here.
    fn system(&self) -> Simulator {
        let topo = self.topology();
        let any_gossip = topo.node_ids().any(|n| self.is_gossip(n));
        if !any_gossip && self.buggy.is_none() {
            return scenarios::build_system(&topo, self.seed);
        }
        let gossip: Vec<u32> = topo
            .node_ids()
            .filter(|&n| self.is_gossip(n))
            .map(|n| n.0)
            .collect();
        let mut sim = Simulator::new(topo.clone(), self.seed);
        for n in topo.node_ids() {
            let peers = topo
                .neighbors(n)
                .into_iter()
                .filter(|&m| self.cross_talk || self.is_gossip(m) == self.is_gossip(n));
            let buggy = self.buggy.map(|b| b % topo.len() as u32) == Some(n.0);
            if self.is_gossip(n) {
                let mut cfg = GossipConfig::new(scenarios::gossip_origin_of(n.0))
                    .publish(scenarios::topic_of(n.0));
                for p in peers {
                    cfg = cfg.with_peer(p);
                }
                for &g in &gossip {
                    cfg = cfg.subscribe(scenarios::topic_of(g));
                }
                cfg.bugs.digest_count_overflow = buggy;
                sim.set_node(n, Box::new(GossipNode::new(cfg)));
            } else {
                let mut cfg =
                    RouterConfig::minimal(scenarios::asn_of(n.0), RouterId(0x0A00_0001 + n.0))
                        .with_network(scenarios::prefix_of(n.0));
                for m in peers {
                    cfg = cfg.with_neighbor(m, scenarios::asn_of(m.0), "all", "all");
                }
                cfg.bugs.attr_overflow_crash = buggy;
                sim.set_node(n, Box::new(BgpRouter::new(cfg)));
            }
        }
        sim.start();
        sim
    }

    /// A fresh live system, run through its warm-up, and the scenario's
    /// campaign over it with `rounds` sweeps on `workers` threads.
    ///
    /// Each drawn explorer indexes the system's eligible explorers, so a
    /// drawn subset always sweeps something; only a system with no eligible
    /// pair at all gives the empty-plan `Err`.
    fn deploy(&self, rounds: usize, workers: usize) -> Deployed {
        let mut live = self.system();
        live.run_until(SimTime::from_nanos(self.warmup_ms * 1_000_000));
        let campaign = Campaign::with_catalog(&live, SutCatalog::default());
        let eligible: Vec<NodeId> = campaign
            .eligible_pairs()
            .iter()
            .map(|&(explorer, _)| explorer)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        // With no eligible explorer every draw maps to none, and the
        // empty list means every explorer: the plan is empty either way.
        let explorers = self
            .explorers
            .iter()
            .filter_map(|e| eligible.get(e.0 as usize % eligible.len().max(1)));
        let mut campaign = campaign
            .explorers(explorers.copied())
            .max_peers_per_explorer(self.peers)
            .rounds(rounds)
            .executions(self.executions)
            .validate_top(self.validate_top)
            .grammar_seeds(self.grammar_seeds)
            .horizon(SimDuration::from_secs(20))
            .seed(self.seed)
            .schedule(self.schedule.clone())
            .workers(workers);
        if let Some(p) = self.fault_permille {
            let p = f64::from(p) / 1000.0;
            campaign = campaign.unreliable_links(true).link_faults(LinkFaults {
                burst: self.burst.then(BurstLoss::harsh),
                ..LinkFaults::lossy(p)
            });
        }
        Deployed { live, campaign }
    }
}

struct Deployed {
    live: Simulator,
    campaign: Campaign,
}

/// What a campaign call came to: its report or its error. A panic is a
/// failed case, with the panic's message.
type Outcome = Result<CampaignReport, String>;

fn caught<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        TestCaseError::fail(format!("{what} panicked: {msg}"))
    })
}

fn run(campaign: &Campaign, live: &mut Simulator) -> Result<Outcome, TestCaseError> {
    caught("Campaign::run", || campaign.run(live))
}

/// The determinism key of an outcome: the normalized report's JSON, or the
/// error.
fn key(outcome: &Outcome) -> String {
    match outcome {
        Ok(report) => serde_json::to_string(&report.normalized()).unwrap(),
        Err(e) => format!("Err({e})"),
    }
}

/// The four contracts on one scenario (see the module doc).
fn campaign_contracts(s: &Scenario) -> Result<(), TestCaseError> {
    let Deployed { mut live, campaign } = caught("deploy", || s.deploy(s.rounds, 1))?;
    let start = live.now();
    let first = run(&campaign, &mut live)?;
    let reference = key(&first);

    // Schedule identity, then a repeat of the generated schedule.
    for workers in [2, s.workers, s.workers] {
        let mut other = caught("deploy", || s.deploy(s.rounds, workers))?;
        let got = run(&other.campaign, &mut other.live)?;
        prop_assert_eq!(
            key(&got),
            reference.clone(),
            "workers = {} against 1",
            workers
        );
    }

    // Successive calls against one joined call.
    let mut joined = caught("deploy", || s.deploy(s.rounds + 1, 1))?;
    let joined = run(&joined.campaign, &mut joined.live)?;
    let first = match first {
        Ok(report) => report,
        // The joined call's first sweeps are the first call's: the same
        // error ends it.
        Err(e) => {
            prop_assert_eq!(key(&joined), format!("Err({e})"));
            return Ok(());
        }
    };
    // The documented difference: the first call's schedule legs still
    // pending when it returned. The joined call applies those that are due
    // before its last sweep; apply them by hand before the second call.
    let fired = first.perf.churn_events as usize;
    let mut pending = Schedule::default();
    if !s.schedule.is_empty() {
        let mut rng = SimRng::seed_from_u64(s.seed).split(SCHEDULE_SALT);
        let legs = s.schedule.expand(live.topology(), start, &mut rng);
        prop_assert!(fired <= legs.len(), "{fired} legs fired of {}", legs.len());
        for &(t, action) in &legs.entries()[fired..] {
            pending = pending.at(t, action);
        }
    }
    pending.apply_due(&mut live);
    let by_hand = (pending.len() - pending.pending()) as u64;
    let mut cfg = campaign.config_ref().clone();
    cfg.rounds = 1;
    cfg.template.schedule = None;
    let second = run(&campaign.clone().config(cfg), &mut live)?;
    let (second, joined) = match (second, joined) {
        (Ok(second), Ok(joined)) => (second, joined),
        (second, joined) => {
            prop_assert_eq!(key(&joined), key(&second));
            return Ok(());
        }
    };
    prop_assert_eq!(
        joined.perf.churn_events,
        first.perf.churn_events + by_hand + second.perf.churn_events
    );
    let offset = first.rounds.len() as u64;
    let mut rounds = first.normalized().rounds;
    rounds.extend(second.normalized().rounds.into_iter().map(|mut r| {
        r.round += offset;
        r
    }));
    prop_assert_eq!(
        serde_json::to_string(&joined.normalized().rounds).unwrap(),
        serde_json::to_string(&rounds).unwrap()
    );
    // Sweeps are renumbered the way rounds are.
    let sweeps = s.rounds as u64;
    let mut cut_failures = first.cut_failures.clone();
    cut_failures.extend(second.cut_failures.iter().cloned().map(|mut f| {
        f.sweep += sweeps;
        f
    }));
    prop_assert_eq!(&joined.cut_failures, &cut_failures);
    let mut faults = first.faults.clone();
    for f in &second.faults {
        if !faults.iter().any(|g| g.key() == f.key()) {
            faults.push(f.clone());
        }
    }
    prop_assert_eq!(
        serde_json::to_string(&joined.faults).unwrap(),
        serde_json::to_string(&faults).unwrap()
    );
    prop_assert_eq!(
        (
            joined.executions_total,
            joined.validated_total,
            joined.sim_nanos
        ),
        (
            first.executions_total + second.executions_total,
            first.validated_total + second.validated_total,
            first.sim_nanos + second.sim_nanos
        )
    );
    Ok(())
}

/// The dynamics schedule from its generated legs (`true` a partition,
/// `false` a churn cycle).
fn schedule(
    legs: &[bool],
    leg_ms: u64,
    start_ms: u64,
    window_ms: u64,
    protect: u32,
) -> ScheduleSpec {
    let partitions = legs.iter().filter(|&&p| p).count() as u32;
    ScheduleSpec {
        partitions,
        partition_len: SimDuration::from_millis(leg_ms),
        churn: legs.len() as u32 - partitions,
        churn_len: SimDuration::from_millis(leg_ms),
        start: SimDuration::from_millis(start_ms),
        window: SimDuration::from_millis(window_ms),
        protect_first: protect,
    }
}

/// The scenario generator: one argument list, so every property over a
/// [`Scenario`] draws it alike and shrinks it field by field. The caller
/// names the scenario and may append arguments of its own, drawn after the
/// scenario's.
macro_rules! scenario_proptest {
    (
        $(#[$meta:meta])*
        fn $name:ident($s:ident $(, $arg:ident in $strat:expr)* $(,)?) $body:block
    ) => {
        proptest! {
            $(#[$meta])*
            #[test]
            fn $name(
                shape in 0u8..4,
                nodes in 2usize..=30,
                gossip in any::<u32>(),
                cross_talk in any::<bool>(),
                buggy in prop::option::of(0u32..30),
                latency_ms in 1u64..=20,
                loss_permille in 0u32..=100,
                warmup_ms in 0u64..=12_000,
                fault_permille in prop::option::of(0u32..=300),
                burst in any::<bool>(),
                legs in prop::collection::vec(any::<bool>(), 0..=3),
                leg_ms in 0u64..=100,
                start_ms in 0u64..=20,
                window_ms in 0u64..=50,
                protect in 0u32..4,
                explorers in prop::collection::vec(0u32..30, 0..=3),
                peers in 0usize..=2,
                rounds in 1usize..=3,
                executions in 0usize..=24,
                validate_top in 0usize..=4,
                grammar_seeds in 0usize..=3,
                seed in 0u64..1_000,
                workers in 1usize..=4,
                $($arg in $strat,)*
            ) {
                let $s = Scenario {
                    shape,
                    nodes,
                    gossip,
                    cross_talk,
                    buggy,
                    latency_ms,
                    loss_permille,
                    warmup_ms,
                    fault_permille,
                    burst,
                    schedule: schedule(&legs, leg_ms, start_ms, window_ms, protect),
                    explorers: explorers.into_iter().map(NodeId).collect(),
                    peers,
                    rounds,
                    executions,
                    validate_top,
                    grammar_seeds,
                    seed,
                    workers,
                };
                $body
            }
        }
    };
}

scenario_proptest! {
    /// Generated scenarios against the four contracts.
    fn scenario_contracts(s) {
        campaign_contracts(&s)?;
    }
}

/// The documented difference itself: a churn cycle whose crash is due
/// before the first sweep and whose restart is due before the second. One
/// call of two sweeps applies both legs; a call of one sweep followed by a
/// second call applies only the crash — the second call never restarts the
/// node.
#[test]
fn a_second_call_drops_the_first_calls_pending_legs() {
    let s = Scenario {
        shape: 0,
        nodes: 4,
        gossip: 0,
        cross_talk: false,
        buggy: None,
        latency_ms: 5,
        loss_permille: 0,
        warmup_ms: 12_000,
        fault_permille: None,
        burst: false,
        schedule: schedule(&[false], 1, 0, 0, 2),
        explorers: vec![NodeId(0)],
        peers: 1,
        rounds: 1,
        executions: 8,
        validate_top: 2,
        grammar_seeds: 2,
        seed: 9,
        workers: 1,
    };
    let Deployed { mut live, campaign } = s.deploy(1, 1);
    let first = campaign.run(&mut live).expect("first call runs");
    let mut cfg = campaign.config_ref().clone();
    cfg.template.schedule = None;
    let second = campaign
        .clone()
        .config(cfg)
        .run(&mut live)
        .expect("second call runs");
    let mut joined = s.deploy(2, 1);
    let joined = joined
        .campaign
        .run(&mut joined.live)
        .expect("joined call runs");
    assert_eq!(first.perf.churn_events, 1, "the crash fires before sweep 1");
    assert_eq!(second.perf.churn_events, 0, "the restart is dropped");
    assert_eq!(joined.perf.churn_events, 2, "crash, then restart");
}

/// How far past its cut a live system and a null-input clone of the cut
/// run before they are compared: one 90 s BGP hold time, the 120 s rumor
/// lifetime plus one 10 s GC period, and 75 two-second anti-entropy
/// periods.
const HORIZON: SimDuration = SimDuration::from_secs(150);

/// What the checkers read of one node: the `CheckView` best routes and
/// session health, and the crash state; with them a BGP router's Loc-RIB
/// AS paths and a gossip node's stored rumors and dedup memory. Flip and
/// duplicate counters depend on timing and are left out.
#[derive(Debug, Clone, PartialEq)]
struct Projection {
    crashed: Option<String>,
    best_routes: Vec<(Ipv4Net, Asn)>,
    sessions: Option<SessionHealth>,
    as_paths: Vec<(Ipv4Net, String)>,
    /// A gossip node's `stored()` and `seen_count()`.
    rumors: Option<(usize, usize)>,
}

fn project(sim: &Simulator, id: NodeId) -> Projection {
    let node = sim.node(id);
    let view = SutCatalog::default().resolve(node).map(|n| n.check_view());
    let mut best_routes = Vec::new();
    if let Some(view) = view {
        view.for_each_best_route(&mut |prefix, origin| best_routes.push((prefix, origin)));
    }
    let as_paths = node.as_any().downcast_ref::<BgpRouter>().map(|r| {
        r.loc_rib()
            .iter()
            .map(|(prefix, sel)| (*prefix, sel.route.attrs.as_path.to_string()))
            .collect()
    });
    Projection {
        crashed: sim.crashed(id).map(str::to_string),
        best_routes,
        sessions: view.map(|view| view.session_health()),
        as_paths: as_paths.unwrap_or_default(),
        rumors: node
            .as_any()
            .downcast_ref::<GossipNode>()
            .map(|g| (g.stored(), g.seen_count())),
    }
}

/// One node of a cut's scope, projected on the live system and on the
/// clone.
#[derive(Debug)]
struct Pair {
    id: NodeId,
    live: Projection,
    clone: Projection,
    /// A session of the node was down at the cut.
    down_at_cut: bool,
    /// The cut was taken before the live system had brought every session
    /// up once.
    cut_in_setup: bool,
}

/// The live system past its warm-up, cut from `initiator`, and a clone of
/// the cut on `clone_seed`, both run to the cut's base time plus `horizon`:
/// each node of the cut's scope on both sides, or the cut's error.
///
/// Both sides keep the reliable channel model: link latency and loss as a
/// retransmit delay, but no channel faults. Under drops the two sides draw
/// different drops from different seeds, and BGP does not recover a
/// dropped UPDATE, so they part for reasons that are not the clone's.
fn live_and_clone(
    s: &Scenario,
    initiator: u32,
    clone_seed: u64,
    horizon: SimDuration,
) -> Result<Vec<Pair>, String> {
    let mut live = s.system();
    live.run_until(SimTime::from_nanos(s.warmup_ms * 1_000_000));
    let initiator = NodeId(initiator % live.topology().len() as u32);
    // A reset session comes back up no sooner than the simulator's
    // reconnect delay, long after the first setup of every session.
    let cut_in_setup = live.trace().stats().sessions_up < live.topology().edges().len() as u64;
    let (shadow, _) = take_consistent_snapshot(&mut live, initiator, SimDuration::from_secs(60))?;
    // The scope is the initiator's session-connected component at the cut.
    let scope = shadow.nodes();
    assert!(scope.contains_key(&initiator), "the initiator is in scope");
    for (a, b) in shadow.sessions_up() {
        assert_eq!(
            scope.contains_key(a),
            scope.contains_key(b),
            "the scope ends at the up session {a}-{b}"
        );
    }
    let mut clone = Simulator::from_shadow(&shadow, live.topology(), clone_seed);
    let end = shadow.base_time() + horizon;
    live.run_until(end);
    clone.run_until(end);
    let up = |a, b| {
        shadow
            .sessions_up()
            .iter()
            .any(|&s| s == (a, b) || s == (b, a))
    };
    Ok(shadow
        .nodes()
        .keys()
        .map(|&id| Pair {
            id,
            live: project(&live, id),
            clone: project(&clone, id),
            down_at_cut: live
                .topology()
                .neighbors(id)
                .into_iter()
                .any(|m| !up(id, m)),
            cut_in_setup,
        })
        .collect())
}

/// The one divergence `null_input_clone_predicts_the_live_system` allows,
/// ROADMAP item 2a's gap: a clone never fires a timer armed before the
/// cut. It shows in five shapes, each named by the timer found responsible
/// for it:
///
/// * the gossip GC: the live node has dropped its expired rumors and the
///   clone still stores them, while all else agrees, the dedup memory
///   included (`a_clone_never_collects_expired_rumors` pins one instance);
/// * the gossip anti-entropy digest: the live node has pulled rumors that
///   its peers' pushes missed, and the clone never asks, so the live node
///   has seen more; crash state and sessions agree;
/// * the simulator's reconnect of a session reset before the cut (across
///   the protocol seam, where a BGP router resets what a gossip node
///   sends): the session, down in the cut's session table, comes back on
///   the live system and never on the clone. When it comes back while the
///   cut is under way, an endpoint recorded after that holds it up, and
///   the clone, whose table has it down, never tells the node. Either way
///   only a node with a session down at the cut differs in its sessions;
/// * a BGP router's deferred reset or HOLD across the protocol seam: the
///   live router tears down a session on a timer armed before the cut,
///   and the clone keeps it, so the clone has more sessions established;
/// * the simulator's first setup of the sessions: a cut taken before every
///   session has come up once leaves the clone a partial topology for
///   good, and what the late sessions carry on the live system reaches
///   every node, so any node may differ.
///
/// Any other divergence fails the property: a BGP router that differs while
/// its sessions agree, a session lost on the clone although the node's
/// sessions were all up at the cut, a clone that has seen more rumors than
/// the live node, a crash on one side only.
fn clone_misses_a_timer_armed_before_the_cut(p: &Pair) -> bool {
    let (live, clone) = (&p.live, &p.clone);
    if p.cut_in_setup {
        return true;
    }
    if live.crashed != clone.crashed {
        return false;
    }
    if live.sessions != clone.sessions {
        let established = |q: &Projection| q.sessions.map(|h| h.established);
        return p.down_at_cut || established(live) < established(clone);
    }
    let (Some((live_stored, live_seen)), Some((clone_stored, clone_seen))) =
        (live.rumors, clone.rumors)
    else {
        return false;
    };
    live_seen > clone_seen
        || live_seen == clone_seen
            && live_stored < clone_stored
            && live.best_routes == clone.best_routes
}

scenario_proptest! {
    /// A null-input clone of a consistent cut predicts the live system:
    /// run both to the cut's base time plus [`HORIZON`], and every node in
    /// the cut's scope projects alike on both, but for the one allowance
    /// [`clone_misses_a_timer_armed_before_the_cut`]. A cut that a session
    /// reset fails has nothing to compare.
    ///
    /// Half the cases clear the gossip bits: a drawn scenario of n nodes
    /// is all BGP once in 2^n, and a BGP line cut mid-convergence is a case
    /// this property must cover.
    fn null_input_clone_predicts_the_live_system(
        s,
        initiator in 0u32..30,
        clone_seed in 1_000u64..2_000,
        all_bgp in any::<bool>(),
    ) {
        let s = if all_bgp { Scenario { gossip: 0, ..s } } else { s };
        let pairs = caught("the live and clone runs", || {
            live_and_clone(&s, initiator, clone_seed, HORIZON)
        })?;
        let Ok(pairs) = pairs else {
            return Ok(());
        };
        for p in pairs {
            prop_assert!(
                p.live == p.clone || clone_misses_a_timer_armed_before_the_cut(&p),
                "{:?}",
                p
            );
        }
    }
}

/// The allowance's pinned instance: a gossip line cut 2 s into its run. A
/// clone projects alike 100 s past the cut. 150 s past it, once every
/// rumor has outlived its 120 s lifetime and a GC period has passed, each
/// live node stores none of the 8 rumors it has seen and each clone node
/// still stores all 8. When a clone fires the timers armed before its cut
/// (ROADMAP item 2a), the two sides agree here and the `assert_ne!` flips.
#[test]
fn a_clone_never_collects_expired_rumors() {
    let s = Scenario {
        shape: 0,
        nodes: 4,
        gossip: 0b1111,
        cross_talk: false,
        buggy: None,
        latency_ms: 5,
        loss_permille: 0,
        warmup_ms: 2_000,
        fault_permille: None,
        burst: false,
        schedule: ScheduleSpec::default(),
        explorers: Vec::new(),
        peers: 0,
        rounds: 1,
        executions: 0,
        validate_top: 0,
        grammar_seeds: 0,
        seed: 3,
        workers: 1,
    };
    let before = live_and_clone(&s, 0, 1_000, SimDuration::from_secs(100)).expect("the cut");
    assert_eq!(before.len(), 4, "the cut spans the line");
    for p in &before {
        assert_eq!(p.live, p.clone, "{:?} before the rumors expire", p.id);
    }
    for p in live_and_clone(&s, 0, 1_000, HORIZON).expect("the cut") {
        let (live, clone) = (p.live.rumors.unwrap(), p.clone.rumors.unwrap());
        assert_eq!(live.1, clone.1, "{:?} has seen the same rumors", p.id);
        assert_ne!(live.0, clone.0, "{:?}: the clone never collects", p.id);
        assert!(clone_misses_a_timer_armed_before_the_cut(&p), "{p:?}");
    }
}

/// What the loader is fed in place of a field's value.
const ODD_VALUES: [&str; 16] = [
    "null",
    "true",
    "-1",
    "0",
    "257",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1.5",
    "1e400",
    "-1e400",
    "\"x\"",
    "[]",
    "{}",
    "[1,2]",
    "{\"nanos\":1}",
];

/// A field configs of earlier builds carried: the retired clone-pool size.
const RETIRED: &str = "pool_size";

/// Every object member's path in `v`, depth first.
fn paths(v: &Value, at: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    if let Value::Object(map) = v {
        for (k, child) in map.iter() {
            at.push(k.clone());
            out.push(at.clone());
            paths(child, at, out);
            at.pop();
        }
    }
}

/// `v` with one edit at `path`: the member dropped (`op` 0), a retired
/// member added beside it (1), or its value replaced by an odd one (2..),
/// spliced in as raw text through a placeholder string.
fn edit(v: &Value, path: &[String], op: usize) -> Value {
    let Value::Object(map) = v else {
        return v.clone();
    };
    let Some((name, rest)) = path.split_first() else {
        return v.clone();
    };
    let mut out: serde_json::Map<String, Value> = serde_json::Map::new();
    for (k, child) in map.iter() {
        if k != name {
            out.insert(k.clone(), child.clone());
        } else if !rest.is_empty() {
            out.insert(k.clone(), edit(child, rest, op));
        } else if op == 1 {
            out.insert(k.clone(), child.clone());
            out.insert(RETIRED.to_string(), Value::U64(0));
        } else if op >= 2 {
            let odd = ODD_VALUES[(op - 2) % ODD_VALUES.len()];
            out.insert(k.clone(), Value::String(format!("@raw:{odd}@")));
        }
    }
    Value::Object(out)
}

/// `text` with each placeholder string [`edit`] left replaced by its raw
/// JSON.
fn splice_raw(text: &str) -> String {
    let mut out = text.to_string();
    for odd in ODD_VALUES {
        out = out.replace(
            &serde_json::to_string(&format!("@raw:{odd}@")).unwrap(),
            odd,
        );
    }
    out
}

/// `text` loads as `T` or is refused, without a panic; what loads saves to
/// JSON that loads back to the same JSON, and is returned.
fn loads_or_errs<T: serde::Serialize + serde::Deserialize>(
    what: &str,
    text: &str,
) -> Result<Option<T>, TestCaseError> {
    let Ok(loaded) = caught(what, || serde_json::from_str::<T>(text))? else {
        return Ok(None);
    };
    let saved = serde_json::to_string(&loaded).unwrap();
    let back = serde_json::from_str::<T>(&saved)
        .map_err(|e| TestCaseError::fail(format!("{what} saved {saved} and refused it: {e}")))?;
    prop_assert_eq!(
        serde_json::to_string(&back).unwrap(),
        saved,
        "{} from {}",
        what,
        text
    );
    Ok(Some(loaded))
}

/// A loaded `cfg` with a worker count above [`MAX_WORKERS`], run on a
/// 2-node line, gives the `Err` naming that field. A config within the
/// ceiling is not run.
fn over_ceiling_errs(cfg: CampaignConfig) -> Result<(), TestCaseError> {
    if cfg.template.workers <= MAX_WORKERS {
        return Ok(());
    }
    let field = "template.workers";
    let mut live = scenarios::healthy_line(2, 1);
    let campaign = Campaign::new(&live).config(cfg);
    match run(&campaign, &mut live)? {
        Err(e) if e.contains(field) => Ok(()),
        Err(e) => Err(TestCaseError::fail(format!("{field}: wrong error {e}"))),
        Ok(_) => Err(TestCaseError::fail(format!("{field} over the ceiling ran"))),
    }
}

proptest! {
    /// Config JSON with dropped, retired and out-of-range fields.
    #[test]
    fn config_json_loads_or_errs(
        seed in any::<u64>(),
        edits in prop::collection::vec((0usize..256, 0usize..2 + ODD_VALUES.len()), 0..6),
        over in 0usize..2,
    ) {
        let mut template = DiceConfig::new(NodeId(1), NodeId(2));
        template.seed = seed;
        template.schedule = Some(ScheduleSpec::default());
        template.link_faults = Some(LinkFaults {
            burst: Some(BurstLoss::harsh()),
            ..LinkFaults::lossy(0.05)
        });
        let cfg = CampaignConfig {
            explorers: vec![NodeId(1), NodeId(2)],
            template,
            ..CampaignConfig::default()
        };
        let mut value = serde_json::parse_value(&serde_json::to_string(&cfg).unwrap()).unwrap();
        // Most edited configs fail to load for another field, so a worker
        // count over the ceiling is also loaded on its own.
        let field = ["template".to_string(), "workers".to_string()];
        let odd = ["257", "18446744073709551615"][over];
        let op = 2 + ODD_VALUES.iter().position(|v| *v == odd).unwrap();
        let text = splice_raw(&serde_json::to_string(&edit(&value, &field, op)).unwrap());
        let over = loads_or_errs::<CampaignConfig>("CampaignConfig", &text)?;
        prop_assert!(over.is_some(), "{} loads", text);
        over_ceiling_errs(over.unwrap())?;

        let mut all = Vec::new();
        paths(&value, &mut Vec::new(), &mut all);
        for (at, op) in edits {
            value = edit(&value, &all[at % all.len()], op);
        }
        let text = splice_raw(&serde_json::to_string(&value).unwrap());
        if let Some(cfg) = loads_or_errs::<CampaignConfig>("CampaignConfig", &text)? {
            over_ceiling_errs(cfg)?;
        }
        if let Value::Object(map) = &value {
            if let Some(template) = map.get("template") {
                let text = splice_raw(&serde_json::to_string(template).unwrap());
                if let Some(template) = loads_or_errs::<DiceConfig>("DiceConfig", &text)? {
                    over_ceiling_errs(CampaignConfig {
                        template,
                        ..CampaignConfig::default()
                    })?;
                }
            }
        }
    }
}
