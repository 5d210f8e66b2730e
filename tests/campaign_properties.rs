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
//! 1. `Campaign::run` returns `Ok` or `Err` and never panics;
//! 2. the normalized report (or the error) is byte-identical at
//!    `(pair_workers, workers)` = (1, 1), (2, 2) and the generated pair in
//!    {1, 2}²;
//! 3. a repeat run is byte-identical;
//! 4. two successive `run` calls on one live system — the scenario's
//!    campaign, then one sweep without a schedule — report what one call of
//!    one sweep more reports, but for one documented difference: a call
//!    drops the legs of its schedule still pending when it returns. The
//!    property applies those legs by hand between the two calls and then
//!    asks for equality, so the difference it allows is exactly that one
//!    (`a_second_call_drops_the_first_calls_pending_legs` shows it).
//!
//! `config_json_loads_or_errs` feeds `CampaignConfig` / `DiceConfig` JSON
//! with dropped, retired and out-of-range fields to the loader: each must
//! load or give an `Err`, never panic, and what loads must save and load
//! back to the same JSON. A loaded config whose `pair_workers` or
//! `workers` exceeds `MAX_WORKERS` is run on a 2-node line and must give
//! the `Err` that names the field.
//!
//! CI runs both in release at a fixed case count:
//! `PROPTEST_CASES=1000 cargo test --release --test campaign_properties`
//! (about 27 s on a 2-vCPU host).

use std::panic::{catch_unwind, AssertUnwindSafe};

use dice_system::bgp::{BgpRouter, RouterConfig, RouterId};
use dice_system::dice::campaign::MAX_WORKERS;
use dice_system::dice::sut::SutCatalog;
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
    /// The generated `(pair_workers, workers)`.
    workers: (usize, usize),
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
    /// campaign over it with `rounds` sweeps at `(pair_workers, workers)`.
    fn deploy(&self, rounds: usize, (pair_workers, workers): (usize, usize)) -> Deployed {
        let mut live = self.system();
        live.run_until(SimTime::from_nanos(self.warmup_ms * 1_000_000));
        let n = live.topology().len() as u32;
        let mut campaign = Campaign::with_catalog(&live, SutCatalog::default())
            .explorers(self.explorers.iter().map(|e| NodeId(e.0 % n)))
            .max_peers_per_explorer(self.peers)
            .rounds(rounds)
            .executions(self.executions)
            .validate_top(self.validate_top)
            .grammar_seeds(self.grammar_seeds)
            .horizon(SimDuration::from_secs(20))
            .seed(self.seed)
            .schedule(self.schedule.clone())
            .pair_workers(pair_workers)
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
    let Deployed { mut live, campaign } = caught("deploy", || s.deploy(s.rounds, (1, 1)))?;
    let start = live.now();
    let first = run(&campaign, &mut live)?;
    let reference = key(&first);

    // Schedule identity, then a repeat of the generated schedule.
    for workers in [(2, 2), s.workers, s.workers] {
        let mut other = caught("deploy", || s.deploy(s.rounds, workers))?;
        let got = run(&other.campaign, &mut other.live)?;
        prop_assert_eq!(
            key(&got),
            reference.clone(),
            "(pair_workers, workers) = {:?} against (1, 1)",
            workers
        );
    }

    // Successive calls against one joined call.
    let mut joined = caught("deploy", || s.deploy(s.rounds + 1, (1, 1)))?;
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

proptest! {
    /// Generated scenarios against the four contracts.
    #[test]
    fn scenario_contracts(
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
        pair_workers in 1usize..=2,
        workers in 1usize..=2,
    ) {
        campaign_contracts(&Scenario {
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
            workers: (pair_workers, workers),
        })?;
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
        workers: (1, 1),
    };
    let Deployed { mut live, campaign } = s.deploy(1, (1, 1));
    let first = campaign.run(&mut live).expect("first call runs");
    let mut cfg = campaign.config_ref().clone();
    cfg.template.schedule = None;
    let second = campaign
        .clone()
        .config(cfg)
        .run(&mut live)
        .expect("second call runs");
    let mut joined = s.deploy(2, (1, 1));
    let joined = joined
        .campaign
        .run(&mut joined.live)
        .expect("joined call runs");
    assert_eq!(first.perf.churn_events, 1, "the crash fires before sweep 1");
    assert_eq!(second.perf.churn_events, 0, "the restart is dropped");
    assert_eq!(joined.perf.churn_events, 2, "crash, then restart");
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
/// 2-node line, gives the `Err` naming that field (`pair_workers` is
/// checked first). A config within the ceiling is not run.
fn over_ceiling_errs(cfg: CampaignConfig) -> Result<(), TestCaseError> {
    let field = if cfg.pair_workers > MAX_WORKERS {
        "pair_workers"
    } else if cfg.template.workers > MAX_WORKERS {
        "template.workers"
    } else {
        return Ok(());
    };
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
        over in (0usize..2, 0usize..2),
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
        // Most edited configs fail to load for another field, so one
        // worker count over the ceiling is also loaded on its own.
        let (over_field, over_value) = over;
        let field: Vec<String> = [&["pair_workers"][..], &["template", "workers"]][over_field]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let odd = ["257", "18446744073709551615"][over_value];
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
