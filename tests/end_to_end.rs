//! End-to-end integration tests: the full DiCE stack (netsim + bgp +
//! concolic + core) exercised through the public facade.

mod outcomes;

use dice_system::bgp::{BgpRouter, SessionState};
use dice_system::dice::{scenarios, Campaign, CampaignConfig, DiceConfig, FaultClass, RoundReport};
use dice_system::netsim::{Node, NodeId, QuietOutcome, SimDuration, SimTime, Simulator};

/// A campaign over the one pair `cfg` names, with its registry built from
/// `live` as it is now. A change in neighbour order fails here instead of
/// quietly exploring another pair.
fn pair_campaign(live: &Simulator, cfg: DiceConfig) -> Campaign {
    let (explorer, peer) = (cfg.explorer, cfg.inject_peer);
    let campaign = Campaign::new(live).config(CampaignConfig {
        explorers: vec![explorer],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(campaign.sweep_plan(), [(explorer, vec![peer])]);
    campaign
}

/// One sweep of a single-pair campaign: its one round.
fn round(campaign: &Campaign, live: &mut Simulator) -> RoundReport {
    let mut report = campaign.run(live).unwrap();
    assert_eq!(report.rounds.len(), 1);
    report.rounds.remove(0)
}

#[test]
fn detects_all_three_fault_classes() {
    // Class 1: programming error.
    let mut live = scenarios::buggy_parser_scenario(1001);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 192;
    cfg.validate_top = 24;
    cfg.workers = 4;
    let r = round(&pair_campaign(&live, cfg), &mut live);
    assert!(
        r.classes().contains(&FaultClass::ProgrammingError),
        "{:?}",
        r.faults
    );

    // Class 2: policy conflict.
    let mut live = scenarios::bad_gadget_scenario(1002);
    live.run_until(SimTime::from_nanos(20_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(2), NodeId(0));
    cfg.concolic_executions = 24;
    cfg.validate_top = 4;
    cfg.horizon = SimDuration::from_secs(120);
    let r = round(&pair_campaign(&live, cfg), &mut live);
    assert!(
        r.classes().contains(&FaultClass::PolicyConflict),
        "{:?}",
        r.faults
    );

    // Class 3: operator mistake.
    let mut live = scenarios::hijack_scenario(1003);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 32;
    cfg.validate_top = 4;
    let dice = pair_campaign(&live, cfg);
    scenarios::apply_hijack(&mut live);
    live.run_until(SimTime::from_nanos(25_000_000_000));
    let r = round(&dice, &mut live);
    assert!(
        r.classes().contains(&FaultClass::OperatorMistake),
        "{:?}",
        r.faults
    );
}

#[test]
fn demo27_round_is_clean_and_reproducible() {
    let mut live = scenarios::demo27_system(500);
    let quiet = live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    assert_eq!(quiet, QuietOutcome::Quiescent);

    let run = |live: &mut Simulator| {
        let mut cfg = DiceConfig::new(NodeId(5), NodeId(2));
        cfg.concolic_executions = 64;
        cfg.validate_top = 8;
        round(&pair_campaign(live, cfg), live)
    };
    let r1 = run(&mut live);
    assert!(r1.faults.is_empty(), "healthy demo27: {:?}", r1.faults);
    assert!(r1.distinct_paths > 20);

    // Same starting state (fresh build) gives the same exploration numbers.
    let mut live2 = scenarios::demo27_system(500);
    live2.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let r2 = run(&mut live2);
    assert_eq!(r1.executions, r2.executions);
    assert_eq!(r1.distinct_paths, r2.distinct_paths);
    assert_eq!(r1.branch_coverage, r2.branch_coverage);
}

#[test]
fn repeated_rounds_converge_to_no_new_faults() {
    let mut live = scenarios::buggy_parser_scenario(1004);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 160;
    cfg.validate_top = 16;
    let dice = pair_campaign(&live, cfg);
    let r1 = round(&dice, &mut live);
    let r2 = round(&dice, &mut live);
    // The same (deduplicated) fault set is re-detected each round; the live
    // system itself stays healthy throughout.
    assert_eq!(r1.classes(), r2.classes());
    assert!(live.crashed(NodeId(1)).is_none());
}

#[test]
fn fault_free_round_publishes_only_passing_verdicts() {
    let mut live = scenarios::healthy_line(5, 1005);
    live.run_until(SimTime::from_nanos(20_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(2), NodeId(1));
    cfg.concolic_executions = 64;
    cfg.validate_top = 8;
    cfg.workers = 2;
    let r = round(&pair_campaign(&live, cfg), &mut live);
    assert!(r.faults.is_empty());
    assert_eq!(r.verdicts_failed, 0);
    assert!(
        r.verdicts_total >= r.validated,
        "each clone publishes verdicts"
    );
}

#[test]
fn exploration_report_exposes_crashing_input() {
    use dice_system::concolic::{explore, ExploreConfig};
    use dice_system::dice::{mark_update, DomainProgram, UpdateGrammar};

    let mut live = scenarios::buggy_parser_scenario(1006);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    let mut twin = live
        .node(NodeId(1))
        .as_any()
        .downcast_ref::<BgpRouter>()
        .and_then(|r| r.update_twin(NodeId(0)))
        .map(DomainProgram)
        .expect("node 1 peers with node 0");
    let mut grammar = UpdateGrammar::new(scenarios::asn_of(0), 7);
    let seeds = [grammar.generate(), grammar.generate_large_unknown()];
    let config = ExploreConfig {
        max_executions: 192,
        ..Default::default()
    };
    let exploration = explore(&mut twin, &seeds, &mark_update, &config);
    let crash_idx = exploration.first_crash().expect("crash found");
    let crash_input = &exploration.executions[crash_idx].input;

    // The synthesized input is a *decodable* BGP UPDATE whose unknown
    // attribute sits in the defect window.
    let (msg, _) = dice_system::bgp::decode(crash_input).expect("wire-valid");
    match msg {
        dice_system::bgp::Message::Update(u) => {
            let attrs = u.attrs.expect("attrs present");
            assert!(attrs
                .unknown
                .iter()
                .any(|r| r.code >= 0xF0 && r.value.len() >= 0x90));
        }
        other => panic!("expected update, got {other:?}"),
    }

    // Replaying it against a fresh copy of the buggy router crashes it —
    // and the same message against a fixed build is harmless.
    let mut replay = scenarios::buggy_parser_scenario(1006);
    replay.run_until(SimTime::from_nanos(10_000_000_000));
    replay.deliver_direct(NodeId(0), NodeId(1), crash_input);
    assert!(replay.crashed(NodeId(1)).is_some());

    let mut fixed = scenarios::healthy_line(3, 1006);
    fixed.run_until(SimTime::from_nanos(10_000_000_000));
    fixed.deliver_direct(NodeId(0), NodeId(1), crash_input);
    assert!(fixed.crashed(NodeId(1)).is_none());
}

/// `exp_detection`'s T1b concolic row: how many executions the
/// generational search from two grammar seeds needs before a twin run
/// crashes on the seeded attribute overflow. The grammar's draw order and
/// the explorer's worklist both move it.
#[test]
fn first_crash_exec_is_pinned() {
    use dice_system::concolic::{explore, ExploreConfig};
    use dice_system::dice::{mark_update, DomainProgram, UpdateGrammar};

    let live = scenarios::buggy_parser_scenario(104);
    let mut twin = live
        .node(NodeId(1))
        .as_any()
        .downcast_ref::<BgpRouter>()
        .and_then(|r| r.update_twin(NodeId(0)))
        .map(DomainProgram)
        .expect("node 1 peers with node 0");
    let mut grammar = UpdateGrammar::new(scenarios::asn_of(0), 7);
    let seeds = [grammar.generate(), grammar.generate_large_unknown()];
    let config = ExploreConfig {
        max_executions: 256,
        ..Default::default()
    };
    let report = explore(&mut twin, &seeds, &mark_update, &config);
    let first = report
        .first_crash()
        .expect("concolic search finds the crash");
    assert_eq!(
        first.to_string(),
        outcomes::pinned("detection", "first_crash_exec")
    );
}

#[test]
fn dice_round_does_not_change_live_routing() {
    let mut live = scenarios::demo27_system(321);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let fingerprint = |sim: &Simulator| -> Vec<(u32, usize, u64)> {
        sim.topology()
            .node_ids()
            .map(|id| {
                let r = sim.node(id).as_any().downcast_ref::<BgpRouter>().unwrap();
                (id.0, r.loc_rib().len(), r.loc_rib().total_flips())
            })
            .collect()
    };
    let before = fingerprint(&live);
    let mut cfg = DiceConfig::new(NodeId(5), NodeId(2));
    cfg.concolic_executions = 48;
    cfg.validate_top = 8;
    let _ = round(&pair_campaign(&live, cfg), &mut live);
    assert_eq!(before, fingerprint(&live), "exploration must be isolated");
}

#[test]
fn demo27_state_size_is_the_per_row_formula() {
    // `state_size()` is what `PerfCounters::snapshot_bytes` and
    // `delta_bytes` sum, so the same router state must always read the
    // same number: 64 per Adj-RIB-In row, 72 per best route, 12 per flipped
    // prefix, 64 per Adj-RIB-Out row, 16 per peer with a session FSM, plus
    // 256. The federation's total was recorded when the three RIB parts
    // were separate tables.
    let mut live = scenarios::demo27_system(7);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let mut total = 0;
    for id in live.topology().node_ids() {
        let r = live.node(id).as_any().downcast_ref::<BgpRouter>().unwrap();
        let neighbors = &r.config().neighbors;
        assert!(neighbors
            .iter()
            .all(|n| r.session_state(n.node) == SessionState::Established));
        // Converged, every prefix a row names has a best route.
        let (mut rows_in, mut rows_out) = (0, 0);
        for (prefix, _) in r.loc_rib().iter() {
            rows_in += r.adj_rib_in().candidates(prefix).count();
            rows_out += neighbors
                .iter()
                .filter(|n| r.adj_rib_out().sent(n.node, prefix).is_some())
                .count();
        }
        let formula = 64 * rows_in
            + 72 * r.loc_rib().len()
            + 12 * r.loc_rib().flips().count()
            + 64 * rows_out
            + 16 * neighbors.len()
            + 256;
        assert_eq!(r.state_size(), formula, "router {id}");
        total += formula;
    }
    assert_eq!(total, 220_116);
}

#[test]
fn internet200_sweep_report_is_pinned() {
    // `exp_topo`'s scale scenario at a size a debug build affords: 200
    // ASes, 4 originators, one sweep from n0 toward two peers. The digest
    // of the normalized report was recorded at the commit *before* cuts,
    // clones and the UPDATE path were made to share instead of copy (PR
    // 13), so it pins every event, random draw and `state_size()` of that
    // path: a change there must either reproduce it or explain itself.
    use dice_system::dice::Campaign;
    use dice_system::netsim::{InternetParams, SimRng, Topology};

    let n = 200;
    let params = InternetParams {
        peering_prob: 8.0 / n as f64,
        ..InternetParams::default()
    };
    let mut rng = SimRng::seed_from_u64(0xD1CE_0000 + n as u64);
    let topo = Topology::internet_like(n, &params, &mut rng);
    let mut live = scenarios::build_system_with_originators(&topo, 4, 17);
    let outcome = live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(600_000_000_000),
    );
    assert_eq!(outcome, QuietOutcome::Quiescent);

    let report = Campaign::new(&live)
        .explorers([NodeId(0)])
        .max_peers_per_explorer(2)
        .rounds(1)
        .executions(16)
        .validate_top(4)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .run(&mut live)
        .expect("campaign runs");
    assert_eq!(report.rounds.len(), 2, "one sweep, two peers");
    assert_eq!(
        normalized_digest(&report),
        outcomes::pinned("end_to_end", "internet200_sweep_report_is_pinned")
    );
}

/// SHA-256 of a campaign's normalized report — what the two tests below
/// pin. The digests were recorded at the commit *before* negation queries
/// were sliced by variable-connected component (PR 14): every model the
/// solver hands back decides a child input, so an inexact slice changes
/// executions, coverage and verdicts, and with them the digest.
fn normalized_digest(report: &dice_system::dice::CampaignReport) -> String {
    use dice_system::dice::hash;
    let json = serde_json::to_string(&report.normalized()).expect("serializes");
    hash::hex(&hash::sha256(json.as_bytes()))
}

#[test]
fn demo27_sweep_report_is_pinned() {
    // The benchmark's `demo27_sweep` campaign (five explorers over the
    // paper's Figure-1 federation, two peers each), the workload where the
    // solve loop is three quarters of a round.
    use dice_system::dice::Campaign;

    let mut live = scenarios::demo27_system(500);
    let quiet = live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    assert_eq!(quiet, QuietOutcome::Quiescent);
    let report = Campaign::new(&live)
        .explorers([0, 3, 5, 11, 12].map(NodeId))
        .max_peers_per_explorer(2)
        .rounds(1)
        .executions(64)
        .validate_top(8)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .run(&mut live)
        .expect("campaign runs");
    assert_eq!(
        report.rounds.len(),
        9,
        "five explorers, up to two peers each"
    );
    assert_eq!(
        normalized_digest(&report),
        outcomes::pinned("end_to_end", "demo27_sweep_report_is_pinned")
    );
}

#[test]
fn nemesis_campaign_report_is_pinned() {
    // The benchmark's `nemesis_detect` campaign: both seeded defects armed
    // (oracle-guarded BGP twin and the gossip digest twin in one sweep),
    // lossy links, one partition window and one churn cycle.
    use dice_system::dice::Campaign;
    use dice_system::netsim::{LinkFaults, ScheduleSpec};

    let mut live = scenarios::nemesis_federation(1006);
    live.run_until(SimTime::from_nanos(12_000_000_000));
    let report = Campaign::new(&live)
        .explorers([NodeId(1), NodeId(2)])
        .rounds(1)
        .executions(160)
        .validate_top(16)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .schedule(ScheduleSpec {
            partitions: 1,
            partition_len: SimDuration::from_millis(50),
            churn: 1,
            churn_len: SimDuration::from_millis(50),
            start: SimDuration::ZERO,
            window: SimDuration::ZERO,
            protect_first: 3,
        })
        .unreliable_links(true)
        .link_faults(LinkFaults::lossy(0.05))
        .run(&mut live)
        .expect("campaign runs");
    let classes: std::collections::BTreeSet<FaultClass> =
        report.faults.iter().map(|f| f.class).collect();
    assert!(
        classes.contains(&FaultClass::ProgrammingError),
        "the seeded defects must be found: {:?}",
        report.faults
    );
    assert_eq!(
        normalized_digest(&report),
        outcomes::pinned("end_to_end", "nemesis_campaign_report_is_pinned")
    );
}
