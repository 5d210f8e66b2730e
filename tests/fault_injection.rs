//! Fault-injection integration tests: the full BGP system under link
//! failures, session resets, and node crash/restart — the disturbance
//! vocabulary the paper's motivation cites ("reliability problems due to
//! emergent behavior resulting from a local session reset").

use dice_system::bgp::BgpRouter;
use dice_system::dice::scenarios::{self, prefix_of};
use dice_system::netsim::{FaultAction, NodeId, QuietOutcome, Schedule, SimDuration, SimTime};

fn router(sim: &dice_system::netsim::Simulator, i: u32) -> &BgpRouter {
    sim.node(NodeId(i))
        .as_any()
        .downcast_ref::<BgpRouter>()
        .unwrap()
}

#[test]
fn link_failure_reroutes_around_ring() {
    // demo27 is multihomed: stubs with two providers survive losing one.
    let mut sim = scenarios::demo27_system(9001);
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    // Node 11 (stub, k=0) has providers 3 and 7 (k % 3 == 0 gives a second).
    assert!(router(&sim, 11).loc_rib().best(&prefix_of(0)).is_some());
    sim.inject_link_down(NodeId(3), NodeId(11));
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(500_000_000_000),
    );
    let best = router(&sim, 11)
        .loc_rib()
        .best(&prefix_of(0))
        .expect("multihomed stub must reroute via its second provider");
    // The new path goes via AS65007 (node 7).
    assert_eq!(
        best.route.attrs.as_path.first_asn(),
        Some(scenarios::asn_of(7)),
        "expected reroute via the surviving provider"
    );
}

#[test]
fn session_reset_storm_recovers() {
    let mut sim = scenarios::healthy_line(6, 9002);
    sim.run_until(SimTime::from_nanos(30_000_000_000));
    // Reset every session nearly simultaneously (the paper's "local session
    // reset" motif, en masse).
    let mut storm = Schedule::default();
    for i in 0..5u32 {
        storm = storm.at(
            SimTime::from_nanos(31_000_000_000 + i as u64 * 1_000_000),
            FaultAction::SessionReset(NodeId(i), NodeId(i + 1)),
        );
    }
    storm.install(&mut sim);
    sim.run_until(SimTime::from_nanos(32_000_000_000));
    // Learned routes are flushed while sessions are down.
    assert!(router(&sim, 5).loc_rib().best(&prefix_of(0)).is_none());
    // Auto-reconnect + re-advertisement restores full reachability.
    let out = sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(120_000_000_000),
    );
    assert_eq!(out, QuietOutcome::Quiescent);
    for i in 0..6u32 {
        for j in 0..6u32 {
            assert!(
                router(&sim, i).loc_rib().best(&prefix_of(j)).is_some(),
                "node {i} lost prefix of {j} after reset storm"
            );
        }
    }
}

#[test]
fn crash_withdraws_prefix_network_wide_and_restart_restores() {
    let mut sim = scenarios::healthy_line(5, 9003);
    sim.run_until(SimTime::from_nanos(30_000_000_000));
    assert!(router(&sim, 4).loc_rib().best(&prefix_of(0)).is_some());

    sim.inject_node_crash(NodeId(0));
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(90_000_000_000),
    );
    assert!(
        router(&sim, 4).loc_rib().best(&prefix_of(0)).is_none(),
        "crashed origin's prefix must be withdrawn end to end"
    );
    // Other prefixes unaffected.
    assert!(router(&sim, 4).loc_rib().best(&prefix_of(2)).is_some());

    sim.inject_node_restart(NodeId(0));
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(200_000_000_000),
    );
    assert!(
        router(&sim, 4).loc_rib().best(&prefix_of(0)).is_some(),
        "restarted origin must re-announce"
    );
}

#[test]
fn dice_round_succeeds_under_background_churn() {
    use dice_system::dice::{Campaign, CampaignConfig, DiceConfig};
    // A system where a distant link flaps while DiCE snapshots elsewhere:
    // the snapshot must either complete (flap outside the marker window) or
    // fail gracefully — never wedge or corrupt the live system.
    let mut sim = scenarios::healthy_line(6, 9004);
    sim.run_until(SimTime::from_nanos(30_000_000_000));
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 32;
    cfg.validate_top = 4;
    let dice = Campaign::new(&sim).config(CampaignConfig {
        explorers: vec![NodeId(1)],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(dice.sweep_plan(), [(NodeId(1), vec![NodeId(0)])]);

    // Flap the far link right before the round.
    sim.inject_session_reset(NodeId(4), NodeId(5));
    match dice.run(&mut sim) {
        Ok(report) => {
            // Snapshot raced the flap and won; the round is clean except
            // possibly convergence noise. No crashes, no hijacks.
            assert!(!report
                .classes()
                .contains(&dice_system::dice::FaultClass::ProgrammingError));
            assert!(!report
                .classes()
                .contains(&dice_system::dice::FaultClass::OperatorMistake));
        }
        Err(e) => {
            assert!(
                e.contains("snapshot") || e.contains("reset") || e.contains("channel"),
                "unexpected failure mode: {e}"
            );
        }
    }
    // The live system recovers regardless.
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(200_000_000_000),
    );
    assert!(sim.session_up(NodeId(4), NodeId(5)));
}

#[test]
fn partition_and_heal() {
    // Cut a line in half; each side keeps only its own prefixes; healing
    // restores the full table.
    let mut sim = scenarios::healthy_line(6, 9005);
    sim.run_until(SimTime::from_nanos(30_000_000_000));
    sim.inject_link_down(NodeId(2), NodeId(3));
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(120_000_000_000),
    );
    assert!(router(&sim, 0).loc_rib().best(&prefix_of(5)).is_none());
    assert!(router(&sim, 5).loc_rib().best(&prefix_of(0)).is_none());
    assert!(router(&sim, 0).loc_rib().best(&prefix_of(2)).is_some());
    assert!(router(&sim, 5).loc_rib().best(&prefix_of(3)).is_some());

    sim.inject_link_up(NodeId(2), NodeId(3));
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    for i in 0..6u32 {
        for j in 0..6u32 {
            assert!(
                router(&sim, i).loc_rib().best(&prefix_of(j)).is_some(),
                "node {i} missing prefix of {j} after heal"
            );
        }
    }
}
