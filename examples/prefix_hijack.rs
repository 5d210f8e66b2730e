//! Operator-mistake scenario: a prefix hijack by misconfiguration,
//! detected through DiCE's privacy-preserving origin attestations.
//!
//! Node 0 legitimately owns 10.10.0.0/16. An operator on node 2 fat-fingers
//! a config change and starts originating the covered 10.10.0.0/24 — a
//! more-specific hijack that silently draws traffic. No router crashes, no
//! session flaps: classic silent misconfiguration.
//!
//! DiCE detects it because every domain attests its owned prefixes as
//! salted SHA-256 digests; checkers verify each selected route's
//! (prefix, origin) pair against the registry without ever seeing another
//! domain's configuration.
//!
//! ```sh
//! cargo run --release --example prefix_hijack
//! ```

use dice_system::bgp::BgpRouter;
use dice_system::dice::{scenarios, Campaign, CampaignConfig, DiceConfig, FaultClass};
use dice_system::netsim::{NodeId, SimTime};

fn main() {
    let mut live = scenarios::hijack_scenario(77);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    println!(
        "t={}: converged; 10.10.0.0/16 originated by AS65000 (node 0)",
        live.now()
    );

    // DiCE is set up while the system is healthy: the registry records that
    // only node 0 may originate inside 10.10.0.0/16.
    // Each `run` of the campaign is one round over the pair (1, 0).
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 48;
    cfg.validate_top = 8;
    let dice = Campaign::new(&live).config(CampaignConfig {
        explorers: vec![NodeId(1)],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(dice.sweep_plan(), [(NodeId(1), vec![NodeId(0)])]);

    let healthy = dice.run(&mut live).expect("round runs").rounds.remove(0);
    println!(
        "healthy round: {} faults, {} verdicts ({} failed)",
        healthy.faults.len(),
        healthy.verdicts_total,
        healthy.verdicts_failed
    );
    assert!(healthy.faults.is_empty(), "no faults before the mistake");

    // The operator mistake: node 2 announces a /24 it does not own.
    println!("\n>> operator on node 2 announces 10.10.0.0/24 (not owned) <<");
    scenarios::apply_hijack(&mut live);
    live.run_until(SimTime::from_nanos(25_000_000_000));

    // The hijack is live: node 1 now routes the /24 toward AS65002.
    let r1 = live
        .node(NodeId(1))
        .as_any()
        .downcast_ref::<BgpRouter>()
        .unwrap();
    let best = r1
        .loc_rib()
        .best(&scenarios::hijack_prefix())
        .expect("hijack installed");
    println!(
        "node 1 best route for {}: origin {}",
        scenarios::hijack_prefix(),
        best.route.attrs.as_path.origin_asn().unwrap()
    );

    // Next DiCE round catches it.
    let caught = dice.run(&mut live).expect("round runs").rounds.remove(0);
    println!("\nnext round's report:");
    for f in &caught.faults {
        println!("  [{}] node {}: {}", f.class, f.node, f.detail);
    }
    assert!(
        caught.classes().contains(&FaultClass::OperatorMistake),
        "hijack must be classified as an operator mistake"
    );
    let ordinal = caught
        .detection_input_ordinal
        .get("operator-mistake")
        .copied()
        .unwrap_or(0);
    println!(
        "\ndetected after {ordinal} validated clone(s) — a state fault, visible even \
         on the un-perturbed clone."
    );
}
