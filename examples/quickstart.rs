//! Quickstart: run DiCE against a live BGP system and watch it find a
//! seeded parser bug, online, without disturbing the deployment.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dice_system::dice::{scenarios, Campaign, CampaignConfig, DiceConfig};
use dice_system::netsim::{NodeId, SimTime};

fn main() {
    // A live 3-router system: 0 — 1 — 2. The middle router runs a build
    // with a BIRD-style defect in its UPDATE handler (an unknown-attribute
    // length overflow). Nothing is wrong *yet*: regular traffic never
    // exercises the broken path.
    let mut live = scenarios::buggy_parser_scenario(2026);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    println!("live system converged at t={}", live.now());
    for i in 0..3u32 {
        let r = live
            .node(NodeId(i))
            .as_any()
            .downcast_ref::<dice_system::bgp::BgpRouter>()
            .unwrap();
        println!(
            "  node {i}: {} routes in Loc-RIB, {} updates received",
            r.loc_rib().len(),
            r.stats().updates_rx
        );
    }

    // DiCE: explore node 1's behavior, impersonating inputs from peer 0 —
    // a campaign over that one pair.
    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 192;
    cfg.validate_top = 24;
    cfg.workers = 4;
    let dice = Campaign::new(&live).config(CampaignConfig {
        explorers: vec![NodeId(1)],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(dice.sweep_plan(), [(NodeId(1), vec![NodeId(0)])]);

    println!("\nrunning one DiCE round (snapshot → concolic explore → validate → check)…");
    let report = dice
        .run(&mut live)
        .expect("round completes")
        .rounds
        .remove(0);

    println!("\n{}", report.summary());
    println!(
        "snapshot: {} nodes, {} in-flight msgs, ~{} bytes, {}us wall",
        report.snapshot.nodes,
        report.snapshot.in_flight,
        report.snapshot.bytes,
        report.snapshot.wall_micros
    );
    println!(
        "exploration: {} executions, {} distinct paths, {} branch-polarities covered, {} solver queries ({} SAT)",
        report.executions,
        report.distinct_paths,
        report.branch_coverage,
        report.solver_queries,
        report.solver_sat
    );

    println!("\nfaults detected:");
    for f in &report.faults {
        println!("  [{}] node {}: {}", f.class, f.node, f.detail);
    }
    assert!(
        !report.faults.is_empty(),
        "the seeded bug should have been found"
    );

    // The live system is untouched: DiCE explored isolated clones.
    assert!(live.crashed(NodeId(1)).is_none());
    println!("\nlive system unharmed (node 1 still running) — exploration was isolated.");
}
