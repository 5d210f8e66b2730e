//! The paper's Figure 1 demo: DiCE exploring a 27-router BGP system under
//! Internet-like conditions — 3 tier-1 ASes in a peering clique, 8 tier-2
//! transit ASes, 16 stubs, Gao–Rexford commercial policies, log-normal
//! wide-area latencies.
//!
//! Prints the "GUI" view as a Graphviz DOT graph plus a per-node status
//! table, then runs one exploration round from a tier-2 router.
//!
//! ```sh
//! cargo run --release --example demo27 > demo27.txt
//! ```

use dice_system::bgp::BgpRouter;
use dice_system::dice::{scenarios, Campaign, CampaignConfig, DiceConfig};
use dice_system::netsim::{NodeId, SimDuration, SimTime, Topology};

fn tier(i: u32) -> &'static str {
    match i {
        0..=2 => "tier-1",
        3..=10 => "tier-2",
        _ => "stub",
    }
}

fn main() {
    let topo = Topology::demo27();
    println!("# Figure 1 topology (Graphviz DOT)\n");
    println!(
        "{}",
        topo.to_dot(|n| format!("AS{} ({})", 65000 + n.0, tier(n.0)))
    );

    let mut live = scenarios::demo27_system(27);
    let outcome = live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    println!("# Convergence: {outcome:?} at t={}\n", live.now());

    println!("# Router status");
    println!(
        "{:<6} {:<8} {:<7} {:>9} {:>10} {:>10}",
        "node", "as", "tier", "loc-rib", "upd-rx", "upd-tx"
    );
    for i in 0..27u32 {
        let r = live
            .node(NodeId(i))
            .as_any()
            .downcast_ref::<BgpRouter>()
            .unwrap();
        println!(
            "{:<6} {:<8} {:<7} {:>9} {:>10} {:>10}",
            i,
            format!("AS{}", 65000 + i),
            tier(i),
            r.loc_rib().len(),
            r.stats().updates_rx,
            r.stats().updates_tx
        );
    }

    // Explore from tier-2 router 5, impersonating its tier-1 provider.
    let explorer = NodeId(5);
    let provider = NodeId(2); // AS65002 is a provider of node 5 in demo27
    let mut cfg = DiceConfig::new(explorer, provider);
    cfg.concolic_executions = 128;
    cfg.validate_top = 16;
    cfg.workers = 4;
    cfg.horizon = SimDuration::from_secs(90);
    let dice = Campaign::new(&live).config(CampaignConfig {
        explorers: vec![explorer],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(dice.sweep_plan(), [(explorer, vec![provider])]);

    println!("\n# DiCE round from node {explorer} (inputs impersonate provider {provider})");
    let report = dice.run(&mut live).expect("round runs").rounds.remove(0);
    println!("{}", report.summary());
    println!(
        "snapshot: {} nodes checkpointed, {} in-flight messages, ~{}KB, CL protocol took {} of simulated time",
        report.snapshot.nodes,
        report.snapshot.in_flight,
        report.snapshot.bytes / 1024,
        SimDuration::from_nanos(report.snapshot.sim_duration_nanos),
    );
    println!(
        "exploration: {} paths / {} executions, {} branch-polarities, {} solver queries",
        report.distinct_paths, report.executions, report.branch_coverage, report.solver_queries
    );
    println!("faults: {}", report.faults.len());
    for f in &report.faults {
        println!("  [{}] node {}: {}", f.class, f.node, f.detail);
    }
    println!(
        "verdicts: {} published, {} failing — the healthy demo stays clean",
        report.verdicts_total, report.verdicts_failed
    );
}
