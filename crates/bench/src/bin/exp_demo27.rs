//! **F1 — The Figure 1 demo**: DiCE executing over a topology of 27 BGP
//! routers under Internet-like conditions.
//!
//! Regenerates the demo view: the DOT graph of the topology, per-tier
//! convergence statistics, and one DiCE round per tier (stub, transit,
//! tier-1 explorer) with exploration statistics.

use dice_bench::{maybe_write_json, Table};
use dice_bgp::BgpRouter;
use dice_core::{scenarios, Campaign, CampaignConfig, DiceConfig};
use dice_netsim::{NodeId, SimDuration, SimTime, Topology};
use serde_json::json;

fn main() {
    let topo = Topology::demo27();
    eprintln!("{}", topo.to_dot(|n| format!("AS{}", 65000 + n.0)));

    let mut live = scenarios::demo27_system(1);
    let outcome = live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );

    let mut t1 = Table::new("F1a — demo27 convergence", &["metric", "value"]);
    let stats = live.trace().stats();
    t1.row(json!(["outcome", format!("{outcome:?}")]));
    t1.row(json!([
        "converged_at_sim_ms",
        live.now().as_nanos() as f64 / 1e6
    ]));
    t1.row(json!(["messages_delivered", stats.msgs_delivered]));
    t1.row(json!(["bytes_delivered", stats.bytes_delivered]));
    t1.row(json!(["sessions_up", stats.sessions_up]));
    let total_routes: usize = (0..27u32)
        .map(|i| {
            live.node(NodeId(i))
                .as_any()
                .downcast_ref::<BgpRouter>()
                .unwrap()
                .loc_rib()
                .len()
        })
        .sum();
    t1.row(json!(["loc_rib_entries_total", total_routes]));
    t1.print();

    let mut t2 = Table::new(
        "F1b — per-tier routing state",
        &["tier", "nodes", "avg_loc_rib", "avg_updates_rx"],
    );
    for (tier, range) in [("tier-1", 0u32..3), ("tier-2", 3..11), ("stub", 11..27)] {
        let n = range.clone().count();
        let (mut rib, mut rx) = (0usize, 0u64);
        for i in range {
            let r = live
                .node(NodeId(i))
                .as_any()
                .downcast_ref::<BgpRouter>()
                .unwrap();
            rib += r.loc_rib().len();
            rx += r.stats().updates_rx;
        }
        t2.row(json!([
            tier,
            n,
            rib as f64 / n as f64,
            rx as f64 / n as f64
        ]));
    }
    t2.print();

    // One DiCE round from each tier.
    let mut t3 = Table::new(
        "F1c — DiCE rounds across tiers (explorer node varies)",
        &[
            "explorer",
            "tier",
            "snapshot_sim_ms",
            "paths",
            "coverage",
            "validated",
            "faults",
            "wall_ms",
        ],
    );
    for (explorer, peer, tier) in [
        (NodeId(0), NodeId(1), "tier-1"),
        (NodeId(5), NodeId(2), "tier-2"),
        (NodeId(12), NodeId(4), "stub"),
    ] {
        let mut cfg = DiceConfig::new(explorer, peer);
        cfg.concolic_executions = 96;
        cfg.validate_top = 12;
        cfg.workers = 4;
        cfg.horizon = SimDuration::from_secs(90);
        let dice = Campaign::new(&live).config(CampaignConfig {
            explorers: vec![explorer],
            max_peers_per_explorer: 1,
            template: cfg,
            ..CampaignConfig::default()
        });
        assert_eq!(dice.sweep_plan(), [(explorer, vec![peer])]);
        let report = dice.run(&mut live).expect("round").rounds.remove(0);
        t3.row(json!([
            explorer.to_string(),
            tier,
            report.snapshot.sim_duration_nanos as f64 / 1e6,
            report.distinct_paths,
            report.branch_coverage,
            report.validated,
            report.faults.len(),
            report.wall_ms,
        ]));
    }
    t3.print();

    maybe_write_json(&[&t1, &t2, &t3], &[]);
}
