//! Campaign walk-through: sweep DiCE across a whole federation instead of
//! hand-picking one (explorer, peer) pair.
//!
//! ```sh
//! cargo run --release --example campaign
//! ```
//!
//! A `Campaign` discovers every eligible `(explorer, inject peer)` pair
//! through the SUT catalog, snapshots once per explorer, explores the
//! sweep's rounds, validates their candidates across the worker threads,
//! and aggregates everything into one serializable report: fault union,
//! per-class detection latency (campaign clock when the detecting round's
//! last validated input finished), and branch-coverage union — globally
//! and per explorer.

use dice_system::dice::{scenarios, Campaign};
use dice_system::netsim::{NodeId, SimDuration, SimTime};

fn main() {
    // The paper's Figure 1 deployment: 27 BGP routers, Gao–Rexford
    // policies, one originated prefix per router.
    let mut live = scenarios::demo27_system(2026);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    println!("live federation converged at t={}", live.now());

    // Discovery happens at construction: every explorable node, every
    // configured peer. The builder then narrows and budgets the sweep.
    let campaign = Campaign::new(&live)
        .explorers([NodeId(0), NodeId(5), NodeId(11), NodeId(12)]) // one per tier + two stubs
        .max_peers_per_explorer(2)
        .rounds(1)
        .executions(48)
        .validate_top(6)
        .horizon(SimDuration::from_secs(30))
        .workers(4);
    println!(
        "{} eligible pairs federation-wide; sweeping {:?}",
        campaign.eligible_pairs().len(),
        campaign
            .sweep_plan()
            .iter()
            .map(|(e, peers)| format!("{e}×{}", peers.len()))
            .collect::<Vec<_>>()
    );

    let report = campaign.run(&mut live).expect("campaign completes");

    println!("\n{}", report.summary());
    println!("\nper-explorer coverage:");
    for e in &report.per_explorer {
        println!(
            "  {} ({}): {} rounds, {} branch-polarities, {} execs, {} faults",
            e.explorer, e.kind, e.rounds, e.coverage, e.executions, e.faults
        );
    }
    for d in &report.detection {
        println!(
            "first {} detection: round {} ({} via {}), input #{}; that round's last input was validated {}ms into the campaign",
            d.class, d.round, d.explorer, d.inject_peer, d.input_ordinal, d.wall_ms_cum
        );
    }
    if report.faults.is_empty() {
        println!("\nno faults — the demo federation is healthy, as expected.");
    }

    // The whole report serializes for CI perf trajectories.
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    println!("\nreport JSON is {} bytes (see CampaignReport)", json.len());
}
