//! Guided tour: DiCE testing a protocol that is not BGP.
//!
//! A six-node epidemic pub/sub mesh runs live; one node carries a seeded
//! digest-count defect (a missing bounds check in the anti-entropy path).
//! A `Campaign` sweeps every `(explorer, peer)` pair through the same
//! snapshot → explore → validate → check pipeline used for BGP routers —
//! no gossip-specific code anywhere in the runtime, only the `gossip_sut`
//! probe in the catalog — and the concolic layer synthesizes the digest
//! frame that crashes the buggy build.
//!
//! ```sh
//! cargo run --release --example gossip_mesh
//! ```

use dice_system::dice::{scenarios, Campaign, FaultClass};
use dice_system::netsim::{SimDuration, SimTime};

fn main() {
    // A live gossip mesh: node i publishes on topic i, everyone
    // subscribes to everything, node 1 runs the buggy build.
    let mut live = scenarios::buggy_gossip_scenario(6, 7);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(120_000_000_000),
    );
    println!("live mesh quiesced at {}", live.now());

    let report = Campaign::new(&live)
        .executions(128)
        .validate_top(8)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .run(&mut live)
        .expect("campaign runs");

    println!("{}", report.summary());
    for k in &report.per_kind {
        println!(
            "  kind {:>7}: {} rounds, coverage {}, {} faults",
            k.kind, k.rounds, k.coverage, k.faults
        );
    }
    for d in &report.detection {
        println!(
            "  first {} found in round {} (explorer {} via {}), input #{}",
            d.class, d.round, d.explorer, d.inject_peer, d.input_ordinal
        );
    }
    for f in &report.faults {
        println!("  fault @{}: {:?} — {}", f.node, f.class, f.detail);
    }

    assert!(
        report.classes().contains(&FaultClass::ProgrammingError),
        "the seeded digest-count defect must be found online"
    );
    println!("seeded gossip bug found online — heterogeneity seam works");
}
