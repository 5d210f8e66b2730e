//! Policy-conflict scenario: Griffin's BAD GADGET — three ASes whose
//! locally sane preferences have no globally stable solution, producing
//! persistent route oscillation. Each domain's policy is private; no single
//! participant can see the conflict. DiCE detects the *symptom* (best-route
//! flapping beyond threshold, no quiescence) from local checks only.
//!
//! ```sh
//! cargo run --release --example policy_dispute
//! ```

use dice_system::bgp::BgpRouter;
use dice_system::dice::{scenarios, DiceConfig, DiceRunner, FaultClass};
use dice_system::netsim::{NodeId, SimDuration, SimTime};

fn main() {
    // Center node 0 originates the contested prefix; ring nodes 1,2,3 each
    // prefer the path through their clockwise neighbor (LOCAL_PREF 200)
    // over the direct route (LOCAL_PREF 100), accepting only 2-hop paths.
    let mut live = scenarios::bad_gadget_scenario(99);
    live.run_until(SimTime::from_nanos(20_000_000_000));

    println!(
        "t={}: the gadget is live. Flip counts on {}:",
        live.now(),
        scenarios::gadget_prefix()
    );
    for i in 1..=3u32 {
        let r = live
            .node(NodeId(i))
            .as_any()
            .downcast_ref::<BgpRouter>()
            .unwrap();
        let flips = r
            .loc_rib()
            .flips()
            .find_map(|(p, n)| (p == scenarios::gadget_prefix()).then_some(n))
            .unwrap_or(0);
        println!("  ring node {i}: {flips} best-route changes so far");
    }

    let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
    cfg.concolic_executions = 32;
    cfg.validate_top = 6;
    cfg.horizon = SimDuration::from_secs(120);
    cfg.oscillation_threshold = 20;
    let mut dice = DiceRunner::from_sim(cfg, &live);

    println!("\nrunning a DiCE round over the oscillating system…");
    let report = dice.run_round(&mut live).expect("round runs");

    println!("\n{}", report.summary());
    for f in &report.faults {
        println!("  [{}] node {}: {}", f.class, f.node, f.detail);
    }
    assert!(
        report.classes().contains(&FaultClass::PolicyConflict),
        "the dispute cycle must be detected as a policy conflict"
    );
    println!(
        "\nverdicts crossed domain boundaries: {} total, {} failing — \
         each domain shared only pass/fail + the flapping prefix, never its policy.",
        report.verdicts_total, report.verdicts_failed
    );
}
