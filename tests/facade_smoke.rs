//! Facade smoke test: every `dice_system::{netsim,bgp,concolic,dice}`
//! re-export resolves and exposes a working symbol from its layer, so a
//! downstream user can depend on `dice-system` alone.

use dice_system::{bgp, concolic, dice, netsim};

#[test]
fn netsim_reexport_builds_and_runs_a_sim() {
    let topo = netsim::Topology::line(
        2,
        netsim::LinkParams::fixed(netsim::SimDuration::from_millis(1)),
    );
    assert_eq!(topo.len(), 2);
    assert!(topo.is_connected());

    // Cross-layer: a scenario built from bgp routers runs on the netsim
    // simulator, all reached through the facade.
    let mut sim = dice::scenarios::healthy_line(3, 1);
    sim.run_until(netsim::SimTime::from_nanos(5_000_000_000));
    assert!(sim.now() >= netsim::SimTime::from_nanos(5_000_000_000));
    let r = sim
        .node(netsim::NodeId(1))
        .as_any()
        .downcast_ref::<bgp::BgpRouter>()
        .expect("scenario nodes are BGP routers");
    assert!(!r.loc_rib().is_empty(), "routes propagate");
}

#[test]
fn bgp_reexport_exposes_wire_codec() {
    let msg = bgp::Message::Notification(bgp::NotificationMsg {
        code: 6,
        subcode: 0,
        data: vec![],
    });
    let bytes = bgp::encode(&msg);
    let (decoded, used) = bgp::decode(&bytes).expect("self-encoded message decodes");
    assert_eq!(used, bytes.len());
    assert_eq!(decoded, msg);
    assert_eq!(bgp::net("10.0.0.0/8").len(), 8);
}

#[test]
fn concolic_reexport_solves_a_constraint() {
    let mut arena = concolic::ExprArena::new();
    let x = arena.input(0);
    let k = arena.constant(8, 0x42);
    let eq = arena.cmp(concolic::CmpOp::Eq, x, k);
    let mut solver = concolic::Solver::new();
    match solver.solve(&arena, &[(eq, true)], &|_| 0) {
        concolic::SolveResult::Sat(model) => assert_eq!(model.get(&0), Some(&0x42)),
        other => panic!("single-byte equality must be SAT, got {other:?}"),
    }
}

#[test]
fn dice_reexport_exposes_attestations_and_grammar() {
    let mut reg = dice::AttestationRegistry::with_seed(7);
    reg.attest(&bgp::net("10.0.0.0/16"), bgp::Asn(65001));
    assert!(reg.is_attested(&bgp::net("10.0.0.0/16"), bgp::Asn(65001)));

    let mut g = dice::UpdateGrammar::new(bgp::Asn(65002), 3);
    let bytes = g.generate();
    assert!(bgp::decode(&bytes).is_ok(), "grammar output is wire-valid");
    let mask = dice::mark_update(&bytes);
    assert_eq!(mask.len(), bytes.len());
}
