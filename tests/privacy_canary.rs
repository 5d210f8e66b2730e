//! The privacy contract of the attestation interface, with a canary.
//!
//! One router owns and announces a canary prefix under a canary AS number,
//! one gossip node publishes a canary topic under a canary origin — all
//! legitimately, so no check ever has cause to name them. Elsewhere in the
//! federation a router hijacks a prefix, so *failing* verdicts exist and
//! carry their coarse detail (the hijacked prefix, the offending origin).
//! Whatever is then serialized to cross a domain boundary — the campaign
//! and round reports, every local verdict and fault of a checked clone,
//! the attestation registry — must not contain the canaries in any
//! rendering. The checkers' per-cut scratch ([`CheckBaseline`]), which does
//! hold raw `(prefix, origin)` pairs, has no `Serialize` impl at all.

use dice_system::bgp::{net, Asn, BgpRouter, RouterConfig, RouterId};
use dice_system::dice::gossip_sut::topic_prefix;
use dice_system::dice::{
    bgp_sut, default_checkers, flips_baseline, run_checkers, Campaign, CheckBaseline, CheckContext,
    SutCatalog,
};
use dice_system::gossip::{GossipConfig, GossipNode};
use dice_system::netsim::{
    LinkParams, NodeId, Relationship, SimDuration, SimTime, Simulator, Topology,
};

const CANARY_PREFIX: &str = "203.0.113.0/24";
const CANARY_ASN: u16 = 64_999;
const CANARY_TOPIC: u16 = 0x1A2B;
const CANARY_ORIGIN: u16 = 51_966;

/// Routers 0 – 1 – 2, a bridge 2 – 3, gossip triangle 3 – 4 – 5. Router 1
/// and gossip node 4 hold the canaries; router 2 will hijack a more
/// specific of router 0's block.
fn federation() -> Simulator {
    let mut topo = Topology::with_nodes(6);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)] {
        topo.add_edge(
            NodeId(a),
            NodeId(b),
            LinkParams::fixed(SimDuration::from_millis(5)),
            Relationship::Unlabeled,
        );
    }
    let asn = |i: u32| {
        if i == 1 {
            Asn(CANARY_ASN)
        } else {
            Asn(65_000 + i as u16)
        }
    };
    let mut sim = Simulator::new(topo, 11);
    for i in 0..3u32 {
        let mut cfg = RouterConfig::minimal(asn(i), RouterId(0x0A00_0001 + i));
        match i {
            0 => cfg = cfg.with_network(net("10.10.0.0/16")),
            1 => cfg = cfg.with_network(net(CANARY_PREFIX)),
            _ => {}
        }
        for j in [i.wrapping_sub(1), i + 1] {
            if j < 3 {
                cfg = cfg.with_neighbor(NodeId(j), asn(j), "all", "all");
            }
        }
        sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
    }
    let topics = [7u16, CANARY_TOPIC, 9];
    let origins = [61_003u16, CANARY_ORIGIN, 61_005];
    for (k, i) in (3..6u32).enumerate() {
        let mut cfg = GossipConfig::new(origins[k]).publish(topics[k]);
        for j in (3..6u32).filter(|&j| j != i) {
            cfg = cfg.with_peer(NodeId(j));
        }
        for t in topics {
            cfg = cfg.subscribe(t);
        }
        sim.set_node(NodeId(i), Box::new(GossipNode::new(cfg)));
    }
    sim.start();
    sim
}

/// Every rendering a canary could leak in: display forms, the JSON
/// numbers of the serialized types, the raw address bytes.
fn canary_renderings() -> Vec<String> {
    let topic = topic_prefix(CANARY_TOPIC);
    vec![
        CANARY_PREFIX.to_string(),
        "203.0.113".to_string(),
        "203,0,113".to_string(),
        net(CANARY_PREFIX).addr().to_string(),
        topic.to_string(),
        topic.addr().to_string(),
        format!("{:#x}", CANARY_TOPIC),
    ]
}

/// Whether `n` occurs in `text` as a number of its own (not as digits
/// inside a longer one — timestamps are long).
fn names_number(text: &str, n: u16) -> bool {
    let needle = n.to_string();
    text.match_indices(&needle).any(|(at, _)| {
        let digit = |c: Option<char>| c.is_some_and(|c| c.is_ascii_digit());
        !digit(text[..at].chars().next_back()) && !digit(text[at + needle.len()..].chars().next())
    })
}

fn assert_canary_free(what: &str, json: &str) {
    for needle in canary_renderings() {
        assert!(!json.contains(&needle), "{what} leaks {needle:?}: {json}");
    }
    for n in [CANARY_ASN, CANARY_TOPIC, CANARY_ORIGIN] {
        assert!(!names_number(json, n), "{what} leaks {n}: {json}");
    }
}

#[test]
fn no_serialized_artifact_names_the_canaries() {
    let mut live = federation();
    live.run_until(SimTime::from_nanos(10_000_000_000));
    live.invoke_node(NodeId(2), |node, api| {
        let r = bgp_sut::as_bgp_mut(node).expect("node 2 is a router");
        r.announce_network(net("10.10.0.0/24"), false, api);
    });
    live.run_for(SimDuration::from_secs(2));

    // The canaries are really there to be leaked.
    let r0 = bgp_sut::as_bgp(live.node(NodeId(0))).unwrap();
    assert!(r0.loc_rib().best(&net(CANARY_PREFIX)).is_some());
    assert!(names_number(&format!("{:?}", r0.loc_rib()), CANARY_ASN));

    let campaign = Campaign::new(&live)
        .rounds(1)
        .executions(24)
        .validate_top(4)
        .horizon(SimDuration::from_secs(5));
    let report = campaign.run(&mut live).expect("campaign runs");
    assert!(
        report.rounds.iter().any(|r| r.verdicts_failed > 0),
        "the hijack must fail verdicts"
    );
    assert!(report
        .faults
        .iter()
        .any(|f| f.detail.contains("10.10.0.0/24")));
    assert_canary_free("CampaignReport", &serde_json::to_string(&report).unwrap());
    for round in &report.rounds {
        assert_canary_free("RoundReport", &serde_json::to_string(round).unwrap());
    }

    // One checked clone, verdict by verdict — passing and failing.
    let catalog = SutCatalog::default();
    let registry = catalog.build_registry(&live, 11);
    let shadow = live.instant_snapshot();
    let baseline = flips_baseline(&catalog, &shadow);
    let mut clone = Simulator::from_shadow(&shadow, live.topology(), 5);
    let quiet = clone.run_until_quiet(
        SimDuration::from_millis(200),
        shadow.base_time() + SimDuration::from_secs(2),
    );
    let checked = run_checkers(
        &default_checkers(20),
        &CheckContext {
            sim: &clone,
            catalog: &catalog,
            registry: &registry,
            baseline_flips: &baseline,
            quiet,
            injected: false,
        },
    );
    assert!(checked.failed() > 0, "failing verdicts exist");
    for verdict in &checked.verdicts {
        assert_canary_free("LocalVerdict", &serde_json::to_string(verdict).unwrap());
    }
    for fault in &checked.faults {
        assert_canary_free("FaultReport", &serde_json::to_string(fault).unwrap());
    }

    // The registry attests the canaries — as digests only.
    assert!(registry.is_attested(&net(CANARY_PREFIX), Asn(CANARY_ASN)));
    assert!(registry.is_attested(&topic_prefix(CANARY_TOPIC), Asn(CANARY_ORIGIN)));
    assert_canary_free(
        "AttestationRegistry",
        &serde_json::to_string(&registry).unwrap(),
    );
}

/// Compiles only while [`CheckBaseline`] is *not* `Serialize`: with the
/// impl, both blanket impls below apply and `some_item` is ambiguous.
#[test]
fn the_per_cut_scratch_cannot_be_serialized() {
    trait AmbiguousIfSerialize<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSerialize<()> for T {}
    struct Serializable;
    impl<T: ?Sized + serde::Serialize> AmbiguousIfSerialize<Serializable> for T {}
    <CheckBaseline as AmbiguousIfSerialize<_>>::some_item();
    // And the probe can tell: a verdict is `Serialize`, so naming the
    // marker explicitly resolves.
    <dice_system::dice::LocalVerdict as AmbiguousIfSerialize<Serializable>>::some_item();
}
