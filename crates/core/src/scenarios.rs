//! Ready-made systems for the paper's experiments: the three fault
//! scenarios, a healthy baseline, the 27-router Internet-like demo of
//! Figure 1 with Gao–Rexford policies, and the gossip/mixed federations
//! that exercise the heterogeneity claim with two real protocols.

use dice_bgp::policy::gao_rexford;
use dice_bgp::{
    net, Asn, BgpRouter, Ipv4Net, Match, Policy, RouterConfig, RouterId, Rule, Verdict,
};
use dice_gossip::{GossipConfig, GossipNode, TopicId};
use dice_netsim::{LinkParams, NodeId, SimDuration, Simulator, Topology};

/// The ASN hosted on simulator node `i` (`AS65000 + i`, wrapping in u16
/// space so 1k–10k-node topologies stay buildable; ASNs repeat past
/// ~65535 nodes, which BGP tolerates since sessions are keyed by NodeId).
pub fn asn_of(i: u32) -> Asn {
    Asn(65000u16.wrapping_add(i as u16))
}

/// The prefix originated by node `i` in generated systems: `10.<i>.0.0/16`
/// for `i < 256`, wrapping through the address space beyond that (distinct
/// up to 65536 originators, which covers every supported topology size).
pub fn prefix_of(i: u32) -> Ipv4Net {
    Ipv4Net::new(0x0A00_0000u32.wrapping_add(i.wrapping_mul(0x1_0000)), 16)
}

fn base_config(i: u32) -> RouterConfig {
    RouterConfig::minimal(asn_of(i), RouterId(0x0A00_0001 + i))
}

/// Build a full BGP system over `topo`: every node originates its
/// [`prefix_of`] prefix and applies Gao–Rexford import/export policies
/// derived from the edge relationships (Unlabeled edges get accept-all).
pub fn build_system(topo: &Topology, seed: u64) -> Simulator {
    build_system_with_originators(topo, topo.len(), seed)
}

/// [`build_system`] with only the first `originators` nodes originating a
/// prefix. Bounds total routing state on 1k–10k-node internet topologies,
/// where `n` originators would mean `n²` RIB entries and convergence that
/// dwarfs the campaign being measured. Every node still runs full
/// Gao–Rexford policies and propagates the originated prefixes.
pub fn build_system_with_originators(topo: &Topology, originators: usize, seed: u64) -> Simulator {
    let mut sim = Simulator::new(topo.clone(), seed);
    for n in topo.node_ids() {
        let mut cfg = base_config(n.0);
        if (n.0 as usize) < originators {
            cfg = cfg.with_network(prefix_of(n.0));
        }
        for m in topo.neighbors(n) {
            let role = topo.relationship(n, m).expect("adjacent");
            let import = gao_rexford::import_policy(asn_of(n.0), role);
            let export = gao_rexford::export_policy(asn_of(n.0), role);
            let import_name = format!("imp-{}", m.0);
            let export_name = format!("exp-{}", m.0);
            cfg = cfg
                .with_policy(Policy {
                    name: import_name.clone(),
                    ..import
                })
                .with_policy(Policy {
                    name: export_name.clone(),
                    ..export
                });
            cfg = cfg.with_neighbor(m, asn_of(m.0), import_name, export_name);
        }
        sim.set_node(n, Box::new(BgpRouter::new(cfg)));
    }
    sim.start();
    sim
}

/// The paper's Figure 1 system: 27 BGP routers in an Internet-like
/// topology, Gao–Rexford policies, one originated prefix per router.
pub fn demo27_system(seed: u64) -> Simulator {
    build_system(&Topology::demo27(), seed)
}

/// A healthy line of `n` routers with accept-all policies; node `i`
/// originates [`prefix_of`]`(i)`.
pub fn healthy_line(n: usize, seed: u64) -> Simulator {
    let topo = Topology::line(n, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for i in topo.node_ids() {
        let mut cfg = base_config(i.0).with_network(prefix_of(i.0));
        for m in topo.neighbors(i) {
            cfg = cfg.with_neighbor(m, asn_of(m.0), "all", "all");
        }
        sim.set_node(i, Box::new(BgpRouter::new(cfg)));
    }
    sim.start();
    sim
}

/// **Programming-error scenario** (paper fault class 1): a 3-router line
/// where the middle router runs the build with the seeded BIRD-style
/// attribute-length defect. DiCE's concolic exploration must synthesize the
/// unknown-attribute message that trips it.
pub fn buggy_parser_scenario(seed: u64) -> Simulator {
    let topo = Topology::line(3, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for i in topo.node_ids() {
        let mut cfg = base_config(i.0).with_network(prefix_of(i.0));
        for m in topo.neighbors(i) {
            cfg = cfg.with_neighbor(m, asn_of(m.0), "all", "all");
        }
        if i.0 == 1 {
            cfg.bugs.attr_overflow_crash = true;
        }
        sim.set_node(i, Box::new(BgpRouter::new(cfg)));
    }
    sim.start();
    sim
}

/// **Operator-mistake scenario** (fault class 3): 0 – 1 – 2 line; node 0
/// legitimately owns `10.10.0.0/16`. Call [`apply_hijack`] to make node 2
/// announce a covered `/24` it does not own.
pub fn hijack_scenario(seed: u64) -> Simulator {
    let topo = Topology::line(3, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for i in topo.node_ids() {
        let mut cfg = base_config(i.0);
        if i.0 == 0 {
            cfg = cfg.with_network(net("10.10.0.0/16"));
        }
        for m in topo.neighbors(i) {
            cfg = cfg.with_neighbor(m, asn_of(m.0), "all", "all");
        }
        sim.set_node(i, Box::new(BgpRouter::new(cfg)));
    }
    sim.start();
    sim
}

/// The hijacked prefix announced by [`apply_hijack`].
pub fn hijack_prefix() -> Ipv4Net {
    net("10.10.0.0/24")
}

/// The operator mistake: node 2 starts originating [`hijack_prefix`]
/// without owning it (a more-specific hijack of node 0's block).
pub fn apply_hijack(sim: &mut Simulator) {
    sim.invoke_node(NodeId(2), |node, api| {
        let r = crate::bgp_sut::as_bgp_mut(node).expect("node 2 is a router");
        r.announce_network(hijack_prefix(), false, api);
    });
}

/// **Policy-conflict scenario** (fault class 2): Griffin's BAD GADGET.
///
/// Node 0 originates a prefix; ring nodes 1, 2, 3 each prefer the route
/// through their clockwise ring neighbor (LOCAL_PREF 200, accepted only
/// when the path has ≤ 2 hops) over the direct route (LOCAL_PREF 100).
/// No stable routing exists, so best routes oscillate forever.
pub fn bad_gadget_scenario(seed: u64) -> Simulator {
    let mut topo = Topology::with_nodes(4);
    let lp = || LinkParams::fixed(SimDuration::from_millis(10));
    for ring in 1..=3u32 {
        topo.add_edge(
            NodeId(0),
            NodeId(ring),
            lp(),
            dice_netsim::Relationship::Unlabeled,
        );
    }
    topo.add_edge(
        NodeId(1),
        NodeId(2),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(2),
        NodeId(3),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(3),
        NodeId(1),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );

    let gadget_prefix = prefix_of(0);
    let mut sim = Simulator::new(topo.clone(), seed);

    // Center: originates the contested prefix, accept-all.
    let mut cfg0 = base_config(0).with_network(gadget_prefix);
    for m in topo.neighbors(NodeId(0)) {
        cfg0 = cfg0.with_neighbor(m, asn_of(m.0), "all", "all");
    }
    sim.set_node(NodeId(0), Box::new(BgpRouter::new(cfg0)));

    // Ring node i prefers the path via its clockwise neighbor succ(i).
    let succ = |i: u32| -> u32 {
        match i {
            1 => 2,
            2 => 3,
            3 => 1,
            _ => unreachable!(),
        }
    };
    for i in 1..=3u32 {
        let mut cfg = base_config(i).with_network(prefix_of(i));
        // From the center: acceptable at low preference.
        let from_center = Policy {
            name: "from-center".into(),
            rules: vec![Rule {
                matches: vec![Match::Any],
                actions: vec![dice_bgp::Action::SetLocalPref(100)],
                verdict: Some(Verdict::Accept),
            }],
            default: Verdict::Accept,
        };
        // From the preferred ring neighbor: high preference, but only the
        // two-hop path (succ, 0); anything longer is unusable.
        let from_ring = Policy {
            name: "from-ring".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::AsPathLenAtMost(2)],
                    actions: vec![dice_bgp::Action::SetLocalPref(200)],
                    verdict: Some(Verdict::Accept),
                },
                Rule::reject(vec![Match::Any]),
            ],
            default: Verdict::Reject,
        };
        cfg = cfg.with_policy(from_center).with_policy(from_ring);
        for m in topo.neighbors(NodeId(i)) {
            let import = if m.0 == succ(i) {
                "from-ring"
            } else if m.0 == 0 {
                "from-center"
            } else {
                // The counterclockwise neighbor's routes are unusable but
                // harmless; reuse the ring filter (it only admits 2-hop
                // paths at high preference — the gadget still has no
                // stable solution).
                "from-ring"
            };
            cfg = cfg.with_neighbor(m, asn_of(m.0), import, "all");
        }
        cfg = cfg.with_policy(Policy::accept_all("all"));
        sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
    }
    sim.start();
    sim
}

/// The contested prefix of the bad gadget.
pub fn gadget_prefix() -> Ipv4Net {
    prefix_of(0)
}

// ---------------------------------------------------------------------------
// Gossip and mixed-protocol federations
// ---------------------------------------------------------------------------

/// The topic owned by gossip node `i` in generated systems.
pub fn topic_of(i: u32) -> TopicId {
    i as TopicId
}

/// The gossip identity ("origin") hosted on simulator node `i`.
pub fn gossip_origin_of(i: u32) -> u16 {
    61000 + i as u16
}

fn gossip_config(
    i: u32,
    peers: &[NodeId],
    topics: impl IntoIterator<Item = TopicId>,
) -> GossipConfig {
    let mut cfg = GossipConfig::new(gossip_origin_of(i)).publish(topic_of(i));
    for &p in peers {
        cfg = cfg.with_peer(p);
    }
    for t in topics {
        cfg = cfg.subscribe(t);
    }
    cfg
}

/// A full mesh of `n` gossip nodes: node `i` publishes [`topic_of`]`(i)`
/// and subscribes to every topic — the gossip analogue of
/// [`healthy_line`].
pub fn gossip_mesh(n: usize, seed: u64) -> Simulator {
    let topo = Topology::full_mesh(n, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for i in topo.node_ids() {
        let peers: Vec<NodeId> = topo.neighbors(i);
        let cfg = gossip_config(i.0, &peers, (0..n as u32).map(topic_of));
        sim.set_node(i, Box::new(GossipNode::new(cfg)));
    }
    sim.start();
    sim
}

/// **Gossip programming-error scenario**: a gossip mesh whose node 1 runs
/// the build with the seeded digest-count defect. DiCE's concolic layer
/// must flip a rumor seed into the digest arm and push the count byte over
/// the bug threshold — the gossip analogue of [`buggy_parser_scenario`].
pub fn buggy_gossip_scenario(n: usize, seed: u64) -> Simulator {
    let topo = Topology::full_mesh(n, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for i in topo.node_ids() {
        let peers: Vec<NodeId> = topo.neighbors(i);
        let mut cfg = gossip_config(i.0, &peers, (0..n as u32).map(topic_of));
        if i.0 == 1 {
            cfg.bugs.digest_count_overflow = true;
        }
        sim.set_node(i, Box::new(GossipNode::new(cfg)));
    }
    sim.start();
    sim
}

/// **Mixed federation**: BGP routers 0 – 1 peer over a line; gossip nodes
/// 2, 3, 4 form a triangle; an administrative link 1 – 2 bridges the two
/// domains so one Chandy–Lamport snapshot spans both protocols. Both
/// sides speak their own wire format for real — the first end-to-end
/// instantiation of the paper's *heterogeneous federation* claim.
///
/// Set `buggy_gossip` to seed the digest-count defect on gossip node 2
/// (the bridge node).
pub fn mixed_bgp_gossip(seed: u64, buggy_gossip: bool) -> Simulator {
    mixed_federation(seed, buggy_gossip, false)
}

/// **Nemesis federation**: [`mixed_bgp_gossip`] with *both* seeded defect
/// classes armed — BGP router 1 (the bridge-side router) runs the
/// attribute-length parser defect and gossip node 2 (the bridge node) the
/// digest-count overflow. One campaign over this system must surface both
/// fault classes; the `exp_faults` nemesis bench sweeps it under link loss
/// and dynamics schedules.
pub fn nemesis_federation(seed: u64) -> Simulator {
    mixed_federation(seed, true, true)
}

fn mixed_federation(seed: u64, buggy_gossip: bool, buggy_bgp: bool) -> Simulator {
    let mut topo = Topology::with_nodes(5);
    let lp = || LinkParams::fixed(SimDuration::from_millis(5));
    topo.add_edge(
        NodeId(0),
        NodeId(1),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(1),
        NodeId(2),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(2),
        NodeId(3),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(3),
        NodeId(4),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    topo.add_edge(
        NodeId(4),
        NodeId(2),
        lp(),
        dice_netsim::Relationship::Unlabeled,
    );
    let mut sim = Simulator::new(topo, seed);

    // BGP side: 0 and 1 peer with each other only.
    for i in 0..2u32 {
        let peer = 1 - i;
        let mut cfg = base_config(i).with_network(prefix_of(i)).with_neighbor(
            NodeId(peer),
            asn_of(peer),
            "all",
            "all",
        );
        if buggy_bgp && i == 1 {
            cfg.bugs.attr_overflow_crash = true;
        }
        sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
    }

    // Gossip side: triangle 2-3-4, all subscribed to all gossip topics.
    for i in 2..5u32 {
        let peers: Vec<NodeId> = (2..5u32).filter(|&j| j != i).map(NodeId).collect();
        let mut cfg = gossip_config(i, &peers, (2..5u32).map(topic_of));
        if buggy_gossip && i == 2 {
            cfg.bugs.digest_count_overflow = true;
        }
        sim.set_node(NodeId(i), Box::new(GossipNode::new(cfg)));
    }
    sim.start();
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_netsim::SimTime;

    #[test]
    fn healthy_line_converges() {
        let mut sim = healthy_line(4, 1);
        sim.run_until(SimTime::from_nanos(15_000_000_000));
        // Every node knows every prefix.
        for i in 0..4u32 {
            let r = crate::bgp_sut::as_bgp(sim.node(NodeId(i))).unwrap();
            for j in 0..4u32 {
                assert!(
                    r.loc_rib().best(&prefix_of(j)).is_some(),
                    "node {i} missing prefix of {j}"
                );
            }
        }
    }

    #[test]
    fn demo27_converges_and_respects_gao_rexford() {
        let mut sim = demo27_system(4);
        let out = sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        );
        assert_eq!(
            out,
            dice_netsim::QuietOutcome::Quiescent,
            "demo27 must converge"
        );
        // Spot-check: every stub reaches a tier-1 prefix.
        for stub in 11..27u32 {
            let r = crate::bgp_sut::as_bgp(sim.node(NodeId(stub))).unwrap();
            assert!(
                r.loc_rib().best(&prefix_of(0)).is_some(),
                "stub {stub} cannot reach tier-1 prefix"
            );
        }
        // Valley-free spot check: a tier-1 node must not route to another
        // tier-1's prefix via a customer path that re-ascends ... minimal
        // check: its path to node 1's prefix is at most 2 AS hops (peering).
        let r0 = crate::bgp_sut::as_bgp(sim.node(NodeId(0))).unwrap();
        let best = r0.loc_rib().best(&prefix_of(1)).expect("tier-1 reachable");
        assert!(best.route.attrs.as_path.path_len() <= 2);
    }

    #[test]
    fn bad_gadget_never_converges() {
        let mut sim = bad_gadget_scenario(2);
        let out = sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(120_000_000_000),
        );
        assert_eq!(
            out,
            dice_netsim::QuietOutcome::TimedOut,
            "gadget must keep oscillating"
        );
        // Ring nodes accumulate best-route flips on the contested prefix.
        let mut total = 0;
        for i in 1..=3u32 {
            let r = crate::bgp_sut::as_bgp(sim.node(NodeId(i))).unwrap();
            total += r
                .loc_rib()
                .flips()
                .find_map(|(p, n)| (p == gadget_prefix()).then_some(n))
                .unwrap_or(0);
        }
        assert!(total > 20, "expected heavy flapping, saw {total} flips");
    }

    #[test]
    fn hijack_scenario_draws_traffic() {
        let mut sim = hijack_scenario(3);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        apply_hijack(&mut sim);
        sim.run_until(SimTime::from_nanos(25_000_000_000));
        let r1 = crate::bgp_sut::as_bgp(sim.node(NodeId(1))).unwrap();
        let best = r1
            .loc_rib()
            .best(&hijack_prefix())
            .expect("hijack visible at node 1");
        assert_eq!(best.route.attrs.as_path.origin_asn(), Some(asn_of(2)));
    }

    #[test]
    fn gossip_mesh_converges_and_delivers() {
        let mut sim = gossip_mesh(4, 8);
        let out = sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        assert_eq!(out, dice_netsim::QuietOutcome::Quiescent);
        for i in 0..4u32 {
            let g = crate::gossip_sut::as_gossip(sim.node(NodeId(i))).unwrap();
            assert_eq!(g.seen_count(), 8, "node {i}: 4 topics x 2 rumors");
        }
    }

    #[test]
    fn mixed_federation_runs_both_protocols_for_real() {
        let mut sim = mixed_bgp_gossip(6, false);
        sim.run_until(SimTime::from_nanos(15_000_000_000));
        // BGP side converged routes.
        let r0 = crate::bgp_sut::as_bgp(sim.node(NodeId(0))).unwrap();
        assert!(r0.loc_rib().best(&prefix_of(1)).is_some());
        // Gossip side disseminated rumors.
        let g4 = crate::gossip_sut::as_gossip(sim.node(NodeId(4))).unwrap();
        assert_eq!(g4.seen_count(), 6, "3 topics x 2 rumors");
        // Nobody crashed across the bridge.
        for i in 0..5u32 {
            assert!(sim.crashed(NodeId(i)).is_none());
        }
    }

    #[test]
    fn buggy_gossip_scenario_is_healthy_until_triggered() {
        let mut sim = buggy_gossip_scenario(3, 4);
        sim.run_until(SimTime::from_nanos(15_000_000_000));
        for i in 0..3u32 {
            assert!(sim.crashed(NodeId(i)).is_none());
        }
        let g1 = crate::gossip_sut::as_gossip(sim.node(NodeId(1))).unwrap();
        assert!(g1.config().bugs.digest_count_overflow);
        assert_eq!(
            g1.seen_count(),
            6,
            "dissemination works despite dormant bug"
        );
    }

    #[test]
    fn buggy_parser_scenario_is_healthy_until_triggered() {
        let mut sim = buggy_parser_scenario(4);
        sim.run_until(SimTime::from_nanos(15_000_000_000));
        for i in 0..3u32 {
            assert!(sim.crashed(NodeId(i)).is_none());
        }
        // Regular routing works despite the dormant bug.
        let r2 = crate::bgp_sut::as_bgp(sim.node(NodeId(2))).unwrap();
        assert!(r2.loc_rib().best(&prefix_of(0)).is_some());
    }
}
