//! Snapshot correctness across the stack: clones are isolated, checkpoint
//! accounting is sane, and a never-converging system still cuts. That a
//! clone of a consistent cut replays to what the live system does is
//! `tests/campaign_properties.rs::null_input_clone_predicts_the_live_system`,
//! over generated BGP, gossip and mixed federations.

use dice_system::dice::scenarios;
use dice_system::dice::snapshot::take_consistent_snapshot;
use dice_system::netsim::{NodeId, SimDuration, SimTime, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clones built from one shadow never interfere with each other.
    #[test]
    fn clones_are_mutually_isolated(seed in 0u64..1000) {
        let mut live = scenarios::healthy_line(4, seed);
        live.run_until(SimTime::from_nanos(20_000_000_000));
        let (shadow, _) =
            take_consistent_snapshot(&mut live, NodeId(0), SimDuration::from_secs(30))
                .expect("quiescent snapshot succeeds");
        let topo = live.topology().clone();

        let mut a = Simulator::from_shadow(&shadow, &topo, 1);
        let b = Simulator::from_shadow(&shadow, &topo, 1);
        // Crash a node in clone A; clone B and the live system are unmoved.
        a.inject_node_crash(NodeId(2));
        prop_assert!(a.crashed(NodeId(2)).is_some());
        prop_assert!(b.crashed(NodeId(2)).is_none());
        prop_assert!(live.crashed(NodeId(2)).is_none());
    }

    /// Checkpoint byte accounting grows monotonically with RIB content.
    #[test]
    fn checkpoint_bytes_track_state(extra in 1u32..40) {
        let small = scenarios::healthy_line(3, 7);
        let small_bytes: usize = small
            .topology()
            .node_ids()
            .map(|id| small.node(id).state_size())
            .sum();

        // Same topology, more originated prefixes per node.
        use dice_system::bgp::{BgpRouter as R, Ipv4Net, RouterConfig, RouterId};
        use dice_system::netsim::{LinkParams, Topology};
        let topo = Topology::line(3, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut big = Simulator::new(topo.clone(), 7);
        for id in topo.node_ids() {
            let mut cfg = RouterConfig::minimal(
                scenarios::asn_of(id.0),
                RouterId(id.0 + 1),
            );
            for k in 0..extra {
                cfg = cfg.with_network(Ipv4Net::new(
                    0x0A00_0000 | (id.0 << 20) | (k << 8),
                    24,
                ));
            }
            for m in topo.neighbors(id) {
                cfg = cfg.with_neighbor(m, scenarios::asn_of(m.0), "all", "all");
            }
            big.set_node(id, Box::new(R::new(cfg)));
        }
        big.start();
        big.run_until(SimTime::from_nanos(30_000_000_000));
        let big_bytes: usize =
            big.topology().node_ids().map(|id| big.node(id).state_size()).sum();
        prop_assert!(big_bytes > small_bytes, "{big_bytes} <= {small_bytes}");
    }
}

#[test]
fn snapshot_of_oscillating_system_completes() {
    // Even a never-converging system can be consistently snapshotted:
    // markers ride the same channels as the churning updates.
    let mut live = scenarios::bad_gadget_scenario(42);
    live.run_until(SimTime::from_nanos(15_000_000_000));
    let (shadow, metrics) =
        take_consistent_snapshot(&mut live, NodeId(0), SimDuration::from_secs(30))
            .expect("snapshot completes under churn");
    assert_eq!(metrics.nodes, 4);
    // The shadow replays and keeps oscillating (the conflict is in state,
    // not an artifact of the snapshot).
    let topo = live.topology().clone();
    let mut replay = Simulator::from_shadow(&shadow, &topo, 3);
    let out = replay.run_until_quiet(
        SimDuration::from_secs(5),
        shadow.base_time() + SimDuration::from_secs(120),
    );
    assert_eq!(out, dice_system::netsim::QuietOutcome::TimedOut);
}
