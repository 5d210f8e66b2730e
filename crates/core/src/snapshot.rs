//! Snapshot orchestration: drive the in-band Chandy–Lamport protocol to
//! completion and account for its cost (the paper's "lightweight node
//! checkpoints" / low-overhead claim, measured by experiment T2).

use dice_netsim::{NodeId, ShadowSnapshot, SimDuration, Simulator, SnapshotProgress};
use serde::{Deserialize, Serialize};

/// Cost accounting for one consistent snapshot.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SnapshotMetrics {
    /// Simulated time from initiation to completion (marker propagation).
    pub sim_duration_nanos: u64,
    /// Host wall-clock time spent (checkpointing + bookkeeping).
    pub wall_micros: u64,
    /// Nodes checkpointed.
    pub nodes: usize,
    /// In-flight messages captured as channel state.
    pub in_flight: usize,
    /// Approximate checkpoint footprint in bytes.
    pub bytes: usize,
}

/// Drive the live simulator until the snapshot initiated at `initiator`
/// completes, or `deadline` of simulated time passes — then the cut is
/// abandoned, leaving the live system as if it had never been started.
///
/// The live system keeps executing while markers propagate — exactly the
/// paper's "operates alongside the deployed system" property.
pub fn take_consistent_snapshot(
    live: &mut Simulator,
    initiator: NodeId,
    deadline: SimDuration,
) -> Result<(ShadowSnapshot, SnapshotMetrics), String> {
    let started = live.now();
    #[expect(
        clippy::disallowed_methods,
        reason = "snapshot wall cost metric; zeroed by normalized()"
    )]
    let wall_start = std::time::Instant::now();
    let id = live.start_snapshot(initiator);
    let limit = started + deadline;
    loop {
        match live.poll_snapshot(id) {
            SnapshotProgress::Complete(shadow) => {
                let metrics = SnapshotMetrics {
                    sim_duration_nanos: (live.now() - started).as_nanos(),
                    wall_micros: wall_start.elapsed().as_micros() as u64,
                    nodes: shadow.node_count(),
                    in_flight: shadow.in_flight_count(),
                    bytes: shadow.approx_bytes(),
                };
                return Ok((*shadow, metrics));
            }
            SnapshotProgress::Failed(e) => return Err(e),
            SnapshotProgress::InProgress => {
                if live.now() >= limit {
                    live.abandon_snapshot(id);
                    return Err(format!(
                        "snapshot {id:?} did not complete within {deadline}"
                    ));
                }
                // Advance the live system a little and poll again.
                let step = SimDuration::from_millis(5);
                let next = live.now() + step;
                live.run_until(next.min(limit));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::{net, Asn, BgpRouter, RouterConfig, RouterId};
    use dice_netsim::{LinkParams, SimTime, Topology};

    fn bgp_sim() -> Simulator {
        let topo = Topology::line(3, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut sim = Simulator::new(topo, 11);
        for i in 0..3u32 {
            let mut cfg = RouterConfig::minimal(Asn(65000 + i as u16), RouterId(i + 1));
            if i > 0 {
                cfg = cfg.with_neighbor(NodeId(i - 1), Asn(65000 + (i - 1) as u16), "all", "all");
            }
            if i < 2 {
                cfg = cfg.with_neighbor(NodeId(i + 1), Asn(65000 + (i + 1) as u16), "all", "all");
            }
            if i == 0 {
                cfg = cfg.with_network(net("10.0.0.0/8"));
            }
            sim.set_node(NodeId(i), Box::new(BgpRouter::new(cfg)));
        }
        sim.start();
        sim
    }

    #[test]
    fn consistent_snapshot_of_bgp_network() {
        let mut sim = bgp_sim();
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        let (shadow, metrics) =
            take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::from_secs(5))
                .expect("snapshot completes");
        assert_eq!(metrics.nodes, 3);
        assert!(metrics.bytes > 0);
        assert!(
            metrics.sim_duration_nanos > 0,
            "markers take time to propagate"
        );
        // The cloned routers carry the converged RIB.
        let clone = Simulator::from_shadow(&shadow, sim.topology(), 1);
        let r2 = crate::bgp_sut::as_bgp(clone.node(NodeId(2))).unwrap();
        assert!(r2.loc_rib().best(&net("10.0.0.0/8")).is_some());
    }

    #[test]
    fn clone_is_isolated_from_live() {
        let mut sim = bgp_sim();
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        let (shadow, _) =
            take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::from_secs(5)).unwrap();
        let live_stats_before = sim.trace().stats();
        let mut clone = Simulator::from_shadow(&shadow, sim.topology(), 2);
        // Drive the clone hard; the live system must not observe anything.
        clone.deliver_direct(NodeId(1), NodeId(2), &[0u8; 30]);
        clone.run_until(clone.now() + SimDuration::from_secs(10));
        assert_eq!(sim.trace().stats(), live_stats_before);
    }

    #[test]
    fn snapshot_deadline_enforced() {
        let mut sim = bgp_sim();
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.inject_link_down(NodeId(1), NodeId(2));
        // Node 0's scope is the session 0-1, whose markers take 5 ms to
        // cross: a zero deadline cannot be met.
        let Err(e) = take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::ZERO) else {
            panic!("a zero deadline was met, but markers cross 5 ms links");
        };
        assert!(e.contains("did not complete"), "unexpected error: {e}");
    }

    #[test]
    fn a_timed_out_cut_stops_suspending_link_faults() {
        // Fault sampling is suspended while a cut is pending; a cut that
        // missed its deadline must not leave it suspended for good.
        let mut sim = crate::scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        sim.set_unreliable_links(true);
        sim.set_link_faults(dice_netsim::LinkFaults::lossy(0.5));
        let two_minutes = |sim: &mut Simulator| {
            sim.run_for(SimDuration::from_secs(120));
            sim.take_wire_stats().frames_dropped
        };
        assert_eq!(two_minutes(&mut sim), 12, "the lossy links drop frames");
        let timed_out = take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::ZERO);
        assert!(timed_out.is_err(), "markers cross 5 ms links");
        let after = two_minutes(&mut sim);
        assert!(after > 0, "and keep dropping after a timeout: {after}");
    }
}
