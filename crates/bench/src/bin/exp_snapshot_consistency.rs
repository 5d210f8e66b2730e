//! **A1 — Ablation: consistent vs uncoordinated snapshots** (DESIGN.md §6.3).
//!
//! What does the Chandy–Lamport protocol buy? We snapshot a system
//! *mid-convergence* (update waves in flight) two ways:
//!
//! * **consistent** — the in-band CL protocol, capturing channel state;
//! * **uncoordinated** — each node checkpointed at a *different* virtual
//!   time (as naive per-node checkpointing would), together with the
//!   frames in flight towards it at that same instant as its channel
//!   state.
//!
//! The metric is **causal-consistency violations**: for every session
//! `a — b`, compare what `a`'s Adj-RIB-Out says it sent toward `b` with
//! what `b`'s Adj-RIB-In says it received from `a`, and count the
//! discrepancies that no frame recorded on the `a → b` channel explains.
//! In a consistent snapshot every discrepancy is so explained. An
//! uncoordinated snapshot records each channel with its receiver, so a
//! frame sent after the receiver's checkpoint but before the sender's is
//! neither received nor recorded: the sender's Adj-RIB-Out is from a
//! later instant than the receiver's Adj-RIB-In. That is a discrepancy no
//! execution of the system could exhibit — exactly the false-positive
//! source DiCE's checkers must not be exposed to. At zero skew the
//! uncoordinated snapshot is one instant's state and shows none, so what
//! the column counts is the skew, not frames the capture lost.

use dice_bench::{maybe_write_json, Table};
use dice_bgp::BgpRouter;
use dice_core::scenarios;
use dice_core::snapshot::take_consistent_snapshot;
use dice_netsim::{NodeId, ShadowSnapshot, SimDuration, SimTime, Simulator};
use serde_json::json;
use std::collections::BTreeMap;

/// Count adjacency discrepancies not explained by captured channel state.
fn causal_violations(shadow: &ShadowSnapshot, topo: &dice_netsim::Topology) -> usize {
    // Channel payload counts per directed pair.
    let mut channel_msgs: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (src, dst, msgs) in shadow.in_flight() {
        *channel_msgs.entry((src.0, dst.0)).or_insert(0) += msgs.len();
    }
    let mut violations = 0usize;
    for e in topo.edges() {
        for (a, b) in [(e.a, e.b), (e.b, e.a)] {
            let (Some(na), Some(nb)) = (shadow.nodes().get(&a), shadow.nodes().get(&b)) else {
                continue;
            };
            let (Some(ra), Some(rb)) = (
                na.as_any().downcast_ref::<BgpRouter>(),
                nb.as_any().downcast_ref::<BgpRouter>(),
            ) else {
                continue;
            };
            // Prefixes a claims to have advertised to b but b has not
            // received (accept-all policies ⇒ attrs pass through).
            let mut missing = 0usize;
            for prefix in ra.loc_rib().iter().map(|(p, _)| *p) {
                let sent = ra.adj_rib_out().sent(b, &prefix).is_some();
                let got = rb.adj_rib_in().get(a, &prefix).is_some();
                if sent && !got {
                    missing += 1;
                }
            }
            let explained = channel_msgs.get(&(a.0, b.0)).copied().unwrap_or(0);
            violations += missing.saturating_sub(explained);
        }
    }
    violations
}

/// Uncoordinated snapshot: checkpoint each node at a different moment,
/// advancing the live system between checkpoints, with the frames then in
/// flight towards it. Nodes are visited in interleaved order (evens, then
/// odds) — naive per-node checkpointing guarantees no particular order,
/// and adjacent nodes end up checkpointed far apart in time, which is the
/// point.
fn skewed_snapshot(sim: &mut Simulator, skew: SimDuration) -> ShadowSnapshot {
    let mut nodes = BTreeMap::new();
    let mut in_flight = Vec::new();
    let base = sim.now();
    let all: Vec<NodeId> = sim.topology().node_ids().collect();
    let ids: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|n| n.0 % 2 == 0)
        .chain(all.iter().copied().filter(|n| n.0 % 2 == 1))
        .collect();
    let sessions: Vec<(NodeId, NodeId)> = sim
        .topology()
        .edges()
        .iter()
        .filter(|e| sim.session_up(e.a, e.b))
        .map(|e| (e.a, e.b))
        .collect();
    for id in ids {
        nodes.insert(id, sim.node(id).clone_node());
        let channels = sim.instant_snapshot();
        let towards_id = channels.in_flight().iter().filter(|(_, dst, _)| *dst == id);
        in_flight.extend(towards_id.cloned());
        let next = sim.now() + skew;
        sim.run_until(next);
    }
    in_flight.sort_by_key(|&(src, dst, _)| (src, dst));
    ShadowSnapshot::from_parts(base, nodes, in_flight, sessions)
}

/// A ring of accept-all routers (a cyclic topology is what makes channel
/// state non-trivial: markers and data race around the cycle).
fn ring_system(n: usize, seed: u64) -> Simulator {
    use dice_bgp::{BgpRouter as R, RouterConfig, RouterId};
    use dice_netsim::{LinkParams, Topology};
    let topo = Topology::ring(n, LinkParams::fixed(SimDuration::from_millis(8)));
    let mut sim = Simulator::new(topo.clone(), seed);
    for id in topo.node_ids() {
        let mut cfg = RouterConfig::minimal(scenarios::asn_of(id.0), RouterId(id.0 + 1))
            .with_network(scenarios::prefix_of(id.0));
        for m in topo.neighbors(id) {
            cfg = cfg.with_neighbor(m, scenarios::asn_of(m.0), "all", "all");
        }
        sim.set_node(id, Box::new(R::new(cfg)));
    }
    sim.start();
    sim
}

/// Converge the ring, then kick off a fresh announcement wave from node 0
/// and stop mid-wave, `lead` after the kick.
fn mid_wave_system(seed: u64, lead: SimDuration) -> Simulator {
    let mut sim = ring_system(8, seed);
    sim.run_until_quiet(
        SimDuration::from_secs(2),
        SimTime::from_nanos(120_000_000_000),
    );
    let kick = sim.now();
    sim.invoke_node(NodeId(0), |node, api| {
        let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
        r.announce_network(dice_bgp::net("203.0.113.0/24"), true, api);
    });
    sim.run_until(kick + lead);
    sim
}

fn main() {
    let mut table = Table::new(
        "A1 — causal violations: consistent vs uncoordinated snapshots mid-wave (8-ring)",
        &[
            "trial",
            "wave_lead_ms",
            "in_flight_cl",
            "cl_violations",
            "uncoordinated_violations",
        ],
    );

    let mut cl_total = 0usize;
    let mut skew_total = 0usize;
    let mut inflight_total = 0usize;
    let mut trials = 0usize;
    for trial in 0..8u64 {
        // Snapshot while the announcement wave is part-way around the ring.
        let lead = SimDuration::from_millis(2 + trial * 4);
        let mut live = mid_wave_system(300 + trial, lead);
        let Ok((cl_shadow, m)) =
            take_consistent_snapshot(&mut live, NodeId(0), SimDuration::from_secs(30))
        else {
            continue;
        };

        let mut live2 = mid_wave_system(300 + trial, lead);
        let skew_shadow = skewed_snapshot(&mut live2, SimDuration::from_millis(3));

        let topo = live.topology().clone();
        let cl_v = causal_violations(&cl_shadow, &topo);
        let skew_v = causal_violations(&skew_shadow, &topo);
        cl_total += cl_v;
        skew_total += skew_v;
        inflight_total += m.in_flight;
        trials += 1;
        table.row(json!([trial, lead.as_millis(), m.in_flight, cl_v, skew_v]));
    }
    table.row(json!([
        format!("total of {trials}"),
        None::<u64>,
        inflight_total,
        cl_total,
        skew_total,
    ]));
    table.print();

    assert_eq!(
        cl_total, 0,
        "consistent snapshots must have zero causal violations"
    );
    assert!(
        skew_total > 0,
        "uncoordinated snapshots must show causal violations, or the ablation measures nothing"
    );
    maybe_write_json(&[&table], &[]);
}
