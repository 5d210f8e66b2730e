//! Consistent distributed snapshots (Chandy–Lamport) and the resulting
//! *shadow snapshots* DiCE explores over.
//!
//! The marker protocol runs in-band through the same FIFO channels as data
//! (see [`crate::sim::Simulator::start_snapshot`]); this module holds the
//! bookkeeping state machine and the completed snapshot artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::node::{Node, NodeId};
use crate::time::SimTime;
use crate::topology::Topology;

/// Identifier of a snapshot within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotId(pub u32);

/// Progress report for an in-flight snapshot.
pub enum SnapshotProgress {
    /// Markers are still propagating.
    InProgress,
    /// The snapshot completed; here is the artifact.
    Complete(Box<ShadowSnapshot>),
    /// The snapshot cannot complete (marker lost, node crashed, ...).
    Failed(String),
}

/// The established sessions of `topo` as `(lower, higher)` node pairs, in
/// edge order; `up(e)` says whether the session over edge `e` is up.
pub(crate) fn sessions_up(topo: &Topology, up: impl Fn(usize) -> bool) -> Vec<(NodeId, NodeId)> {
    topo.edges()
        .iter()
        .enumerate()
        .filter(|&(e, _)| up(e))
        .map(|(_, edge)| (edge.a.min(edge.b), edge.a.max(edge.b)))
        .collect()
}

/// Chandy–Lamport bookkeeping for one snapshot.
pub(crate) struct SnapshotState {
    members: BTreeSet<NodeId>,
    /// Directed channels that must be drained by a marker. Symmetric by
    /// construction — `(n, m)` is in scope iff `(m, n)` is — so the range
    /// `(n, _)` names both the outgoing and the incoming channels of `n`.
    channels: BTreeSet<(NodeId, NodeId)>,
    /// Channels whose marker has arrived.
    done: BTreeSet<(NodeId, NodeId)>,
    /// Recorded node checkpoints, shared copy-on-write with any clones
    /// later materialized from the snapshot.
    nodes: BTreeMap<NodeId, Arc<dyn Node>>,
    /// Channel contents observed between `record_node(dst)` and the marker.
    recorded: BTreeMap<(NodeId, NodeId), Vec<Vec<u8>>>,
    sessions_up: Vec<(NodeId, NodeId)>,
    started_at: SimTime,
    failure: Option<String>,
    complete: bool,
}

impl SnapshotState {
    /// Scope a snapshot to the session-connected component of `initiator`:
    /// its members, both directions of every up session among them, and
    /// the up sessions of the whole topology (in edge order). `up(e)` says
    /// whether the session over edge index `e` is established.
    pub(crate) fn new(
        initiator: NodeId,
        topo: &Topology,
        up: impl Fn(usize) -> bool,
        started_at: SimTime,
    ) -> Self {
        let mut members = BTreeSet::new();
        let mut stack = vec![initiator];
        members.insert(initiator);
        while let Some(n) = stack.pop() {
            for (e, m) in topo.incident(n) {
                if up(e) && members.insert(m) {
                    stack.push(m);
                }
            }
        }
        // Every up edge inside the component is seen from both endpoints.
        let channels = members
            .iter()
            .flat_map(|&n| {
                let up = &up;
                topo.incident(n)
                    .filter(move |&(e, _)| up(e))
                    .map(move |(_, m)| (n, m))
            })
            .collect();
        let sessions_up = sessions_up(topo, &up);
        SnapshotState {
            members,
            channels,
            done: BTreeSet::new(),
            nodes: BTreeMap::new(),
            recorded: BTreeMap::new(),
            sessions_up,
            started_at,
            failure: None,
            complete: false,
        }
    }

    pub(crate) fn is_marked(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n)
    }

    /// Peers of `n` over in-scope channels, ascending: O(log E + degree).
    fn peers_of(
        channels: &BTreeSet<(NodeId, NodeId)>,
        n: NodeId,
    ) -> impl Iterator<Item = NodeId> + '_ {
        channels
            .range((n, NodeId(0))..=(n, NodeId(u32::MAX)))
            .map(|&(_, m)| m)
    }

    pub(crate) fn record_node(&mut self, n: NodeId, state: Arc<dyn Node>) {
        self.nodes.insert(n, state);
        // Start recording every incoming member channel of n.
        for m in Self::peers_of(&self.channels, n) {
            self.recorded.entry((m, n)).or_default();
        }
    }

    /// Outgoing member channels of `n` (marker fan-out set).
    pub(crate) fn outgoing_of(&self, n: NodeId) -> Vec<NodeId> {
        Self::peers_of(&self.channels, n).collect()
    }

    /// Marker arrived on `src -> dst` and `dst` was just recorded: channel
    /// state is empty by the CL rule.
    pub(crate) fn channel_done_empty(&mut self, src: NodeId, dst: NodeId) {
        self.recorded.insert((src, dst), Vec::new());
        self.done.insert((src, dst));
    }

    /// Marker arrived on `src -> dst` for an already-marked `dst`: whatever
    /// was observed since the mark is the channel state.
    pub(crate) fn channel_done_recorded(&mut self, src: NodeId, dst: NodeId) {
        self.done.insert((src, dst));
    }

    /// A data frame was delivered on `src -> dst`; if that channel is being
    /// recorded and not yet drained, it belongs to the channel state.
    pub(crate) fn observe(&mut self, src: NodeId, dst: NodeId, bytes: &[u8]) {
        if self.is_terminal() {
            return;
        }
        if self.done.contains(&(src, dst)) || !self.channels.contains(&(src, dst)) {
            return;
        }
        if self.is_marked(dst) {
            self.recorded
                .entry((src, dst))
                .or_default()
                .push(bytes.to_vec());
        }
    }

    pub(crate) fn channel_reset(&mut self, a: NodeId, b: NodeId) {
        if self.is_terminal() {
            return;
        }
        for dir in [(a, b), (b, a)] {
            if self.channels.contains(&dir) && !self.done.contains(&dir) {
                self.fail(format!(
                    "channel {}->{} reset during snapshot",
                    dir.0, dir.1
                ));
                return;
            }
        }
    }

    pub(crate) fn node_crashed(&mut self, n: NodeId) {
        if !self.is_terminal() && self.members.contains(&n) && !self.is_marked(n) {
            self.fail(format!("member {n} crashed before checkpointing"));
        }
    }

    pub(crate) fn fail(&mut self, why: String) {
        if self.failure.is_none() && !self.complete {
            self.failure = Some(why);
        }
    }

    pub(crate) fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    pub(crate) fn all_done(&self) -> bool {
        self.failure.is_none()
            && self.nodes.len() == self.members.len()
            && self.done.len() == self.channels.len()
    }

    pub(crate) fn complete(&mut self) {
        self.complete = true;
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    pub(crate) fn is_terminal(&self) -> bool {
        self.complete || self.failure.is_some()
    }

    pub(crate) fn into_shadow(self) -> ShadowSnapshot {
        debug_assert!(self.complete);
        let in_flight = self
            .recorded
            .into_iter()
            .filter(|(_, msgs)| !msgs.is_empty())
            .map(|((src, dst), msgs)| (src, dst, msgs))
            .collect();
        ShadowSnapshot::new(self.started_at, self.nodes, in_flight, self.sessions_up)
    }
}

/// A completed consistent snapshot: cloned node states, the messages that
/// were in flight, and which sessions were up. This is the unit DiCE clones
/// and explores over, in isolation from the live system.
///
/// Node checkpoints live behind `Arc<dyn Node>` and are shared
/// **copy-on-write** with every simulator materialized from the snapshot:
/// cloning a `ShadowSnapshot` (or instantiating it with
/// [`Simulator::from_shadow`]) only bumps reference counts, and a node's
/// state is deep-copied (`clone_node`) the first time a clone actually
/// mutates it. A validation clone that quiesces after touching three of
/// 27 routers pays for three checkpoint copies, not 27.
///
/// [`Simulator::from_shadow`]: crate::sim::Simulator::from_shadow
pub struct ShadowSnapshot {
    /// Process-unique, minted per constructed (or cloned) snapshot.
    id: u64,
    base_time: SimTime,
    nodes: BTreeMap<NodeId, Arc<dyn Node>>,
    in_flight: Vec<(NodeId, NodeId, Vec<Vec<u8>>)>,
    sessions_up: Vec<(NodeId, NodeId)>,
}

impl ShadowSnapshot {
    pub(crate) fn new(
        base_time: SimTime,
        nodes: BTreeMap<NodeId, Arc<dyn Node>>,
        in_flight: Vec<(NodeId, NodeId, Vec<Vec<u8>>)>,
        sessions_up: Vec<(NodeId, NodeId)>,
    ) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ShadowSnapshot {
            // Relaxed: the counter publishes nothing but its own value.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            base_time,
            nodes,
            in_flight,
            sessions_up,
        }
    }

    /// Assemble a snapshot from hand-collected parts. Exists for
    /// experiments that build deliberately *inconsistent* (uncoordinated)
    /// snapshots to quantify what the Chandy–Lamport protocol buys.
    pub fn from_parts(
        base_time: SimTime,
        nodes: BTreeMap<NodeId, Box<dyn Node>>,
        in_flight: Vec<(NodeId, NodeId, Vec<Vec<u8>>)>,
        sessions_up: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let nodes = nodes.into_iter().map(|(k, v)| (k, Arc::from(v))).collect();
        Self::new(base_time, nodes, in_flight, sessions_up)
    }

    /// This snapshot's identity: unique among all snapshots this process
    /// has built, never reused (unlike its address) and fixed for its
    /// immutable lifetime — a simulator that remembers the id of the
    /// snapshot it is bound to can tell "the same snapshot again" from "a
    /// different one" without comparing contents. A clone gets its own.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Simulated time at which the snapshot was initiated.
    pub fn base_time(&self) -> SimTime {
        self.base_time
    }

    /// The recorded node checkpoints (shared copy-on-write).
    pub fn nodes(&self) -> &BTreeMap<NodeId, Arc<dyn Node>> {
        &self.nodes
    }

    /// Messages in flight per directed channel.
    pub fn in_flight(&self) -> &[(NodeId, NodeId, Vec<Vec<u8>>)] {
        &self.in_flight
    }

    /// Sessions that were up at snapshot time.
    pub fn sessions_up(&self) -> &[(NodeId, NodeId)] {
        &self.sessions_up
    }

    /// Number of checkpointed nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total in-flight messages captured as channel state.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.iter().map(|(_, _, m)| m.len()).sum()
    }

    /// Approximate checkpoint footprint: node state sizes plus channel bytes.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self.nodes.values().map(|n| n.state_size()).sum();
        let chan_bytes: usize = self
            .in_flight
            .iter()
            .flat_map(|(_, _, msgs)| msgs.iter().map(|m| m.len()))
            .sum();
        node_bytes + chan_bytes
    }

    /// Move this snapshot behind an [`Arc`] for zero-copy sharing across
    /// worker threads.
    ///
    /// A `ShadowSnapshot` is immutable after the Chandy–Lamport pass
    /// completes, and [`Node`] requires `Send + Sync`, so one snapshot can
    /// back any number of concurrent [`Simulator::from_shadow`]
    /// instantiations — the enabling primitive for campaign engines that
    /// run whole exploration rounds in parallel over a single consistent
    /// checkpoint. No node state is copied until a clone materializes.
    ///
    /// [`Simulator::from_shadow`]: crate::sim::Simulator::from_shadow
    pub fn into_shared(self) -> std::sync::Arc<ShadowSnapshot> {
        std::sync::Arc::new(self)
    }
}

// Shared-snapshot parallelism relies on these bounds; keep them guaranteed
// at compile time (a `!Sync` field sneaking into a node checkpoint would
// otherwise only fail at the distant campaign call site).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShadowSnapshot>();
};

impl Clone for ShadowSnapshot {
    fn clone(&self) -> Self {
        // Checkpoints are immutable behind `Arc`, so a snapshot clone is a
        // reference-count bump per node — the deep copy happens lazily,
        // per node, only when a materialized simulator mutates it.
        ShadowSnapshot::new(
            self.base_time,
            self.nodes.clone(),
            self.in_flight.clone(),
            self.sessions_up.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::{NodeApi, SessionEvent};
    use crate::sim::Simulator;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::Topology;
    use core::any::Any;

    /// A node that keeps a running counter of all bytes it has received and
    /// relays each message to its other neighbors (flooding).
    #[derive(Clone, Default)]
    struct Acc {
        sum: u64,
        neighbors: Vec<NodeId>,
    }

    impl Node for Acc {
        fn on_session(&mut self, peer: NodeId, ev: SessionEvent, _: &mut NodeApi<'_>) {
            if matches!(ev, SessionEvent::Up) && !self.neighbors.contains(&peer) {
                self.neighbors.push(peer);
            }
        }
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
            self.sum += data.iter().map(|&b| b as u64).sum::<u64>();
            if data[0] > 0 {
                let fwd = vec![data[0] - 1];
                for &n in &self.neighbors {
                    if n != from {
                        api.send(n, fwd.clone());
                    }
                }
            }
        }
        fn clone_node(&self) -> Box<dyn Node> {
            Box::new(self.clone())
        }
        fn state_size(&self) -> usize {
            8 + self.neighbors.len() * 4
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ring_sim(n: usize, seed: u64) -> Simulator {
        let topo = Topology::ring(n, LinkParams::fixed(SimDuration::from_millis(10)));
        let mut sim = Simulator::new(topo, seed);
        for i in 0..n {
            sim.set_node(NodeId(i as u32), Box::new(Acc::default()));
        }
        sim.start();
        sim
    }

    #[test]
    fn snapshot_completes_on_quiet_ring() {
        let mut sim = ring_sim(5, 1);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let id = sim.start_snapshot(NodeId(0));
        sim.run_until(SimTime::from_nanos(3_000_000_000));
        match sim.poll_snapshot(id) {
            SnapshotProgress::Complete(shadow) => {
                assert_eq!(shadow.node_count(), 5);
                assert_eq!(
                    shadow.in_flight_count(),
                    0,
                    "quiet ring has nothing in flight"
                );
            }
            SnapshotProgress::InProgress => panic!("snapshot did not complete"),
            SnapshotProgress::Failed(e) => panic!("snapshot failed: {e}"),
        }
    }

    #[test]
    fn snapshot_captures_in_flight_traffic() {
        let mut sim = ring_sim(4, 2);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        // Kick off a long flood, then snapshot mid-flight.
        sim.deliver_direct(NodeId(1), NodeId(0), &[60]);
        sim.run_for(SimDuration::from_millis(35));
        let id = sim.start_snapshot(NodeId(0));
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        match sim.poll_snapshot(id) {
            SnapshotProgress::Complete(shadow) => {
                assert_eq!(shadow.node_count(), 4);
                // Global invariant: checkpointed sums + in-flight messages
                // must be consistent — replaying the shadow reaches the same
                // final total as the live run.
                let live_total: u64 = (0..4)
                    .map(|i| {
                        sim.node(NodeId(i))
                            .as_any()
                            .downcast_ref::<Acc>()
                            .unwrap()
                            .sum
                    })
                    .sum::<u64>();
                let mut replay = Simulator::from_shadow(&shadow, sim.topology(), 99);
                replay.run_until(SimTime::from_nanos(60_000_000_000));
                sim.run_until(SimTime::from_nanos(60_000_000_000));
                let live_final: u64 = (0..4)
                    .map(|i| {
                        sim.node(NodeId(i))
                            .as_any()
                            .downcast_ref::<Acc>()
                            .unwrap()
                            .sum
                    })
                    .sum();
                let replay_final: u64 = (0..4)
                    .map(|i| {
                        replay
                            .node(NodeId(i))
                            .as_any()
                            .downcast_ref::<Acc>()
                            .unwrap()
                            .sum
                    })
                    .sum();
                assert!(replay_final >= live_total);
                assert_eq!(
                    replay_final, live_final,
                    "consistent snapshot must replay to the live outcome"
                );
            }
            SnapshotProgress::InProgress => panic!("snapshot did not complete"),
            SnapshotProgress::Failed(e) => panic!("snapshot failed: {e}"),
        }
    }

    #[test]
    fn snapshot_fails_on_session_reset() {
        let mut sim = ring_sim(4, 3);
        sim.run_until(SimTime::from_nanos(500_000_000));
        let id = sim.start_snapshot(NodeId(0));
        // Reset a session before markers can drain.
        sim.inject_session_reset(NodeId(2), NodeId(3));
        sim.run_until(SimTime::from_nanos(3_000_000_000));
        match sim.poll_snapshot(id) {
            SnapshotProgress::Failed(_) => {}
            SnapshotProgress::Complete(_) => {
                panic!("snapshot should fail when a member channel resets mid-protocol")
            }
            SnapshotProgress::InProgress => panic!("snapshot stuck"),
        }
    }

    #[test]
    fn shadow_clone_is_deep() {
        let mut sim = ring_sim(3, 4);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let shadow = sim.instant_snapshot();
        let clone = shadow.clone();
        assert_eq!(clone.node_count(), shadow.node_count());
        assert_eq!(clone.base_time(), shadow.base_time());
        // Mutating a simulator built from one clone must not affect another.
        let topo = sim.topology().clone();
        let mut s1 = Simulator::from_shadow(&clone, &topo, 5);
        s1.deliver_direct(NodeId(1), NodeId(0), &[3]);
        let s2 = Simulator::from_shadow(&shadow, &topo, 5);
        let a0 = s1
            .node(NodeId(0))
            .as_any()
            .downcast_ref::<Acc>()
            .unwrap()
            .sum;
        let b0 = s2
            .node(NodeId(0))
            .as_any()
            .downcast_ref::<Acc>()
            .unwrap()
            .sum;
        assert!(a0 > b0);
    }

    #[test]
    fn shared_snapshot_instantiates_concurrently() {
        // One Arc'd snapshot, many simultaneous `from_shadow` clones: every
        // clone must replay to the same deterministic outcome without the
        // snapshot being copied per thread.
        let mut sim = ring_sim(4, 8);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        sim.deliver_direct(NodeId(1), NodeId(0), &[40]);
        sim.run_for(SimDuration::from_millis(25));
        let shadow = sim.instant_snapshot().into_shared();
        let topo = sim.topology().clone();

        let totals: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let shadow = std::sync::Arc::clone(&shadow);
                    let topo = &topo;
                    s.spawn(move || {
                        let mut clone = Simulator::from_shadow(&shadow, topo, 17);
                        clone.run_until(SimTime::from_nanos(60_000_000_000));
                        (0..4)
                            .map(|i| {
                                clone
                                    .node(NodeId(i))
                                    .as_any()
                                    .downcast_ref::<Acc>()
                                    .unwrap()
                                    .sum
                            })
                            .sum::<u64>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(totals[0] > 0, "flood replays in the clones");
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "concurrent clones are deterministic: {totals:?}"
        );
    }

    /// The scope a snapshot of `topo` from `initiator` gets when exactly
    /// the edges in `up` carry an established session.
    fn scoped(topo: &Topology, up: &[bool], initiator: NodeId) -> SnapshotState {
        SnapshotState::new(initiator, topo, |e| up[e], SimTime::ZERO)
    }

    proptest::proptest! {
        /// The O(degree) range scans name exactly the channels the
        /// whole-set filter (the pre-refactor implementation, kept here
        /// as the oracle) does, for every node of random topologies with
        /// a random subset of sessions down — including nodes outside
        /// the initiator's component.
        #[test]
        fn degree_scans_match_the_whole_set_filter(
            n in 2usize..24,
            graph_seed in 0u64..10_000,
            down in proptest::collection::vec(0usize..1000, 0..40),
            initiator in 0usize..24,
        ) {
            let mut rng = crate::rng::SimRng::seed_from_u64(graph_seed);
            let params = crate::topology::InternetParams {
                tier1: 2.min(n),
                peering_prob: 0.2,
                ..Default::default()
            };
            let topo = Topology::internet_like(n, &params, &mut rng);
            let mut up = vec![true; topo.edges().len()];
            for d in down {
                if !up.is_empty() {
                    let e = d % up.len();
                    up[e] = false;
                }
            }
            let st = scoped(&topo, &up, NodeId((initiator % n) as u32));

            // Symmetry is what lets one range serve both directions.
            for &(a, b) in &st.channels {
                proptest::prop_assert!(st.channels.contains(&(b, a)));
            }
            for node in topo.node_ids() {
                let outgoing: Vec<NodeId> = st
                    .channels
                    .iter()
                    .filter(|(src, _)| *src == node)
                    .map(|(_, dst)| *dst)
                    .collect();
                proptest::prop_assert_eq!(st.outgoing_of(node), outgoing);

                let incoming: Vec<(NodeId, NodeId)> = st
                    .channels
                    .iter()
                    .filter(|(_, dst)| *dst == node)
                    .copied()
                    .collect();
                let mut rec = scoped(&topo, &up, NodeId((initiator % n) as u32));
                rec.record_node(node, Arc::new(Acc::default()));
                proptest::prop_assert_eq!(
                    rec.recorded.keys().copied().collect::<Vec<_>>(),
                    incoming
                );
            }
        }
    }

    #[test]
    fn instant_snapshot_counts_bytes() {
        let mut sim = ring_sim(3, 5);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let shadow = sim.instant_snapshot();
        assert!(shadow.approx_bytes() > 0, "Acc nodes report state size");
    }
}
