//! Consistent distributed snapshots (Chandy–Lamport) and the resulting
//! *shadow snapshots* DiCE explores over.
//!
//! The marker protocol runs in-band through the same FIFO channels as data
//! (see [`crate::sim::Simulator::start_snapshot`]); this module holds the
//! bookkeeping state machine and the completed snapshot artifact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::node::{Node, NodeId};
use crate::time::SimTime;
use crate::topology::Topology;

#[cfg(test)]
mod oracle;

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

/// A link direction's part in a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chan {
    /// Not between two members over an up session: no marker, no state.
    Outside,
    /// In scope; its marker has not arrived. While its destination is
    /// marked, what it delivers is channel state.
    Open,
    /// Its marker has arrived: the channel state is final.
    Drained,
}

/// Chandy–Lamport bookkeeping for one snapshot, indexed by node and by
/// link direction (`2 * edge + side`, as the simulator's link table is):
/// no lookup is a search and no step allocates but the ones that copy a
/// recorded frame.
pub(crate) struct SnapshotState {
    /// Per node: in the initiator's session-connected component.
    member: Vec<bool>,
    /// Per node: its recorded checkpoint (`Some` once marked), shared
    /// copy-on-write with any clones later materialized from the snapshot.
    nodes: Vec<Option<Arc<dyn Node>>>,
    /// Per link direction: its part in the cut.
    chans: Vec<Chan>,
    /// Node `n`'s in-scope channels as `(peer, n -> peer direction)`,
    /// ascending by peer — the marker fan-out order — at
    /// `fanout[fan_start[n]..fan_start[n + 1]]`.
    fanout: Vec<(NodeId, u32)>,
    fan_start: Vec<u32>,
    /// Members not yet marked, and in-scope directions not yet drained:
    /// the cut is done when both are zero.
    unmarked: usize,
    open: usize,
    /// Frames delivered on an open channel into a marked node, as
    /// `(direction, payload)` in arrival order; grouped per channel only
    /// by [`SnapshotState::into_shadow`].
    recorded: Vec<(u32, Vec<u8>)>,
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
        let mut member = vec![false; topo.len()];
        let mut members = 1;
        member[initiator.index()] = true;
        let mut stack = Vec::with_capacity(topo.len());
        stack.push(initiator);
        while let Some(n) = stack.pop() {
            for (e, m) in topo.incident(n) {
                if up(e) && !member[m.index()] {
                    member[m.index()] = true;
                    members += 1;
                    stack.push(m);
                }
            }
        }
        // Every up edge inside the component is seen from both endpoints.
        let mut chans = vec![Chan::Outside; 2 * topo.edges().len()];
        let mut fanout = Vec::with_capacity(chans.len());
        let mut fan_start = Vec::with_capacity(topo.len() + 1);
        for n in topo.node_ids() {
            let from = fanout.len();
            fan_start.push(from as u32);
            if member[n.index()] {
                for (e, m) in topo.incident(n) {
                    if up(e) {
                        let dir = topo.direction(e, n);
                        chans[dir] = Chan::Open;
                        fanout.push((m, dir as u32));
                    }
                }
                fanout[from..].sort_unstable_by_key(|&(m, _)| m);
            }
        }
        fan_start.push(fanout.len() as u32);
        SnapshotState {
            member,
            nodes: vec![None; topo.len()],
            chans,
            unmarked: members,
            open: fanout.len(),
            fanout,
            fan_start,
            recorded: Vec::new(),
            sessions_up: sessions_up(topo, &up),
            started_at,
            failure: None,
            complete: false,
        }
    }

    pub(crate) fn is_marked(&self, n: NodeId) -> bool {
        self.nodes[n.index()].is_some()
    }

    /// Mark `n` with its checkpoint: from here on its open incoming
    /// channels record what they deliver.
    pub(crate) fn record_node(&mut self, n: NodeId, state: Arc<dyn Node>) {
        if self.nodes[n.index()].replace(state).is_none() {
            self.unmarked -= 1;
        }
    }

    /// `n`'s in-scope channels as `(peer, n -> peer direction)`, ascending
    /// by peer: where its markers go, in the order they are sent.
    pub(crate) fn fanout(&self, n: NodeId) -> &[(NodeId, u32)] {
        let i = n.index();
        &self.fanout[self.fan_start[i] as usize..self.fan_start[i + 1] as usize]
    }

    /// The marker arrived on direction `dir`. Arriving first at its
    /// destination, it drains a channel that recorded nothing (the CL
    /// rule); later, whatever was observed since the mark is the state.
    pub(crate) fn channel_done(&mut self, dir: usize) {
        if self.chans[dir] == Chan::Open {
            self.chans[dir] = Chan::Drained;
            self.open -= 1;
        }
    }

    /// A data frame was delivered on direction `dir` into `dst`; if that
    /// channel is being recorded and not yet drained, it belongs to the
    /// channel state.
    pub(crate) fn observe(&mut self, dir: usize, dst: NodeId, bytes: &[u8]) {
        if !self.is_terminal() && self.chans[dir] == Chan::Open && self.is_marked(dst) {
            self.recorded.push((dir as u32, bytes.to_vec()));
        }
    }

    /// The session `a`-`b` was torn down; `ab` is its `a -> b` direction.
    /// An undrained channel of it fails the cut (the state it was
    /// recording is gone), `a -> b` named first.
    pub(crate) fn channel_reset(&mut self, ab: usize, a: NodeId, b: NodeId) {
        if self.is_terminal() {
            return;
        }
        for (dir, src, dst) in [(ab, a, b), (ab ^ 1, b, a)] {
            if self.chans[dir] == Chan::Open {
                self.fail(format!("channel {src}->{dst} reset during snapshot"));
                return;
            }
        }
    }

    pub(crate) fn node_crashed(&mut self, n: NodeId) {
        if !self.is_terminal() && self.member[n.index()] && !self.is_marked(n) {
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
        self.failure.is_none() && self.unmarked == 0 && self.open == 0
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

    /// The shadow: checkpoints by node id, and the recorded frames
    /// grouped per channel in `(src, dst)` order, each channel's in
    /// arrival order — the order a clone re-sends them in.
    pub(crate) fn into_shadow(self, topo: &Topology) -> ShadowSnapshot {
        debug_assert!(self.complete);
        let nodes = (self.nodes.into_iter().enumerate())
            .filter_map(|(i, n)| Some((NodeId(i as u32), n?)))
            .collect();
        let mut recorded = self.recorded;
        recorded.sort_by_key(|&(dir, _)| topo.endpoints(dir as usize));
        let mut in_flight: Vec<(NodeId, NodeId, Vec<Vec<u8>>)> = Vec::new();
        for (dir, bytes) in recorded {
            let (src, dst) = topo.endpoints(dir as usize);
            match in_flight.last_mut() {
                Some((s, d, msgs)) if (*s, *d) == (src, dst) => msgs.push(bytes),
                _ => in_flight.push((src, dst, vec![bytes])),
            }
        }
        ShadowSnapshot::new(self.started_at, nodes, in_flight, self.sessions_up)
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

    /// A direction-indexed cut and the ordered-set oracle, driven in step.
    struct Twin {
        topo: Topology,
        new: SnapshotState,
        old: oracle::SnapshotState,
        /// Directions a marker is in flight on (one marker per direction).
        markers: Vec<usize>,
    }

    impl Twin {
        fn new(topo: Topology, up: &[bool], initiator: NodeId) -> Self {
            let new = SnapshotState::new(initiator, &topo, |e| up[e], SimTime::ZERO);
            let old = oracle::SnapshotState::new(initiator, &topo, |e| up[e], SimTime::ZERO);
            let mut twin = Twin {
                topo,
                new,
                old,
                markers: Vec::new(),
            };
            twin.mark(initiator);
            twin.finalize();
            twin
        }

        /// As `Simulator::finalize_snapshot_if_done`.
        fn finalize(&mut self) {
            if self.new.all_done() {
                self.new.complete();
                self.old.complete();
            }
        }

        /// Record `n` in both (one checkpoint `Arc`) and send its markers,
        /// after checking that both fan out the same way.
        fn mark(&mut self, n: NodeId) {
            let ckpt: Arc<dyn Node> = Arc::new(Acc::default());
            self.new.record_node(n, Arc::clone(&ckpt));
            self.old.record_node(n, ckpt);
            let fanout = self.new.fanout(n);
            let peers: Vec<NodeId> = fanout.iter().map(|&(m, _)| m).collect();
            assert_eq!(peers, self.old.outgoing_of(n), "fan-out of {n}");
            for &(m, dir) in fanout {
                assert_eq!(
                    self.topo.endpoints(dir as usize),
                    (n, m),
                    "direction of {n}->{m}"
                );
                self.markers.push(dir as usize);
            }
        }

        /// The marker on `dir` arrives, as `Simulator::snapshot_on_marker`
        /// handles it.
        fn marker(&mut self, dir: usize) {
            let (src, dst) = self.topo.endpoints(dir);
            if self.new.is_terminal() {
                return;
            }
            if self.new.is_marked(dst) {
                self.new.channel_done(dir);
                self.old.channel_done_recorded(src, dst);
            } else {
                self.new.channel_done(dir);
                self.old.channel_done_empty(src, dst);
                self.mark(dst);
            }
            self.finalize();
        }

        /// The session over edge `e` resets, torn down from `a`'s side:
        /// its markers are lost first, as `teardown_session` drains them.
        fn reset(&mut self, e: usize, from_b: bool) {
            let edge = &self.topo.edges()[e];
            let (a, b) = if from_b {
                (edge.b, edge.a)
            } else {
                (edge.a, edge.b)
            };
            let before = self.markers.len();
            self.markers.retain(|&d| d / 2 != e);
            if self.markers.len() < before {
                let why = format!("marker lost on session reset {a}-{b}");
                self.new.fail(why.clone());
                self.old.fail(why);
            }
            self.new.channel_reset(self.topo.direction(e, a), a, b);
            self.old.channel_reset(a, b);
        }

        fn assert_agree(&self) {
            for n in self.topo.node_ids() {
                assert_eq!(self.new.is_marked(n), self.old.is_marked(n), "marked {n}");
            }
            assert_eq!(self.new.all_done(), self.old.all_done(), "all_done");
            assert_eq!(self.new.failure(), self.old.failure(), "failure");
            assert_eq!(self.new.is_complete(), self.old.is_complete(), "complete");
        }

        fn assert_same_shadow(self) {
            if !self.new.is_complete() {
                return;
            }
            let new = self.new.into_shadow(&self.topo);
            let old = self.old.into_shadow();
            let ids = |s: &ShadowSnapshot| s.nodes().keys().copied().collect::<Vec<_>>();
            assert_eq!(ids(&new), ids(&old), "checkpointed nodes");
            for (n, ckpt) in new.nodes() {
                assert!(Arc::ptr_eq(ckpt, &old.nodes()[n]), "checkpoint of {n}");
            }
            assert_eq!(new.in_flight(), old.in_flight(), "channel state");
            assert_eq!(new.sessions_up(), old.sessions_up(), "sessions up");
            assert_eq!(new.base_time(), old.base_time());
        }
    }

    proptest::proptest! {
        /// The direction-indexed bookkeeping equals the ordered-set one it
        /// replaced (`snapshot/oracle.rs`) on random internet-like and
        /// full-mesh topologies with random sessions down, from a random
        /// initiator, under random interleavings of marker arrivals, data
        /// deliveries on any direction (in scope or not), session resets
        /// and crashes; then the markers still in flight land. After every
        /// step: the same marked nodes, `all_done`, failure text and
        /// completion; per marked node the same fan-out, in the same order;
        /// at the end the same shadow (checkpoints, channel state in
        /// `(src, dst)` then arrival order, sessions up).
        ///
        /// To see it fail: in `SnapshotState::new`, drop the
        /// `sort_unstable_by_key` so a node fans out in `incident` order,
        /// not by peer id — "fan-out of n…" on the first internet-like
        /// topology whose adjacency is not sorted.
        #[test]
        fn direction_indexed_cut_matches_the_btree_oracle(
            n in 2usize..24,
            mesh in proptest::prelude::any::<bool>(),
            graph_seed in 0u64..10_000,
            down in proptest::collection::vec(0usize..1000, 0..12),
            initiator in 0usize..24,
            steps in proptest::collection::vec((0u8..100, 0usize..10_000), 0..200),
        ) {
            let topo = if mesh {
                Topology::full_mesh(n.min(10), LinkParams::fixed(SimDuration::from_millis(1)))
            } else {
                let mut rng = crate::rng::SimRng::seed_from_u64(graph_seed);
                let params = crate::topology::InternetParams {
                    tier1: 2.min(n),
                    peering_prob: 0.2,
                    ..Default::default()
                };
                Topology::internet_like(n, &params, &mut rng)
            };
            let (nodes, edges) = (topo.len(), topo.edges().len());
            let mut up = vec![true; edges];
            for d in down {
                if edges > 0 {
                    up[d % edges] = false;
                }
            }
            let mut twin = Twin::new(topo, &up, NodeId((initiator % nodes) as u32));
            twin.assert_agree();
            let mut payload = 0u32;
            for (kind, pick) in steps {
                match kind {
                    0..=49 if !twin.markers.is_empty() => {
                        let dir = twin.markers.remove(pick % twin.markers.len());
                        twin.marker(dir);
                    }
                    50..=95 if edges > 0 => {
                        let dir = pick % (2 * edges);
                        let (_, dst) = twin.topo.endpoints(dir);
                        payload += 1;
                        let bytes = payload.to_be_bytes();
                        twin.new.observe(dir, dst, &bytes);
                        let (src, dst) = twin.topo.endpoints(dir);
                        twin.old.observe(src, dst, &bytes);
                    }
                    96..=97 if edges > 0 => twin.reset(pick % edges, pick % 2 == 1),
                    98..=99 => {
                        let n = NodeId((pick % nodes) as u32);
                        twin.new.node_crashed(n);
                        twin.old.node_crashed(n);
                    }
                    _ => {}
                }
                twin.assert_agree();
            }
            while !twin.markers.is_empty() {
                let dir = twin.markers.remove(0);
                twin.marker(dir);
                twin.assert_agree();
            }
            twin.assert_same_shadow();
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
