//! What a cut records: delta checkpoints of node state, the Chandy–Lamport
//! marker protocol over the live channels, and the instant (god-mode) cut.
//! The per-snapshot bookkeeping is [`SnapshotState`]; the completed
//! artifact is [`ShadowSnapshot`].

use std::collections::BTreeMap;
use std::sync::Arc;

use super::channel::{Frame, SessionState};
use super::{NodeState, Simulator};
use crate::node::{Node, NodeId};
use crate::snapshot::{self, ShadowSnapshot, SnapshotId, SnapshotProgress, SnapshotState};

/// Drainable counters for the delta-snapshot capture path and the dynamics
/// schedule, in the same take-and-zero style as [`WireStats`](crate::buf::WireStats)
/// (see [`Simulator::take_snapshot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Bytes of node state newly captured by checkpoints: the nodes whose
    /// slot was owned (mutated since the last cut or bind). A node whose
    /// slot still shared a checkpoint contributes nothing.
    pub delta_bytes: u64,
    /// Nodes whose slot was owned at their checkpoint (re-captured).
    pub nodes_recaptured: u64,
    /// Nodes whose slot still shared a checkpoint, served as is.
    pub nodes_cached: u64,
    /// Dynamics-schedule actions applied (partitions, heals, joins, leaves).
    pub churn_events: u64,
}

impl SnapshotStats {
    /// Fold another drained sample into this one.
    pub fn absorb(&mut self, other: SnapshotStats) {
        self.delta_bytes += other.delta_bytes;
        self.nodes_recaptured += other.nodes_recaptured;
        self.nodes_cached += other.nodes_cached;
        self.churn_events += other.churn_events;
    }
}

/// The cuts in progress and their counters. What a node's last checkpoint
/// was lives in its slot ([`NodeState::checkpoint`]), not here.
pub(super) struct Cuts {
    snap_stats: SnapshotStats,
    /// The pending cuts, in id order (a handful at most: a campaign takes
    /// one at a time).
    snapshots: Vec<(SnapshotId, SnapshotState)>,
    next_snapshot: u32,
    /// A marker fan-out being sent (kept for its capacity).
    fanout: Vec<(NodeId, u32)>,
    /// Every checkpoint a cut took, as it stood at that instant, for the
    /// slot-sharing property to check.
    #[cfg(test)]
    taken: Vec<Taken>,
}

/// A checkpoint a cut took: the node, the checkpoint, whether the slot
/// was owned (re-captured) rather than shared, whether the slot shared the
/// checkpoint right after, and a fresh copy of the live node then.
#[cfg(test)]
struct Taken {
    node: NodeId,
    checkpoint: Arc<dyn Node>,
    recaptured: bool,
    slot_shares: bool,
    live: Option<Box<dyn Node>>,
}

impl Cuts {
    pub(super) fn new() -> Self {
        Cuts {
            snap_stats: SnapshotStats::default(),
            snapshots: Vec::new(),
            next_snapshot: 0,
            fanout: Vec::new(),
            #[cfg(test)]
            taken: Vec::new(),
        }
    }

    /// What a rebind leaves of the cuts a previous drive took: nothing.
    pub(super) fn reset(&mut self) {
        self.snapshots.clear();
        self.next_snapshot = 0;
        self.snap_stats = SnapshotStats::default();
    }

    /// One dynamics action applied ([`SnapshotStats::churn_events`]).
    pub(super) fn count_churn(&mut self) {
        self.snap_stats.churn_events += 1;
    }

    /// No cut is pending (in progress, or finished and not yet polled).
    #[inline]
    pub(super) fn idle(&self) -> bool {
        self.snapshots.is_empty()
    }

    fn position(&self, id: SnapshotId) -> Option<usize> {
        self.snapshots.iter().position(|(i, _)| *i == id)
    }

    fn get_mut(&mut self, id: SnapshotId) -> Option<&mut SnapshotState> {
        let i = self.position(id)?;
        Some(&mut self.snapshots[i].1)
    }

    /// Snapshot `id` cannot complete.
    pub(super) fn fail(&mut self, id: SnapshotId, why: String) {
        if let Some(s) = self.get_mut(id) {
            s.fail(why);
        }
    }

    /// The session `a`-`b` was torn down (`ab` is its `a -> b` link
    /// direction): any snapshot still counting on its channels fails (the
    /// channel state it was recording is gone).
    pub(super) fn channel_reset(&mut self, ab: usize, a: NodeId, b: NodeId) {
        for (_, s) in &mut self.snapshots {
            s.channel_reset(ab, a, b);
        }
    }

    /// Node `n` crashed: a snapshot still waiting to checkpoint it fails.
    pub(super) fn node_crashed(&mut self, n: NodeId) {
        for (_, s) in &mut self.snapshots {
            s.node_crashed(n);
        }
    }

    /// The counters.
    #[cfg(test)]
    pub(super) fn digest(&self) -> Vec<String> {
        vec![format!(
            "snap {:?} next {}",
            self.snap_stats, self.next_snapshot
        )]
    }
}

impl Simulator {
    /// Retired and ignored: a cut always serves a still-shared slot's
    /// `Arc`. Every value gave the same simulation by contract, as the
    /// retired `pool_size` config field does; the setter stays only while
    /// `benchmark/src/pipeline.rs` calls it.
    pub fn set_delta_snapshots(&mut self, _on: bool) {}

    /// Drain this simulator's snapshot-delta and dynamics-schedule counters,
    /// resetting them to zero.
    pub fn take_snapshot_stats(&mut self) -> SnapshotStats {
        let out = self.cuts.snap_stats;
        self.cuts.snap_stats = SnapshotStats::default();
        out
    }

    /// The one capture point both kinds of cut funnel through
    /// ([`NodeState::checkpoint`]): a slot still shared since the last cut
    /// or bind serves that `Arc` (the delta chain); an owned one moves its
    /// node behind a new `Arc` and counts as re-captured.
    fn checkpoint_node(&mut self, n: NodeId) -> Option<Arc<dyn Node>> {
        let slot = &mut self.nodes[n.index()].node;
        let recaptured = matches!(slot, NodeState::Owned(_));
        let checkpoint = slot.checkpoint()?;
        if recaptured {
            self.cuts.snap_stats.nodes_recaptured += 1;
            self.cuts.snap_stats.delta_bytes += checkpoint.state_size() as u64;
        } else {
            self.cuts.snap_stats.nodes_cached += 1;
        }
        #[cfg(test)]
        self.cuts.taken.push(Taken {
            node: n,
            checkpoint: Arc::clone(&checkpoint),
            recaptured,
            slot_shares: self
                .shared_checkpoint(n)
                .is_some_and(|shared| Arc::ptr_eq(shared, &checkpoint)),
            live: self.nodes[n.index()]
                .node
                .get()
                .map(|live| live.clone_node()),
        });
        Some(checkpoint)
    }

    /// Initiate a Chandy–Lamport consistent snapshot from `initiator`.
    /// Markers flow through the same FIFO channels as data; poll with
    /// [`Simulator::poll_snapshot`] after running the sim forward.
    pub fn start_snapshot(&mut self, initiator: NodeId) -> SnapshotId {
        let id = SnapshotId(self.cuts.next_snapshot);
        self.cuts.next_snapshot += 1;

        let sessions = &self.sessions;
        let mut st = SnapshotState::new(
            initiator,
            &self.topo,
            |e| sessions[e] == SessionState::Up,
            self.now,
        );

        // Record the initiator immediately and emit markers on its outgoing
        // channels.
        let init_clone = self.checkpoint_node(initiator).expect("initiator missing");
        st.record_node(initiator, init_clone);
        self.cuts.snapshots.push((id, st));
        self.send_markers(id, initiator);
        self.finalize_snapshot_if_done(id);
        id
    }

    /// Give up on snapshot `id` (a caller's deadline passed): its state is
    /// dropped, so link faults are sampled again and no delivered frame is
    /// copied for it. A marker of it still in flight meets an unknown id
    /// on arrival and is ignored.
    pub fn abandon_snapshot(&mut self, id: SnapshotId) {
        if let Some(i) = self.cuts.position(id) {
            self.cuts.snapshots.remove(i);
        }
    }

    /// Fan snapshot `id`'s marker out from `src` on its in-scope channels,
    /// in ascending peer order.
    fn send_markers(&mut self, id: SnapshotId, src: NodeId) {
        let mut fanout = std::mem::take(&mut self.cuts.fanout);
        fanout.clear();
        if let Some(st) = self.cuts.get_mut(id) {
            fanout.extend_from_slice(st.fanout(src));
        }
        for &(_, dir) in &fanout {
            self.send_frame(dir as usize, Frame::Marker(id), true);
        }
        self.cuts.fanout = fanout;
    }

    /// Snapshot `id`'s marker arrived on link direction `dir` into `dst`.
    pub(super) fn snapshot_on_marker(&mut self, id: SnapshotId, dir: usize, dst: NodeId) {
        let first_marker = match self.cuts.get_mut(id) {
            Some(st) if !st.is_terminal() => !st.is_marked(dst),
            _ => return,
        };
        if first_marker {
            // Capture before re-borrowing the snapshot table: the capture
            // needs `&mut self` for the node's slot and the counters.
            let clone = self.checkpoint_node(dst);
            let Some(st) = self.cuts.get_mut(id) else {
                return;
            };
            let Some(clone) = clone else {
                st.fail(format!("node {dst} unavailable at marker"));
                return;
            };
            st.record_node(dst, clone);
            st.channel_done(dir);
            self.send_markers(id, dst);
        } else if let Some(st) = self.cuts.get_mut(id) {
            st.channel_done(dir);
        }
        self.finalize_snapshot_if_done(id);
    }

    /// A data frame was delivered on link direction `dir` into `dst`.
    pub(super) fn snapshot_observe_data(&mut self, dir: usize, dst: NodeId, bytes: &[u8]) {
        for (_, st) in &mut self.cuts.snapshots {
            st.observe(dir, dst, bytes);
        }
    }

    fn finalize_snapshot_if_done(&mut self, id: SnapshotId) {
        if let Some(st) = self.cuts.get_mut(id) {
            if st.all_done() {
                st.complete();
            }
        }
    }

    /// Poll a snapshot's progress; `Complete` yields the shadow snapshot and
    /// removes it from the in-progress table.
    pub fn poll_snapshot(&mut self, id: SnapshotId) -> SnapshotProgress {
        let Some(i) = self.cuts.position(id) else {
            return SnapshotProgress::Failed("unknown snapshot".to_string());
        };
        let st = &self.cuts.snapshots[i].1;
        if st.is_complete() {
            let (_, st) = self.cuts.snapshots.remove(i);
            SnapshotProgress::Complete(Box::new(st.into_shadow(&self.topo)))
        } else if let Some(err) = st.failure() {
            let err = err.to_string();
            self.cuts.snapshots.remove(i);
            SnapshotProgress::Failed(err)
        } else {
            SnapshotProgress::InProgress
        }
    }

    /// God-mode snapshot: clone every node and channel instantly, with no
    /// marker protocol. Used (a) as the per-input cloning primitive once a
    /// consistent snapshot exists and (b) as the *uncoordinated* baseline in
    /// the snapshot-consistency ablation. Nodes untouched since the
    /// previous capture share their `Arc` with it.
    pub fn instant_snapshot(&mut self) -> ShadowSnapshot {
        let mut nodes = BTreeMap::new();
        for i in 0..self.nodes.len() {
            if self.nodes[i].crashed.is_none() {
                if let Some(n) = self.checkpoint_node(NodeId(i as u32)) {
                    nodes.insert(NodeId(i as u32), n);
                }
            }
        }
        let mut in_flight = Vec::new();
        for (dir, msgs) in self.links.data_in_flight() {
            let (src, dst) = self.topo.endpoints(dir);
            in_flight.push((src, dst, msgs));
        }
        // Channel order is part of the replay contract: a clone re-sends
        // in-flight traffic in this order, which fixes event sequence
        // numbers.
        in_flight.sort_by_key(|&(src, dst, _)| (src, dst));
        let sessions_up =
            snapshot::sessions_up(&self.topo, |e| self.sessions[e] == SessionState::Up);
        ShadowSnapshot::new(self.now, nodes, in_flight, sessions_up)
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{
        line_sim, scripted, scripted_ring, unreliable_two_node, Scripted, OP_BURST, OP_CRASH,
        OP_RESET, OP_TIMERS,
    };
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn delta_snapshot_recaptures_only_dirtied_nodes() {
        // Steady state: successive cuts re-clone only nodes touched since
        // the previous cut; everything else shares its Arc with the prior
        // shadow (the delta chain). This is the scale unlock: at 1k+ nodes
        // a campaign round touches a handful of nodes, not all of them.
        let mut sim = line_sim(8, 11);
        sim.run_until_quiet(
            SimDuration::from_millis(200),
            SimTime::from_nanos(30_000_000_000),
        );
        let first = sim.instant_snapshot();
        let s1 = sim.take_snapshot_stats();
        assert_eq!(s1.nodes_recaptured, 8, "first cut captures everything");
        assert!(s1.delta_bytes > 0 || first.node_count() == 8);

        // Touch exactly one node (payload 9 >= max_rounds, so no replies).
        sim.deliver_direct(NodeId(2), NodeId(3), &[9]);
        let second = sim.instant_snapshot();
        let s2 = sim.take_snapshot_stats();
        assert_eq!(
            s2.nodes_recaptured, 1,
            "steady-state cut re-captures only the dirtied node"
        );
        assert_eq!(s2.nodes_cached, 7);
        for i in 0..8u32 {
            let shared = std::sync::Arc::ptr_eq(
                first.nodes().get(&NodeId(i)).unwrap(),
                second.nodes().get(&NodeId(i)).unwrap(),
            );
            assert_eq!(shared, i != 3, "node {i} delta-chain sharing is wrong");
        }
    }

    /// One thing that happens to a live system between, or as, cuts.
    #[derive(Clone, Copy, Debug)]
    enum Act {
        /// `(src, dst, opcode)` delivered directly; `dst` is a ring
        /// neighbour of `src`.
        Deliver(u32, u32, u8),
        /// Run the clock this many milliseconds.
        Run(u64),
        Crash(u32),
        Restart(u32),
        /// Operator-style `node_mut` access.
        Poke(u32),
        InstantCut,
        /// A Chandy–Lamport cut from this initiator, run 100 ms and polled.
        ConsistentCut(u32),
    }

    /// `acts` on a [`scripted_ring`]; then every checkpoint a cut took
    /// must have been, at that instant, the live slot's shared `Arc` and
    /// equal to a fresh copy of the live node, and one taken from a slot
    /// that still shared a checkpoint must be that node's checkpoint in
    /// the previous cut. Returns how many were served from a shared slot,
    /// and how many of those by consistent cuts.
    fn checkpoints_share_the_live_slot(acts: &[Act]) -> (usize, usize) {
        let mut sim = scripted_ring(false, 3);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let served = |sim: &Simulator| sim.cuts.taken.iter().filter(|t| !t.recaptured).count();
        let mut by_markers = 0;
        for &act in acts {
            match act {
                Act::Deliver(src, dst, op) => sim.deliver_direct(NodeId(src), NodeId(dst), &[op]),
                Act::Run(ms) => sim.run_for(SimDuration::from_millis(ms)),
                Act::Crash(n) => sim.inject_node_crash(NodeId(n)),
                Act::Restart(n) => sim.inject_node_restart(NodeId(n)),
                Act::Poke(n) => {
                    let node = sim.node_mut(NodeId(n)).as_any_mut();
                    node.downcast_mut::<Scripted>().unwrap().poked += 1;
                }
                Act::InstantCut => {
                    let _ = sim.instant_snapshot();
                }
                Act::ConsistentCut(n) => {
                    if sim.crashed(NodeId(n)).is_none() {
                        let before = served(&sim);
                        let id = sim.start_snapshot(NodeId(n));
                        sim.run_for(SimDuration::from_millis(100));
                        let _ = sim.poll_snapshot(id);
                        by_markers += served(&sim) - before;
                    }
                }
            }
        }
        let mut previous: BTreeMap<NodeId, &Arc<dyn Node>> = BTreeMap::new();
        for t in &sim.cuts.taken {
            let n = t.node;
            assert!(
                t.slot_shares,
                "node {n}'s slot keeps no checkpoint after {acts:?}"
            );
            assert_eq!(
                Some(scripted(t.checkpoint.as_ref())),
                t.live.as_deref().map(scripted),
                "node {n} after {acts:?}"
            );
            if !t.recaptured {
                // A live node is installed owned, so a slot shares only
                // what an earlier cut took.
                let shared = previous
                    .get(&n)
                    .is_some_and(|p| Arc::ptr_eq(p, &t.checkpoint));
                assert!(shared, "node {n} served a stale checkpoint after {acts:?}");
            }
            previous.insert(n, &t.checkpoint);
        }
        (served(&sim), by_markers)
    }

    fn arb_act() -> impl proptest::Strategy<Value = Act> {
        use proptest::prelude::*;
        let op = prop_oneof![
            1u8..7,
            Just(OP_RESET),
            Just(OP_CRASH),
            Just(OP_TIMERS),
            (1u8..=3).prop_map(|h| OP_BURST + h),
        ];
        let deliver = (0u32..6, any::<bool>(), op).prop_map(|(src, forward, op)| {
            Act::Deliver(src, (src + if forward { 1 } else { 5 }) % 6, op)
        });
        let run = (0u64..60).prop_map(Act::Run);
        prop_oneof![
            deliver.clone(),
            deliver,
            run.clone(),
            run,
            (0u32..6).prop_map(Act::Crash),
            (0u32..6).prop_map(Act::Restart),
            (0u32..6).prop_map(Act::Poke),
            Just(Act::InstantCut),
            Just(Act::InstantCut),
            (0u32..6).prop_map(Act::ConsistentCut),
        ]
    }

    #[test]
    fn shared_slots_serve_consistent_and_instant_cuts() {
        // Not vacuous: quiet nodes are served from their shared slot by
        // both kinds of cut, a poked, crashed or restarted one is not.
        let acts = [
            Act::InstantCut,
            Act::Poke(2),
            Act::ConsistentCut(0),
            Act::Deliver(1, 2, 3),
            Act::Crash(4),
            Act::InstantCut,
            Act::Restart(4),
            Act::Run(500),
            Act::ConsistentCut(3),
            Act::InstantCut,
        ];
        let (served, by_markers) = checkpoints_share_the_live_slot(&acts);
        assert!(
            served > by_markers && by_markers > 0,
            "{served} / {by_markers}"
        );
    }

    proptest::proptest! {
        /// Random histories — deliveries, floods and bursts, timers,
        /// session resets, crashes, restarts, `node_mut` and both kinds of
        /// cut: every checkpoint is the live slot's shared `Arc` at the
        /// instant of the cut, equal to a fresh copy of the node, and a
        /// slot untouched since the previous cut serves that cut's `Arc`.
        /// (Break: `NodeState::checkpoint` returning a `clone_node` copy
        /// and leaving the slot owned fails the first assertion.)
        #[test]
        fn every_checkpoint_is_the_shared_live_slot(
            acts in proptest::collection::vec(arb_act(), 1..24),
        ) {
            checkpoints_share_the_live_slot(&acts);
        }
    }

    #[test]
    fn consistent_snapshot_completes_under_heavy_loss() {
        let mut sim = unreliable_two_node(
            14,
            crate::faults::LinkFaults {
                drop: 0.9,
                ..crate::faults::LinkFaults::lossy(0.0)
            },
        );
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        assert!(sim.session_up(NodeId(0), NodeId(1)));
        let id = sim.start_snapshot(NodeId(0));
        sim.run_until(SimTime::from_nanos(4_000_000_000));
        match sim.poll_snapshot(id) {
            SnapshotProgress::Complete(_) => {}
            SnapshotProgress::InProgress => panic!("cut stuck under loss (markers exempt)"),
            SnapshotProgress::Failed(e) => panic!("cut failed under loss: {e}"),
        }
    }
}
