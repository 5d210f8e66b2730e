//! What a cut records: delta checkpoints of node state, the Chandy–Lamport
//! marker protocol over the live channels, and the instant (god-mode) cut.
//! The per-snapshot bookkeeping is [`SnapshotState`]; the completed
//! artifact is [`ShadowSnapshot`].

use std::collections::BTreeMap;
use std::sync::Arc;

use super::channel::{Frame, SessionState};
use super::Simulator;
use crate::node::{Node, NodeId};
use crate::snapshot::{self, ShadowSnapshot, SnapshotId, SnapshotProgress, SnapshotState};
use crate::trace::TraceKind;

/// Drainable counters for the delta-snapshot capture path and the dynamics
/// schedule, in the same take-and-zero style as [`WireStats`](crate::buf::WireStats)
/// (see [`Simulator::take_snapshot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Bytes of node state actually captured by checkpoints (dirty or
    /// never-captured nodes; cache-served checkpoints contribute nothing).
    pub delta_bytes: u64,
    /// Nodes actually re-captured by checkpoints (cache misses).
    pub nodes_recaptured: u64,
    /// Nodes whose checkpoint was served from the delta cache.
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

/// The delta-checkpoint cache, the cuts in progress and their counters.
pub(super) struct Cuts {
    /// Per-node dirty bits: set on first CoW materialization, message
    /// delivery, or any other mutable access since the node's last
    /// checkpoint; cleared when a checkpoint re-captures the node.
    dirty: Vec<bool>,
    /// Last checkpoint per node; a clean node's checkpoint is served from
    /// here, sharing the `Arc` with the previous shadow (the delta chain).
    ckpt_cache: Vec<Option<Arc<dyn Node>>>,
    snap_stats: SnapshotStats,
    /// The pending cuts, in id order (a handful at most: a campaign takes
    /// one at a time).
    snapshots: Vec<(SnapshotId, SnapshotState)>,
    next_snapshot: u32,
    /// A marker fan-out being sent (kept for its capacity).
    fanout: Vec<(NodeId, u32)>,
}

impl Cuts {
    pub(super) fn new(nodes: usize) -> Self {
        Cuts {
            dirty: vec![false; nodes],
            ckpt_cache: vec![None; nodes],
            snap_stats: SnapshotStats::default(),
            snapshots: Vec::new(),
            next_snapshot: 0,
            fanout: Vec::new(),
        }
    }

    /// Node `n` may differ from its cached checkpoint from here on.
    #[inline]
    pub(super) fn mark_dirty(&mut self, n: NodeId) {
        self.dirty[n.index()] = true;
    }

    /// Node `n` became a different state altogether (crash, restart): its
    /// cached checkpoint is stale and the next cut must re-capture it.
    pub(super) fn invalidate(&mut self, n: NodeId) {
        self.ckpt_cache[n.index()] = None;
    }

    /// `checkpoint` *is* node `idx`'s latest checkpoint (a rebind just
    /// shared it into the slot): a cut taken before the node is touched
    /// re-shares it instead of re-cloning.
    #[inline]
    pub(super) fn seed(&mut self, idx: usize, checkpoint: Option<&Arc<dyn Node>>) {
        self.ckpt_cache[idx] = checkpoint.cloned();
        self.dirty[idx] = false;
    }

    /// What a rebind leaves of the cuts a previous drive took: nothing.
    /// The checkpoint cache is re-seeded per slot ([`Cuts::seed`]).
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

    /// The counters, and per node its dirty bit and whether a checkpoint
    /// is cached.
    #[cfg(test)]
    pub(super) fn digest(&self) -> Vec<String> {
        let mut out = vec![format!(
            "snap {:?} next {}",
            self.snap_stats, self.next_snapshot
        )];
        for (i, cached) in self.ckpt_cache.iter().enumerate() {
            let (dirty, cached) = (self.dirty[i], cached.is_some());
            out.push(format!("cut {i} dirty {dirty} cached {cached}"));
        }
        out
    }
}

impl Simulator {
    /// Toggle delta snapshots on an existing simulator (clone pools apply
    /// this right after [`Simulator::reset_from_shadow`], exactly like
    /// [`Simulator::set_wire_config`]). Turning the knob off drops the
    /// checkpoint cache — and with it the binding a same-snapshot
    /// [`Simulator::reset_from_shadow`] relies on, so the next reset takes
    /// the full path; outcomes are unaffected either way.
    pub fn set_delta_snapshots(&mut self, on: bool) {
        self.knobs.delta_snapshots = on;
        if !on {
            self.cuts.ckpt_cache.fill(None);
            self.binding.forget();
        }
    }

    /// Drain this simulator's snapshot-delta and dynamics-schedule counters,
    /// resetting them to zero.
    pub fn take_snapshot_stats(&mut self) -> SnapshotStats {
        let out = self.cuts.snap_stats;
        self.cuts.snap_stats = SnapshotStats::default();
        out
    }

    /// The delta-capture path: checkpoint node `n`, serving clean nodes
    /// from the cached `Arc` of their previous capture. A cache hit shares
    /// the node state with the prior shadow (the delta chain); a miss
    /// re-clones, refreshes the cache, and clears the dirty bit. With
    /// `delta_snapshots` off every call is a plain re-capture.
    fn checkpoint_node(&mut self, n: NodeId) -> Option<std::sync::Arc<dyn Node>> {
        let idx = n.index();
        if self.knobs.delta_snapshots && !self.cuts.dirty[idx] {
            if let Some(cached) = &self.cuts.ckpt_cache[idx] {
                self.cuts.snap_stats.nodes_cached += 1;
                return Some(std::sync::Arc::clone(cached));
            }
        }
        let arc = self.nodes[idx].node.checkpoint()?;
        self.cuts.snap_stats.nodes_recaptured += 1;
        self.cuts.snap_stats.delta_bytes += arc.state_size() as u64;
        if self.knobs.delta_snapshots {
            self.cuts.ckpt_cache[idx] = Some(std::sync::Arc::clone(&arc));
            self.cuts.dirty[idx] = false;
        }
        Some(arc)
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
        for &(dst, dir) in &fanout {
            self.trace.push(
                self.now,
                TraceKind::MarkerSent {
                    src,
                    dst,
                    snapshot: id.0,
                },
            );
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
            // Capture before re-borrowing the snapshot table: the delta
            // path needs `&mut self` for its cache and counters.
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
                self.trace
                    .push(self.now, TraceKind::SnapshotComplete { snapshot: id.0 });
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
    /// the snapshot-consistency ablation. With delta snapshots on, nodes
    /// untouched since the previous capture share their `Arc` with it.
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
    use super::super::fixtures::{line_sim, unreliable_two_node, Pinger};
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

        // Knob off: every cut is a full re-capture again.
        sim.set_delta_snapshots(false);
        let _third = sim.instant_snapshot();
        let s3 = sim.take_snapshot_stats();
        assert_eq!(s3.nodes_recaptured, 8);
        assert_eq!(s3.nodes_cached, 0);
    }

    #[test]
    fn delta_snapshots_do_not_change_outcomes() {
        // A cached checkpoint of an unmutated node is state-identical to a
        // fresh clone: runs with the knob on and off must produce the same
        // shadows and the same downstream behavior.
        let run = |delta: bool| {
            let mut sim = line_sim(4, 23);
            sim.set_delta_snapshots(delta);
            sim.run_until(SimTime::from_nanos(2_000_000_000));
            let _warm = sim.instant_snapshot();
            sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
            sim.run_until(SimTime::from_nanos(4_000_000_000));
            let shadow = sim.instant_snapshot();
            let topo = sim.topology().clone();
            let mut clone = Simulator::from_shadow(&shadow, &topo, 5);
            clone.deliver_direct(NodeId(1), NodeId(2), &[1]);
            clone.run_until(clone.now() + SimDuration::from_secs(5));
            let states: Vec<_> = (0..4u32)
                .map(|i| {
                    let p = clone
                        .node(NodeId(i))
                        .as_any()
                        .downcast_ref::<Pinger>()
                        .unwrap();
                    (p.sent, p.got.clone())
                })
                .collect();
            (clone.now(), clone.trace().stats(), states)
        };
        assert_eq!(run(true), run(false), "delta knob must be outcome-neutral");
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
