//! The ordered-set Chandy–Lamport bookkeeping [`super::SnapshotState`]
//! replaced, kept as the differential oracle of
//! `direction_indexed_cut_matches_the_btree_oracle`: channels are
//! `(src, dst)` pairs in `BTreeSet`s, a node's fan-out is the range
//! `(n, _)`, and the channel state is a `BTreeMap` keyed by pair.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use super::{sessions_up, ShadowSnapshot};
use crate::node::{Node, NodeId};
use crate::time::SimTime;
use crate::topology::Topology;

pub(super) struct SnapshotState {
    members: BTreeSet<NodeId>,
    /// Directed channels that must be drained by a marker. Symmetric by
    /// construction — `(n, m)` is in scope iff `(m, n)` is — so the range
    /// `(n, _)` names both the outgoing and the incoming channels of `n`.
    channels: BTreeSet<(NodeId, NodeId)>,
    /// Channels whose marker has arrived.
    done: BTreeSet<(NodeId, NodeId)>,
    nodes: BTreeMap<NodeId, Arc<dyn Node>>,
    /// Channel contents observed between `record_node(dst)` and the marker.
    recorded: BTreeMap<(NodeId, NodeId), Vec<Vec<u8>>>,
    sessions_up: Vec<(NodeId, NodeId)>,
    started_at: SimTime,
    failure: Option<String>,
    complete: bool,
}

impl SnapshotState {
    pub(super) fn new(
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

    pub(super) fn is_marked(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n)
    }

    fn peers_of(
        channels: &BTreeSet<(NodeId, NodeId)>,
        n: NodeId,
    ) -> impl Iterator<Item = NodeId> + '_ {
        channels
            .range((n, NodeId(0))..=(n, NodeId(u32::MAX)))
            .map(|&(_, m)| m)
    }

    pub(super) fn record_node(&mut self, n: NodeId, state: Arc<dyn Node>) {
        self.nodes.insert(n, state);
        for m in Self::peers_of(&self.channels, n) {
            self.recorded.entry((m, n)).or_default();
        }
    }

    pub(super) fn outgoing_of(&self, n: NodeId) -> Vec<NodeId> {
        Self::peers_of(&self.channels, n).collect()
    }

    pub(super) fn channel_done_empty(&mut self, src: NodeId, dst: NodeId) {
        self.recorded.insert((src, dst), Vec::new());
        self.done.insert((src, dst));
    }

    pub(super) fn channel_done_recorded(&mut self, src: NodeId, dst: NodeId) {
        self.done.insert((src, dst));
    }

    pub(super) fn observe(&mut self, src: NodeId, dst: NodeId, bytes: &[u8]) {
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

    pub(super) fn channel_reset(&mut self, a: NodeId, b: NodeId) {
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

    pub(super) fn node_crashed(&mut self, n: NodeId) {
        if !self.is_terminal() && self.members.contains(&n) && !self.is_marked(n) {
            self.fail(format!("member {n} crashed before checkpointing"));
        }
    }

    pub(super) fn fail(&mut self, why: String) {
        if self.failure.is_none() && !self.complete {
            self.failure = Some(why);
        }
    }

    pub(super) fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    pub(super) fn all_done(&self) -> bool {
        self.failure.is_none()
            && self.nodes.len() == self.members.len()
            && self.done.len() == self.channels.len()
    }

    pub(super) fn complete(&mut self) {
        self.complete = true;
    }

    pub(super) fn is_complete(&self) -> bool {
        self.complete
    }

    pub(super) fn is_terminal(&self) -> bool {
        self.complete || self.failure.is_some()
    }

    pub(super) fn into_shadow(self) -> ShadowSnapshot {
        let in_flight = self
            .recorded
            .into_iter()
            .filter(|(_, msgs)| !msgs.is_empty())
            .map(|((src, dst), msgs)| (src, dst, msgs))
            .collect();
        ShadowSnapshot::new(self.started_at, self.nodes, in_flight, self.sessions_up)
    }
}
