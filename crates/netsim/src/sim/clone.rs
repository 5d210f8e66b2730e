//! What a rebind restores: building a simulator from a shadow snapshot
//! and re-pointing a pooled one at a snapshot, in full or — when it is
//! the snapshot the simulator already holds — from the touched lists.
//!
//! [`Simulator::reset_from_shadow`] is the one list of what a rebind
//! restores; a fresh clone is that reset applied to an empty simulator.

use super::channel::{Frame, SessionState};
use super::{Down, NodeState, Simulator};
use crate::node::{Node, NodeId};
use crate::snapshot::ShadowSnapshot;
use crate::topology::Topology;

/// Which snapshot the node slots and sessions were last bound from, and
/// which slots may have changed since.
pub(super) struct Binding {
    /// [`ShadowSnapshot::id`] of the snapshot the node slots and
    /// `session_image` were last bound from, while nothing outside the
    /// touched lists has changed since.
    bound_to: Option<u64>,
    /// `sessions` as that binding restored them.
    session_image: Vec<SessionState>,
    /// Nodes whose slot, dirty bit or cached checkpoint may differ from
    /// what the last binding wrote (each once; `node_touched` is the
    /// membership flag).
    touched_nodes: Vec<u32>,
    node_touched: Vec<bool>,
}

impl Binding {
    pub(super) fn new(nodes: usize) -> Self {
        Binding {
            bound_to: None,
            session_image: Vec::new(),
            touched_nodes: Vec::new(),
            node_touched: vec![false; nodes],
        }
    }

    /// Node `n`'s slot is about to change.
    #[inline]
    pub(super) fn touch(&mut self, n: NodeId) {
        let idx = n.index();
        if !self.node_touched[idx] {
            self.node_touched[idx] = true;
            self.touched_nodes.push(n.0);
        }
    }

    /// Something outside the touched lists changed: the next reset takes
    /// the full path.
    pub(super) fn forget(&mut self) {
        self.bound_to = None;
    }
}

impl Simulator {
    /// Crash reason used for nodes that were not part of a snapshot's scope
    /// when instantiating a clone — not a real crash; checkers must ignore it.
    pub const OUTSIDE_SNAPSHOT: &'static str = "outside snapshot scope";

    /// Build a runnable simulator from a shadow snapshot: checkpoints
    /// shared copy-on-write, sessions silently restored, in-flight
    /// messages re-enqueued. The clone starts at the snapshot's base time
    /// and shares no *mutable* state with the live system — shared node
    /// checkpoints are deep-copied the moment the clone first mutates
    /// them. It is [`Simulator::reset_from_shadow`] applied to an empty
    /// simulator, so a fresh clone and a pooled one are bound by the same
    /// code. It keeps no trace ring (the counters stay exact): a clone that
    /// should retain its events is a [`Simulator::new`] rebound by that
    /// reset.
    pub fn from_shadow(shadow: &ShadowSnapshot, topo: &Topology, seed: u64) -> Simulator {
        let mut sim = Simulator::with_trace(topo.clone(), seed, 0);
        sim.reset_from_shadow(shadow, seed);
        sim
    }

    /// Rebind this simulator to a (possibly different) shadow snapshot of
    /// the **same topology**, reusing every allocation the simulator
    /// already holds — channel queues, the event heap, the trace ring,
    /// node slots — instead of allocating them anew as
    /// [`Simulator::from_shadow`] does. The result is state-for-state
    /// indistinguishable from a fresh `from_shadow(shadow, topo, seed)`
    /// — which is this reset applied to an empty simulator; the unit tests
    /// hold a thoroughly dirtied simulator's reset equal to it — and that
    /// is what lets clone pools reuse simulators across validated inputs
    /// without perturbing determinism. The one thing a reset keeps is the
    /// trace ring's capacity: a [`Simulator::new`] rebound here retains
    /// its events, a clone does not.
    ///
    /// The cost follows what the previous drive touched, not the
    /// federation: channels are re-zeroed from the touched-links list, and
    /// when `shadow` is the snapshot the simulator is already bound to
    /// (same [`ShadowSnapshot::id`] — the pool's steady state, many inputs
    /// validated against one cut) node slots are re-shared from the
    /// touched-nodes list and sessions copied back from the image taken at
    /// bind. Any other snapshot rebinds every slot and session.
    ///
    /// Panics (debug) if the shadow's node space does not fit this
    /// simulator's topology.
    pub fn reset_from_shadow(&mut self, shadow: &ShadowSnapshot, seed: u64) {
        debug_assert!(
            shadow
                .nodes()
                .keys()
                .all(|id| id.index() < self.nodes.len()),
            "shadow does not match the simulator's topology"
        );
        // Channel structures survive; their contents do not. The per-link
        // randomness streams restart exactly as construction seeds them.
        let pool = self.knobs.payload_pool.then_some(&mut self.buf_pool);
        self.links.reset(seed, pool);
        self.queue.clear();
        self.seq = 0;
        self.admin_down.clear();
        self.trace.clear();
        self.pristine.clear();
        self.cuts.reset();
        if self.binding.bound_to == Some(shadow.id()) {
            self.rebind_touched(shadow);
        } else {
            self.bind_shadow(shadow);
        }
        self.replay_in_flight(shadow);
    }

    /// Point node `idx`'s slot back at its checkpoint in a snapshot
    /// (copy-on-write), or mark it outside the snapshot's scope: absent
    /// nodes read as crashed so no events are dispatched to them.
    fn bind_node(&mut self, idx: usize, checkpoint: Option<&std::sync::Arc<dyn Node>>) {
        let slot = &mut self.nodes[idx];
        slot.timer_gen.clear();
        match checkpoint {
            Some(node) => {
                slot.node = NodeState::Shared(std::sync::Arc::clone(node));
                slot.crashed = None;
            }
            None => {
                slot.node = NodeState::Empty;
                slot.crashed = Some(Down::OutsideSnapshot);
            }
        }
        // The shadow's Arc *is* this node's latest checkpoint: seed the
        // delta cache so a cut taken before the clone touches the node
        // re-shares it instead of re-cloning.
        self.cuts.seed(idx, checkpoint);
    }

    /// The full binding — a fresh clone's, and a reset's onto a snapshot
    /// other than the one it holds: every node slot and every session as
    /// the shadow recorded them.
    fn bind_shadow(&mut self, shadow: &ShadowSnapshot) {
        // The shadow's nodes come in ascending id: one pass over the slots.
        let mut checkpoints = shadow.nodes().iter().peekable();
        for idx in 0..self.nodes.len() {
            let checkpoint = checkpoints.next_if(|(id, _)| id.index() == idx);
            self.bind_node(idx, checkpoint.map(|(_, node)| node));
        }
        self.binding.touched_nodes.clear();
        self.binding.node_touched.fill(false);
        self.sessions.fill(SessionState::Down);
        for &(a, b) in shadow.sessions_up() {
            if let Some(edge) = self.topo.edge_index(a, b) {
                self.sessions[edge] = SessionState::Up;
            }
        }
        self.binding.session_image.clone_from(&self.sessions);
        self.binding.bound_to = Some(shadow.id());
    }

    /// The same-snapshot binding: `shadow` is the snapshot `bind_shadow`
    /// last ran on, so only the slots on the touched-nodes list and the
    /// session table can differ from what it wrote.
    fn rebind_touched(&mut self, shadow: &ShadowSnapshot) {
        let mut touched = std::mem::take(&mut self.binding.touched_nodes);
        for n in touched.drain(..) {
            self.binding.node_touched[n as usize] = false;
            self.bind_node(n as usize, shadow.nodes().get(&NodeId(n)));
        }
        self.binding.touched_nodes = touched;
        self.sessions.copy_from_slice(&self.binding.session_image);
    }

    /// Start the clock at the shadow's base time and re-enqueue its
    /// in-flight messages, preserving per-channel order and exempt from
    /// fault sampling — whatever `unreliable_links` / `link_faults` a pooled
    /// simulator's previous input left in `config`, a rebind replays the
    /// cut as a fresh clone does. Expects bound node slots, restored
    /// sessions and empty channels.
    fn replay_in_flight(&mut self, shadow: &ShadowSnapshot) {
        self.now = shadow.base_time();
        self.last_activity = shadow.base_time();
        self.started = true;
        for (src, dst, msgs) in shadow.in_flight() {
            let up = self
                .dir_index(*src, *dst)
                .filter(|dir| self.sessions[dir / 2] == SessionState::Up);
            let Some(dir) = up else {
                continue;
            };
            for bytes in msgs {
                let bytes = bytes.clone();
                self.send_frame(
                    dir,
                    Frame::Data {
                        bytes,
                        quiet: false,
                    },
                    false,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{line_sim, two_node_sim, unreliable_two_node, Pinger};
    use super::*;
    use crate::faults::LinkFaults;
    use crate::link::LinkParams;
    use crate::node::{NodeApi, SessionEvent};
    use crate::time::{SimDuration, SimTime};
    use core::any::Any;

    #[test]
    fn reset_from_shadow_matches_from_shadow_state_for_state() {
        // A pooled simulator rebound with `reset_from_shadow` must be
        // indistinguishable from a freshly built `from_shadow` clone —
        // same events, same node states, same randomness — even when the
        // pooled simulator previously ran a *different* shadow.
        let mut live = two_node_sim(42);
        live.run_until(SimTime::from_nanos(500_000_000));
        let early = live.instant_snapshot();
        live.deliver_direct(NodeId(0), NodeId(1), &[1]);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        let late = live.instant_snapshot();
        let topo = live.topology().clone();

        let drive = |sim: &mut Simulator| {
            sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
            sim.run_until(sim.now() + SimDuration::from_secs(5));
        };

        let mut fresh = Simulator::from_shadow(&late, &topo, 7);
        drive(&mut fresh);

        // Dirty the pooled simulator thoroughly before the reset: a
        // different shadow, a different seed, extra traffic and a fault.
        let mut pooled = Simulator::from_shadow(&early, &topo, 99);
        pooled.deliver_direct(NodeId(1), NodeId(0), &[2]);
        pooled.run_until(pooled.now() + SimDuration::from_secs(1));
        pooled.inject_session_reset(NodeId(0), NodeId(1));
        pooled.reset_from_shadow(&late, 7);
        drive(&mut pooled);

        assert_eq!(fresh.now(), pooled.now());
        assert_eq!(fresh.trace().stats(), pooled.trace().stats());
        assert_eq!(
            fresh.session_up(NodeId(0), NodeId(1)),
            pooled.session_up(NodeId(0), NodeId(1))
        );
        for i in 0..2 {
            let a = fresh
                .node(NodeId(i))
                .as_any()
                .downcast_ref::<Pinger>()
                .unwrap();
            let b = pooled
                .node(NodeId(i))
                .as_any()
                .downcast_ref::<Pinger>()
                .unwrap();
            assert_eq!(a.sent, b.sent, "node {i} sent counters diverge");
            assert_eq!(a.got, b.got, "node {i} receive logs diverge");
        }

        // The same, for a pooled simulator reset *mid-drive* with the
        // fault layer on: nodes materialised, frames in flight, events
        // queued, trace ring filled, fault streams partly consumed — onto
        // a cut with frames in flight, which the pooled simulator replays
        // with the previous drive's fault knobs still set and the fresh
        // clone with none. Both keep a trace ring, so the traces compare
        // event for event. (Break: `replay_in_flight` passing `true` to
        // `send_frame` samples the pooled replay, and the traces below
        // differ.)
        let mut live = line_sim(6, 17);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        for hop in 0..5u32 {
            live.deliver_direct(NodeId(hop), NodeId(hop + 1), &[0]);
        }
        live.run_for(SimDuration::from_millis(2));
        let shadow = live.instant_snapshot();
        assert!(shadow.in_flight_count() > 0);
        let topo = live.topology().clone();
        let faults = LinkFaults::lossy(0.05);
        let lossy_drive = |sim: &mut Simulator, until: SimDuration| {
            sim.set_unreliable_links(true);
            sim.set_link_faults(faults);
            for hop in 0..5u32 {
                sim.deliver_direct(NodeId(hop), NodeId(hop + 1), &[0]);
                sim.deliver_direct(NodeId(hop + 1), NodeId(hop), &[1]);
            }
            sim.run_until(sim.now() + until);
        };
        let log = |sim: &Simulator| -> Vec<String> {
            sim.trace().events().map(|e| format!("{e:?}")).collect()
        };

        let mut fresh = traced_clone(&shadow, &topo, 7);
        lossy_drive(&mut fresh, SimDuration::from_secs(5));

        let mut pooled = traced_clone(&shadow, &topo, 99);
        lossy_drive(&mut pooled, SimDuration::from_millis(7));
        assert!(!pooled.queue.is_empty(), "reset must hit a non-empty heap");
        assert!(!pooled.trace().is_empty());
        assert!(pooled.links.data_in_flight().next().is_some());
        assert!(pooled
            .nodes
            .iter()
            .all(|slot| matches!(slot.node, NodeState::Owned(_))));
        let _ = pooled.take_wire_stats(); // the clone pool drains at release
        pooled.reset_from_shadow(&shadow, 7);
        lossy_drive(&mut pooled, SimDuration::from_secs(5));

        assert_eq!(log(&fresh), log(&pooled), "traces differ event for event");
        // All but the lease counters: only the pooled free list is warm.
        let outcome = |sim: &mut Simulator| crate::buf::WireStats {
            buf_hits: 0,
            buf_misses: 0,
            ..sim.take_wire_stats()
        };
        let wire = outcome(&mut fresh);
        assert_eq!(wire, outcome(&mut pooled));
        assert!(
            wire.frames_dropped + wire.frames_duplicated + wire.frames_reordered > 0,
            "the fault layer must have fired"
        );

        pooled_sequence_matches_fresh_clones();
    }

    /// A clone that keeps a trace ring: a [`Simulator::new`] rebound to
    /// `shadow`, where [`Simulator::from_shadow`] starts from a ring-less
    /// simulator.
    fn traced_clone(shadow: &ShadowSnapshot, topo: &Topology, seed: u64) -> Simulator {
        let mut sim = Simulator::new(topo.clone(), seed);
        sim.reset_from_shadow(shadow, seed);
        sim
    }

    #[test]
    fn clones_count_frames_but_retain_no_trace_events() {
        // A validation clone's checkers read the counters; the event trail
        // belongs to a system someone is looking at, which `new` builds.
        let mut live = two_node_sim(3);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        assert!(live.trace().stats().msgs_delivered > 0);
        assert!(
            !live.trace().is_empty(),
            "a `new` system retains its events"
        );
        let shadow = live.instant_snapshot();
        let topo = live.topology().clone();
        let drive = |sim: &mut Simulator| {
            sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
            sim.run_until(sim.now() + SimDuration::from_secs(5));
        };

        let mut clone = Simulator::from_shadow(&shadow, &topo, 7);
        drive(&mut clone);
        assert!(
            clone.trace().stats().msgs_delivered > 1,
            "frames were delivered"
        );
        assert!(clone.trace().is_empty(), "a fresh clone retained events");
        clone.reset_from_shadow(&shadow, 8);
        drive(&mut clone);
        assert!(
            clone.trace().stats().msgs_delivered > 1,
            "frames were delivered"
        );
        assert!(clone.trace().is_empty(), "a pooled reset retained events");

        let mut traced = traced_clone(&shadow, &topo, 7);
        drive(&mut traced);
        assert!(!traced.trace().is_empty(), "a rebound `new` system retains");
    }

    /// Floods like `snapshot::tests::Acc`, and obeys the opcodes below —
    /// everything a handler can ask the simulator for.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Scripted {
        peers: Vec<NodeId>,
        got: Vec<(NodeId, Vec<u8>)>,
        fired: Vec<u64>,
        downs: u32,
        poked: u32,
    }

    const OP_RESET: u8 = 0xF0;
    const OP_CRASH: u8 = 0xF1;
    const OP_TIMERS: u8 = 0xF2;

    impl Node for Scripted {
        fn on_session(&mut self, peer: NodeId, ev: SessionEvent, _: &mut NodeApi<'_>) {
            match ev {
                SessionEvent::Up if !self.peers.contains(&peer) => self.peers.push(peer),
                SessionEvent::Up => {}
                SessionEvent::Down(_) => self.downs += 1,
            }
        }
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
            self.got.push((from, data.to_vec()));
            match data[0] {
                OP_RESET => api.reset_session(from),
                OP_CRASH => api.crash("scripted crash"),
                OP_TIMERS => {
                    api.set_timer(SimDuration::from_millis(10), 1);
                    api.set_timer(SimDuration::from_millis(20), 2);
                    api.cancel_timer(2);
                    api.set_timer(SimDuration::from_millis(30), 3);
                    api.set_timer(SimDuration::from_millis(40), 3); // re-arm
                }
                hops @ 1..=0x7F => {
                    for &p in self.peers.iter().filter(|&&p| p != from) {
                        api.send(p, vec![hops - 1]);
                    }
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, token: u64, api: &mut NodeApi<'_>) {
            self.fired.push(token);
            for &p in &self.peers {
                api.send(p, vec![1]);
            }
        }
        fn clone_node(&self) -> Box<dyn Node> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What one validated input does to a clone, beyond the message.
    #[derive(Clone, Copy, Debug)]
    enum Extra {
        None,
        /// Operator-style `node_mut` access.
        Poke(NodeId),
        /// An instant cut and a Chandy–Lamport cut taken on the clone.
        Cuts,
        /// Fault injection on a node the drive never delivers to.
        CrashIdle(NodeId),
        /// Delta snapshots switched (off drops the checkpoint cache, and
        /// with it the binding), then a cut.
        Delta(bool),
    }

    /// Everything observable or consequential about a simulator that a
    /// rebind must reproduce, private state included, and the next 8 draws
    /// of every link's two streams (drawn from copies: the probe must not
    /// list a link as touched).
    fn state_digest(sim: &Simulator) -> Vec<String> {
        let mut out = vec![
            format!(
                "clock {:?} {:?} seq {}",
                sim.now, sim.last_activity, sim.seq
            ),
            format!("trace {:?}", sim.trace().stats()),
            format!("wire {:?}", sim.wire),
            format!("sessions {:?} admin {:?}", sim.sessions, sim.admin_down),
        ];
        let mut queued: Vec<String> = sim.queue.iter().map(|q| format!("{:?}", q.0)).collect();
        queued.sort();
        out.push(format!("queue {queued:?}"));
        for (i, slot) in sim.nodes.iter().enumerate() {
            let kind = match slot.node {
                NodeState::Empty => "empty",
                NodeState::Shared(_) => "shared",
                NodeState::Owned(_) => "owned",
            };
            let state = slot
                .node
                .get()
                .map(|n| n.as_any().downcast_ref::<Scripted>().unwrap().clone());
            out.push(format!(
                "node {i} {kind} crashed {:?} timers {:?} touched {} {state:?}",
                sim.crashed(NodeId(i as u32)),
                slot.timer_gen,
                sim.binding.node_touched[i],
            ));
        }
        out.extend(sim.cuts.digest());
        out.extend(sim.links.digest(&sim.topo));
        out
    }

    /// One step of a pooled simulator's life: which of the two cuts it is
    /// rebound to (`false` the first), the seed, the message injected as
    /// `(src, dst, opcode)`, and what else happens during the drive.
    type Step = (bool, u64, Option<(u32, u32, u8)>, Extra);

    /// A lossy 6-ring of `Scripted` nodes and two cuts of it: the first
    /// with traffic in flight, the second with node 5 outside its scope.
    fn two_cuts() -> (Topology, ShadowSnapshot, ShadowSnapshot) {
        let topo = Topology::ring(
            6,
            LinkParams {
                latency: crate::link::LatencyModel::LogNormal {
                    median: SimDuration::from_millis(4),
                    sigma: 0.3,
                    floor: SimDuration::from_millis(2),
                },
                bandwidth_bps: None,
                loss: 0.05,
            },
        );
        let mut live = Simulator::new(topo.clone(), 5);
        for i in 0..6 {
            live.set_node(NodeId(i), Box::new(Scripted::default()));
        }
        live.start();
        live.run_until(SimTime::from_nanos(1_000_000_000));
        live.deliver_direct(NodeId(1), NodeId(0), &[6]);
        live.run_for(SimDuration::from_millis(7));
        let cut_a = live.instant_snapshot();
        assert!(cut_a.in_flight_count() > 0);
        live.inject_node_crash(NodeId(5));
        live.run_for(SimDuration::from_secs(1));
        let cut_b = live.instant_snapshot();
        assert_eq!(cut_b.node_count(), 5);
        assert_eq!(cut_b.in_flight_count(), 0);
        (topo, cut_a, cut_b)
    }

    /// One validated input on a clone, under burst loss.
    fn drive(sim: &mut Simulator, input: Option<(u32, u32, u8)>, extra: Extra) {
        sim.set_unreliable_links(true);
        sim.set_link_faults(LinkFaults {
            burst: Some(crate::faults::BurstLoss::harsh()),
            duplicate: 0.1,
            reorder_window: SimDuration::from_millis(3),
            ..LinkFaults::lossy(0.1)
        });
        if let Some((src, dst, op)) = input {
            sim.deliver_direct(NodeId(src), NodeId(dst), &[op]);
        }
        match extra {
            Extra::None => {}
            Extra::Poke(n) => {
                let node = sim.node_mut(n).as_any_mut();
                node.downcast_mut::<Scripted>().unwrap().poked += 1;
            }
            Extra::Cuts => {
                sim.run_for(SimDuration::from_millis(4));
                let _ = sim.instant_snapshot();
                let id = sim.start_snapshot(NodeId(0));
                sim.run_for(SimDuration::from_millis(100));
                let _ = sim.poll_snapshot(id);
            }
            Extra::CrashIdle(n) => sim.inject_node_crash(n),
            Extra::Delta(on) => {
                sim.set_delta_snapshots(on);
                sim.run_for(SimDuration::from_millis(4));
                let _ = sim.instant_snapshot();
            }
        }
        let end = sim.now() + SimDuration::from_secs(8);
        sim.run_until_quiet(SimDuration::from_millis(300), end);
    }

    /// One pooled simulator driven through `steps` — under burst loss,
    /// handler-issued session resets, crashes, armed and cancelled timers,
    /// `node_mut` access and cuts taken on the clone — is, after every
    /// step, the simulator a fresh `from_shadow` driven the same way is.
    /// Returns, per step, whether the reset found the simulator already
    /// bound to the step's cut, and the frames the fault layer perturbed.
    fn pooled_matches_fresh(steps: &[Step]) -> (Vec<bool>, u64) {
        let (topo, cut_a, cut_b) = two_cuts();
        let mut pooled = Simulator::from_shadow(&cut_b, &topo, 99);
        let mut same_cut = Vec::new();
        let mut perturbed = 0;
        for (step, &(second, seed, input, extra)) in steps.iter().enumerate() {
            let shadow = if second { &cut_b } else { &cut_a };
            same_cut.push(pooled.binding.bound_to == Some(shadow.id()));
            pooled.reset_from_shadow(shadow, seed);
            // The toggles survive a reset; the fresh clone is an empty
            // simulator that takes the pooled one's through the setters,
            // minus the previous input's fault knobs, which must not
            // decide how the cut's in-flight frames are replayed, and is
            // then bound once, in full. (Break: `replay_in_flight` passing
            // `true` to `send_frame` fails the named sequence at step 1.)
            let mut fresh = Simulator::with_trace(topo.clone(), seed, 0);
            fresh.set_wire_config(pooled.knobs.payload_pool, pooled.knobs.batch_delivery);
            fresh.set_delta_snapshots(pooled.knobs.delta_snapshots);
            fresh.set_link_faults(pooled.knobs.link_faults);
            fresh.reset_from_shadow(shadow, seed);
            drive(&mut pooled, input, extra);
            drive(&mut fresh, input, extra);
            let (got, want) = (state_digest(&pooled), state_digest(&fresh));
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "step {step} of {steps:?}");
            }
            assert_eq!(got.len(), want.len());
            // The clone pool drains the wire counters at release.
            let wire = pooled.take_wire_stats();
            perturbed += wire.frames_dropped + wire.frames_duplicated + wire.frames_reordered;
        }
        (same_cut, perturbed)
    }

    /// The named sequence: every mechanism once, and which resets may take
    /// the touched-only path.
    fn pooled_sequence_matches_fresh_clones() {
        let (a, b) = (false, true);
        let steps = [
            (a, 7, Some((0, 1, 5)), Extra::None),
            (a, 8, Some((1, 2, OP_RESET)), Extra::None),
            (a, 9, Some((2, 3, OP_CRASH)), Extra::None),
            (a, 10, Some((3, 4, OP_TIMERS)), Extra::None),
            (a, 11, Some((4, 5, 2)), Extra::Poke(NodeId(2))),
            (a, 12, Some((5, 0, 4)), Extra::Cuts),
            (a, 7, None, Extra::CrashIdle(NodeId(3))),
            (a, 7, None, Extra::None),
            (b, 13, Some((0, 1, 5)), Extra::None),
            // Tears down a link nothing was ever sent on.
            (b, 13, Some((0, 1, OP_RESET)), Extra::Cuts),
            (a, 14, Some((1, 2, OP_RESET)), Extra::None),
            (a, 15, Some((0, 1, 3)), Extra::None),
            (a, 16, Some((2, 1, 3)), Extra::Delta(false)),
            (a, 17, Some((3, 2, 3)), Extra::Cuts),
            (a, 18, Some((4, 3, 3)), Extra::Delta(true)),
            (a, 19, None, Extra::Cuts),
        ];
        let (same_cut, perturbed) = pooled_matches_fresh(&steps);
        // A different cut, and the step after the checkpoint cache was
        // dropped, rebind in full; every other reset is touched-only.
        let full: Vec<usize> = (0..steps.len()).filter(|&i| !same_cut[i]).collect();
        assert_eq!(full, [0, 8, 10, 13]);
        assert!(perturbed > 0, "the fault layer must have fired");
    }

    fn arb_step() -> impl proptest::Strategy<Value = Step> {
        use proptest::prelude::*;
        let op = prop_oneof![
            1u8..7,
            1u8..7,
            Just(OP_RESET),
            Just(OP_CRASH),
            Just(OP_TIMERS)
        ];
        // A ring neighbour delivers: `dst` is `src`'s successor or predecessor.
        let input = proptest::option::of((0u32..6, any::<bool>(), op)).prop_map(|i| {
            i.map(|(src, forward, op)| (src, (src + if forward { 1 } else { 5 }) % 6, op))
        });
        let extra = prop_oneof![
            Just(Extra::None),
            Just(Extra::None),
            // Node 5 is absent from the second cut: nothing to poke there.
            (0u32..5).prop_map(|n| Extra::Poke(NodeId(n))),
            Just(Extra::Cuts),
            (0u32..6).prop_map(|n| Extra::CrashIdle(NodeId(n))),
            any::<bool>().prop_map(Extra::Delta),
        ];
        // Mostly the first cut: runs of same-cut resets are the point.
        (0u8..4, 0u64..64, input, extra)
            .prop_map(|(cut, seed, input, extra)| (cut == 0, seed, input, extra))
    }

    proptest::proptest! {
        /// Random lives of a pooled simulator, against fresh clones.
        #[test]
        fn pooled_sequences_match_fresh_clones(
            steps in proptest::collection::vec(arb_step(), 6..14),
        ) {
            pooled_matches_fresh(&steps);
        }
    }

    #[test]
    fn cow_clones_share_until_first_mutation() {
        // Instantiating a snapshot must not deep-copy nodes up front: the
        // checkpoint Arcs stay shared until a clone drives a node, and
        // mutation in one clone never leaks into a sibling.
        let mut live = two_node_sim(5);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        let shadow = live.instant_snapshot();
        let topo = live.topology().clone();
        let baseline = shadow
            .nodes()
            .values()
            .map(|n| n.as_any().downcast_ref::<Pinger>().unwrap().got.len())
            .collect::<Vec<_>>();

        let mut a = Simulator::from_shadow(&shadow, &topo, 1);
        let b = Simulator::from_shadow(&shadow, &topo, 1);
        a.deliver_direct(NodeId(0), NodeId(1), &[9]);
        let a1 = a.node(NodeId(1)).as_any().downcast_ref::<Pinger>().unwrap();
        let b1 = b.node(NodeId(1)).as_any().downcast_ref::<Pinger>().unwrap();
        assert_eq!(a1.got.len(), baseline[1] + 1, "clone a saw the delivery");
        assert_eq!(b1.got.len(), baseline[1], "sibling clone unaffected");
        let s1 = shadow
            .nodes()
            .get(&NodeId(1))
            .unwrap()
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap();
        assert_eq!(s1.got.len(), baseline[1], "snapshot itself unaffected");
    }

    #[test]
    fn reset_from_shadow_rebinds_against_a_delta_chain_after_churn() {
        // Regression: a pooled simulator rebound against the latest link of
        // a delta-snapshot chain — including a node that left (crashed) and
        // rejoined between cuts — matches a fresh `from_shadow` clone
        // state-for-state.
        let mut live = line_sim(4, 31);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        let chain0 = live.instant_snapshot();

        // Churn node 2: leave, rejoin, then more traffic.
        live.inject_node_crash(NodeId(2));
        live.run_until(SimTime::from_nanos(2_000_000_000));
        live.inject_node_restart(NodeId(2));
        live.run_until(SimTime::from_nanos(4_000_000_000));
        live.deliver_direct(NodeId(1), NodeId(2), &[0]);
        live.run_until(SimTime::from_nanos(6_000_000_000));
        let chain1 = live.instant_snapshot();
        // The chain shares untouched nodes and re-captures the churned one.
        assert!(std::sync::Arc::ptr_eq(
            chain0.nodes().get(&NodeId(0)).unwrap(),
            chain1.nodes().get(&NodeId(0)).unwrap(),
        ));
        assert!(!std::sync::Arc::ptr_eq(
            chain0.nodes().get(&NodeId(2)).unwrap(),
            chain1.nodes().get(&NodeId(2)).unwrap(),
        ));
        let topo = live.topology().clone();

        let drive = |sim: &mut Simulator| {
            sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
            sim.run_until(sim.now() + SimDuration::from_secs(5));
        };

        let mut fresh = Simulator::from_shadow(&chain1, &topo, 7);
        drive(&mut fresh);

        let mut pooled = Simulator::from_shadow(&chain0, &topo, 99);
        pooled.deliver_direct(NodeId(1), NodeId(0), &[2]);
        pooled.run_until(pooled.now() + SimDuration::from_secs(1));
        let _ = pooled.instant_snapshot(); // warm the pooled sim's own cache
        pooled.reset_from_shadow(&chain1, 7);
        drive(&mut pooled);

        assert_eq!(fresh.now(), pooled.now());
        assert_eq!(fresh.trace().stats(), pooled.trace().stats());
        for i in 0..4 {
            let a = fresh
                .node(NodeId(i))
                .as_any()
                .downcast_ref::<Pinger>()
                .unwrap();
            let b = pooled
                .node(NodeId(i))
                .as_any()
                .downcast_ref::<Pinger>()
                .unwrap();
            assert_eq!(a.sent, b.sent, "node {i} sent counters diverge");
            assert_eq!(a.got, b.got, "node {i} receive logs diverge");
        }
    }

    #[test]
    fn reset_from_shadow_reseeds_fault_streams() {
        let faults = crate::faults::LinkFaults::lossy(0.3);
        let mut live = two_node_sim(21);
        live.run_until(SimTime::from_nanos(2_000_000_000));
        let shadow = live.instant_snapshot();
        let topo = live.topology().clone();

        let mut fresh = Simulator::from_shadow(&shadow, &topo, 77);
        fresh.set_unreliable_links(true);
        fresh.set_link_faults(faults);

        // A pooled simulator that already consumed fault randomness …
        let mut pooled = unreliable_two_node(99, faults);
        pooled.run_until(SimTime::from_nanos(5_000_000_000));
        // … must replay identically to the fresh clone after a reset.
        // (Wire counters are drained by the clone pool at release, not by
        // the reset itself — mirror that here.)
        let _ = pooled.take_wire_stats();
        pooled.reset_from_shadow(&shadow, 77);
        pooled.set_unreliable_links(true);
        pooled.set_link_faults(faults);

        let horizon = shadow.base_time() + SimDuration::from_secs(20);
        fresh.run_until(horizon);
        pooled.run_until(horizon);
        assert_eq!(fresh.trace().stats(), pooled.trace().stats());
        assert_eq!(fresh.take_wire_stats(), pooled.take_wire_stats());
    }
}
