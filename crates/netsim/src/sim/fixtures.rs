//! Nodes and small systems shared by the simulator's unit tests.

use core::any::Any;

use super::{NodeState, Simulator};
use crate::link::{LatencyModel, LinkParams};
use crate::node::{Node, NodeApi, NodeId, SessionEvent};
use crate::time::SimDuration;
use crate::topology::Topology;

/// Counts messages; replies with the round number incremented. Payloads
/// are encoded into `api.buf()`, as the protocol nodes' are.
#[derive(Clone, Debug)]
pub(super) struct Pinger {
    initiate: bool,
    pub(super) sent: u32,
    pub(super) got: Vec<(NodeId, Vec<u8>)>,
    max_rounds: u32,
}

impl Pinger {
    pub(super) fn new(initiate: bool) -> Self {
        Pinger {
            initiate,
            sent: 0,
            got: Vec::new(),
            max_rounds: 4,
        }
    }
}

impl Pinger {
    fn send(&mut self, to: NodeId, round: u8, api: &mut NodeApi<'_>) {
        let mut buf = api.buf();
        buf.push(round);
        api.send(to, buf);
        self.sent += 1;
    }
}

impl Node for Pinger {
    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        if self.initiate && matches!(ev, SessionEvent::Up) {
            self.send(peer, 0, api);
        }
    }
    fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        self.got.push((from, data.to_vec()));
        if (data[0] as u32) < self.max_rounds {
            self.send(from, data[0] + 1, api);
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

pub(super) fn two_node_sim(seed: u64) -> Simulator {
    let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo, seed);
    sim.set_node(NodeId(0), Box::new(Pinger::new(true)));
    sim.set_node(NodeId(1), Box::new(Pinger::new(false)));
    sim.start();
    sim
}

pub(super) fn line_sim(n: usize, seed: u64) -> Simulator {
    let topo = Topology::line(n, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo, seed);
    sim.set_node(NodeId(0), Box::new(Pinger::new(true)));
    for i in 1..n {
        sim.set_node(NodeId(i as u32), Box::new(Pinger::new(false)));
    }
    sim.start();
    sim
}

pub(super) fn unreliable_two_node(seed: u64, faults: crate::faults::LinkFaults) -> Simulator {
    let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
    let mut sim = Simulator::new(topo, seed);
    sim.set_unreliable_links(true);
    sim.set_link_faults(faults);
    sim.set_node(NodeId(0), Box::new(Pinger::new(true)));
    sim.set_node(NodeId(1), Box::new(Pinger::new(false)));
    sim.start();
    sim
}

/// Floods like `snapshot::tests::Acc`, and obeys the opcodes below —
/// everything a handler can ask the simulator for.
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct Scripted {
    peers: Vec<NodeId>,
    got: Vec<(NodeId, Vec<u8>)>,
    fired: Vec<u64>,
    downs: u32,
    pub(super) poked: u32,
}

/// Reset the session the frame came in on.
pub(super) const OP_RESET: u8 = 0xF0;
/// Crash the receiving node.
pub(super) const OP_CRASH: u8 = 0xF1;
/// Arm, cancel and re-arm timers; a fired timer floods one hop.
pub(super) const OP_TIMERS: u8 = 0xF2;
/// `OP_BURST + h` (`h` in 1..=4): three frames back to back to every
/// other peer, each `OP_BURST + h - 1` — a flood of bursts `h` hops deep.
/// The last hop's burst is `OP_BURST`, [`OP_RESET`], `OP_BURST`: when its
/// frames share an instant, the session goes down mid-batch.
pub(super) const OP_BURST: u8 = 0xE0;

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
            op if op > OP_BURST && op <= OP_BURST + 4 => {
                let burst = if op == OP_BURST + 1 {
                    [OP_BURST, OP_RESET, OP_BURST]
                } else {
                    [op - 1; 3]
                };
                for &p in self.peers.iter().filter(|&&p| p != from) {
                    for frame in burst {
                        let mut buf = api.buf();
                        buf.push(frame);
                        api.send(p, buf);
                    }
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

/// A 6-ring with 5 % link loss (retransmission delay) and log-normal
/// latency, so frames of one burst may or may not share an instant — or,
/// `fixed`, a fixed 5 ms, so frames sent at one instant, on one channel or
/// on several, arrive at one unless a retransmission delays them.
pub(super) fn lossy_ring(fixed: bool) -> Topology {
    let latency = if fixed {
        LatencyModel::Fixed(SimDuration::from_millis(5))
    } else {
        LatencyModel::LogNormal {
            median: SimDuration::from_millis(4),
            sigma: 0.3,
            floor: SimDuration::from_millis(2),
        }
    };
    let params = LinkParams {
        latency,
        bandwidth_bps: None,
        loss: 0.05,
    };
    Topology::ring(6, params)
}

/// A started [`lossy_ring`] of [`Scripted`] nodes.
pub(super) fn scripted_ring(fixed: bool, seed: u64) -> Simulator {
    let mut sim = Simulator::new(lossy_ring(fixed), seed);
    for i in 0..6 {
        sim.set_node(NodeId(i), Box::new(Scripted::default()));
    }
    sim.start();
    sim
}

/// Everything observable or consequential about a simulator of
/// [`Scripted`] or [`Pinger`] nodes, private state included, and the next
/// 8 draws of every link's two streams (drawn from copies: the probe must
/// not list a link as touched).
pub(super) fn state_digest(sim: &Simulator) -> Vec<String> {
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
        out.push(format!(
            "node {i} {kind} crashed {:?} timers {:?} touched {} {:?}",
            sim.crashed(NodeId(i as u32)),
            slot.timer_gen,
            sim.binding.touched(i),
            slot.node.get().map(fixture_state),
        ));
    }
    out.extend(sim.cuts.digest());
    out.extend(sim.links.digest(&sim.topo));
    out
}

/// A [`Scripted`] or [`Pinger`] node's state.
fn fixture_state(node: &dyn Node) -> String {
    match node.as_any().downcast_ref::<Pinger>() {
        Some(p) => format!("{p:?}"),
        None => format!("{:?}", scripted(node)),
    }
}

/// A [`Scripted`] node's state.
pub(super) fn scripted(node: &dyn Node) -> &Scripted {
    node.as_any().downcast_ref::<Scripted>().unwrap()
}
