//! Nodes and small systems shared by the simulator's unit tests.

use core::any::Any;

use super::Simulator;
use crate::link::LinkParams;
use crate::node::{Node, NodeApi, NodeId, SessionEvent};
use crate::time::SimDuration;
use crate::topology::Topology;

/// Counts messages; replies with the round number incremented. Payloads
/// are encoded into `api.buf()`, as the protocol nodes' are.
#[derive(Clone)]
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
