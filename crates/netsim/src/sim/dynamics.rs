//! Dynamics: crashes, restarts and the fault-injection entry points
//! [`crate::schedule::Schedule`] drives.

use super::{Down, Ev, NodeState, Simulator, SESSION_SETUP_BASE, SESSION_SETUP_STAGGER};
use crate::node::{DownReason, NodeId};
use crate::schedule::FaultAction;
use crate::time::{SimDuration, SimTime};

impl Simulator {
    /// Schedule a dynamics action to fire *inside* the event loop at
    /// absolute time `t` (clamped to now). Unlike
    /// [`crate::schedule::Schedule::apply_due`], which the caller must pump,
    /// actions scheduled here fire during any `run_*` call — this is how
    /// [`crate::schedule::Schedule::install`] expresses churn and partition
    /// windows as ordinary simulation events.
    pub fn schedule_fault(&mut self, t: SimTime, action: FaultAction) {
        let at = t.max(self.now);
        self.schedule(at, Ev::Fault(action));
    }

    /// Apply one dynamics action immediately, counting it in
    /// [`SnapshotStats::churn_events`].
    pub(crate) fn apply_fault_now(&mut self, action: FaultAction) {
        self.cuts.count_churn();
        match action {
            FaultAction::SessionReset(a, b) => self.inject_session_reset(a, b),
            FaultAction::LinkDown(a, b) => self.inject_link_down(a, b),
            FaultAction::LinkUp(a, b) => self.inject_link_up(a, b),
            FaultAction::NodeCrash(n) => self.inject_node_crash(n),
            FaultAction::NodeRestart(n) => self.inject_node_restart(n),
        }
    }

    pub(super) fn crash_node(&mut self, n: NodeId, reason: String) {
        if self.nodes[n.index()].crashed.is_some() {
            return;
        }
        self.nodes[n.index()].crashed = Some(Down::Crashed(reason));
        self.binding.touch(n);
        self.trace.stats.crashes += 1;
        let peers: Vec<NodeId> = self.topo.neighbors(n);
        for m in peers {
            self.teardown_session(n, m, DownReason::PeerCrash, false);
        }
        self.cuts.node_crashed(n);
    }

    /// Forcibly reset the session between `a` and `b` (operator action /
    /// fault). Auto-reconnect applies if configured.
    pub fn inject_session_reset(&mut self, a: NodeId, b: NodeId) {
        self.teardown_session(a, b, DownReason::Reset, true);
    }

    /// Take the link down administratively; the session drops and will not
    /// re-establish until [`Simulator::inject_link_up`].
    pub fn inject_link_down(&mut self, a: NodeId, b: NodeId) {
        self.admin_down.insert(Self::skey(a, b));
        self.teardown_session(a, b, DownReason::LinkFailure, false);
    }

    /// Re-enable a link and schedule session re-establishment.
    pub fn inject_link_up(&mut self, a: NodeId, b: NodeId) {
        self.admin_down.remove(&Self::skey(a, b));
        let at = self.now + SimDuration::from_millis(1);
        self.schedule(at, Ev::SessionUp { a, b });
    }

    /// Crash a node (fail-stop).
    pub fn inject_node_crash(&mut self, n: NodeId) {
        self.crash_node(n, "fault injection".to_string());
    }

    /// Restart a crashed node from its pristine (start-of-run) state and
    /// schedule session re-establishment with its neighbors. The new
    /// incarnation inherits no timer: whatever the dead one armed is
    /// superseded. A simulator bound to a shadow snapshot holds no
    /// start-of-run image ([`Simulator::reset_from_shadow`] clears it), so
    /// there the node stays down.
    pub fn inject_node_restart(&mut self, n: NodeId) {
        if self.nodes[n.index()].crashed.is_none() {
            return;
        }
        let Some(pristine) = self.pristine.get(&n) else {
            return;
        };
        let slot = &mut self.nodes[n.index()];
        slot.node = NodeState::Owned(pristine.clone_node());
        slot.crashed = None;
        // A token the new incarnation re-arms must not restart at a
        // generation a still-queued pre-crash `Ev::Timer` carries.
        slot.timer_gen.bump_all();
        self.binding.touch(n);
        self.with_node(n, |node, api| node.on_start(api));
        let peers = self.topo.neighbors(n);
        for (i, m) in peers.into_iter().enumerate() {
            let at = self.now + SESSION_SETUP_BASE + SESSION_SETUP_STAGGER.saturating_mul(i as u64);
            self.schedule(at, Ev::SessionUp { a: n, b: m });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{two_node_sim, Pinger};
    use super::*;
    use crate::node::{Node, NodeApi};
    use crate::topology::Topology;

    #[test]
    fn link_down_prevents_reconnect() {
        let mut sim = two_node_sim(4);
        sim.run_until(SimTime::from_nanos(2_000_000));
        sim.inject_link_down(NodeId(0), NodeId(1));
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        assert!(!sim.session_up(NodeId(0), NodeId(1)));
        sim.inject_link_up(NodeId(0), NodeId(1));
        sim.run_until(SimTime::from_nanos(31_000_000_000));
        assert!(sim.session_up(NodeId(0), NodeId(1)));
    }

    #[test]
    fn crash_tears_down_sessions_and_mutes_node() {
        let mut sim = two_node_sim(5);
        sim.run_until(SimTime::from_nanos(2_000_000));
        sim.inject_node_crash(NodeId(1));
        assert!(sim.crashed(NodeId(1)).is_some());
        assert!(!sim.session_up(NodeId(0), NodeId(1)));
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(
            !sim.session_up(NodeId(0), NodeId(1)),
            "crashed node must not reconnect"
        );
    }

    #[test]
    fn restart_recovers_from_pristine() {
        let mut sim = two_node_sim(6);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.inject_node_crash(NodeId(1));
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        sim.inject_node_restart(NodeId(1));
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        assert!(sim.crashed(NodeId(1)).is_none());
        assert!(sim.session_up(NodeId(0), NodeId(1)));
        let p1 = sim
            .node(NodeId(1))
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap();
        // Restarted from pristine: history cleared, then new exchange happened.
        assert!(p1.got.len() <= 5);
    }

    #[test]
    fn a_restarted_node_does_not_inherit_its_dead_incarnations_timers() {
        /// Arms token 1 for 30 s when it starts; logs when it fires.
        #[derive(Clone, Default)]
        struct Alarm {
            fired: Vec<SimTime>,
        }
        impl Node for Alarm {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_secs(30), 1);
            }
            fn on_message(&mut self, _: NodeId, _: &[u8], _: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _: u64, api: &mut NodeApi<'_>) {
                self.fired.push(api.now());
            }
            fn clone_node(&self) -> Box<dyn Node> {
                Box::new(self.clone())
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut sim = Simulator::new(Topology::with_nodes(1), 0);
        sim.set_node(NodeId(0), Box::new(Alarm::default()));
        sim.start();
        sim.run_until(secs(5));
        sim.inject_node_crash(NodeId(0));
        sim.run_until(secs(6));
        sim.inject_node_restart(NodeId(0));
        sim.run_until(secs(60));
        let alarm = sim.node(NodeId(0)).as_any().downcast_ref::<Alarm>();
        // The pre-crash timer (due at 30 s) belongs to the dead incarnation.
        assert_eq!(alarm.unwrap().fired, [secs(36)]);
    }

    #[test]
    fn restart_on_a_shadow_bound_simulator_leaves_the_node_down() {
        let mut live = two_node_sim(9);
        live.run_until(SimTime::from_nanos(1_000_000_000));
        let shadow = live.instant_snapshot();
        let mut clone = Simulator::from_shadow(&shadow, live.topology(), 3);
        clone.inject_node_crash(NodeId(1));
        // Directly, and as a scheduled `FaultAction` firing in the loop.
        clone.inject_node_restart(NodeId(1));
        clone.schedule_fault(clone.now(), FaultAction::NodeRestart(NodeId(1)));
        clone.run_for(SimDuration::from_secs(10));
        assert!(
            clone.crashed(NodeId(1)).is_some(),
            "no image to restart from"
        );
        assert!(!clone.session_up(NodeId(0), NodeId(1)));
    }
}
