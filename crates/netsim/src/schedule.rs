//! Deterministic dynamics schedules: partition/heal windows and node churn.
//!
//! Continuous-testing surveys single out environment dynamics — nodes
//! joining and leaving, partitions opening and healing — as the dimension
//! simulation harnesses usually skip. This module makes them first-class: a
//! [`ScheduleSpec`] declares *how much* dynamics a run should see, and
//! [`ScheduleSpec::expand`] turns it into a concrete time-ordered
//! [`Schedule`] of [`FaultAction`]s using only [`SimRng`] randomness, so the
//! same `(spec, topology, seed)` always yields the same script. Hand-written
//! fault scripts (session-reset storms, a single link failure) are the same
//! type, built with [`Schedule::at`].
//!
//! A schedule can be driven two ways:
//!
//! * [`Schedule::install`] enqueues every action as an in-band simulation
//!   event ([`Simulator::schedule_fault`]); actions then fire during any
//!   `run_*` call with no caller involvement — the natural mode for long
//!   scale experiments.
//! * [`Schedule::apply_due`] applies actions at or before `sim.now()`
//!   immediately; the campaign layer uses this between sweeps so dynamics
//!   land at quiescent points rather than mid-way through a Chandy–Lamport
//!   cut.
//!
//! Churn is modeled as fail-stop leave ([`FaultAction::NodeCrash`]) followed
//! by a pristine-state rejoin ([`FaultAction::NodeRestart`]) after
//! `churn_len`; a partition is a link going administratively down and
//! healing after `partition_len`. Every applied action counts into
//! [`crate::sim::SnapshotStats::churn_events`].

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// A fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultAction {
    /// Reset the session between two adjacent nodes (auto-reconnect applies).
    SessionReset(NodeId, NodeId),
    /// Administratively fail a link.
    LinkDown(NodeId, NodeId),
    /// Re-enable a previously failed link.
    LinkUp(NodeId, NodeId),
    /// Fail-stop a node.
    NodeCrash(NodeId),
    /// Restart a crashed node from pristine state.
    NodeRestart(NodeId),
}

/// Declarative description of environment dynamics over a run window.
///
/// The default spec is empty (no partitions, no churn): threading a default
/// spec through a run is outcome-neutral, which is what lets the campaign
/// layer expose the knob without perturbing its byte-stable reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSpec {
    /// Number of partition windows: a random link goes down, then heals.
    pub partitions: u32,
    /// How long each partition stays open before healing.
    pub partition_len: SimDuration,
    /// Number of churn cycles: a random node leaves, then rejoins.
    pub churn: u32,
    /// Downtime before a churned node rejoins (from pristine state).
    pub churn_len: SimDuration,
    /// Offset from the expansion base time at which dynamics may begin.
    pub start: SimDuration,
    /// Window after `start` over which event onsets are scattered.
    pub window: SimDuration,
    /// Node ids below this are never churned (protects tier-1 ASes or the
    /// campaign's explorer set from leaving the system).
    pub protect_first: u32,
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        ScheduleSpec {
            partitions: 0,
            partition_len: SimDuration::from_secs(2),
            churn: 0,
            churn_len: SimDuration::from_secs(2),
            start: SimDuration::ZERO,
            window: SimDuration::from_secs(10),
            protect_first: 0,
        }
    }
}

impl ScheduleSpec {
    /// Whether expansion would produce no events at all.
    pub fn is_empty(&self) -> bool {
        self.partitions == 0 && self.churn == 0
    }

    /// Expand into a concrete script over `topo`, with onsets measured from
    /// `base`. Deterministic in `rng`: link picks, churn victims and onset
    /// jitter all come from the provided stream and nothing else.
    pub fn expand(&self, topo: &Topology, base: SimTime, rng: &mut SimRng) -> Schedule {
        let mut entries = Vec::new();
        let edges = topo.edges();
        for _ in 0..self.partitions {
            if edges.is_empty() {
                break;
            }
            let e = &edges[rng.index(edges.len())];
            let at = base + self.start + jitter(rng, self.window);
            entries.push((at, FaultAction::LinkDown(e.a, e.b)));
            entries.push((at + self.partition_len, FaultAction::LinkUp(e.a, e.b)));
        }
        let eligible = topo.len().saturating_sub(self.protect_first as usize);
        for _ in 0..self.churn {
            if eligible == 0 {
                break;
            }
            let n = NodeId(self.protect_first + rng.index(eligible) as u32);
            let at = base + self.start + jitter(rng, self.window);
            entries.push((at, FaultAction::NodeCrash(n)));
            entries.push((at + self.churn_len, FaultAction::NodeRestart(n)));
        }
        // Stable sort: simultaneous actions keep their generation order.
        entries.sort_by_key(|(t, _)| *t);
        Schedule {
            entries,
            applied: 0,
        }
    }
}

/// Uniform jitter in `[0, window)` (zero when the window is empty).
fn jitter(rng: &mut SimRng, window: SimDuration) -> SimDuration {
    if window.as_nanos() == 0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_nanos(rng.below(window.as_nanos()))
}

/// A time-ordered fault script: expanded from a [`ScheduleSpec`] or built
/// by hand with [`Schedule::at`] (starting from `Schedule::default()`).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    entries: Vec<(SimTime, FaultAction)>,
    applied: usize,
}

impl Schedule {
    /// Add a fault at an absolute simulated time.
    ///
    /// Contract: entries may be added in any order, *including after some
    /// of the script has already been installed or applied*. The applied
    /// prefix is immutable; the pending tail is kept time-sorted on every
    /// add. Duplicate-time entries keep their insertion order (stable
    /// sort), and an entry scheduled before `sim.now()` fires on the next
    /// [`Schedule::apply_due`] / [`Schedule::install`] — clamped-to-now
    /// semantics, same as [`Simulator::schedule_fault`].
    pub fn at(mut self, t: SimTime, action: FaultAction) -> Self {
        self.entries.push((t, action));
        self.entries[self.applied..].sort_by_key(|(t, _)| *t);
        self
    }

    /// The full script, in firing order.
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// Total number of scripted actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the script contains no actions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of actions not yet installed or applied.
    pub fn pending(&self) -> usize {
        self.entries.len() - self.applied
    }

    /// Enqueue every remaining action as an in-band simulation event;
    /// actions then fire during any `run_*` call (past onsets are clamped
    /// to now).
    pub fn install(&mut self, sim: &mut Simulator) {
        while self.applied < self.entries.len() {
            let (t, action) = self.entries[self.applied];
            sim.schedule_fault(t, action);
            self.applied += 1;
        }
    }

    /// Apply every remaining action scheduled at or before `sim.now()`
    /// immediately. Call interleaved with `run_until` steps (or between
    /// campaign sweeps) when actions must not land mid-snapshot.
    pub fn apply_due(&mut self, sim: &mut Simulator) {
        while self.applied < self.entries.len() {
            let (t, action) = self.entries[self.applied];
            if t > sim.now() {
                break;
            }
            sim.apply_fault_now(action);
            self.applied += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::{Node, NodeApi};
    use core::any::Any;

    #[derive(Clone, Default)]
    struct Quiet;
    impl Node for Quiet {
        fn on_message(&mut self, _: NodeId, _: &[u8], _: &mut NodeApi<'_>) {}
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

    fn quiet_sim(n: usize) -> Simulator {
        let topo = Topology::line(n, LinkParams::fixed(SimDuration::from_millis(1)));
        let mut sim = Simulator::new(topo, 0);
        for i in 0..n {
            sim.set_node(NodeId(i as u32), Box::new(Quiet));
        }
        sim.start();
        sim
    }

    fn busy_spec() -> ScheduleSpec {
        ScheduleSpec {
            partitions: 2,
            partition_len: SimDuration::from_secs(1),
            churn: 2,
            churn_len: SimDuration::from_secs(1),
            start: SimDuration::from_secs(1),
            window: SimDuration::from_secs(5),
            protect_first: 1,
        }
    }

    #[test]
    fn expansion_is_deterministic_and_seed_sensitive() {
        let topo = Topology::line(6, LinkParams::default());
        let spec = busy_spec();
        let a = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(9));
        let b = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(9));
        assert_eq!(a.entries(), b.entries(), "same seed must replay");
        assert_eq!(a.len(), 8, "two actions per partition and per churn");
        let c = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(10));
        assert_ne!(a.entries(), c.entries(), "different seed must diverge");
    }

    #[test]
    fn empty_spec_expands_to_nothing() {
        let topo = Topology::line(3, LinkParams::default());
        let spec = ScheduleSpec::default();
        assert!(spec.is_empty());
        let s = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(1));
        assert!(s.is_empty());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn protect_first_shields_low_ids() {
        let topo = Topology::line(8, LinkParams::default());
        let spec = ScheduleSpec {
            churn: 16,
            protect_first: 4,
            window: SimDuration::ZERO,
            ..ScheduleSpec::default()
        };
        let s = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(3));
        for (_, action) in s.entries() {
            if let FaultAction::NodeCrash(n) | FaultAction::NodeRestart(n) = action {
                assert!(n.0 >= 4, "churned protected node {n}");
            }
        }
    }

    #[test]
    fn installed_partition_opens_and_heals_in_band() {
        let mut sim = quiet_sim(3);
        sim.run_until(SimTime::from_nanos(500_000_000));
        let spec = ScheduleSpec {
            partitions: 1,
            partition_len: SimDuration::from_secs(2),
            start: SimDuration::from_secs(1),
            window: SimDuration::ZERO,
            ..ScheduleSpec::default()
        };
        let topo = sim.topology().clone();
        let mut sched = spec.expand(&topo, sim.now(), &mut SimRng::seed_from_u64(4));
        sched.install(&mut sim);
        assert_eq!(sched.pending(), 0, "install drains the script");
        // Partition opens at now+1s and heals 2s later — all inside run_until,
        // with no pumping from the caller.
        let (a, b) = match sched.entries()[0] {
            (_, FaultAction::LinkDown(a, b)) => (a, b),
            ref e => panic!("expected LinkDown first, got {e:?}"),
        };
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        assert!(!sim.session_up(a, b), "partition window open");
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert!(sim.session_up(a, b), "partition healed in-band");
        assert_eq!(sim.take_snapshot_stats().churn_events, 2);
    }

    #[test]
    fn churn_cycle_leaves_and_rejoins() {
        let mut sim = quiet_sim(4);
        sim.run_until(SimTime::from_nanos(500_000_000));
        let spec = ScheduleSpec {
            churn: 1,
            churn_len: SimDuration::from_secs(1),
            start: SimDuration::from_secs(1),
            window: SimDuration::ZERO,
            protect_first: 1,
            ..ScheduleSpec::default()
        };
        let topo = sim.topology().clone();
        let mut sched = spec.expand(&topo, sim.now(), &mut SimRng::seed_from_u64(5));
        let victim = match sched.entries()[0] {
            (_, FaultAction::NodeCrash(n)) => n,
            ref e => panic!("expected NodeCrash first, got {e:?}"),
        };
        sched.install(&mut sim);
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        assert!(sim.crashed(victim).is_some(), "node left mid-run");
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        assert!(sim.crashed(victim).is_none(), "node rejoined");
        let peers = topo.neighbors(victim);
        assert!(
            peers.iter().all(|&m| sim.session_up(victim, m)),
            "rejoined node re-established its sessions"
        );
        assert_eq!(sim.take_snapshot_stats().churn_events, 2);
    }

    #[test]
    fn late_out_of_order_adds_are_resorted() {
        let link = (NodeId(0), NodeId(1));
        let mut sim = quiet_sim(3);
        let mut script = Schedule::default().at(
            SimTime::from_nanos(1_000_000_000),
            FaultAction::LinkDown(link.0, link.1),
        );
        sim.run_until(SimTime::from_nanos(1_500_000_000));
        script.apply_due(&mut sim);
        assert!(!sim.session_up(link.0, link.1));
        assert_eq!(script.pending(), 0);
        // Late adds, out of time order, after the first application: the
        // heal at 2s must still fire before the second outage at 3s (a
        // sorted-once script would stall on the 3s entry and leave the link
        // down).
        script = script
            .at(
                SimTime::from_nanos(3_000_000_000),
                FaultAction::LinkDown(link.0, link.1),
            )
            .at(
                SimTime::from_nanos(2_000_000_000),
                FaultAction::LinkUp(link.0, link.1),
            );
        sim.run_until(SimTime::from_nanos(2_500_000_000));
        script.apply_due(&mut sim);
        sim.run_until(SimTime::from_nanos(2_600_000_000));
        assert!(
            sim.session_up(link.0, link.1),
            "heal added late must fire at its own time, not after the outage"
        );
        sim.run_until(SimTime::from_nanos(4_000_000_000));
        script.apply_due(&mut sim);
        assert!(!sim.session_up(link.0, link.1), "second outage at 3s");
        assert_eq!(script.pending(), 0);
    }

    #[test]
    fn late_past_due_add_applies_on_next_pump() {
        let mut sim = quiet_sim(3);
        let mut script = Schedule::default().at(
            SimTime::from_nanos(1_000_000_000),
            FaultAction::NodeCrash(NodeId(2)),
        );
        script.install(&mut sim);
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        assert!(sim.crashed(NodeId(2)).is_some());
        // Scheduled in the past relative to `sim.now()`: clamped-to-now
        // semantics, fires on the next pump.
        script = script.at(
            SimTime::from_nanos(500_000_000),
            FaultAction::NodeRestart(NodeId(2)),
        );
        assert_eq!(script.pending(), 1);
        script.apply_due(&mut sim);
        assert!(sim.crashed(NodeId(2)).is_none(), "past-due entry applied");
        assert_eq!(script.pending(), 0);
    }

    #[test]
    fn duplicate_time_entries_apply_in_insertion_order() {
        let t = SimTime::from_nanos(1_000_000_000);
        let crash = FaultAction::NodeCrash(NodeId(1));
        let restart = FaultAction::NodeRestart(NodeId(1));
        // Crash then restart at the same instant: only insertion order
        // makes the node end up alive (restart before crash would be a
        // no-op restart followed by a crash).
        for (first, second, alive) in [(crash, restart, true), (restart, crash, false)] {
            let mut sim = quiet_sim(3);
            Schedule::default()
                .at(t, first)
                .at(t, second)
                .install(&mut sim);
            sim.run_until(SimTime::from_nanos(2_000_000_000));
            assert_eq!(sim.crashed(NodeId(1)).is_none(), alive, "{first:?} first");
        }
    }

    #[test]
    fn apply_due_pumps_between_run_steps() {
        let mut sim = quiet_sim(3);
        let spec = ScheduleSpec {
            partitions: 1,
            partition_len: SimDuration::from_secs(2),
            start: SimDuration::from_secs(1),
            window: SimDuration::ZERO,
            ..ScheduleSpec::default()
        };
        let topo = sim.topology().clone();
        let mut sched = spec.expand(&topo, SimTime::ZERO, &mut SimRng::seed_from_u64(6));
        sched.apply_due(&mut sim);
        assert_eq!(sched.pending(), 2, "nothing due at t=0");
        sim.run_until(SimTime::from_nanos(1_500_000_000));
        sched.apply_due(&mut sim);
        assert_eq!(sched.pending(), 1, "partition opened");
        sim.run_until(SimTime::from_nanos(4_000_000_000));
        sched.apply_due(&mut sim);
        assert_eq!(sched.pending(), 0, "partition healed");
        assert_eq!(sim.take_snapshot_stats().churn_events, 2);
    }
}
