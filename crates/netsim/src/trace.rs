//! Structured execution traces and aggregate counters.
//!
//! Always-on counters ([`TraceStats`]) that never drop data, plus a bounded
//! ring of structured events. The counters are what the checkers, the
//! benchmark and the `exp_*` binaries read; the ring is a debugging aid for
//! a system someone is looking at, and a simulator built with capacity 0
//! (every validation clone) keeps none of it.

use crate::node::{DownReason, NodeId};
use crate::time::SimTime;

/// One traced event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When the event happened.
    pub t: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Event taxonomy. Variant fields are self-describing (`src`/`dst`
/// endpoints, payload sizes, snapshot ids).
#[derive(Debug, Clone)]
#[allow(
    missing_docs,
    reason = "every variant is documented; its fields are self-describing endpoints, sizes and ids"
)]
pub enum TraceKind {
    /// A data frame was handed to the channel.
    Sent {
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    },
    /// A data frame was delivered to its destination handler.
    Delivered {
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    },
    /// A session came up.
    SessionUp { a: NodeId, b: NodeId },
    /// A session went down.
    SessionDown {
        a: NodeId,
        b: NodeId,
        reason: DownReason,
    },
    /// A timer fired at a node.
    TimerFired { node: NodeId, token: u64 },
    /// A node crashed.
    NodeCrashed { node: NodeId, reason: String },
    /// A snapshot marker was forwarded on a channel.
    MarkerSent {
        src: NodeId,
        dst: NodeId,
        snapshot: u32,
    },
    /// A consistent snapshot completed.
    SnapshotComplete { snapshot: u32 },
    /// Free-form annotation emitted by a node handler.
    Node {
        node: NodeId,
        tag: &'static str,
        detail: String,
    },
}

/// Aggregate counters, maintained regardless of trace capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Data frames sent (including quiet sends).
    pub msgs_sent: u64,
    /// Data frames delivered.
    pub msgs_delivered: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Timer firings.
    pub timers_fired: u64,
    /// Session transitions to Up.
    pub sessions_up: u64,
    /// Session transitions to Down.
    pub sessions_down: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Events evicted from the bounded ring to make room for newer ones.
    /// A ring of capacity 0 retains nothing, so it never evicts: this stays
    /// 0 there, and the counters above are the whole record.
    pub dropped_events: u64,
}

/// Bounded trace buffer plus counters.
#[derive(Debug, Clone)]
pub struct Trace {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    stats: TraceStats,
}

impl Trace {
    /// A trace retaining at most `capacity` events (counters are unbounded).
    /// Capacity 0 counts and retains nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: std::collections::VecDeque::new(),
            capacity,
            stats: TraceStats::default(),
        }
    }

    /// Reset events and counters while keeping the ring's allocation —
    /// used when a pooled simulator is rebound to a new shadow snapshot
    /// ([`Simulator::reset_from_shadow`](crate::sim::Simulator::reset_from_shadow)).
    pub fn clear(&mut self) {
        self.events.clear();
        self.stats = TraceStats::default();
    }

    /// Whether pushed events are kept (capacity above 0). Producers of
    /// events that cost something to build ask first.
    pub fn retains(&self) -> bool {
        self.capacity > 0
    }

    /// Record an event, updating counters and evicting the oldest event if
    /// at capacity.
    pub fn push(&mut self, t: SimTime, kind: TraceKind) {
        match &kind {
            TraceKind::Sent { .. } => self.stats.msgs_sent += 1,
            TraceKind::Delivered { bytes, .. } => {
                self.stats.msgs_delivered += 1;
                self.stats.bytes_delivered += *bytes as u64;
            }
            TraceKind::TimerFired { .. } => self.stats.timers_fired += 1,
            TraceKind::SessionUp { .. } => self.stats.sessions_up += 1,
            TraceKind::SessionDown { .. } => self.stats.sessions_down += 1,
            TraceKind::NodeCrashed { .. } => self.stats.crashes += 1,
            _ => {}
        }
        if !self.retains() {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.stats.dropped_events += 1;
        }
        self.events.push_back(TraceEvent { t, kind });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the retained buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Node annotations with the given tag, oldest first.
    pub fn annotations<'a>(
        &'a self,
        tag: &'a str,
    ) -> impl Iterator<Item = (SimTime, NodeId, &'a str)> + 'a {
        self.events.iter().filter_map(move |e| match &e.kind {
            TraceKind::Node {
                node,
                tag: t,
                detail,
            } if *t == tag => Some((e.t, *node, detail.as_str())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_kinds() {
        let mut tr = Trace::with_capacity(16);
        tr.push(
            SimTime::ZERO,
            TraceKind::Sent {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 10,
            },
        );
        tr.push(
            SimTime::ZERO,
            TraceKind::Delivered {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 10,
            },
        );
        tr.push(
            SimTime::ZERO,
            TraceKind::TimerFired {
                node: NodeId(0),
                token: 1,
            },
        );
        let s = tr.stats();
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.msgs_delivered, 1);
        assert_eq!(s.bytes_delivered, 10);
        assert_eq!(s.timers_fired, 1);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn ring_evicts_but_counts() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.push(
                SimTime::from_nanos(i),
                TraceKind::Sent {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 1,
                },
            );
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.stats().msgs_sent, 5);
        assert_eq!(tr.stats().dropped_events, 3);
        // Oldest retained is event #3.
        assert_eq!(tr.events().next().unwrap().t, SimTime::from_nanos(3));
    }

    #[test]
    fn capacity_zero_counts_and_retains_nothing() {
        let mut tr = Trace::with_capacity(0);
        assert!(!tr.retains());
        for i in 0..10_000u64 {
            tr.push(
                SimTime::from_nanos(i),
                TraceKind::Delivered {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 3,
                },
            );
        }
        assert_eq!(tr.len(), 0);
        assert!(tr.is_empty());
        assert_eq!(
            tr.stats(),
            TraceStats {
                msgs_delivered: 10_000,
                bytes_delivered: 30_000,
                ..TraceStats::default()
            },
            "counters exact, nothing evicted because nothing was kept"
        );
    }

    #[test]
    fn annotations_filter_by_tag() {
        let mut tr = Trace::with_capacity(16);
        tr.push(
            SimTime::ZERO,
            TraceKind::Node {
                node: NodeId(2),
                tag: "best",
                detail: "10.0.0.0/8".into(),
            },
        );
        tr.push(
            SimTime::ZERO,
            TraceKind::Node {
                node: NodeId(2),
                tag: "other",
                detail: "x".into(),
            },
        );
        let hits: Vec<_> = tr.annotations("best").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, NodeId(2));
        assert_eq!(hits[0].2, "10.0.0.0/8");
    }
}
