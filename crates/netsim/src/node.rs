//! The [`Node`] trait: protocol logic hosted by the simulator.
//!
//! A node is a deterministic state machine driven by message deliveries,
//! timer expirations and session events. All interaction with the outside
//! world goes through [`NodeApi`], which records *effects*; the simulator
//! applies them after the handler returns. This indirection is what makes
//! node state cheaply checkpointable: a node is plain data plus handlers.

use core::any::Any;
use serde::{Deserialize, Serialize};

use crate::buf::BufPool;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node in a simulation. Dense, assigned by the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in dense arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Why a session went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownReason {
    /// The peer (or this node) requested a reset.
    Reset,
    /// The underlying link was brought down by fault injection.
    LinkFailure,
    /// The remote node crashed.
    PeerCrash,
}

/// Session lifecycle notifications delivered to both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The reliable channel to `peer` is established in both directions.
    Up,
    /// The channel went down; all in-flight data was discarded.
    Down(DownReason),
}

/// An effect requested by a node handler, applied by the simulator
/// after the handler returns.
#[derive(Debug, Clone)]
#[allow(
    missing_docs,
    reason = "every variant is documented; its fields are the effect's operands"
)]
pub enum Effect {
    /// Send bytes over the session to a neighbor (counts as activity).
    Send { to: NodeId, data: Vec<u8> },
    /// Send bytes without bumping the quiescence clock (e.g. keepalives).
    SendQuiet { to: NodeId, data: Vec<u8> },
    /// Arm (or re-arm) the timer identified by `token`.
    SetTimer { delay: SimDuration, token: u64 },
    /// Cancel any pending timer with this token.
    CancelTimer { token: u64 },
    /// Tear down the session with `peer`; both ends get `Down(Reset)`.
    ResetSession { peer: NodeId },
    /// Record a structured trace annotation.
    Trace { tag: &'static str, detail: String },
    /// The node hit an unrecoverable internal error (models a daemon crash).
    Crash { reason: String },
}

/// Handler-side view of the simulator.
///
/// Collects effects and exposes read-only context (current time, own id).
pub struct NodeApi<'a> {
    me: NodeId,
    now: SimTime,
    effects: &'a mut Vec<Effect>,
    /// The simulator's payload free list; `None` with pooling off.
    bufs: Option<&'a mut BufPool>,
    /// Whether the simulator's trace ring keeps annotations.
    annotate: bool,
}

impl<'a> NodeApi<'a> {
    pub(crate) fn new(
        me: NodeId,
        now: SimTime,
        effects: &'a mut Vec<Effect>,
        bufs: Option<&'a mut BufPool>,
        annotate: bool,
    ) -> Self {
        NodeApi {
            me,
            now,
            effects,
            bufs,
            annotate,
        }
    }

    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// An empty payload buffer for zero-copy encoding: fill it (the
    /// codecs' `encode_into` take `&mut Vec<u8>`) and pass it to
    /// [`NodeApi::send`]; the simulator takes the storage back when the
    /// frame leaves its channel. With payload pooling disabled this is
    /// `Vec::new()`, so call sites never branch on the knob.
    pub fn buf(&mut self) -> Vec<u8> {
        self.bufs
            .as_mut()
            .map(|pool| pool.acquire())
            .unwrap_or_default()
    }

    /// Send `data` to the neighbor `to` over the established session.
    /// Silently dropped by the simulator if the session is down.
    pub fn send(&mut self, to: NodeId, data: Vec<u8>) {
        self.effects.push(Effect::Send { to, data });
    }

    /// Like [`NodeApi::send`] but does not reset the quiescence clock.
    /// Use for periodic background traffic such as keepalives.
    pub fn send_quiet(&mut self, to: NodeId, data: Vec<u8>) {
        self.effects.push(Effect::SendQuiet { to, data });
    }

    /// Arm a timer. A later `set_timer` with the same token supersedes the
    /// earlier one; `on_timer` fires with the token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::SetTimer { delay, token });
    }

    /// Cancel a pending timer by token. No-op if not armed.
    pub fn cancel_timer(&mut self, token: u64) {
        self.effects.push(Effect::CancelTimer { token });
    }

    /// Request a session reset toward `peer` (models a TCP RST / BGP
    /// NOTIFICATION teardown at the transport level).
    pub fn reset_session(&mut self, peer: NodeId) {
        self.effects.push(Effect::ResetSession { peer });
    }

    /// Emit a structured trace annotation attributed to this node. Pass
    /// `format_args!(..)`: the text is rendered here, once, and only when
    /// the simulator's trace ring retains annotations — a handler on a
    /// ring-less validation clone pays nothing for its commentary.
    pub fn trace(&mut self, tag: &'static str, detail: core::fmt::Arguments<'_>) {
        if self.annotate {
            let detail = detail.to_string();
            self.effects.push(Effect::Trace { tag, detail });
        }
    }

    /// Declare that this node has crashed (unrecoverable internal error).
    /// The simulator drops all its sessions and stops delivering events.
    pub fn crash(&mut self, reason: impl Into<String>) {
        self.effects.push(Effect::Crash {
            reason: reason.into(),
        });
    }
}

/// A protocol node hosted by the simulator.
///
/// Implementations must be deterministic functions of their state and the
/// handler arguments; any randomness must come from state seeded explicitly.
/// `Send + Sync` lets shadow snapshots be shared across DiCE's parallel
/// validation workers (nodes are only ever mutated behind `&mut`).
pub trait Node: Send + Sync {
    /// Invoked once when the simulation starts (before any session is up).
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let _ = api;
    }

    /// A data message from neighbor `from` arrived.
    fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>);

    /// A timer armed via [`NodeApi::set_timer`] fired.
    fn on_timer(&mut self, token: u64, api: &mut NodeApi<'_>) {
        let _ = (token, api);
    }

    /// The session with `peer` changed state.
    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        let _ = (peer, ev, api);
    }

    /// Deep-copy this node's state. This is the checkpoint primitive:
    /// DiCE's lightweight node checkpoints are produced by this call.
    fn clone_node(&self) -> Box<dyn Node>;

    /// Approximate serialized size of the node state in bytes, used for
    /// checkpoint-overhead accounting. Implementations should count their
    /// dominant collections; exact byte-accuracy is not required.
    fn state_size(&self) -> usize {
        0
    }

    /// Downcast support for checkers that inspect concrete node types.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn Node> {
    fn clone(&self) -> Self {
        self.clone_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct Echo {
        seen: Vec<u8>,
    }

    impl Node for Echo {
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
            self.seen.extend_from_slice(data);
            api.send(from, data.to_vec());
        }
        fn clone_node(&self) -> Box<dyn Node> {
            Box::new(self.clone())
        }
        fn state_size(&self) -> usize {
            self.seen.len()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn api_records_effects_in_order() {
        let mut effects = Vec::new();
        let mut api = NodeApi::new(NodeId(1), SimTime::ZERO, &mut effects, None, true);
        api.send(NodeId(2), vec![1]);
        api.set_timer(SimDuration::from_secs(1), 7);
        api.cancel_timer(7);
        api.reset_session(NodeId(2));
        assert_eq!(effects.len(), 4);
        assert!(matches!(effects[0], Effect::Send { to: NodeId(2), .. }));
        assert!(matches!(effects[1], Effect::SetTimer { token: 7, .. }));
        assert!(matches!(effects[2], Effect::CancelTimer { token: 7 }));
        assert!(matches!(
            effects[3],
            Effect::ResetSession { peer: NodeId(2) }
        ));
    }

    #[test]
    fn annotations_render_only_when_retained() {
        struct Loud<'a>(&'a core::cell::Cell<u32>);
        impl core::fmt::Display for Loud<'_> {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("x")
            }
        }
        let rendered = core::cell::Cell::new(0);
        for (annotate, want_effects, want_renders) in [(false, 0, 0), (true, 1, 1)] {
            let mut effects = Vec::new();
            let mut api = NodeApi::new(NodeId(1), SimTime::ZERO, &mut effects, None, annotate);
            api.trace("t", format_args!("{}", Loud(&rendered)));
            assert_eq!(effects.len(), want_effects);
            assert_eq!(rendered.get(), want_renders);
        }
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let e = Echo {
            seen: vec![1, 2, 3],
        };
        let b: Box<dyn Node> = Box::new(e);
        let c = b.clone();
        assert_eq!(c.state_size(), 3);
        let echo = c.as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(echo.seen, vec![1, 2, 3]);
    }

    #[test]
    fn handler_echoes_through_api() {
        let mut effects = Vec::new();
        let mut node = Echo::default();
        let mut api = NodeApi::new(NodeId(0), SimTime::ZERO, &mut effects, None, true);
        node.on_message(NodeId(3), &[9, 9], &mut api);
        assert_eq!(node.seen, vec![9, 9]);
        match &effects[0] {
            Effect::Send { to, data } => {
                assert_eq!(*to, NodeId(3));
                assert_eq!(data, &[9, 9]);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn pooled_send_flows_through_effects() {
        let mut pool = BufPool::new();
        pool.recycle(Vec::with_capacity(100));
        let mut effects = Vec::new();
        let mut api = NodeApi::new(
            NodeId(0),
            SimTime::ZERO,
            &mut effects,
            Some(&mut pool),
            true,
        );
        let mut b = api.buf();
        b.extend_from_slice(&[4, 2]);
        api.send(NodeId(1), b);
        let unpooled = NodeApi::new(NodeId(0), SimTime::ZERO, &mut Vec::new(), None, true).buf();
        assert_eq!(unpooled.capacity(), 0, "pooling off: `Vec::new()`");
        match &effects[0] {
            Effect::Send { to, data } => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(data, &[4, 2]);
                assert!(data.capacity() >= 100, "the pool's storage travels");
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(pool.take_counts(), (1, 0), "the one lease was a hit");
    }
}
