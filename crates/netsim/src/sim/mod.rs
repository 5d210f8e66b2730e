//! The deterministic discrete-event simulator.
//!
//! Nodes exchange opaque byte frames over reliable, in-order session
//! channels; links add latency/serialization/retransmission delay. Every run
//! is a pure function of `(topology, nodes, seed)`, which is what lets DiCE
//! clone a snapshot and explore it in isolation with reproducible outcomes.
//!
//! One `impl Simulator` block per concern, each beside the state only it
//! maintains:
//!
//! - this module — the struct, its setters and accessors, the event loop
//!   (`step` / `run_*`) and handler dispatch (`with_node`, `apply_effects`);
//! - `channel` — link directions and sessions: `send_frame`,
//!   `process_deliver`, establish / teardown, and the `Links` table nothing
//!   else can write;
//! - `dynamics` — crashes, restarts and the fault-injection entry points;
//! - `cut` — what a cut records: delta checkpoints, the Chandy–Lamport
//!   marker protocol, `instant_snapshot`, [`SnapshotStats`];
//! - `clone` — what a rebind restores: `from_shadow*`, `reset_from_shadow`
//!   and the touched-only path.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crate::buf::{BufPool, WireStats};
use crate::faults::LinkFaults;
use crate::node::{DownReason, Effect, Node, NodeApi, NodeId};
use crate::schedule::FaultAction;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceKind};

mod channel;
mod clone;
mod cut;
mod dynamics;
#[cfg(test)]
mod fixtures;

pub use cut::SnapshotStats;

use channel::{Links, SessionState};
use clone::Binding;
use cut::Cuts;

/// The state slot of one node: either an owned (mutable) instance or a
/// checkpoint shared copy-on-write with a
/// [`ShadowSnapshot`](crate::snapshot::ShadowSnapshot). Shared
/// state materializes into an owned deep copy (`clone_node`) on first
/// mutable access, so clones instantiated from a snapshot only pay for
/// the nodes they actually drive.
enum NodeState {
    /// No node installed (or outside the snapshot scope of a clone).
    Empty,
    /// Checkpoint borrowed from a shadow snapshot; deep-copied on first
    /// mutable access.
    Shared(std::sync::Arc<dyn Node>),
    /// Exclusively owned, mutable in place.
    Owned(Box<dyn Node>),
}

impl NodeState {
    fn is_installed(&self) -> bool {
        !matches!(self, NodeState::Empty)
    }

    /// Read-only access without materializing a shared checkpoint.
    fn get(&self) -> Option<&dyn Node> {
        match self {
            NodeState::Empty => None,
            NodeState::Shared(a) => Some(a.as_ref()),
            NodeState::Owned(b) => Some(b.as_ref()),
        }
    }

    /// Take the node out for mutation, deep-copying a shared checkpoint
    /// (the copy-on-write point). Leaves `Empty` behind.
    fn take_owned(&mut self) -> Option<Box<dyn Node>> {
        match std::mem::replace(self, NodeState::Empty) {
            NodeState::Empty => None,
            NodeState::Shared(a) => Some(a.clone_node()),
            NodeState::Owned(b) => Some(b),
        }
    }

    /// Ensure the slot owns its node (deep-copying a shared checkpoint).
    fn materialize(&mut self) {
        if let NodeState::Shared(a) = self {
            *self = NodeState::Owned(a.clone_node());
        }
    }

    /// An `Arc` checkpoint of the current state: free for `Shared` slots,
    /// one `clone_node` for `Owned` ones.
    fn checkpoint(&self) -> Option<std::sync::Arc<dyn Node>> {
        match self {
            NodeState::Empty => None,
            NodeState::Shared(a) => Some(std::sync::Arc::clone(a)),
            NodeState::Owned(b) => Some(std::sync::Arc::from(b.clone_node())),
        }
    }
}

/// Why a node takes no events.
enum Down {
    /// Absent from the snapshot this clone was bound to — not a crash.
    OutsideSnapshot,
    /// Fail-stop, with the reason the handler or the fault injection gave.
    Crashed(String),
}

struct NodeSlot {
    node: NodeState,
    crashed: Option<Down>,
    timer_gen: BTreeMap<u64, u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Start(NodeId),
    /// A frame matures on link direction `dir` (index into `links`).
    Deliver {
        dir: u32,
        epoch: u64,
    },
    Timer {
        node: NodeId,
        token: u64,
        gen: u64,
    },
    SessionUp {
        a: NodeId,
        b: NodeId,
    },
    /// A dynamics-schedule action (partition, heal, churn) firing in-band.
    Fault(FaultAction),
}

#[derive(Debug, PartialEq, Eq)]
struct Queued {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Delay before the first session establishment attempt.
const SESSION_SETUP_BASE: SimDuration = SimDuration::from_millis(1);
/// Stagger between successive session establishments at start.
const SESSION_SETUP_STAGGER: SimDuration = SimDuration::from_micros(500);
/// Re-establishment delay after a session reset.
const RECONNECT_DELAY: SimDuration = SimDuration::from_secs(5);
/// Capacity of the trace ring of a simulator built by [`Simulator::new`].
/// A clone built by [`Simulator::from_shadow`] keeps none: its counters
/// ([`TraceStats`](crate::trace::TraceStats)) stay exact and node
/// annotations are never rendered.
const TRACE_CAPACITY: usize = 64 * 1024;

/// The toggles the setters change; a simulator starts from `Default`.
#[derive(Debug)]
struct Knobs {
    /// Recycle wire payload buffers through the simulator's [`BufPool`]
    /// (`false`: [`NodeApi::buf`] is `Vec::new()` and nothing is recycled;
    /// observable only in perf counters, never in simulation outcomes).
    payload_pool: bool,
    /// Merge runs of adjacent delivery events (same channel, same instant,
    /// consecutive heap order — the shape a back-to-back send burst
    /// produces) into one dispatch instead of one event per frame. The
    /// merged run delivers the same frames in the same order as unbatched
    /// processing, so outcomes are batching-invariant by construction.
    batch_delivery: bool,
    /// Serve checkpoints of nodes untouched since their last capture from a
    /// cached `Arc` instead of re-cloning them (delta snapshots). A cached
    /// checkpoint of an unmutated node is state-identical to a fresh
    /// `clone_node`, so the knob is observable only in perf counters
    /// ([`SnapshotStats`]), never in simulation outcomes.
    delta_snapshots: bool,
    /// Enable the channel-fidelity layer: data frames are subjected to the
    /// per-link [`LinkFaults`] model in `link_faults` (drop, duplication,
    /// bounded reordering, burst loss), sampled from dedicated per-link
    /// RNG streams. Off by default — the reliable in-order channel model.
    /// Chandy–Lamport markers are always exempt, and sampling is suspended
    /// while a consistent cut is in progress (the marker protocol requires
    /// FIFO channels).
    unreliable_links: bool,
    /// The fault profile applied when `unreliable_links` is on.
    link_faults: LinkFaults,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            payload_pool: true,
            batch_delivery: true,
            delta_snapshots: true,
            unreliable_links: false,
            link_faults: LinkFaults::default(),
        }
    }
}

/// Result of [`Simulator::run_until_quiet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuietOutcome {
    /// No (non-quiet) activity for the requested idle window.
    Quiescent,
    /// The time budget was exhausted first.
    TimedOut,
}

/// The deterministic discrete-event simulator.
pub struct Simulator {
    now: SimTime,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    nodes: Vec<NodeSlot>,
    topo: Topology,
    /// Link directions and their randomness (`channel`).
    links: Links,
    /// Per-edge session state, indexed by the topology's edge index.
    sessions: Vec<SessionState>,
    /// Which snapshot the slots are bound to, and what changed since
    /// (`clone`).
    binding: Binding,
    admin_down: BTreeSet<(NodeId, NodeId)>,
    trace: Trace,
    last_activity: SimTime,
    started: bool,
    pristine: BTreeMap<NodeId, Box<dyn Node>>,
    /// Delta-checkpoint cache, cuts in progress and their counters (`cut`).
    cuts: Cuts,
    knobs: Knobs,
    effects_scratch: Vec<Effect>,
    buf_pool: BufPool,
    wire: WireStats,
}

impl Simulator {
    /// Create a simulator over `topo`, keeping a trace ring. Nodes must be
    /// installed with [`Simulator::set_node`] before [`Simulator::start`].
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::with_trace(topo, seed, TRACE_CAPACITY)
    }

    /// An empty simulator whose trace ring retains `trace_capacity` events.
    fn with_trace(topo: Topology, seed: u64, trace_capacity: usize) -> Self {
        let edges = topo.edges().len();
        let nodes: Vec<NodeSlot> = (0..topo.len())
            .map(|_| NodeSlot {
                node: NodeState::Empty,
                crashed: None,
                timer_gen: BTreeMap::new(),
            })
            .collect();
        let n = nodes.len();
        Simulator {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            nodes,
            trace: Trace::with_capacity(trace_capacity),
            topo,
            links: Links::new(edges, seed),
            sessions: vec![SessionState::Down; edges],
            binding: Binding::new(n),
            admin_down: BTreeSet::new(),
            last_activity: SimTime::ZERO,
            started: false,
            pristine: BTreeMap::new(),
            cuts: Cuts::new(n),
            knobs: Knobs::default(),
            effects_scratch: Vec::new(),
            buf_pool: BufPool::new(),
            wire: WireStats::default(),
        }
    }

    /// Node `n`'s slot is about to change: it is dirty for the delta
    /// snapshots and on the list the next same-snapshot reset walks.
    fn touch_node(&mut self, n: NodeId) {
        self.cuts.mark_dirty(n);
        self.binding.touch(n);
    }

    /// Toggle the wire-path perf knobs (payload pooling, batched delivery)
    /// on an existing simulator — used by clone pools right after
    /// [`Simulator::reset_from_shadow`], before any event is processed.
    /// Neither knob affects simulation outcomes, only perf counters.
    pub fn set_wire_config(&mut self, payload_pool: bool, batch_delivery: bool) {
        self.knobs.payload_pool = payload_pool;
        self.knobs.batch_delivery = batch_delivery;
    }

    /// Drain this simulator's wire-path counters (bytes sent, buffer-pool
    /// hits/misses, delivery batching), resetting them to zero.
    pub fn take_wire_stats(&mut self) -> WireStats {
        let mut out = std::mem::take(&mut self.wire);
        (out.buf_hits, out.buf_misses) = self.buf_pool.take_counts();
        out
    }

    /// Toggle the channel-fidelity layer on an existing simulator (clone
    /// pools apply this right after [`Simulator::reset_from_shadow`],
    /// exactly like [`Simulator::set_wire_config`]). Unlike the wire-path
    /// knobs this one *does* change outcomes — that is its whole point —
    /// but identically for identical seeds: the fault streams are reseeded
    /// by construction and by `reset_from_shadow`, never by this setter.
    pub fn set_unreliable_links(&mut self, on: bool) {
        self.knobs.unreliable_links = on;
    }

    /// Replace the fault profile applied when `unreliable_links` is on.
    pub fn set_link_faults(&mut self, faults: LinkFaults) {
        self.knobs.link_faults = faults;
    }

    /// Install the protocol node for `id`.
    pub fn set_node(&mut self, id: NodeId, node: Box<dyn Node>) {
        assert!(!self.started, "cannot install nodes after start");
        self.nodes[id.index()].node = NodeState::Owned(node);
        self.touch_node(id);
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to a node (for checkers). Panics if never installed.
    /// Reads never materialize a shared checkpoint.
    pub fn node(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.index()]
            .node
            .get()
            .expect("node not installed or currently executing")
    }

    /// Mutable access to a node (for operator-action injection).
    /// Materializes a shared checkpoint into an owned copy first.
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.touch_node(id);
        let slot = &mut self.nodes[id.index()];
        slot.node.materialize();
        match &mut slot.node {
            NodeState::Owned(b) => b.as_mut(),
            _ => panic!("node not installed or currently executing"),
        }
    }

    /// Whether `id` has crashed, and why. A node outside the scope of the
    /// snapshot a clone was built from reads as crashed with
    /// [`Simulator::OUTSIDE_SNAPSHOT`]; see [`Simulator::outside_snapshot`].
    pub fn crashed(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].crashed.as_ref().map(|d| match d {
            Down::OutsideSnapshot => Self::OUTSIDE_SNAPSHOT,
            Down::Crashed(reason) => reason.as_str(),
        })
    }

    /// Whether `id` is absent from the snapshot this clone was bound to
    /// (dispatch-muted like a crashed node, but not a crash).
    pub fn outside_snapshot(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].crashed, Some(Down::OutsideSnapshot))
    }

    /// The checkpoint `id`'s slot still shares with the snapshot it was
    /// bound from: `Some` until the node's first mutable access in this
    /// simulator. Pointer-equality with a snapshot's `Arc` therefore means
    /// "this node is, bit for bit, the state that snapshot recorded".
    pub fn shared_checkpoint(&self, id: NodeId) -> Option<&std::sync::Arc<dyn Node>> {
        match &self.nodes[id.index()].node {
            NodeState::Shared(a) => Some(a),
            _ => None,
        }
    }

    /// Whether the session between `a` and `b` is currently up.
    pub fn session_up(&self, a: NodeId, b: NodeId) -> bool {
        self.topo
            .edge_index(a, b)
            .is_some_and(|e| self.sessions[e] == SessionState::Up)
    }

    /// Begin the simulation: fire `on_start` on every node and schedule
    /// session establishment for every edge.
    pub fn start(&mut self) {
        assert!(!self.started, "start called twice");
        assert!(
            self.nodes.iter().all(|s| s.node.is_installed()),
            "all nodes must be installed before start"
        );
        self.started = true;
        for (i, slot) in self.nodes.iter().enumerate() {
            self.pristine
                .insert(NodeId(i as u32), slot.node.get().unwrap().clone_node());
        }
        for id in 0..self.nodes.len() {
            self.schedule(SimTime::ZERO, Ev::Start(NodeId(id as u32)));
        }
        let pairs: Vec<(NodeId, NodeId)> = self.topo.edges().iter().map(|e| (e.a, e.b)).collect();
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            self.schedule(
                SimTime::ZERO + SESSION_SETUP_BASE + SESSION_SETUP_STAGGER.saturating_mul(i as u64),
                Ev::SessionUp { a, b },
            );
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            at,
            seq: self.seq,
            ev,
        }));
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    /// Process the next event, if any. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(q)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(q.at >= self.now);
        self.now = q.at;
        match q.ev {
            Ev::Start(n) => self.run_start(n),
            Ev::Deliver { dir, epoch } => {
                // Batched delivery: a burst sent back-to-back on one
                // channel schedules a run of delivery events that are
                // adjacent in the heap (same instant, consecutive seq).
                // Merging exactly that run — and nothing more — amortizes
                // heap pops and dispatch while preserving the event
                // schedule bit-for-bit: no other event can order between
                // adjacent entries, and events scheduled by the handlers
                // get fresh (larger) seq numbers, so they run after the
                // merged run in both modes.
                let mut budget: u64 = 1;
                if self.knobs.batch_delivery {
                    while let Some(Reverse(next)) = self.queue.peek() {
                        let same_run = next.at == q.at
                            && matches!(
                                next.ev,
                                Ev::Deliver { dir: d, epoch: e } if d == dir && e == epoch
                            );
                        if !same_run {
                            break;
                        }
                        self.queue.pop();
                        budget += 1;
                    }
                }
                self.process_deliver(dir as usize, epoch, budget);
            }
            Ev::Timer { node, token, gen } => self.process_timer(node, token, gen),
            Ev::SessionUp { a, b } => self.establish_session(a, b),
            Ev::Fault(action) => self.apply_fault_now(action),
        }
        true
    }

    /// Run until simulated time `t` (inclusive); afterwards `now() == t`
    /// unless the queue emptied earlier at a later time.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(Reverse(q)) = self.queue.peek() {
            if q.at > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until there has been no (non-quiet) message activity for `idle`
    /// *measured from this call onward*, or until `max` elapses. Activity
    /// that ended before the call does not count: a system idle for an hour
    /// still waits one full `idle` window, so events already scheduled
    /// within that window (reconnects, timers) get processed.
    pub fn run_until_quiet(&mut self, idle: SimDuration, max: SimTime) -> QuietOutcome {
        let floor = self.now;
        loop {
            let quiet_at = self.last_activity.max(floor) + idle;
            let next = self.queue.peek().map(|Reverse(q)| q.at);
            match next {
                None => {
                    self.now = self.now.max(quiet_at).min(max);
                    return QuietOutcome::Quiescent;
                }
                Some(t_next) => {
                    if quiet_at <= t_next {
                        if quiet_at <= max {
                            self.now = self.now.max(quiet_at);
                            return QuietOutcome::Quiescent;
                        }
                        self.now = max;
                        return QuietOutcome::TimedOut;
                    }
                    if t_next > max {
                        self.now = max;
                        return QuietOutcome::TimedOut;
                    }
                    self.step();
                }
            }
        }
    }

    fn run_start(&mut self, n: NodeId) {
        self.with_node(n, |node, api| node.on_start(api));
    }

    fn process_timer(&mut self, n: NodeId, token: u64, gen: u64) {
        let slot = &self.nodes[n.index()];
        if slot.crashed.is_some() || slot.timer_gen.get(&token) != Some(&gen) {
            return;
        }
        self.trace
            .push(self.now, TraceKind::TimerFired { node: n, token });
        self.with_node(n, |node, api| node.on_timer(token, api));
    }

    /// Run `f` on node `n` with a fresh effect buffer, then apply effects.
    /// This is the copy-on-write point: a checkpoint shared with a shadow
    /// snapshot is deep-copied here, on the node's first mutation.
    fn with_node(&mut self, n: NodeId, f: impl FnOnce(&mut dyn Node, &mut NodeApi<'_>)) {
        if self.nodes[n.index()].crashed.is_some() {
            return;
        }
        let mut node = match self.nodes[n.index()].node.take_owned() {
            Some(node) => node,
            None => return,
        };
        // Dirty from the moment the handler can mutate: the first CoW
        // materialization and every subsequent delivery land here.
        self.touch_node(n);
        let mut effects = std::mem::take(&mut self.effects_scratch);
        effects.clear();
        {
            let bufs = self.knobs.payload_pool.then_some(&mut self.buf_pool);
            let mut api = NodeApi::new(n, self.now, &mut effects, bufs, self.trace.retains());
            f(node.as_mut(), &mut api);
        }
        self.nodes[n.index()].node = NodeState::Owned(node);
        self.apply_effects(n, &mut effects);
        self.effects_scratch = effects;
    }

    fn apply_effects(&mut self, n: NodeId, effects: &mut Vec<Effect>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, data } => self.channel_send(n, to, data, false),
                Effect::SendQuiet { to, data } => self.channel_send(n, to, data, true),
                Effect::SetTimer { delay, token } => {
                    let gen = self.nodes[n.index()]
                        .timer_gen
                        .entry(token)
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                    let gen = *gen;
                    let at = self.now + delay;
                    self.schedule(
                        at,
                        Ev::Timer {
                            node: n,
                            token,
                            gen,
                        },
                    );
                }
                Effect::CancelTimer { token } => {
                    self.nodes[n.index()]
                        .timer_gen
                        .entry(token)
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                }
                Effect::ResetSession { peer } => {
                    self.teardown_session(n, peer, DownReason::Reset, true);
                }
                Effect::Trace { tag, detail } => {
                    self.trace.push(
                        self.now,
                        TraceKind::Node {
                            node: n,
                            tag,
                            detail,
                        },
                    );
                }
                Effect::Crash { reason } => self.crash_node(n, reason),
            }
        }
    }

    /// Invoke arbitrary code on a node with a live effect API — the hook for
    /// operator actions (configuration changes) in experiments. Effects are
    /// applied exactly as if requested from a message handler.
    pub fn invoke_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut NodeApi<'_>)) {
        self.with_node(id, f);
    }

    /// Deliver `bytes` to `dst` *right now*, as if received from `src`,
    /// without traversing the channel. This is DiCE's exploration entry
    /// point: subjecting a node to a generated input.
    pub fn deliver_direct(&mut self, src: NodeId, dst: NodeId, bytes: &[u8]) {
        self.last_activity = self.now;
        self.trace.push(
            self.now,
            TraceKind::Delivered {
                src,
                dst,
                bytes: bytes.len(),
            },
        );
        self.with_node(dst, |node, api| node.on_message(src, bytes, api));
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{two_node_sim, Pinger};
    use super::*;
    use core::any::Any;

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = two_node_sim(1);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let p1 = sim
            .node(NodeId(1))
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap();
        assert!(!p1.got.is_empty(), "peer received nothing");
        assert_eq!(p1.got[0].1, vec![0]);
        let stats = sim.trace().stats();
        assert!(
            stats.msgs_delivered >= 5,
            "expected full ping-pong exchange"
        );
    }

    #[test]
    fn deterministic_replay() {
        let mut a = two_node_sim(42);
        let mut b = two_node_sim(42);
        a.run_until(SimTime::from_nanos(1_000_000_000));
        b.run_until(SimTime::from_nanos(1_000_000_000));
        assert_eq!(a.trace().stats(), b.trace().stats());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn quiescence_detected() {
        let mut sim = two_node_sim(7);
        let out = sim.run_until_quiet(
            SimDuration::from_millis(100),
            SimTime::from_nanos(60_000_000_000),
        );
        assert_eq!(out, QuietOutcome::Quiescent);
        // After quiescence the exchange is over (4 rounds + initial).
        let p0 = sim
            .node(NodeId(0))
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap();
        assert!(p0.sent >= 2);
    }

    #[test]
    fn timers_fire_and_cancel() {
        #[derive(Clone, Default)]
        struct T {
            fired: Vec<u64>,
        }
        impl Node for T {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_millis(10), 1);
                api.set_timer(SimDuration::from_millis(20), 2);
                api.cancel_timer(2);
                api.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_message(&mut self, _: NodeId, _: &[u8], _: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, token: u64, _: &mut NodeApi<'_>) {
                self.fired.push(token);
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
        let topo = Topology::with_nodes(1);
        let mut sim = Simulator::new(topo, 0);
        sim.set_node(NodeId(0), Box::new(T::default()));
        sim.start();
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let t = sim.node(NodeId(0)).as_any().downcast_ref::<T>().unwrap();
        assert_eq!(t.fired, vec![1, 3], "canceled timer must not fire");
    }

    #[test]
    fn rearming_timer_supersedes() {
        #[derive(Clone, Default)]
        struct T {
            fired: u32,
        }
        impl Node for T {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_millis(10), 9);
                api.set_timer(SimDuration::from_millis(50), 9); // re-arm
            }
            fn on_message(&mut self, _: NodeId, _: &[u8], _: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _t: u64, _: &mut NodeApi<'_>) {
                self.fired += 1;
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
        let mut sim = Simulator::new(Topology::with_nodes(1), 0);
        sim.set_node(NodeId(0), Box::new(T::default()));
        sim.start();
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let t = sim.node(NodeId(0)).as_any().downcast_ref::<T>().unwrap();
        assert_eq!(t.fired, 1, "re-armed timer must fire exactly once");
    }

    #[test]
    fn deliver_direct_bypasses_channel() {
        let mut sim = two_node_sim(8);
        sim.run_until(SimTime::from_nanos(2_000_000));
        let before = sim
            .node(NodeId(1))
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap()
            .got
            .len();
        sim.deliver_direct(NodeId(0), NodeId(1), &[99]);
        let p1 = sim
            .node(NodeId(1))
            .as_any()
            .downcast_ref::<Pinger>()
            .unwrap();
        assert_eq!(p1.got.len(), before + 1);
        assert_eq!(p1.got.last().unwrap().1, vec![99]);
    }
}
