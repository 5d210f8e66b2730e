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
//!   (`step` / `run_*`) and handler dispatch (`with_node`, `apply_effects`).
//!   The loop keeps counters ([`TraceStats`](crate::trace::TraceStats)),
//!   bumped where each event happens, and no event log;
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
use crate::trace::Trace;

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
/// [`ShadowSnapshot`](crate::snapshot::ShadowSnapshot) — the one a clone
/// was bound from, or the last cut that took the node. Shared
/// state materializes into an owned deep copy (`clone_node`) on first
/// mutable access, so clones instantiated from a snapshot only pay for
/// the nodes they actually drive, and a cut only for the nodes mutated
/// since the previous one.
enum NodeState {
    /// No node installed (or outside the snapshot scope of a clone).
    Empty,
    /// Checkpoint shared with a shadow snapshot; deep-copied on first
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

    /// An `Arc` checkpoint of the current state, which the slot shares
    /// from then on: a `Shared` slot serves its own `Arc`, an `Owned` one
    /// moves its node behind a new `Arc` (no deep copy — the node's next
    /// mutation makes it, at the copy-on-write point). So the slot is the
    /// checkpoint cache, and `Owned` means "changed since the last cut or
    /// bind".
    fn checkpoint(&mut self) -> Option<std::sync::Arc<dyn Node>> {
        let node = match std::mem::replace(self, NodeState::Empty) {
            NodeState::Empty => return None,
            NodeState::Shared(a) => a,
            NodeState::Owned(b) => std::sync::Arc::from(b),
        };
        *self = NodeState::Shared(std::sync::Arc::clone(&node));
        Some(node)
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
    timer_gen: TimerGens,
}

/// A node's timer generations by token: a timer event fires only while it
/// carries its token's current generation, so arming or cancelling a token
/// bumps it. Sorted by token. A rebind clears the table and keeps its
/// storage, so the timers a pooled clone's nodes arm again find room.
#[derive(Default)]
struct TimerGens(Vec<(u64, u64)>);

impl TimerGens {
    /// `token`'s current generation, if it was ever armed or cancelled.
    fn get(&self, token: u64) -> Option<u64> {
        let i = self.0.binary_search_by_key(&token, |e| e.0).ok()?;
        Some(self.0[i].1)
    }

    /// Bump `token`'s generation (a new token starts at 1) and return it.
    fn bump(&mut self, token: u64) -> u64 {
        match self.0.binary_search_by_key(&token, |e| e.0) {
            Ok(i) => {
                self.0[i].1 += 1;
                self.0[i].1
            }
            Err(i) => {
                self.0.insert(i, (token, 1));
                1
            }
        }
    }

    /// Bump every token's generation.
    fn bump_all(&mut self) {
        for e in &mut self.0 {
            e.1 += 1;
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

impl std::fmt::Debug for TimerGens {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(t, g)| (t, g)))
            .finish()
    }
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

/// The scenario inputs the setters change; a simulator starts from
/// `Default`.
#[derive(Debug, Default)]
struct Knobs {
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
    /// Cuts in progress and their counters (`cut`).
    cuts: Cuts,
    knobs: Knobs,
    effects_scratch: Vec<Effect>,
    buf_pool: BufPool,
    wire: WireStats,
}

impl Simulator {
    /// Create a simulator over `topo`. Nodes must be installed with
    /// [`Simulator::set_node`] before [`Simulator::start`].
    pub fn new(topo: Topology, seed: u64) -> Self {
        let edges = topo.edges().len();
        let nodes: Vec<NodeSlot> = (0..topo.len())
            .map(|_| NodeSlot {
                node: NodeState::Empty,
                crashed: None,
                timer_gen: TimerGens::default(),
            })
            .collect();
        let n = nodes.len();
        Simulator {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            nodes,
            trace: Trace::default(),
            topo,
            links: Links::new(edges, seed),
            sessions: vec![SessionState::Down; edges],
            binding: Binding::new(n),
            admin_down: BTreeSet::new(),
            last_activity: SimTime::ZERO,
            started: false,
            pristine: BTreeMap::new(),
            cuts: Cuts::new(),
            knobs: Knobs::default(),
            effects_scratch: Vec::new(),
            buf_pool: BufPool::new(),
            wire: WireStats::default(),
        }
    }

    /// Retired and ignored: payload pooling and batched delivery are the
    /// wire path's only path. Every value gave the same simulation by
    /// contract, as the retired `pool_size` config field does; the setter
    /// stays only while `benchmark/src/pipeline.rs` calls it.
    pub fn set_wire_config(&mut self, _payload_pool: bool, _batch_delivery: bool) {}

    /// Drain this simulator's wire-path counters (bytes sent, buffer-pool
    /// hits/misses, delivery batching), resetting them to zero.
    pub fn take_wire_stats(&mut self) -> WireStats {
        let mut out = std::mem::take(&mut self.wire);
        (out.buf_hits, out.buf_misses) = self.buf_pool.take_counts();
        out
    }

    /// Toggle the channel-fidelity layer on an existing simulator (clone
    /// pools apply this right after [`Simulator::reset_from_shadow`]).
    /// It changes outcomes — that is its whole point — but identically
    /// for identical seeds: the fault streams are reseeded
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
        self.binding.touch(id);
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The execution counters.
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
        self.binding.touch(id);
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

    /// The checkpoint `id`'s slot shares with a snapshot — the one this
    /// simulator was bound from, or the last cut that took the node:
    /// `Some` until the node's next mutable access. Pointer-equality with
    /// a snapshot's `Arc` therefore means "this node is, bit for bit, the
    /// state that snapshot recorded".
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
            Ev::Deliver { dir, epoch } => {
                // Batched delivery: a burst sent back-to-back on one
                // channel schedules a run of delivery events that are
                // adjacent in the heap (same instant, consecutive seq).
                // Merging exactly that run — and nothing more — amortizes
                // heap pops and dispatch while preserving the event
                // schedule bit-for-bit: no other event can order between
                // adjacent entries, and events scheduled by the handlers
                // get fresh (larger) seq numbers, so they run after the
                // merged run as they would after each event one at a time
                // (`batched_delivery_matches_one_at_a_time`).
                let mut budget: u64 = 1;
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
                self.process_deliver(dir as usize, epoch, budget);
            }
            ev => self.dispatch(ev),
        }
        true
    }

    /// Run one event that has been popped and the clock moved to: a
    /// delivery event alone, without the run [`Simulator::step`] merges it
    /// into.
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start(n) => self.run_start(n),
            Ev::Deliver { dir, epoch } => self.process_deliver(dir as usize, epoch, 1),
            Ev::Timer { node, token, gen } => self.process_timer(node, token, gen),
            Ev::SessionUp { a, b } => self.establish_session(a, b),
            Ev::Fault(action) => self.apply_fault_now(action),
        }
    }

    /// [`Simulator::step`] without merging: one event, so one frame, at a
    /// time. The reference batched delivery is tested against.
    #[cfg(test)]
    fn step_one_at_a_time(&mut self) -> bool {
        let Some(Reverse(q)) = self.queue.pop() else {
            return false;
        };
        self.now = q.at;
        self.dispatch(q.ev);
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
        if slot.crashed.is_some() || slot.timer_gen.get(token) != Some(gen) {
            return;
        }
        self.trace.stats.timers_fired += 1;
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
        // Touched from the moment the handler can mutate: the first CoW
        // materialization and every subsequent delivery land here.
        self.binding.touch(n);
        let mut effects = std::mem::take(&mut self.effects_scratch);
        effects.clear();
        {
            let mut api = NodeApi::new(n, self.now, &mut effects, &mut self.buf_pool);
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
                    let gen = self.nodes[n.index()].timer_gen.bump(token);
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
                    self.nodes[n.index()].timer_gen.bump(token);
                }
                Effect::ResetSession { peer } => {
                    self.teardown_session(n, peer, DownReason::Reset, true);
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
        self.trace.stats.msgs_delivered += 1;
        self.trace.stats.bytes_delivered += bytes.len() as u64;
        self.with_node(dst, |node, api| node.on_message(src, bytes, api));
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{
        scripted_ring, state_digest, two_node_sim, Pinger, OP_BURST, OP_CRASH, OP_RESET, OP_TIMERS,
    };
    use super::*;
    use core::any::Any;

    /// [`state_digest`] less the batch counters, the one thing batching
    /// is meant to change.
    fn unbatched_digest(sim: &Simulator) -> Vec<String> {
        let mut out = state_digest(sim);
        let wire = WireStats {
            batches: 0,
            max_batch: 0,
            ..sim.wire
        };
        out[2] = format!("wire {wire:?}");
        out
    }

    /// An input `(src, forward, opcode, gap_ms)`: delivered to `src`'s
    /// successor (or predecessor), then `gap_ms` of simulated time.
    type Input = (u32, bool, u8, u64);

    /// Two [`scripted_ring`]s (`fixed`: channels deliver at shared
    /// instants) driven through `inputs`, one by [`Simulator::step`] and
    /// one by [`Simulator::step_one_at_a_time`]: after each batched step
    /// the reference runs as many events as the step consumed, and the two
    /// must be one state. Returns the most events one step merged.
    fn batched_matches_one_at_a_time(
        (fixed, seed, faults): (bool, u64, bool),
        inputs: &[Input],
    ) -> usize {
        let mut batched = scripted_ring(fixed, seed);
        let mut single = scripted_ring(fixed, seed);
        for sim in [&mut batched, &mut single] {
            sim.set_unreliable_links(faults);
            sim.set_link_faults(LinkFaults {
                duplicate: 0.1,
                reorder_window: SimDuration::from_millis(3),
                ..LinkFaults::lossy(0.1)
            });
            sim.run_until(SimTime::from_nanos(1_000_000_000));
        }
        let mut most = 0;
        for (at, &(src, forward, op, gap_ms)) in inputs.iter().enumerate() {
            let dst = (src + if forward { 1 } else { 5 }) % 6;
            let until = batched.now() + SimDuration::from_millis(gap_ms);
            for sim in [&mut batched, &mut single] {
                sim.deliver_direct(NodeId(src), NodeId(dst), &[op]);
            }
            while batched.queue.peek().is_some_and(|q| q.0.at <= until) {
                let (queued, seq) = (batched.queue.len(), batched.seq);
                batched.step();
                let consumed = queued + (batched.seq - seq) as usize - batched.queue.len();
                for _ in 0..consumed {
                    single.step_one_at_a_time();
                }
                most = most.max(consumed);
                assert_eq!(
                    unbatched_digest(&batched),
                    unbatched_digest(&single),
                    "input {at} of {inputs:?}, fixed {fixed}, seed {seed}, faults {faults}"
                );
            }
            batched.run_until(until);
            single.run_until(until);
        }
        assert!(batched.wire.batches <= single.wire.batches);
        most
    }

    #[test]
    fn bursts_are_delivered_in_batches() {
        // Not vacuous: a burst flood three hops deep merges runs of
        // same-instant deliveries. (The faulty channels' reordering lags
        // mostly pull a burst's frames apart; they are compared all the
        // same.)
        let inputs = [
            (0, true, OP_BURST + 3, 40),
            (3, false, OP_BURST + 3, 6_000),
            (2, true, OP_BURST + 2, 40),
        ];
        for fixed in [false, true] {
            let most = batched_matches_one_at_a_time((fixed, 7, false), &inputs);
            assert!(most > 1, "fixed {fixed}: no step merged a run");
            batched_matches_one_at_a_time((fixed, 7, true), &inputs);
        }
    }

    fn arb_input() -> impl proptest::Strategy<Value = Input> {
        use proptest::prelude::*;
        let op = prop_oneof![
            (1u8..=4).prop_map(|h| OP_BURST + h),
            (1u8..=4).prop_map(|h| OP_BURST + h),
            1u8..5,
            Just(OP_RESET),
            Just(OP_CRASH),
            Just(OP_TIMERS),
        ];
        (0u32..6, any::<bool>(), op, 0u64..80)
    }

    proptest::proptest! {
        /// Random bursts on lossy rings, with and without channel faults:
        /// batched delivery is one-at-a-time delivery, state for state,
        /// after every step. (Break: let `step` merge a same-instant
        /// delivery on another direction, and the frame it stands for is
        /// never delivered.)
        #[test]
        fn batched_delivery_matches_one_at_a_time(
            fixed in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
            faults in proptest::prelude::any::<bool>(),
            inputs in proptest::collection::vec(arb_input(), 1..6),
        ) {
            batched_matches_one_at_a_time((fixed, seed, faults), &inputs);
        }
    }

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
    fn counters_track_kinds() {
        // Five one-byte frames of ping-pong, one two-byte input delivered
        // directly, then a crash that takes the session down.
        let mut sim = two_node_sim(1);
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        sim.deliver_direct(NodeId(0), NodeId(1), &[9, 9]);
        sim.inject_node_crash(NodeId(1));
        assert_eq!(
            sim.trace().stats(),
            crate::trace::TraceStats {
                msgs_sent: 5,
                msgs_delivered: 6,
                bytes_delivered: 7,
                timers_fired: 0,
                sessions_up: 1,
                sessions_down: 1,
                crashes: 1,
            }
        );

        // Of the three timers `OP_TIMERS` arms, one is cancelled and one
        // re-armed before it fires.
        let mut ring = scripted_ring(true, 1);
        ring.run_until(SimTime::from_nanos(1_000_000_000));
        let before = ring.trace().stats().timers_fired;
        ring.deliver_direct(NodeId(1), NodeId(0), &[OP_TIMERS]);
        ring.run_for(SimDuration::from_millis(100));
        assert_eq!(ring.trace().stats().timers_fired - before, 2);
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
