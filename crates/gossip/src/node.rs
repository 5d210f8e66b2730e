//! [`GossipNode`]: an epidemic publish/subscribe node.
//!
//! Dissemination follows the classic rumor-mongering + anti-entropy split:
//!
//! * **Rumor mongering (push)** — a rumor first seen is immediately
//!   forwarded to up to `FANOUT` peers not already known to
//!   be infected with it, with the hop TTL decremented. Per-peer infection
//!   state stops the epidemic once everyone has everything.
//! * **Anti-entropy (digests)** — a periodic timer sends each peer a
//!   digest of recently seen `(topic, id)` pairs as *quiet* background
//!   traffic; a peer receiving a digest pushes back any rumors the sender
//!   is missing. This repairs losses from sessions that were down during
//!   the push phase.
//! * **TTL garbage collection** — a second timer evicts rumors whose
//!   lifetime expired from the payload store (and prunes the per-peer
//!   infection bookkeeping); the compact `seen` set is retained as the
//!   duplicate-suppression memory.
//! * **Ack and retransmit** — rumor pushes and subscribes are acknowledged
//!   with a quiet [`GossipFrame::Ack`]; unacked sends are retransmitted
//!   with exponential backoff up to `RETRY_BUDGET` times.
//!   On budget exhaustion the peer is *un-marked* as infected so the
//!   anti-entropy digest exchange remains the repair backstop on lossy
//!   channels (see `dice_netsim::LinkFaults`).
//!
//! The node is a deterministic state machine (peer iteration in config
//! order, no randomness), so shadow-snapshot clones replay identically —
//! the property DiCE's validation phase relies on.
//!
//! A copy ([`Node::clone_node`]) shares the configuration, the payload
//! store, the dedup memory and each peer's infection set with the node it
//! was copied from; a write looks before it copies, so a copy pays only for
//! the tables it actually changes (a duplicate rumor or a digest of known
//! keys copies none of them).

use core::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dice_netsim::{Concrete, Node, NodeApi, NodeId, SessionEvent, SimDuration, SimTime};

use crate::twin::FrameTwin;
use crate::wire::{self, DecodeError, GossipFrame, Rumor, TopicId, Verdict, MAX_DIGEST_ENTRIES};

/// Timer token: periodic anti-entropy digests.
const TOKEN_ANTI_ENTROPY: u64 = 1;
/// Timer token: periodic TTL garbage collection.
const TOKEN_GC: u64 = 2;
/// Timer token: periodic retransmit sweep over unacked sends.
const TOKEN_RETRANSMIT: u64 = 3;

/// How many missing rumors a digest response pushes back at most.
const DIGEST_PUSH_CAP: usize = 16;
/// Rumors published per owned topic at start.
const RUMORS_PER_TOPIC: u32 = 2;
/// Payload bytes per published rumor.
const PAYLOAD_LEN: usize = 8;
/// Peers a fresh rumor is pushed to immediately.
const FANOUT: usize = 3;
/// Hop TTL on rumors a node originates.
const RUMOR_TTL: u8 = 6;
/// Period of the anti-entropy digest timer.
const ANTI_ENTROPY_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Period of the garbage-collection timer.
const GC_PERIOD: SimDuration = SimDuration::from_secs(10);
/// How long a rumor's payload is retained after first sight.
const RUMOR_LIFETIME: SimDuration = SimDuration::from_secs(120);
/// Base timeout before an unacked send is retransmitted (doubled per
/// attempt); also the retransmit sweep period.
const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_millis(800);
/// Retransmissions attempted per unacked send before giving up and
/// leaving repair to anti-entropy.
const RETRY_BUDGET: u32 = 3;

/// Seeded defect switches, mirroring `dice_bgp::BugSwitches`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipBugs {
    /// BIRD-style missing bounds check: a digest whose count byte is at
    /// least [`BUG_COUNT_THRESHOLD`](crate::wire::BUG_COUNT_THRESHOLD) is
    /// used to walk the seen-set *before* the frame length is validated,
    /// corrupting the walk and crashing the daemon ([`wire::validate`]
    /// holds the hook). Concolically reachable from any rumor seed (flip
    /// the opcode branch, then the count branch).
    pub digest_count_overflow: bool,
}

/// Static configuration of one gossip node.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Publisher identity (ASN-like; attested out of band).
    pub origin: u16,
    /// Gossip peers, in deterministic forwarding order.
    pub peers: Vec<NodeId>,
    /// Topics this node delivers to the application.
    pub subscriptions: Vec<TopicId>,
    /// Topics this node owns and publishes on.
    pub publishes: Vec<TopicId>,
    /// Seeded defects.
    pub bugs: GossipBugs,
}

impl GossipConfig {
    /// A node with identity `origin`, no peers, topics or defects yet.
    pub fn new(origin: u16) -> Self {
        GossipConfig {
            origin,
            peers: Vec::new(),
            subscriptions: Vec::new(),
            publishes: Vec::new(),
            bugs: GossipBugs::default(),
        }
    }

    /// Add a gossip peer.
    pub fn with_peer(mut self, peer: NodeId) -> Self {
        self.peers.push(peer);
        self
    }

    /// Subscribe to a topic.
    pub fn subscribe(mut self, topic: TopicId) -> Self {
        self.subscriptions.push(topic);
        self
    }

    /// Own (and publish on) a topic.
    pub fn publish(mut self, topic: TopicId) -> Self {
        self.publishes.push(topic);
        self
    }

    /// All topics this node is interested in (subscriptions ∪ publishes).
    pub fn interests(&self) -> BTreeSet<TopicId> {
        self.subscriptions
            .iter()
            .chain(self.publishes.iter())
            .copied()
            .collect()
    }
}

/// A retained rumor: payload plus eviction bookkeeping.
#[derive(Debug, Clone)]
struct StoredRumor {
    origin: u16,
    ttl: u8,
    payload: Vec<u8>,
    expires: SimTime,
}

/// Retransmit state of one unacked send. Keyed in [`GossipNode::pending`]
/// by `(peer, ack kind, topic, id)` — the same tuple an incoming
/// [`GossipFrame::Ack`] clears.
#[derive(Debug, Clone, Copy)]
struct PendingSend {
    /// When the next retransmit sweep may resend this entry.
    deadline: SimTime,
    /// Retransmissions already performed (0 = only the original send).
    attempts: u32,
}

/// The epidemic pub/sub node. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct GossipNode {
    /// Never written after construction.
    config: Arc<GossipConfig>,
    /// Rumor payload store, evicted by TTL GC.
    store: Arc<BTreeMap<(TopicId, u32), StoredRumor>>,
    /// Duplicate-suppression memory (kept across GC).
    seen: Arc<BTreeSet<(TopicId, u32)>>,
    /// Which rumors each peer is known to have, one shared set per peer.
    infected: BTreeMap<NodeId, Arc<BTreeSet<(TopicId, u32)>>>,
    /// Peers with an established session.
    sessions_up: BTreeSet<NodeId>,
    /// Per-peer rotating anti-entropy digest cursor (see `send_digest`).
    digest_cursors: BTreeMap<NodeId, (TopicId, u32)>,
    /// Unacked sends awaiting ack or retransmit, keyed
    /// `(peer, ack kind, topic, id)`.
    pending: BTreeMap<(NodeId, u8, TopicId, u32), PendingSend>,
    /// Total retransmissions performed (observability).
    retransmits: u64,
    /// Highest rumor id seen per topic, with its claimed origin — the
    /// "best route" analogue exposed through the SUT seam.
    best: BTreeMap<TopicId, (u32, u16)>,
    /// Novel rumors delivered per subscribed topic.
    delivered: BTreeMap<TopicId, u64>,
    /// Redundant receipts per topic — the "route flip" analogue.
    duplicates: BTreeMap<TopicId, u64>,
    /// Next publish sequence number.
    next_seq: u32,
}

impl GossipNode {
    /// Create a node from its configuration.
    pub fn new(config: GossipConfig) -> Self {
        GossipNode {
            config: Arc::new(config),
            store: Arc::default(),
            seen: Arc::default(),
            infected: BTreeMap::new(),
            sessions_up: BTreeSet::new(),
            digest_cursors: BTreeMap::new(),
            pending: BTreeMap::new(),
            retransmits: 0,
            best: BTreeMap::new(),
            delivered: BTreeMap::new(),
            duplicates: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// This node's configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// The twin exploration runs of this node's frame handling. It shares
    /// the node's configuration.
    pub fn frame_twin(&self) -> FrameTwin {
        FrameTwin::new(Arc::clone(&self.config))
    }

    /// Novel rumors delivered per topic.
    pub fn delivered(&self) -> &BTreeMap<TopicId, u64> {
        &self.delivered
    }

    /// Redundant receipts per topic.
    pub fn duplicates(&self) -> &BTreeMap<TopicId, u64> {
        &self.duplicates
    }

    /// Total novel deliveries across topics.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.values().sum()
    }

    /// Total redundant receipts across topics.
    pub fn duplicates_total(&self) -> u64 {
        self.duplicates.values().sum()
    }

    /// Highest rumor id seen per topic with its claimed origin.
    pub fn best_per_topic(&self) -> &BTreeMap<TopicId, (u32, u16)> {
        &self.best
    }

    /// Distinct rumors currently retained in the payload store.
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// Distinct rumors ever seen (GC-surviving dedup memory).
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }

    /// Peers with an established session.
    pub fn established_peers(&self) -> usize {
        self.sessions_up.len()
    }

    /// Sends currently awaiting an ack.
    pub fn pending_sends(&self) -> usize {
        self.pending.len()
    }

    /// Total retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn is_subscribed(&self, topic: TopicId) -> bool {
        self.config.subscriptions.contains(&topic)
    }

    /// Record that `peer` has `key`. Copies the peer's set only when the
    /// key is new to it.
    fn mark_infected(&mut self, peer: NodeId, key: (TopicId, u32)) {
        let set = self.infected.entry(peer).or_default();
        if !set.contains(&key) {
            Arc::make_mut(set).insert(key);
        }
    }

    /// Forget that `peer` has `key`. Copies the peer's set only when it
    /// holds the key.
    fn unmark_infected(&mut self, peer: NodeId, key: &(TopicId, u32)) {
        if let Some(set) = self.infected.get_mut(&peer) {
            if set.contains(key) {
                Arc::make_mut(set).remove(key);
            }
        }
    }

    fn peer_has(&self, peer: NodeId, key: &(TopicId, u32)) -> bool {
        self.infected
            .get(&peer)
            .map(|s| s.contains(key))
            .unwrap_or(false)
    }

    /// Record a rumor locally: store, dedup memory, best pointer and
    /// delivery counter. Returns `false` if it was already seen.
    fn admit(&mut self, rumor: &Rumor, now: SimTime) -> bool {
        let key = (rumor.topic, rumor.id);
        if self.seen.contains(&key) {
            *self.duplicates.entry(rumor.topic).or_default() += 1;
            return false;
        }
        Arc::make_mut(&mut self.seen).insert(key);
        Arc::make_mut(&mut self.store).insert(
            key,
            StoredRumor {
                origin: rumor.origin,
                ttl: rumor.ttl,
                payload: rumor.payload.clone(),
                expires: now + RUMOR_LIFETIME,
            },
        );
        let best = self
            .best
            .entry(rumor.topic)
            .or_insert((rumor.id, rumor.origin));
        if rumor.id >= best.0 {
            *best = (rumor.id, rumor.origin);
        }
        if self.is_subscribed(rumor.topic) {
            *self.delivered.entry(rumor.topic).or_default() += 1;
        }
        true
    }

    /// Push one stored rumor to `peer` (marks it infected there).
    fn push_to(&mut self, peer: NodeId, key: (TopicId, u32), ttl: u8, api: &mut NodeApi<'_>) {
        let Some(stored) = self.store.get(&key) else {
            return;
        };
        let frame = GossipFrame::Rumor(Rumor {
            topic: key.0,
            id: key.1,
            origin: stored.origin,
            ttl,
            payload: stored.payload.clone(),
        });
        let mut buf = api.buf();
        wire::encode_into(&frame, &mut buf);
        api.send(peer, buf);
        self.mark_infected(peer, key);
        self.track_unacked(peer, wire::ACK_KIND_RUMOR, key.0, key.1, api.now());
    }

    /// Register (or refresh) retransmit state for a just-sent frame.
    /// Re-sends of an entry already in flight keep its attempt count so
    /// the retry budget bounds total network effort per (peer, frame).
    fn track_unacked(&mut self, peer: NodeId, kind: u8, topic: TopicId, id: u32, now: SimTime) {
        let key = (peer, kind, topic, id);
        let attempts = self.pending.get(&key).map(|p| p.attempts).unwrap_or(0);
        self.pending.insert(
            key,
            PendingSend {
                deadline: now + RETRANSMIT_TIMEOUT,
                attempts,
            },
        );
    }

    /// Acknowledge a received retransmittable frame as quiet traffic.
    fn send_ack(&mut self, peer: NodeId, kind: u8, topic: TopicId, id: u32, api: &mut NodeApi<'_>) {
        let mut buf = api.buf();
        wire::encode_into(&GossipFrame::Ack { kind, topic, id }, &mut buf);
        api.send_quiet(peer, buf);
    }

    /// One retransmit sweep: resend every due unacked entry, or give up
    /// once its retry budget is spent. Exhausted rumor entries un-mark the
    /// peer's infection state so the periodic digest exchange repairs the
    /// gap (digest responses only push rumors the peer is *not* marked as
    /// having — a stale mark would suppress that repair forever).
    fn sweep_retransmits(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        let due: Vec<((NodeId, u8, TopicId, u32), u32)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(k, p)| (*k, p.attempts))
            .collect();
        for ((peer, kind, topic, id), attempts) in due {
            let key = (peer, kind, topic, id);
            if attempts >= RETRY_BUDGET {
                self.pending.remove(&key);
                if kind == wire::ACK_KIND_RUMOR {
                    self.unmark_infected(peer, &(topic, id));
                    api.trace(
                        "gossip-retry-exhausted",
                        format_args!("topic {topic} id {id:#x} to {peer}"),
                    );
                }
                continue;
            }
            if !self.sessions_up.contains(&peer) {
                continue;
            }
            let frame = match kind {
                wire::ACK_KIND_RUMOR => {
                    let Some(stored) = self.store.get(&(topic, id)) else {
                        // GC'd while unacked: the payload is gone, so stop
                        // retrying; the seen-set still suppresses echoes.
                        self.pending.remove(&key);
                        continue;
                    };
                    GossipFrame::Rumor(Rumor {
                        topic,
                        id,
                        origin: stored.origin,
                        ttl: stored.ttl.saturating_sub(1),
                        payload: stored.payload.clone(),
                    })
                }
                _ => GossipFrame::Subscribe { topic },
            };
            let mut buf = api.buf();
            wire::encode_into(&frame, &mut buf);
            if kind == wire::ACK_KIND_RUMOR {
                // Non-quiet: unrepaired data holds off quiescence so lossy
                // runs are not declared converged while rumors are missing.
                api.send(peer, buf);
            } else {
                api.send_quiet(peer, buf);
            }
            self.retransmits += 1;
            let backoff_shift = (attempts + 1).min(6);
            let p = self.pending.get_mut(&key).expect("due entry still pending");
            p.attempts = attempts + 1;
            p.deadline =
                now + SimDuration::from_nanos(RETRANSMIT_TIMEOUT.as_nanos() << backoff_shift);
        }
    }

    /// Rumor mongering: forward a fresh rumor to up to [`FANOUT`] peers not
    /// known to be infected, TTL decremented.
    fn monger(&mut self, rumor: &Rumor, exclude: Option<NodeId>, api: &mut NodeApi<'_>) {
        if rumor.ttl == 0 {
            return;
        }
        let key = (rumor.topic, rumor.id);
        let targets: Vec<NodeId> = self
            .config
            .peers
            .iter()
            .copied()
            .filter(|p| Some(*p) != exclude)
            .filter(|p| self.sessions_up.contains(p))
            .filter(|p| !self.peer_has(*p, &key))
            .take(FANOUT)
            .collect();
        for peer in targets {
            self.push_to(peer, key, rumor.ttl - 1, api);
        }
    }

    /// Publish the configured initial rumors for every owned topic.
    fn publish_initial(&mut self, now: SimTime) {
        let config = Arc::clone(&self.config);
        for k in 0..RUMORS_PER_TOPIC {
            for &t in &config.publishes {
                let seq = self.next_seq;
                self.next_seq += 1;
                let rumor = Rumor {
                    topic: t,
                    id: ((config.origin as u32) << 16) | seq,
                    origin: config.origin,
                    ttl: RUMOR_TTL,
                    payload: vec![(t as u8) ^ (k as u8); PAYLOAD_LEN],
                };
                self.admit(&rumor, now);
            }
        }
    }

    fn handle_rumor(&mut self, from: NodeId, rumor: Rumor, api: &mut NodeApi<'_>) {
        // Ack even duplicates: the previous ack may have been lost.
        self.send_ack(from, wire::ACK_KIND_RUMOR, rumor.topic, rumor.id, api);
        self.mark_infected(from, (rumor.topic, rumor.id));
        if self.admit(&rumor, api.now()) {
            api.trace(
                "gossip-deliver",
                format_args!("topic {} id {:#x} from {from}", rumor.topic, rumor.id),
            );
            self.monger(&rumor, Some(from), api);
        }
    }

    fn handle_digest(&mut self, from: NodeId, entries: Vec<(TopicId, u32)>, api: &mut NodeApi<'_>) {
        for key in &entries {
            self.mark_infected(from, *key);
        }
        if !self.sessions_up.contains(&from) {
            return;
        }
        // Anti-entropy repair: push back what the peer is missing.
        let missing: Vec<(TopicId, u32)> = self
            .store
            .keys()
            .filter(|k| !self.peer_has(from, k))
            .take(DIGEST_PUSH_CAP)
            .copied()
            .collect();
        for key in missing {
            let ttl = self.store.get(&key).map(|s| s.ttl).unwrap_or(0);
            self.push_to(from, key, ttl.saturating_sub(1), api);
        }
    }

    /// Send a digest window to `peer` as quiet background traffic. The
    /// window rotates through the store via a per-peer cursor, so when the
    /// store exceeds one digest's capacity every stored rumor is still
    /// advertised to every peer over successive anti-entropy periods —
    /// a fixed window would leave low-keyed rumors permanently
    /// unadvertised and provoke redundant repair pushes.
    fn send_digest(&mut self, peer: NodeId, api: &mut NodeApi<'_>) {
        let cursor = self.digest_cursors.get(&peer).copied().unwrap_or((0, 0));
        let (entries, next) = digest_window(&self.store, cursor, MAX_DIGEST_ENTRIES as usize);
        self.digest_cursors.insert(peer, next);
        let mut buf = api.buf();
        wire::encode_into(&GossipFrame::Digest(entries), &mut buf);
        api.send_quiet(peer, buf);
    }
}

/// One rotating digest window over the store: up to `max` keys starting at
/// `cursor` (wrapping), plus the cursor for the next window.
fn digest_window(
    store: &BTreeMap<(TopicId, u32), StoredRumor>,
    cursor: (TopicId, u32),
    max: usize,
) -> (Vec<(TopicId, u32)>, (TopicId, u32)) {
    let rotation: Vec<(TopicId, u32)> = store
        .range(cursor..)
        .chain(store.range(..cursor))
        .map(|(k, _)| *k)
        .collect();
    let window: Vec<(TopicId, u32)> = rotation.iter().copied().take(max).collect();
    let next = if rotation.len() > window.len() {
        rotation[window.len()]
    } else {
        cursor
    };
    (window, next)
}

impl Node for GossipNode {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.publish_initial(api.now());
        api.set_timer(ANTI_ENTROPY_PERIOD, TOKEN_ANTI_ENTROPY);
        api.set_timer(GC_PERIOD, TOKEN_GC);
        api.set_timer(RETRANSMIT_TIMEOUT, TOKEN_RETRANSMIT);
    }

    fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        let frame = match wire::validate(&mut Concrete(data), self.config.bugs) {
            Ok(frame) => frame.decoded(data),
            Err(Verdict::Crash(why)) => {
                api.crash(why);
                return;
            }
            Err(Verdict::Reject(e)) => {
                // Conforming nodes drop malformed frames (datagram
                // semantics) — unlike BGP, a bad frame does not reset the
                // session.
                if !matches!(e, DecodeError::Empty) {
                    api.trace("gossip-reject", format_args!("{e} from {from}"));
                }
                return;
            }
        };
        match frame {
            GossipFrame::Rumor(r) => self.handle_rumor(from, r, api),
            GossipFrame::Digest(entries) => self.handle_digest(from, entries, api),
            GossipFrame::Subscribe { topic } => {
                self.send_ack(from, wire::ACK_KIND_SUBSCRIBE, topic, 0, api);
            }
            GossipFrame::Ack { kind, topic, id } => {
                self.pending.remove(&(from, kind, topic, id));
                if kind == wire::ACK_KIND_RUMOR {
                    // Positive knowledge: the peer now has the rumor.
                    self.mark_infected(from, (topic, id));
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut NodeApi<'_>) {
        match token {
            TOKEN_ANTI_ENTROPY => {
                let up: Vec<NodeId> = self
                    .config
                    .peers
                    .iter()
                    .copied()
                    .filter(|p| self.sessions_up.contains(p))
                    .collect();
                for peer in up {
                    self.send_digest(peer, api);
                }
                api.set_timer(ANTI_ENTROPY_PERIOD, TOKEN_ANTI_ENTROPY);
            }
            TOKEN_GC => {
                let now = api.now();
                let expired: Vec<(TopicId, u32)> = self
                    .store
                    .iter()
                    .filter(|(_, s)| s.expires <= now)
                    .map(|(k, _)| *k)
                    .collect();
                if !expired.is_empty() {
                    let store = Arc::make_mut(&mut self.store);
                    for key in &expired {
                        store.remove(key);
                    }
                    for set in self.infected.values_mut() {
                        if expired.iter().any(|key| set.contains(key)) {
                            let set = Arc::make_mut(set);
                            for key in &expired {
                                set.remove(key);
                            }
                        }
                    }
                    api.trace(
                        "gossip-gc",
                        format_args!("evicted {} rumors", expired.len()),
                    );
                }
                api.set_timer(GC_PERIOD, TOKEN_GC);
            }
            TOKEN_RETRANSMIT => {
                self.sweep_retransmits(api);
                api.set_timer(RETRANSMIT_TIMEOUT, TOKEN_RETRANSMIT);
            }
            _ => {}
        }
    }

    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        match ev {
            SessionEvent::Up => {
                if !self.config.peers.contains(&peer) {
                    return;
                }
                self.sessions_up.insert(peer);
                let config = Arc::clone(&self.config);
                for &topic in &config.subscriptions {
                    let mut buf = api.buf();
                    wire::encode_into(&GossipFrame::Subscribe { topic }, &mut buf);
                    api.send_quiet(peer, buf);
                    self.track_unacked(peer, wire::ACK_KIND_SUBSCRIBE, topic, 0, api.now());
                }
                // Initial spread: push everything the peer is not known
                // to have yet.
                let keys: Vec<(TopicId, u32)> = self
                    .store
                    .keys()
                    .filter(|k| !self.peer_has(peer, k))
                    .copied()
                    .collect();
                for key in keys {
                    let ttl = self.store.get(&key).map(|s| s.ttl).unwrap_or(0);
                    self.push_to(peer, key, ttl.saturating_sub(1), api);
                }
            }
            SessionEvent::Down(_) => {
                self.sessions_up.remove(&peer);
                // In-flight data died with the session: forget unacked
                // sends, and un-mark rumors so the re-up initial spread
                // (and anti-entropy) pushes them again.
                let dead: Vec<(NodeId, u8, TopicId, u32)> = self
                    .pending
                    .keys()
                    .filter(|(p, _, _, _)| *p == peer)
                    .copied()
                    .collect();
                for key in dead {
                    self.pending.remove(&key);
                    if key.1 == wire::ACK_KIND_RUMOR {
                        self.unmark_infected(peer, &(key.2, key.3));
                    }
                }
            }
        }
    }

    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }

    fn state_size(&self) -> usize {
        let store: usize = self
            .store
            .values()
            .map(|s| s.payload.len() + 16)
            .sum::<usize>();
        let seen = self.seen.len() * 6;
        let infected: usize = self.infected.values().map(|s| s.len() * 6 + 4).sum();
        store + seen + infected + self.best.len() * 8
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BUG_COUNT_THRESHOLD, OP_DIGEST};
    use dice_netsim::{LinkFaults, LinkParams, QuietOutcome, SimTime, Simulator, Topology};

    /// A full mesh of `n` gossip nodes; node `i` publishes topic `i` and
    /// subscribes to every topic.
    fn mesh(n: usize, seed: u64, buggy: Option<usize>) -> Simulator {
        mesh_with_faults(n, seed, buggy, None)
    }

    /// Like [`mesh`], optionally with unreliable links.
    fn mesh_with_faults(
        n: usize,
        seed: u64,
        buggy: Option<usize>,
        faults: Option<LinkFaults>,
    ) -> Simulator {
        let topo = Topology::full_mesh(n, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut sim = Simulator::new(topo.clone(), seed);
        if let Some(f) = faults {
            sim.set_link_faults(f);
            sim.set_unreliable_links(true);
        }
        for i in topo.node_ids() {
            let mut cfg = GossipConfig::new(61000 + i.0 as u16).publish(i.0 as u16);
            for j in topo.node_ids() {
                if j != i {
                    cfg = cfg.with_peer(j);
                }
            }
            for t in 0..n as u16 {
                cfg = cfg.subscribe(t);
            }
            cfg.bugs.digest_count_overflow = buggy == Some(i.index());
            sim.set_node(i, Box::new(GossipNode::new(cfg)));
        }
        sim.start();
        sim
    }

    fn gossip(sim: &Simulator, i: u32) -> &GossipNode {
        sim.node(NodeId(i))
            .as_any()
            .downcast_ref::<GossipNode>()
            .unwrap()
    }

    #[test]
    fn mesh_disseminates_every_rumor_everywhere() {
        let mut sim = mesh(4, 3, None);
        let out = sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        assert_eq!(out, QuietOutcome::Quiescent, "gossip must converge");
        // 4 topics x 2 rumors; each node sees all 8, delivering the 6 it
        // did not publish itself plus its own 2.
        for i in 0..4 {
            let g = gossip(&sim, i);
            assert_eq!(g.seen_count(), 8, "node {i} missed rumors");
            assert_eq!(g.delivered_total(), 8, "node {i} delivery count");
            assert_eq!(g.established_peers(), 3);
        }
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        let mut sim = mesh(3, 9, None);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        let before: Vec<u64> = (0..3).map(|i| gossip(&sim, i).delivered_total()).collect();
        // Re-deliver an already-seen rumor directly.
        let key_bytes = {
            let g = gossip(&sim, 1);
            let (&(topic, id), stored) = g.store.iter().next().expect("has rumors");
            wire::encode(&GossipFrame::Rumor(Rumor {
                topic,
                id,
                origin: stored.origin,
                ttl: 3,
                payload: stored.payload.clone(),
            }))
        };
        let dup_before = gossip(&sim, 1).duplicates_total();
        sim.deliver_direct(NodeId(0), NodeId(1), &key_bytes);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(120_000_000_000),
        );
        assert_eq!(gossip(&sim, 1).duplicates_total(), dup_before + 1);
        let after: Vec<u64> = (0..3).map(|i| gossip(&sim, i).delivered_total()).collect();
        assert_eq!(before, after, "duplicate must not be redelivered");
    }

    #[test]
    fn anti_entropy_repairs_partitioned_peer() {
        // Down the 0-2 and 1-2 links before start... simpler: bring the
        // session down after convergence, publish nothing new, restore and
        // check digests flow. Here we instead verify digests carry state:
        let mut sim = mesh(3, 5, None);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        // A digest from a peer that lacks everything triggers a push of
        // the missing rumors (capped).
        let empty_digest = wire::encode(&GossipFrame::Digest(vec![]));
        let seen_before = gossip(&sim, 0).seen_count();
        sim.deliver_direct(NodeId(2), NodeId(0), &empty_digest);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(120_000_000_000),
        );
        // Node 0 pushed its store to node 2; node 2 already had all of it,
        // counting duplicates there, but nothing breaks and no redelivery
        // happens at node 0.
        assert_eq!(gossip(&sim, 0).seen_count(), seen_before);
    }

    #[test]
    fn ttl_gc_evicts_but_remembers() {
        // The rumors expire at 120 s; the GC sweep after that evicts them.
        let cfg = GossipConfig::new(77).publish(1).subscribe(1);
        let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
        let mut sim = Simulator::new(topo, 1);
        sim.set_node(NodeId(0), Box::new(GossipNode::new(cfg)));
        sim.set_node(
            NodeId(1),
            Box::new(GossipNode::new(GossipConfig::new(78).subscribe(1))),
        );
        sim.start();
        sim.run_until(SimTime::ZERO + RUMOR_LIFETIME + GC_PERIOD);
        let g = gossip(&sim, 0);
        assert_eq!(g.stored(), 0, "expired rumors must be evicted");
        assert_eq!(g.seen_count(), 2, "dedup memory survives GC");
    }

    #[test]
    fn seeded_bug_crashes_only_buggy_build() {
        let attack = vec![OP_DIGEST, BUG_COUNT_THRESHOLD];
        // Healthy build: rejected as truncated, no crash.
        let mut sim = mesh(3, 7, None);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.deliver_direct(NodeId(0), NodeId(1), &attack);
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        assert!(sim.crashed(NodeId(1)).is_none());
        // Buggy build: crashes with the seeded reason.
        let mut sim = mesh(3, 7, Some(1));
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.deliver_direct(NodeId(0), NodeId(1), &attack);
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        let reason = sim.crashed(NodeId(1)).expect("buggy node crashes");
        assert!(reason.contains("digest count overflow"), "{reason}");
    }

    #[test]
    fn malformed_frames_are_dropped_without_reset() {
        let mut sim = mesh(2, 4, None);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let delivered = gossip(&sim, 1).delivered_total();
        sim.deliver_direct(NodeId(0), NodeId(1), &[0x55, 1, 2, 3]);
        sim.deliver_direct(NodeId(0), NodeId(1), &[wire::OP_RUMOR, 0, 0]);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(sim.crashed(NodeId(1)).is_none());
        assert_eq!(gossip(&sim, 1).delivered_total(), delivered);
        assert!(sim.session_up(NodeId(0), NodeId(1)));
    }

    #[test]
    fn digest_windows_rotate_over_the_whole_store() {
        // A store larger than one digest: successive windows must cover
        // every key, not a fixed (highest-keyed) slice.
        let mut store: BTreeMap<(TopicId, u32), StoredRumor> = BTreeMap::new();
        for t in 0..5u16 {
            for id in 0..16u32 {
                store.insert(
                    (t, id),
                    StoredRumor {
                        origin: 1,
                        ttl: 2,
                        payload: vec![],
                        expires: SimTime::ZERO,
                    },
                );
            }
        }
        assert!(store.len() > wire::MAX_DIGEST_ENTRIES as usize);
        let mut cursor = (0, 0);
        let mut seen: BTreeSet<(TopicId, u32)> = BTreeSet::new();
        for _ in 0..4 {
            let (window, next) = digest_window(&store, cursor, wire::MAX_DIGEST_ENTRIES as usize);
            assert!(window.len() <= wire::MAX_DIGEST_ENTRIES as usize);
            seen.extend(window);
            cursor = next;
        }
        assert_eq!(seen.len(), store.len(), "rotation covers the full store");
        // A store that fits in one window is fully advertised at once.
        let small: BTreeMap<(TopicId, u32), StoredRumor> = store.into_iter().take(4).collect();
        let (window, next) = digest_window(&small, (9, 9), wire::MAX_DIGEST_ENTRIES as usize);
        assert_eq!(window.len(), 4);
        assert_eq!(next, (9, 9), "cursor stable when everything fits");
    }

    #[test]
    fn gossip_converges_on_lossy_links() {
        // 40% independent drop: the ack/retransmit path plus anti-entropy
        // must still disseminate every rumor to every node.
        let faults = LinkFaults {
            drop: 0.4,
            duplicate: 0.1,
            reorder: 0.2,
            reorder_window: SimDuration::from_millis(10),
            burst: None,
        };
        let mut sim = mesh_with_faults(4, 11, None, Some(faults));
        let out = sim.run_until_quiet(
            SimDuration::from_secs(8),
            SimTime::from_nanos(180_000_000_000),
        );
        assert_eq!(out, QuietOutcome::Quiescent, "lossy gossip must converge");
        let mut total_retransmits = 0;
        for i in 0..4 {
            let g = gossip(&sim, i);
            assert_eq!(g.seen_count(), 8, "node {i} missed rumors under loss");
            assert_eq!(g.delivered_total(), 8, "node {i} delivery count");
            total_retransmits += g.retransmits();
        }
        assert!(
            total_retransmits > 0,
            "40% loss must force at least one retransmission"
        );
    }

    #[test]
    fn lossy_gossip_replays_byte_identically() {
        let faults = LinkFaults::lossy(0.25);
        let run = |seed| {
            let mut sim = mesh_with_faults(3, seed, None, Some(faults));
            sim.run_until(SimTime::from_nanos(20_000_000_000));
            (0..3)
                .map(|i| {
                    let g = gossip(&sim, i);
                    (g.seen_count(), g.delivered_total(), g.retransmits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(21), run(21), "same seed must replay identically");
    }

    #[test]
    fn acks_clear_pending_on_reliable_links() {
        let mut sim = mesh(3, 13, None);
        let out = sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        assert_eq!(out, QuietOutcome::Quiescent);
        for i in 0..3 {
            let g = gossip(&sim, i);
            assert_eq!(g.pending_sends(), 0, "node {i} has stale pending sends");
            assert_eq!(g.retransmits(), 0, "no loss, no retransmits");
        }
    }

    #[test]
    fn retry_exhaustion_unmarks_infection_for_anti_entropy() {
        // Sever the channel entirely (drop = 1.0): every push and every
        // retransmit is lost, so after the budget is spent the sender must
        // have *no* stale infection marks for its peer — that bookkeeping
        // is what lets anti-entropy repair once the channel heals.
        let faults = LinkFaults {
            drop: 1.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: SimDuration::ZERO,
            burst: None,
        };
        let mut sim = mesh_with_faults(2, 17, None, Some(faults));
        sim.run_until(SimTime::from_nanos(60_000_000_000));
        for i in 0..2 {
            let g = gossip(&sim, i);
            assert_eq!(g.pending_sends(), 0, "budget spent, pending drained");
            assert!(g.retransmits() >= 1, "retransmits were attempted");
            let marked: usize = g.infected.values().map(|s| s.len()).sum();
            assert_eq!(marked, 0, "exhausted sends must un-mark infection");
        }
        // Heal the channel: anti-entropy digests now advertise the stored
        // rumors and the repair push delivers them.
        sim.set_unreliable_links(false);
        sim.run_until(SimTime::from_nanos(120_000_000_000));
        for i in 0..2 {
            let g = gossip(&sim, i);
            assert_eq!(g.seen_count(), 4, "node {i} repaired after heal");
        }
    }

    #[test]
    fn clone_node_preserves_counters() {
        let mut sim = mesh(3, 6, None);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(60_000_000_000),
        );
        let g = gossip(&sim, 2);
        let boxed = g.clone_node();
        let c = boxed.as_any().downcast_ref::<GossipNode>().unwrap();
        assert_eq!(c.delivered_total(), g.delivered_total());
        assert_eq!(c.seen_count(), g.seen_count());
        assert!(c.state_size() > 0);
    }

    /// The tables `copy` still shares, allocation for allocation, with
    /// `original`.
    fn shared_tables(original: &GossipNode, copy: &GossipNode) -> BTreeSet<String> {
        let mut shared = BTreeSet::new();
        let mut note = |name: String, same: bool| {
            if same {
                shared.insert(name);
            }
        };
        note("config".into(), Arc::ptr_eq(&original.config, &copy.config));
        note("store".into(), Arc::ptr_eq(&original.store, &copy.store));
        note("seen".into(), Arc::ptr_eq(&original.seen, &copy.seen));
        for (peer, set) in &original.infected {
            let same = copy.infected.get(peer).is_some_and(|c| Arc::ptr_eq(set, c));
            note(format!("infected[{}]", peer.0), same);
        }
        shared
    }

    #[test]
    fn mutating_a_copy_leaves_the_checkpoint_untouched() {
        // `clone_node` shares the config, the store, the dedup memory and
        // every peer's infection set with the checkpoint. Each way a copy
        // can then change must copy exactly the tables it writes: never
        // write through to the checkpoint, never copy a table it only
        // reads. Rumors expire at ~120 s, so the converged checkpoint still
        // holds every payload.
        let mut live = mesh(6, 8, None);
        let out = live.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(15_000_000_000),
        );
        assert_eq!(out, QuietOutcome::Quiescent);
        let shadow = live.instant_snapshot();
        let topo = live.topology().clone();
        let before = shadow.nodes()[&NodeId(1)]
            .as_any()
            .downcast_ref::<GossipNode>()
            .unwrap();
        let before_fp = format!("{before:?}");
        let all = shared_tables(before, before);
        assert_eq!(all.len(), 3 + 5, "config, store, seen, five peers");
        let copy = before.clone_node();
        let copy = copy.as_any().downcast_ref::<GossipNode>().unwrap();
        assert_eq!(shared_tables(before, copy), all, "a fresh copy shares all");

        // A rumor node 0 is known to have, and every stored key known too:
        // frames about them must copy nothing.
        let known = *before.store.keys().next().unwrap();
        let from_0 = &before.infected[&NodeId(0)];
        assert!(before.store.keys().all(|k| from_0.contains(k)), "converged");
        let stored = &before.store[&known];
        let rumor = |id: u32| {
            wire::encode(&GossipFrame::Rumor(Rumor {
                topic: known.0,
                id,
                origin: stored.origin,
                ttl: 3,
                payload: stored.payload.clone(),
            }))
        };
        let fresh = rumor(0x00FF_FFFF);
        assert!(!before.seen.contains(&(known.0, 0x00FF_FFFF)));
        let duplicate = rumor(known.1);
        let digest = wire::encode(&GossipFrame::Digest(before.store.keys().copied().collect()));
        let ack = wire::encode(&GossipFrame::Ack {
            kind: wire::ACK_KIND_RUMOR,
            topic: known.0,
            id: known.1,
        });
        let subscribe = wire::encode(&GossipFrame::Subscribe { topic: 3 });
        let deliver = |bytes: &[u8]| {
            let bytes = bytes.to_vec();
            move |sim: &mut Simulator| sim.deliver_direct(NodeId(0), NodeId(1), &bytes)
        };

        type Step<'a> = (&'a str, Box<dyn Fn(&mut Simulator) + 'a>, Vec<&'a str>);
        let steps: Vec<Step<'_>> = vec![
            (
                // Marks the sender, then mongers to the first three peers.
                "fresh rumor",
                Box::new(deliver(&fresh)),
                vec![
                    "store",
                    "seen",
                    "infected[0]",
                    "infected[2]",
                    "infected[3]",
                    "infected[4]",
                ],
            ),
            ("digest of known keys", Box::new(deliver(&digest)), vec![]),
            ("duplicate rumor", Box::new(deliver(&duplicate)), vec![]),
            ("ack", Box::new(deliver(&ack)), vec![]),
            ("subscribe", Box::new(deliver(&subscribe)), vec![]),
            (
                // Evicts every payload and prunes every peer's set; the
                // dedup memory survives GC untouched. (A copy carries no
                // armed timers, so the step fires it by hand once the
                // rumors have expired.)
                "GC timer",
                Box::new(|sim: &mut Simulator| {
                    sim.run_until(SimTime::ZERO + RUMOR_LIFETIME + SimDuration::from_secs(5));
                    sim.invoke_node(NodeId(1), |node, api| node.on_timer(TOKEN_GC, api));
                }),
                vec![
                    "store",
                    "infected[0]",
                    "infected[2]",
                    "infected[3]",
                    "infected[4]",
                    "infected[5]",
                ],
            ),
            (
                "session down",
                Box::new(|sim: &mut Simulator| sim.inject_link_down(NodeId(1), NodeId(0))),
                vec![],
            ),
        ];
        for (name, step, written) in &steps {
            let mut clone = Simulator::from_shadow(&shadow, &topo, 3);
            // Materialize node 1 first, so a step that writes nothing is
            // still judged on a copy rather than on the checkpoint itself.
            clone.node_mut(NodeId(1));
            step(&mut clone);
            let checkpoint = shadow.nodes()[&NodeId(1)]
                .as_any()
                .downcast_ref::<GossipNode>()
                .unwrap();
            assert_eq!(
                format!("{checkpoint:?}"),
                before_fp,
                "{name} wrote through to the checkpoint"
            );
            let touched = gossip(&clone, 1);
            let expected: BTreeSet<String> = all
                .iter()
                .filter(|t| !written.contains(&t.as_str()))
                .cloned()
                .collect();
            assert_eq!(
                shared_tables(checkpoint, touched),
                expected,
                "{name}: the tables it does not write stay shared, the ones it writes are copied"
            );
        }
        // The GC and the session-down steps did happen on their copies.
        let mut clone = Simulator::from_shadow(&shadow, &topo, 3);
        (steps[5].1)(&mut clone);
        assert_eq!(gossip(&clone, 1).stored(), 0, "GC evicted");
        assert_eq!(gossip(&clone, 1).seen_count(), before.seen_count());
        (steps[6].1)(&mut clone);
        assert_eq!(gossip(&clone, 1).established_peers(), 4);
    }
}
