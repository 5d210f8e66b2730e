//! The BGP speaker: a [`dice_netsim::Node`] implementing the full pipeline
//! BIRD runs for each peer — session FSM, UPDATE parsing, import policy,
//! decision process, export policy, and route propagation.
//!
//! The UPDATE path (`handle_update` → `recompute_and_propagate`) is what
//! DiCE's concolic twin explores. Its checks are written once over a value
//! domain — the validator [`wire::validate_update`], the path screen
//! [`screen_path`] and the policy walk [`Policy::decide`] — and the router
//! runs them on concrete values, the twin ([`crate::twin::UpdateTwin`],
//! built by [`BgpRouter::update_twin`]) on any value domain.

use core::any::Any;
use core::ops::Range;
use std::sync::Arc;

use dice_netsim::{Concrete, Node, NodeApi, NodeId, SessionEvent, SimDuration};
use serde::{Deserialize, Serialize};

use crate::attrs::PathAttrs;
use crate::config::RouterConfig;
use crate::decision::{select, DecisionReason};
use crate::fsm::{FsmEvent, PeerFsm, SessionState};
use crate::policy::{screen_path, PathFault, Policy};
use crate::rib::{Rib, Route};
use crate::twin::UpdateTwin;
use crate::types::{Asn, Ipv4Addr, Ipv4Net};
use crate::wire::{self, Incoming, Message, NotificationMsg, OpenMsg, UpdateView};

/// Timer token layout: `(peer_node_id << 8) | kind`.
mod timer {
    pub const KEEPALIVE: u64 = 1;
    pub const HOLD: u64 = 2;
    pub const DEFERRED_RESET: u64 = 3;

    pub fn token(peer: u32, kind: u64) -> u64 {
        ((peer as u64) << 8) | kind
    }
    pub fn split(token: u64) -> (u32, u64) {
        ((token >> 8) as u32, token & 0xFF)
    }
}

/// Aggregate protocol counters, used by checkers and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// UPDATE messages received.
    pub updates_rx: u64,
    /// UPDATE messages sent.
    pub updates_tx: u64,
    /// KEEPALIVEs received.
    pub keepalives_rx: u64,
    /// NOTIFICATIONs received.
    pub notifications_rx: u64,
    /// NOTIFICATIONs sent.
    pub notifications_tx: u64,
    /// Messages that failed to decode.
    pub decode_errors: u64,
    /// Announcements dropped by AS-path loop detection.
    pub loop_rejects: u64,
    /// Announcements dropped by import policy.
    pub policy_rejects: u64,
}

/// One configured neighbour, its policy names resolved to slots of
/// [`Resolved::policies`].
#[derive(Debug, Clone)]
struct Neighbor {
    node: NodeId,
    asn: Asn,
    import: usize,
    export: usize,
    /// The first neighbour (in node id order) behind the same export
    /// slot: its [`PeerState::export_memo`] holds the slot's verdict.
    memo: usize,
}

/// The configuration plus what the message path needs of it, looked up
/// once instead of per message: derived state, rebuilt whenever an operator
/// action changes what it was derived from.
#[derive(Debug, Clone)]
pub(crate) struct Resolved {
    pub(crate) config: RouterConfig,
    /// The neighbours in ascending node id — the order every fan-out walks.
    neighbors: Vec<Neighbor>,
    /// The distinct policies the neighbours name: distinct by rules and
    /// default, not by name, since what a policy does to a route is all a
    /// slot stands for (generated configurations name one policy per
    /// neighbour, a handful of roles between them).
    policies: Vec<Policy>,
}

impl Resolved {
    fn new(config: RouterConfig) -> Self {
        let mut policies: Vec<Policy> = Vec::new();
        let mut slot = |name: &str| {
            let policy = &config.policies[name];
            let known = policies
                .iter()
                .position(|p| p.rules == policy.rules && p.default == policy.default);
            known.unwrap_or_else(|| {
                policies.push(policy.clone());
                policies.len() - 1
            })
        };
        let mut neighbors: Vec<Neighbor> = config
            .neighbors
            .iter()
            .map(|n| Neighbor {
                node: n.node,
                asn: n.asn,
                import: slot(&n.import),
                export: slot(&n.export),
                memo: 0,
            })
            .collect();
        neighbors.sort_by_key(|n| n.node);
        let mut first = vec![None; policies.len()];
        for (i, n) in neighbors.iter_mut().enumerate() {
            n.memo = *first[n.export].get_or_insert(i);
        }
        Resolved {
            config,
            neighbors,
            policies,
        }
    }

    /// Neighbour slot `i`'s AS and import policy.
    pub(crate) fn import(&self, i: usize) -> (Asn, &Policy) {
        let n = &self.neighbors[i];
        (n.asn, &self.policies[n.import])
    }

    fn own_addr(&self) -> Ipv4Addr {
        Ipv4Addr(self.config.router_id.0)
    }

    /// What export policy `slot` makes of `route`, eBGP rewrite applied
    /// ([`Policy::export`]): prepend own AS, next-hop self, strip
    /// LOCAL_PREF and internal (own-ASN) communities. Nothing here depends
    /// on the peer, so every peer behind the same slot is sent the same
    /// bag.
    fn export(&self, slot: usize, prefix: &Ipv4Net, route: &Route) -> Option<Arc<PathAttrs>> {
        let own = self.config.asn;
        let out = self.policies[slot].export(prefix, &route.attrs, own, self.own_addr())?;
        Some(Arc::new(out))
    }
}

/// Session state toward one neighbour.
#[derive(Debug, Clone, Default)]
struct PeerState {
    /// `None` until the first session event or message from the peer.
    fsm: Option<PeerFsm>,
    /// The router id of the peer's OPEN.
    router_id: Option<u32>,
    /// Scratch of [`BgpRouter::export_to`]: the verdict of the export
    /// slot whose first neighbour this is ([`Neighbor::memo`]); `None`
    /// between calls. Kept in the session table, the one table a router
    /// copy owns, so a copy exports without growing a memo of its own.
    export_memo: Option<Option<Arc<PathAttrs>>>,
}

/// A BIRD-like BGP router node.
///
/// Cloning a router (a checkpoint, a validation clone's first touch) is
/// two pointer bumps and one flat copy: the configuration and the RIB sit
/// behind `Arc`s, and the per-neighbour session table is plain data. A
/// write then copies the RIB's spine and the entry of the prefix it names,
/// nothing else.
#[derive(Debug, Clone)]
pub struct BgpRouter {
    /// Immutable on the message path; the operator actions copy-on-write.
    shared: Arc<Resolved>,
    /// Aligned with `shared.neighbors`.
    peers: Vec<PeerState>,
    rib: Rib,
    stats: RouterStats,
}

impl BgpRouter {
    /// Build a router from a validated config.
    pub fn new(config: RouterConfig) -> Self {
        config.validate().expect("invalid router config");
        let shared = Resolved::new(config);
        BgpRouter {
            peers: vec![PeerState::default(); shared.neighbors.len()],
            shared: Arc::new(shared),
            rib: Rib::default(),
            stats: RouterStats::default(),
        }
    }

    /// This router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.shared.config
    }

    /// The RIB, read for its best routes (`best`, `iter`, `len`, `flips`,
    /// `total_flips`).
    pub fn loc_rib(&self) -> &Rib {
        &self.rib
    }

    /// The RIB, read for its per-peer accepted routes (`get`,
    /// `candidates`, `route_count`).
    pub fn adj_rib_in(&self) -> &Rib {
        &self.rib
    }

    /// The RIB, read for what this router last advertised to each peer
    /// (`sent`, `sent_count`).
    pub fn adj_rib_out(&self) -> &Rib {
        &self.rib
    }

    /// Protocol counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Session FSM state toward `peer`.
    pub fn session_state(&self, peer: NodeId) -> SessionState {
        self.fsm(peer).map(|f| f.state).unwrap_or_default()
    }

    /// The twin exploration runs of this router's UPDATE handling for
    /// inputs from `peer`, if `peer` is a neighbour. It shares the
    /// router's configuration.
    pub fn update_twin(&self, peer: NodeId) -> Option<UpdateTwin> {
        Some(UpdateTwin {
            shared: Arc::clone(&self.shared),
            neighbor: self.peer_index(peer)?,
        })
    }

    /// Where `node` sits in the neighbour table, if it is a neighbour.
    fn peer_index(&self, node: NodeId) -> Option<usize> {
        let neighbors = &self.shared.neighbors;
        neighbors.binary_search_by_key(&node, |n| n.node).ok()
    }

    fn fsm(&self, peer: NodeId) -> Option<PeerFsm> {
        self.peers[self.peer_index(peer)?].fsm
    }

    fn local_route(&self, prefix: &Ipv4Net) -> Option<Route> {
        if self.shared.config.networks.contains(prefix) {
            Some(Route::local(PathAttrs::originated(self.shared.own_addr())))
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Operator actions (invoked via `Simulator::invoke_node`)
    // ------------------------------------------------------------------

    /// Operator action: begin originating `prefix`. When `legitimate` the
    /// prefix is also added to the owned set; a hijack is announcing without
    /// owning.
    pub fn announce_network(&mut self, prefix: Ipv4Net, legitimate: bool, api: &mut NodeApi<'_>) {
        let config = &mut Arc::make_mut(&mut self.shared).config;
        if !config.networks.contains(&prefix) {
            config.networks.push(prefix);
        }
        if legitimate && !config.owned.contains(&prefix) {
            config.owned.push(prefix);
        }
        self.recompute_and_propagate(prefix, api);
    }

    /// Operator action: stop originating `prefix`.
    pub fn withdraw_network(&mut self, prefix: Ipv4Net, api: &mut NodeApi<'_>) {
        let config = &mut Arc::make_mut(&mut self.shared).config;
        config.networks.retain(|n| n != &prefix);
        self.recompute_and_propagate(prefix, api);
    }

    /// Operator action: replace a named policy. Takes effect for routes
    /// processed after the change (a session reset forces re-evaluation,
    /// as with a hard clear on real routers).
    pub fn replace_policy(&mut self, policy: Policy) {
        let mut config = self.shared.config.clone();
        config.policies.insert(policy.name.clone(), policy);
        // The one action that changes what the policy slots were resolved
        // from (neither networks nor the owned set is resolved).
        self.shared = Arc::new(Resolved::new(config));
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn send_message(&mut self, to: NodeId, msg: &Message, api: &mut NodeApi<'_>, quiet: bool) {
        // Zero-copy wire path: encode straight into a pool-leased buffer.
        let mut buf = api.buf();
        wire::encode_into(msg, &mut buf);
        if let Message::Notification(_) = msg {
            self.stats.notifications_tx += 1;
        }
        if quiet {
            api.send_quiet(to, buf);
        } else {
            api.send(to, buf);
        }
    }

    /// Send an UPDATE encoded straight from borrowed parts (the attributes
    /// stay in the Adj-RIB-Out entry they were just stored in).
    fn send_update(
        stats: &mut RouterStats,
        to: NodeId,
        withdrawn: &[Ipv4Net],
        attrs: Option<&PathAttrs>,
        nlri: &[Ipv4Net],
        api: &mut NodeApi<'_>,
    ) {
        let mut buf = api.buf();
        wire::encode_update_into(withdrawn, attrs, nlri, &mut buf);
        stats.updates_tx += 1;
        api.send(to, buf);
    }

    fn protocol_error(&mut self, peer: NodeId, code: u8, subcode: u8, api: &mut NodeApi<'_>) {
        let msg = Message::Notification(NotificationMsg {
            code,
            subcode,
            data: Vec::new(),
        });
        self.send_message(peer, &msg, api, false);
        // Defer the transport reset slightly so the NOTIFICATION is
        // delivered before the channel drops (mirrors TCP close semantics).
        api.set_timer(
            SimDuration::from_millis(10),
            timer::token(peer.0, timer::DEFERRED_RESET),
        );
    }

    fn on_established(&mut self, i: usize, api: &mut NodeApi<'_>) {
        let prefixes: Vec<Ipv4Net> = self.rib.iter().map(|(p, _)| *p).collect();
        for prefix in prefixes {
            self.export_to(i..i + 1, prefix, api);
        }
    }

    /// An UPDATE from neighbour `i`, session checks passed.
    fn handle_update(&mut self, i: usize, upd: UpdateView<'_>, api: &mut NodeApi<'_>) {
        self.stats.updates_rx += 1;
        // Borrowed next to the RIBs it steers: no handle on the shared
        // configuration is taken or dropped per message.
        let shared = &*self.shared;
        let peer = shared.neighbors[i].node;
        let (peer_asn, import) = shared.import(i);
        let own = shared.config.asn;
        let withdrawn = upd.withdrawn();
        for w in withdrawn.clone() {
            self.rib.remove(peer, &w);
        }

        let mut first_as_error = false;
        let nlri = upd.nlri();
        match upd.attrs {
            Some(mut attrs) if nlri.len() > 0 => {
                let screened = screen_path(&mut Concrete(&[]), &attrs, own, peer_asn);
                if screened == Err(PathFault::Loop) {
                    // AS-path loop: the route is unusable, so it replaces
                    // the peer's previous one as a withdraw would (RFC 4271
                    // §9).
                    self.stats.loop_rejects += 1;
                    for p in nlri.clone() {
                        self.rib.remove(peer, &p);
                    }
                } else if screened == Err(PathFault::FirstAs) {
                    // eBGP first-AS check (RFC 4271 §6.3): the announcement
                    // is an error, the withdrawals before it still stand.
                    first_as_error = true;
                } else {
                    let peer_router_id = self.peers[i].router_id.unwrap_or(peer.0);
                    let mut left = nlri.len();
                    for p in nlri.clone() {
                        left -= 1;
                        // The decoded bag is ours: the last NLRI's import
                        // edits it in place, each one before it a copy.
                        let imported = if left == 0 {
                            import.apply(&p, std::mem::take(&mut attrs), own)
                        } else {
                            import.apply(&p, &attrs, own)
                        };
                        match imported {
                            Some(attrs) => {
                                let route = Route {
                                    attrs: Arc::new(attrs.into_owned()),
                                    from_peer: Some(peer.0),
                                    peer_router_id,
                                };
                                self.rib.insert(peer, p, route);
                            }
                            None => {
                                self.stats.policy_rejects += 1;
                                self.rib.remove(peer, &p);
                            }
                        }
                    }
                }
            }
            _ => {}
        }

        // Every prefix the UPDATE names is recomputed, in ascending order,
        // once: one whose candidates did not change selects the best route
        // it has and sends nothing.
        for p in ascending(withdrawn.chain(nlri)) {
            self.recompute_and_propagate(p, api);
        }
        if first_as_error {
            self.protocol_error(peer, wire::notif::UPDATE_ERROR, 11, api);
        }
    }

    /// Phase 2 + 3 of the decision process for one prefix: select the best
    /// route and, when it changed, push deltas to every established peer.
    pub fn recompute_and_propagate(&mut self, prefix: Ipv4Net, api: &mut NodeApi<'_>) {
        let local = self.local_route(&prefix);
        // Taken by value (one pointer bump): the table it is installed in
        // is the one it was selected from.
        let winner = select(local.iter().chain(self.rib.candidates(&prefix)))
            .map(|(best, reason)| (best.clone(), reason));
        let changed = match winner {
            Some((best, reason)) => self.rib.install(prefix, best, reason),
            None => self.rib.uninstall(&prefix),
        };
        if !changed {
            return;
        }
        self.export_to(0..self.peers.len(), prefix, api);
    }

    /// Bring what the established peers among `peers` (a range of the
    /// neighbour table) were last sent for `prefix` in line with the
    /// Loc-RIB: an UPDATE where export policy lets the best route through
    /// and the result differs from what was sent, a withdraw where there is
    /// no best route, policy rejects it, or the peer is where it came from.
    ///
    /// Peers are walked in ascending node id and each export policy is
    /// evaluated at most once, on first need; the peers behind it share the
    /// resulting bag.
    fn export_to(&mut self, peers: Range<usize>, prefix: Ipv4Net, api: &mut NodeApi<'_>) {
        let shared = &*self.shared;
        // By value (one pointer bump): the loop below writes the table it
        // was read from.
        let best = self.rib.best(&prefix).map(|sel| sel.route.clone());
        for i in peers.clone() {
            if !self.peers[i].fsm.is_some_and(|f| f.is_established()) {
                continue;
            }
            let neighbor = &shared.neighbors[i];
            let q = neighbor.node;
            let out = match &best {
                // Split horizon: never advertise a route back to the peer
                // it came from.
                Some(route) if route.from_peer != Some(q.0) => self.peers[neighbor.memo]
                    .export_memo
                    .get_or_insert_with(|| shared.export(neighbor.export, &prefix, route))
                    .as_ref(),
                _ => None,
            };
            match out {
                Some(attrs) => {
                    if self.rib.advertise(q, prefix, Arc::clone(attrs)) {
                        Self::send_update(&mut self.stats, q, &[], Some(attrs), &[prefix], api);
                    }
                }
                None => {
                    if self.rib.withdraw(q, &prefix) {
                        Self::send_update(&mut self.stats, q, &[prefix], None, &[], api);
                    }
                }
            }
        }
        for i in peers {
            self.peers[shared.neighbors[i].memo].export_memo = None;
        }
    }

    fn arm_session_timers(&mut self, i: usize, api: &mut NodeApi<'_>) {
        let peer = self.shared.neighbors[i].node;
        let fsm = self.peers[i].fsm.get_or_insert_with(PeerFsm::default);
        let hold = fsm.negotiated_hold;
        if hold > 0 {
            api.set_timer(
                SimDuration::from_secs(hold as u64),
                timer::token(peer.0, timer::HOLD),
            );
            api.set_timer(
                SimDuration::from_secs(fsm.keepalive_secs().max(1) as u64),
                timer::token(peer.0, timer::KEEPALIVE),
            );
        }
    }
}

/// The prefixes of `named` in ascending order, each once, without
/// collecting them: a scan of `named` per prefix, which for the UPDATEs
/// routers send (one prefix each) is one scan.
fn ascending(named: impl Iterator<Item = Ipv4Net> + Clone) -> impl Iterator<Item = Ipv4Net> {
    let mut last = None;
    core::iter::from_fn(move || {
        let next = named
            .clone()
            .filter(|p| last.is_none_or(|l| *p > l))
            .min()?;
        last = Some(next);
        Some(next)
    })
}

impl Node for BgpRouter {
    fn on_start(&mut self, _: &mut NodeApi<'_>) {
        for prefix in self.shared.config.networks.clone() {
            let route = Route::local(PathAttrs::originated(self.shared.own_addr()));
            self.rib.install(prefix, route, DecisionReason::OnlyRoute);
        }
    }

    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        let Some(i) = self.peer_index(peer) else {
            return;
        };
        match ev {
            SessionEvent::Up => {
                let fsm = self.peers[i].fsm.get_or_insert_with(PeerFsm::default);
                fsm.on_transport_up();
                let config = &self.shared.config;
                let hold_time = config.hold_time;
                let open = Message::Open(OpenMsg {
                    version: 4,
                    asn: config.asn,
                    hold_time,
                    router_id: config.router_id,
                    opt_params: vec![],
                });
                self.send_message(peer, &open, api, false);
                // RFC 4271 arms the hold timer on entering OpenSent. Without
                // it, a lost OPEN leaves both peers deadlocked in OpenSent
                // with nothing scheduled to retry; with it, hold expiry
                // tears the half-open session down and the transport's
                // auto-reconnect drives a fresh OPEN exchange.
                if hold_time > 0 {
                    api.set_timer(
                        SimDuration::from_secs(hold_time as u64),
                        timer::token(peer.0, timer::HOLD),
                    );
                }
            }
            SessionEvent::Down(_) => {
                if let Some(fsm) = &mut self.peers[i].fsm {
                    fsm.on_transport_down();
                }
                api.cancel_timer(timer::token(peer.0, timer::KEEPALIVE));
                api.cancel_timer(timer::token(peer.0, timer::HOLD));
                api.cancel_timer(timer::token(peer.0, timer::DEFERRED_RESET));
                let affected = self.rib.flush_peer(peer);
                for p in affected {
                    self.recompute_and_propagate(p, api);
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        let Some(i) = self.peer_index(from) else {
            return;
        };
        // The seeded defect (see `BugSwitches`) fires while an UPDATE is
        // parsed, inside `wire::validate_update`. BIRD parses an UPDATE
        // only on an established session: elsewhere the message is the FSM
        // error any UPDATE is there, which the empty one below meets.
        let msg = match wire::decode_incoming(data, self.shared.config.bugs) {
            Ok((msg, _)) => msg,
            Err(wire::Verdict::Crash(why)) => {
                if self.fsm(from).is_some_and(|f| f.is_established()) {
                    api.crash(why);
                    return;
                }
                Incoming::Update(UpdateView::default())
            }
            Err(wire::Verdict::Reject(e)) => {
                self.stats.decode_errors += 1;
                let (code, subcode) = e.notification_codes();
                self.protocol_error(from, code, subcode, api);
                return;
            }
        };
        // Any valid message refreshes the hold timer.
        if let Some(fsm) = self.peers[i].fsm {
            if fsm.negotiated_hold > 0 {
                api.set_timer(
                    SimDuration::from_secs(fsm.negotiated_hold as u64),
                    timer::token(from.0, timer::HOLD),
                );
            }
        }
        match msg {
            Incoming::Other(Message::Open(open)) => {
                let asn_ok = open.asn == self.shared.neighbors[i].asn;
                let my_hold = self.shared.config.hold_time;
                let fsm = self.peers[i].fsm.get_or_insert_with(PeerFsm::default);
                match fsm.on_open(asn_ok, my_hold, open.hold_time) {
                    FsmEvent::None => {
                        self.peers[i].router_id = Some(open.router_id.0);
                        self.send_message(from, &Message::Keepalive, api, true);
                        self.arm_session_timers(i, api);
                    }
                    FsmEvent::ProtocolError { code, subcode } => {
                        self.protocol_error(from, code, subcode, api);
                    }
                    FsmEvent::SessionEstablished => unreachable!("OPEN cannot establish"),
                }
            }
            Incoming::Other(Message::Keepalive) => {
                self.stats.keepalives_rx += 1;
                let fsm = self.peers[i].fsm.get_or_insert_with(PeerFsm::default);
                match fsm.on_keepalive() {
                    FsmEvent::SessionEstablished => self.on_established(i, api),
                    FsmEvent::None => {}
                    FsmEvent::ProtocolError { code, subcode } => {
                        self.protocol_error(from, code, subcode, api);
                    }
                }
            }
            Incoming::Update(upd) => {
                let fsm = self.peers[i].fsm.get_or_insert_with(PeerFsm::default);
                match fsm.on_update() {
                    FsmEvent::None => self.handle_update(i, upd, api),
                    FsmEvent::ProtocolError { code, subcode } => {
                        self.protocol_error(from, code, subcode, api);
                    }
                    FsmEvent::SessionEstablished => unreachable!("UPDATE cannot establish"),
                }
            }
            Incoming::Other(Message::Notification(_)) => {
                self.stats.notifications_rx += 1;
                api.reset_session(from);
            }
            Incoming::Other(Message::Update(_)) => {
                unreachable!("an UPDATE comes as a view")
            }
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut NodeApi<'_>) {
        let (peer, kind) = timer::split(token);
        let peer = NodeId(peer);
        match kind {
            timer::KEEPALIVE => {
                let (established, interval) = match self.fsm(peer) {
                    Some(f) => (
                        f.is_established() || f.state == SessionState::OpenConfirm,
                        f.keepalive_secs(),
                    ),
                    None => (false, 0),
                };
                if established && interval > 0 {
                    self.send_message(peer, &Message::Keepalive, api, true);
                    api.set_timer(
                        SimDuration::from_secs(interval.max(1) as u64),
                        timer::token(peer.0, timer::KEEPALIVE),
                    );
                }
            }
            timer::HOLD => {
                let relevant = self
                    .fsm(peer)
                    .is_some_and(|f| f.state != SessionState::Idle);
                if relevant {
                    self.protocol_error(peer, wire::notif::HOLD_EXPIRED, 0, api);
                }
            }
            timer::DEFERRED_RESET => {
                api.reset_session(peer);
            }
            _ => {}
        }
    }

    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }

    fn state_size(&self) -> usize {
        let sessions = self.peers.iter().filter(|p| p.fsm.is_some()).count();
        // 256: the config estimate.
        self.rib.approx_bytes() + sessions * 16 + 256
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
    use crate::types::{net, RouterId};
    use crate::wire::UpdateMsg;
    use dice_netsim::{LinkParams, SimTime, Simulator, Topology};

    /// Convenience: a router config for node `i` (AS 65000+i) peering with
    /// all `neighbors`, accept-all policies.
    pub(crate) fn simple_config(i: u32, neighbors: &[u32]) -> RouterConfig {
        let mut cfg = RouterConfig::minimal(Asn(65000 + i as u16), RouterId(0x0A000000 + i));
        for &n in neighbors {
            cfg = cfg.with_neighbor(NodeId(n), Asn(65000 + n as u16), "all", "all");
        }
        cfg
    }

    fn build_sim(n: usize, edges: &[(u32, u32)], configs: Vec<RouterConfig>) -> Simulator {
        let mut topo = Topology::with_nodes(n);
        for &(a, b) in edges {
            topo.add_edge(
                NodeId(a),
                NodeId(b),
                LinkParams::fixed(dice_netsim::SimDuration::from_millis(5)),
                dice_netsim::Relationship::Unlabeled,
            );
        }
        let mut sim = Simulator::new(topo, 7);
        for (i, cfg) in configs.into_iter().enumerate() {
            sim.set_node(NodeId(i as u32), Box::new(BgpRouter::new(cfg)));
        }
        sim.start();
        sim
    }

    fn router(sim: &Simulator, i: u32) -> &BgpRouter {
        sim.node(NodeId(i))
            .as_any()
            .downcast_ref::<BgpRouter>()
            .unwrap()
    }

    #[test]
    fn two_routers_exchange_routes() {
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0]).with_network(net("20.0.0.0/8"));
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));

        let r0 = router(&sim, 0);
        let r1 = router(&sim, 1);
        assert!(r0.session_state(NodeId(1)) == SessionState::Established);
        assert!(r1.session_state(NodeId(0)) == SessionState::Established);
        // Each learned the other's prefix.
        assert!(r0.loc_rib().best(&net("20.0.0.0/8")).is_some());
        assert!(r1.loc_rib().best(&net("10.0.0.0/8")).is_some());
        // AS path is the peer's AS.
        let learned = &r0.loc_rib().best(&net("20.0.0.0/8")).unwrap().route;
        assert_eq!(learned.attrs.as_path.first_asn(), Some(Asn(65001)));
        assert_eq!(learned.from_peer, Some(1));
    }

    #[test]
    fn route_propagates_through_chain() {
        // 0 - 1 - 2: node 0 originates; node 2 must learn via 1 with path
        // 65001 65000.
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0, 2]);
        let cfg2 = simple_config(2, &[1]);
        let mut sim = build_sim(3, &[(0, 1), (1, 2)], vec![cfg0, cfg1, cfg2]);
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        let r2 = router(&sim, 2);
        let best = r2
            .loc_rib()
            .best(&net("10.0.0.0/8"))
            .expect("route propagated");
        let asns: Vec<Asn> = best.route.attrs.as_path.all_asns().collect();
        assert_eq!(asns, vec![Asn(65001), Asn(65000)]);
    }

    #[test]
    fn withdrawal_propagates() {
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0, 2]);
        let cfg2 = simple_config(2, &[1]);
        let mut sim = build_sim(3, &[(0, 1), (1, 2)], vec![cfg0, cfg1, cfg2]);
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        assert!(router(&sim, 2).loc_rib().best(&net("10.0.0.0/8")).is_some());

        // Operator withdraws the network on node 0.
        sim.invoke_node(NodeId(0), |node, api| {
            let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
            r.withdraw_network(net("10.0.0.0/8"), api);
        });
        sim.run_until(SimTime::from_nanos(16_000_000_000));
        assert!(router(&sim, 2).loc_rib().best(&net("10.0.0.0/8")).is_none());
        assert!(router(&sim, 1).loc_rib().best(&net("10.0.0.0/8")).is_none());
    }

    #[test]
    fn loop_prevention_blocks_own_as() {
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0]);
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));

        // Inject an update whose AS path already contains node 0's AS
        // (65000), as if 1 were re-exporting a route learned from 0.
        let attrs = PathAttrs {
            as_path: crate::attrs::AsPath::sequence([65001, 65000]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let msg = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("33.0.0.0/8")],
        });
        sim.deliver_direct(NodeId(1), NodeId(0), &wire::encode(&msg));
        let r0 = router(&sim, 0);
        assert_eq!(r0.stats().loop_rejects, 1);
        assert!(
            r0.loc_rib().best(&net("33.0.0.0/8")).is_none(),
            "looped announcement must not be installed"
        );
        // Own prefix stays locally originated.
        let best = r0.loc_rib().best(&net("10.0.0.0/8")).unwrap();
        assert!(best.route.from_peer.is_none());
    }

    #[test]
    fn a_looping_reannouncement_withdraws_the_old_route() {
        // Node 1 (AS 65001) announces 20/8, then re-announces it with a
        // path through node 0's own AS: the new route replaces the old one
        // and is unusable, so node 0 keeps neither.
        let cfg0 = simple_config(0, &[1]);
        let cfg1 = simple_config(1, &[0]).with_network(net("20.0.0.0/8"));
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let prefix = net("20.0.0.0/8");
        let best = &router(&sim, 0).loc_rib().best(&prefix).unwrap().route;
        let path: Vec<Asn> = best.attrs.as_path.all_asns().collect();
        assert_eq!(path, [Asn(65001)]);

        let attrs = PathAttrs {
            as_path: crate::attrs::AsPath::sequence([65001, 65000]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let msg = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![prefix],
        });
        sim.deliver_direct(NodeId(1), NodeId(0), &wire::encode(&msg));
        let r0 = router(&sim, 0);
        assert_eq!(r0.stats().loop_rejects, 1);
        assert!(
            r0.adj_rib_in().get(NodeId(1), &prefix).is_none(),
            "node 1's old row must go"
        );
        assert!(r0.loc_rib().best(&prefix).is_none(), "no route is left");
    }

    /// Every best route learned from a peer has that peer's Adj-RIB-In row.
    fn assert_best_routes_have_rows(r: &BgpRouter) {
        for (prefix, sel) in r.loc_rib().iter() {
            if let Some(peer) = sel.route.from_peer {
                assert!(
                    r.adj_rib_in().get(NodeId(peer), prefix).is_some(),
                    "best route for {prefix} from {peer} has no row"
                );
            }
        }
    }

    #[test]
    fn withdrawals_before_a_first_as_error_are_recomputed() {
        // Node 1 announces 20/8, then sends one UPDATE that withdraws it
        // and announces 30/8 with a path that does not start with its AS:
        // the withdrawal stands, so node 0 must drop its best route for
        // 20/8 before the NOTIFICATION resets the session.
        let cfg0 = simple_config(0, &[1]);
        let cfg1 = simple_config(1, &[0]).with_network(net("20.0.0.0/8"));
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let prefix = net("20.0.0.0/8");
        assert_eq!(
            router(&sim, 0)
                .loc_rib()
                .best(&prefix)
                .unwrap()
                .route
                .from_peer,
            Some(1)
        );

        let msg = Message::Update(UpdateMsg {
            withdrawn: vec![prefix],
            attrs: Some(PathAttrs {
                as_path: crate::attrs::AsPath::sequence([65009]),
                next_hop: Ipv4Addr(0x0A000002),
                ..Default::default()
            }),
            nlri: vec![net("30.0.0.0/8")],
        });
        let now = sim.now();
        sim.deliver_direct(NodeId(1), NodeId(0), &wire::encode(&msg));
        let r0 = router(&sim, 0);
        assert!(r0.adj_rib_in().get(NodeId(1), &prefix).is_none());
        assert!(
            r0.loc_rib().best(&prefix).is_none(),
            "the withdrawal stands"
        );
        assert!(r0.loc_rib().best(&net("30.0.0.0/8")).is_none());
        assert_best_routes_have_rows(r0);

        // The deferred reset takes the session down.
        sim.run_until(now + dice_netsim::SimDuration::from_millis(100));
        let r0 = router(&sim, 0);
        assert_eq!(r0.session_state(NodeId(1)), SessionState::Idle);
        assert!(r0.loc_rib().best(&prefix).is_none());
        assert_best_routes_have_rows(r0);
    }

    #[test]
    fn import_policy_filters_prefix() {
        // Node 1 rejects 10/8 at import.
        let cfg0 = simple_config(0, &[1])
            .with_network(net("10.0.0.0/8"))
            .with_network(net("20.0.0.0/8"));
        let mut cfg1 = simple_config(1, &[0]);
        cfg1 = cfg1.with_policy(Policy {
            name: "no10".into(),
            rules: vec![crate::policy::Rule::reject(vec![
                crate::policy::Match::PrefixIn(vec![crate::policy::PrefixFilter::or_longer(net(
                    "10.0.0.0/8",
                ))]),
            ])],
            default: crate::policy::Verdict::Accept,
        });
        cfg1.neighbors[0].import = "no10".into();
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        let r1 = router(&sim, 1);
        assert!(
            r1.loc_rib().best(&net("10.0.0.0/8")).is_none(),
            "filtered at import"
        );
        assert!(
            r1.loc_rib().best(&net("20.0.0.0/8")).is_some(),
            "other prefix accepted"
        );
        assert!(r1.stats().policy_rejects > 0);
    }

    #[test]
    fn seeded_bug_crashes_router() {
        let cfg0 = simple_config(0, &[1]);
        let mut cfg1 = simple_config(1, &[0]);
        cfg1.bugs.attr_overflow_crash = true;
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));

        // Craft the killer update: unknown transitive attr 0xF5 with a
        // 0x90-byte value.
        let mut attrs = PathAttrs {
            as_path: crate::attrs::AsPath::sequence([65000]),
            next_hop: Ipv4Addr(0x0A000001),
            ..Default::default()
        };
        attrs.unknown.push(crate::attrs::RawAttr {
            flags: crate::attrs::flags::OPTIONAL | crate::attrs::flags::TRANSITIVE,
            code: 0xF5,
            value: vec![0xAA; 0x90],
        });
        let msg = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("99.0.0.0/8")],
        });
        let bytes = wire::encode(&msg);
        sim.deliver_direct(NodeId(0), NodeId(1), &bytes);
        assert!(
            sim.crashed(NodeId(1)).is_some(),
            "seeded bug must crash the node"
        );
    }

    #[test]
    fn seeded_bug_fires_on_an_established_session_only() {
        let killer = |flags: u8| {
            let mut attrs = PathAttrs {
                as_path: crate::attrs::AsPath::sequence([65000]),
                next_hop: Ipv4Addr(0x0A000001),
                ..Default::default()
            };
            attrs.unknown.push(crate::attrs::RawAttr {
                flags,
                code: 0xF5,
                value: vec![0xAA; 0x90],
            });
            wire::encode(&Message::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: Some(attrs),
                nlri: vec![net("99.0.0.0/8")],
            }))
        };
        let cfg0 = simple_config(0, &[1]);
        let mut cfg1 = simple_config(1, &[0]);
        cfg1.bugs.attr_overflow_crash = true;
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        // Before the session is up the UPDATE is an FSM error, unparsed.
        let transitive = crate::attrs::flags::OPTIONAL | crate::attrs::flags::TRANSITIVE;
        sim.deliver_direct(NodeId(0), NodeId(1), &killer(transitive));
        assert!(sim.crashed(NodeId(1)).is_none());
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        assert_eq!(
            router(&sim, 1).session_state(NodeId(0)),
            SessionState::Established
        );
        // Once it is, parsing crashes on a non-transitive attribute too.
        sim.deliver_direct(NodeId(0), NodeId(1), &killer(crate::attrs::flags::OPTIONAL));
        assert!(sim.crashed(NodeId(1)).is_some());
    }

    #[test]
    fn same_update_without_bug_is_harmless() {
        let cfg0 = simple_config(0, &[1]);
        let cfg1 = simple_config(1, &[0]); // bug switch off
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let mut attrs = PathAttrs {
            as_path: crate::attrs::AsPath::sequence([65000]),
            next_hop: Ipv4Addr(0x0A000001),
            ..Default::default()
        };
        attrs.unknown.push(crate::attrs::RawAttr {
            flags: crate::attrs::flags::OPTIONAL | crate::attrs::flags::TRANSITIVE,
            code: 0xF5,
            value: vec![0xAA; 0x90],
        });
        let msg = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("99.0.0.0/8")],
        });
        sim.deliver_direct(NodeId(0), NodeId(1), &wire::encode(&msg));
        assert!(sim.crashed(NodeId(1)).is_none());
        assert!(router(&sim, 1).loc_rib().best(&net("99.0.0.0/8")).is_some());
    }

    #[test]
    fn garbage_message_triggers_notification_and_reset() {
        let cfg0 = simple_config(0, &[1]);
        let cfg1 = simple_config(1, &[0]);
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert_eq!(
            router(&sim, 1).session_state(NodeId(0)),
            SessionState::Established
        );
        sim.deliver_direct(NodeId(0), NodeId(1), &[0u8; 40]);
        assert_eq!(router(&sim, 1).stats().decode_errors, 1);
        // The deferred reset tears the session down...
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        assert_eq!(router(&sim, 1).session_state(NodeId(0)), SessionState::Idle);
        // ...and auto-reconnect re-establishes it.
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        assert_eq!(
            router(&sim, 1).session_state(NodeId(0)),
            SessionState::Established
        );
    }

    #[test]
    fn session_loss_flushes_learned_routes() {
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0]);
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert!(router(&sim, 1).loc_rib().best(&net("10.0.0.0/8")).is_some());
        sim.inject_link_down(NodeId(0), NodeId(1));
        sim.run_until(SimTime::from_nanos(6_000_000_000));
        assert!(router(&sim, 1).loc_rib().best(&net("10.0.0.0/8")).is_none());
    }

    #[test]
    fn hold_timer_survives_blackhole_and_reestablishes_on_heal() {
        // Channel-fidelity survival: converge reliably, then blackhole the
        // link (drop = 1.0, keepalives included). The hold timer must tear
        // the session down through the NOTIFICATION + deferred-reset path,
        // and once the channel heals, auto-reconnect must re-establish and
        // re-advertise — no operator intervention.
        let mut cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let mut cfg1 = simple_config(1, &[0]).with_network(net("20.0.0.0/8"));
        cfg0.hold_time = 9;
        cfg1.hold_time = 9;
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert_eq!(
            router(&sim, 0).session_state(NodeId(1)),
            SessionState::Established
        );
        assert!(router(&sim, 0).loc_rib().best(&net("20.0.0.0/8")).is_some());

        sim.set_link_faults(dice_netsim::LinkFaults {
            drop: 1.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: dice_netsim::SimDuration::ZERO,
            burst: None,
        });
        sim.set_unreliable_links(true);
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        assert_ne!(
            router(&sim, 0).session_state(NodeId(1)),
            SessionState::Established,
            "hold timer must expire under total loss"
        );
        assert!(
            router(&sim, 0).loc_rib().best(&net("20.0.0.0/8")).is_none(),
            "learned routes flushed on reset"
        );

        sim.set_unreliable_links(false);
        sim.run_until(SimTime::from_nanos(60_000_000_000));
        assert_eq!(
            router(&sim, 0).session_state(NodeId(1)),
            SessionState::Established,
            "auto-reconnect must re-establish after the channel heals"
        );
        assert!(
            router(&sim, 0).loc_rib().best(&net("20.0.0.0/8")).is_some(),
            "routes re-advertised after re-establishment"
        );
        assert!(router(&sim, 1).loc_rib().best(&net("10.0.0.0/8")).is_some());
    }

    #[test]
    fn keepalives_ride_out_moderate_loss() {
        // 10% independent drop: enough keepalives get through each hold
        // window that the session stays up and converged state persists.
        let mut cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let mut cfg1 = simple_config(1, &[0]).with_network(net("20.0.0.0/8"));
        cfg0.hold_time = 9;
        cfg1.hold_time = 9;
        let mut sim = build_sim(2, &[(0, 1)], vec![cfg0, cfg1]);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.set_link_faults(dice_netsim::LinkFaults {
            drop: 0.1,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: dice_netsim::SimDuration::ZERO,
            burst: None,
        });
        sim.set_unreliable_links(true);
        sim.run_until(SimTime::from_nanos(65_000_000_000));
        for (me, peer, prefix) in [(0, 1, "20.0.0.0/8"), (1, 0, "10.0.0.0/8")] {
            assert_eq!(
                router(&sim, me).session_state(NodeId(peer)),
                SessionState::Established,
                "router {me} session must ride out 10% loss"
            );
            assert!(
                router(&sim, me).loc_rib().best(&net(prefix)).is_some(),
                "router {me} keeps its learned route"
            );
        }
    }

    #[test]
    fn hijack_draws_traffic_with_longer_prefix() {
        // 0 owns 10.0/16 and announces it; 2 (attacker) announces 10.0.0/24
        // (more specific). Node 1 prefers the more specific for covered
        // addresses — modeled here by both being installed as distinct
        // prefixes.
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/16"));
        let cfg1 = simple_config(1, &[0, 2]);
        let cfg2 = simple_config(2, &[1]);
        let mut sim = build_sim(3, &[(0, 1), (1, 2)], vec![cfg0, cfg1, cfg2]);
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        // Attacker action: announce a prefix it does not own.
        sim.invoke_node(NodeId(2), |node, api| {
            let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
            r.announce_network(net("10.0.0.0/24"), false, api);
        });
        sim.run_until(SimTime::from_nanos(16_000_000_000));
        let r1 = router(&sim, 1);
        let hijacked = r1
            .loc_rib()
            .best(&net("10.0.0.0/24"))
            .expect("hijack visible");
        assert_eq!(hijacked.route.attrs.as_path.origin_asn(), Some(Asn(65002)));
        // Legitimate covering route still present.
        assert!(r1.loc_rib().best(&net("10.0.0.0/16")).is_some());
    }

    #[test]
    fn mutating_a_clone_leaves_the_checkpoint_untouched() {
        // `clone_node` shares the config and every attribute bag by
        // pointer. Each way a copy can then change — the three operator
        // actions and an UPDATE — must copy-on-write, never write through
        // to the checkpoint the copy was taken from.
        let cfg0 = simple_config(0, &[1]).with_network(net("10.0.0.0/8"));
        let cfg1 = simple_config(1, &[0, 2]);
        let cfg2 = simple_config(2, &[1]).with_network(net("20.0.0.0/8"));
        let mut live = build_sim(3, &[(0, 1), (1, 2)], vec![cfg0, cfg1, cfg2]);
        live.run_until(SimTime::from_nanos(8_000_000_000));
        let shadow = live.instant_snapshot();
        let topo = live.topology().clone();
        let original = |shadow: &dice_netsim::ShadowSnapshot| -> BgpRouter {
            let node = &shadow.nodes()[&NodeId(1)];
            node.as_any().downcast_ref::<BgpRouter>().unwrap().clone()
        };
        let fingerprint =
            |r: &BgpRouter| (r.config().clone(), format!("{:?}", r.rib), r.state_size());
        let before = original(&shadow);
        // Deep values, taken before anything mutates.
        let before_fp = fingerprint(&before);
        assert_eq!(before.loc_rib().len(), 2, "converged");
        let copy = before.clone_node();
        let copy = copy.as_any().downcast_ref::<BgpRouter>().unwrap();
        assert!(Arc::ptr_eq(&before.shared, &copy.shared));
        assert!(
            copy.rib.shares_table(&before.rib),
            "a copy is a pointer bump"
        );
        let attrs_of = |r: &BgpRouter| {
            let best = r.rib.best(&net("10.0.0.0/8")).unwrap();
            Arc::clone(&best.route.attrs)
        };
        assert!(Arc::ptr_eq(&attrs_of(&before), &attrs_of(copy)));

        let update = wire::encode(&Message::Update(UpdateMsg {
            withdrawn: vec![net("10.0.0.0/8")],
            attrs: Some(PathAttrs {
                as_path: crate::attrs::AsPath::sequence([65000, 65009]),
                next_hop: Ipv4Addr(0x0A000001),
                ..Default::default()
            }),
            nlri: vec![net("30.0.0.0/8")],
        }));
        type Mutation = fn(&mut Simulator, &[u8]);
        let mutations: [Mutation; 4] = [
            |sim, _| {
                sim.invoke_node(NodeId(1), |node, _| {
                    let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
                    r.replace_policy(Policy::reject_all("all"));
                })
            },
            |sim, _| {
                sim.invoke_node(NodeId(1), |node, api| {
                    let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
                    r.announce_network(net("40.0.0.0/8"), true, api);
                })
            },
            |sim, _| {
                sim.invoke_node(NodeId(1), |node, api| {
                    let r = node.as_any_mut().downcast_mut::<BgpRouter>().unwrap();
                    r.withdraw_network(net("40.0.0.0/8"), api);
                })
            },
            |sim, update| sim.deliver_direct(NodeId(0), NodeId(1), update),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut clone = Simulator::from_shadow(&shadow, &topo, 3);
            mutate(&mut clone, &update);
            clone.run_until(clone.now() + dice_netsim::SimDuration::from_secs(5));
            assert_eq!(
                fingerprint(&original(&shadow)),
                before_fp,
                "mutation {i} wrote through to the checkpoint"
            );
            if i != 2 {
                // (Withdrawing a network the router never originated is
                // the one mutation with nothing to show for itself.)
                assert_ne!(
                    fingerprint(router(&clone, 1)),
                    before_fp,
                    "mutation {i} did not reach the clone"
                );
            }
            if i == 3 {
                // The UPDATE names 10/8 (withdrawn) and 30/8 (announced):
                // the clone's spine is its own and so is its entry for
                // 10/8, while the checkpoint keeps its rows there; the
                // entry of 20/8, which the UPDATE does not name, is not
                // copied — clone and checkpoint still hold the same
                // allocation.
                let (a, b) = (net("10.0.0.0/8"), net("20.0.0.0/8"));
                let touched = router(&clone, 1);
                assert!(!touched.rib.shares_table(&before.rib));
                assert!(before.rib.get(NodeId(0), &a).is_some());
                assert!(touched.rib.get(NodeId(0), &a).is_none());
                assert!(before.rib.sent(NodeId(2), &a).is_some());
                assert!(touched.rib.sent(NodeId(2), &a).is_none());
                assert!(!touched.rib.shares_entry(&before.rib, &a));
                assert!(touched.rib.shares_entry(&before.rib, &b));
            }
        }
    }

    /// What the hub of `fan_out_walks_peers_in_id_order_with_per_peer_bytes`
    /// sent, as `receiver<UPDATE body in hex`, recorded at the parent of the
    /// commit that introduced the per-class export (one policy evaluation
    /// and one bag per peer, peers taken from the FSM map).
    const FAN_OUT_AT_PARENT: &[&str] = &[
        "0<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "1<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "2<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "5<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "6<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "7<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "8<00000014400101004002060202fdecfdeb4003040a000004100a03",
        "0<00000014400101004002060202fdecfdee4003040a000004100a06",
        "3<00000014400101004002060202fdecfdee4003040a000004100a06",
        "7<00000014400101004002060202fdecfdee4003040a000004100a06",
        "0<00000014400101004002060202fdecfde94003040a000004100a01",
        "3<00000014400101004002060202fdecfde94003040a000004100a01",
        "7<00000014400101004002060202fdecfde94003040a000004100a01",
        "0<0003100a030000",
        "1<0003100a030000",
        "2<0003100a030000",
        "5<0003100a030000",
        "6<0003100a030000",
        "7<0003100a030000",
        "8<0003100a030000",
    ];

    /// Logs every UPDATE its router receives, then hands the message on.
    struct Tap {
        inner: BgpRouter,
        #[expect(
            clippy::disallowed_types,
            reason = "test log read back by the assertion: one simulator thread, and `Node` must be `Send`"
        )]
        log: Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl Node for Tap {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            self.inner.on_start(api);
        }
        fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
            if data.get(18) == Some(&2) {
                let hex: String = data[19..].iter().map(|b| format!("{b:02x}")).collect();
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("{}<{hex}", api.me().0));
            }
            self.inner.on_message(from, data, api);
        }
        fn on_timer(&mut self, token: u64, api: &mut NodeApi<'_>) {
            self.inner.on_timer(token, api);
        }
        fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
            self.inner.on_session(peer, ev, api);
        }
        fn clone_node(&self) -> Box<dyn Node> {
            Box::new(Tap {
                inner: self.inner.clone(),
                log: Arc::clone(&self.log),
            })
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fan_out_walks_peers_in_id_order_with_per_peer_bytes() {
        use crate::policy::gao_rexford;
        use dice_netsim::NeighborRole as R;
        // Hub 4; customers, peers and providers interleaved by node id, and
        // configured in *descending* id order so config order != id order.
        const HUB: u32 = 4;
        let roles = [
            (0, R::Customer),
            (1, R::Peer),
            (2, R::Provider),
            (3, R::Customer),
            (5, R::Peer),
            (6, R::Provider),
            (7, R::Customer),
            (8, R::Peer),
        ];
        let own = Asn(65000 + HUB as u16);
        let mut hub = RouterConfig::minimal(own, RouterId(0x0A000000 + HUB));
        for (_, role) in roles {
            hub = hub
                .with_policy(gao_rexford::import_policy(own, role))
                .with_policy(gao_rexford::export_policy(own, role));
        }
        for (n, role) in roles.iter().rev() {
            let imp = gao_rexford::import_policy(own, *role).name;
            let exp = gao_rexford::export_policy(own, *role).name;
            hub = hub.with_neighbor(NodeId(*n), Asn(65000 + *n as u16), imp, exp);
        }
        let mut topo = Topology::with_nodes(9);
        for (n, _) in roles {
            topo.add_edge(
                NodeId(HUB),
                NodeId(n),
                LinkParams::fixed(dice_netsim::SimDuration::from_millis(5)),
                dice_netsim::Relationship::Unlabeled,
            );
        }
        #[expect(
            clippy::disallowed_types,
            reason = "test log read back by the assertion: one simulator thread, and `Node` must be `Send`"
        )]
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulator::new(topo, 7);
        sim.set_node(NodeId(HUB), Box::new(BgpRouter::new(hub)));
        for (n, _) in roles {
            sim.set_node(
                NodeId(n),
                Box::new(Tap {
                    inner: BgpRouter::new(simple_config(n, &[HUB])),
                    log: Arc::clone(&log),
                }),
            );
        }
        sim.start();
        sim.run_until(SimTime::from_nanos(8_000_000_000));
        assert!(log.lock().unwrap().is_empty(), "nothing originated yet");

        let operate = |sim: &mut Simulator, node: u32, prefix: &str, announce: bool| {
            sim.invoke_node(NodeId(node), |n, api| {
                let r = &mut n.as_any_mut().downcast_mut::<Tap>().unwrap().inner;
                if announce {
                    r.announce_network(net(prefix), true, api);
                } else {
                    r.withdraw_network(net(prefix), api);
                }
            });
            let until = sim.now() + dice_netsim::SimDuration::from_secs(2);
            sim.run_until(until);
        };
        // A customer route goes to everyone but its sender, a provider
        // route to customers only, a peer route to customers only; then
        // the customer route is withdrawn everywhere it went.
        operate(&mut sim, 3, "10.3.0.0/16", true);
        operate(&mut sim, 6, "10.6.0.0/16", true);
        operate(&mut sim, 1, "10.1.0.0/16", true);
        operate(&mut sim, 3, "10.3.0.0/16", false);
        assert_eq!(*log.lock().unwrap(), FAN_OUT_AT_PARENT);
    }

    #[test]
    fn state_size_grows_with_rib() {
        let cfg0 = simple_config(0, &[1]);
        let mut many = simple_config(1, &[0]);
        for i in 0..64u32 {
            many = many.with_network(Ipv4Net::new(0x0B000000 + (i << 8), 24));
        }
        let r_small = BgpRouter::new(cfg0);
        let r_big = BgpRouter::new(many.clone());
        // Populate loc-rib via on_start.
        let mut sim = build_sim(2, &[(0, 1)], vec![simple_config(0, &[1]), many]);
        sim.run_until(SimTime::from_nanos(1_000_000));
        let big_size = router(&sim, 1).state_size();
        assert!(big_size > r_small.state_size());
        let _ = r_big;
    }
}
