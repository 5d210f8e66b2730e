//! Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! All maps are `BTreeMap`s so iteration order — and therefore the entire
//! simulation — is deterministic.

use crate::attrs::PathAttrs;
use crate::decision::DecisionReason;
use crate::types::Ipv4Net;
use dice_netsim::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A route candidate: attributes plus provenance.
///
/// The attribute bag is immutable once a route exists and shared by
/// pointer between Adj-RIB-In, Loc-RIB and every copy of a router
/// checkpoint, so cloning a `Route` never copies an AS path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Attribute bag after import-policy transformation.
    pub attrs: Arc<PathAttrs>,
    /// The peer we learned it from; `None` for locally originated routes.
    pub from_peer: Option<u32>,
    /// Peer's router id (decision-process tiebreak).
    pub peer_router_id: u32,
}

impl Route {
    /// A locally originated route.
    pub fn local(attrs: PathAttrs) -> Self {
        Route {
            attrs: Arc::new(attrs),
            from_peer: None,
            peer_router_id: 0,
        }
    }
}

/// Per-peer store of accepted routes (post-import-policy).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjRibIn {
    tables: BTreeMap<u32, BTreeMap<Ipv4Net, Route>>,
}

impl AdjRibIn {
    /// Insert or replace the route for `prefix` from `peer`.
    pub fn insert(&mut self, peer: NodeId, prefix: Ipv4Net, route: Route) {
        self.tables.entry(peer.0).or_default().insert(prefix, route);
    }

    /// Remove the route for `prefix` from `peer`; returns whether present.
    pub fn remove(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        self.tables
            .get_mut(&peer.0)
            .map(|t| t.remove(prefix).is_some())
            .unwrap_or(false)
    }

    /// Drop every route learned from `peer` (session loss), returning the
    /// affected prefixes.
    pub fn flush_peer(&mut self, peer: NodeId) -> Vec<Ipv4Net> {
        self.tables
            .remove(&peer.0)
            .map(|t| t.into_keys().collect())
            .unwrap_or_default()
    }

    /// All candidate routes for `prefix` across peers, in peer order.
    pub fn candidates<'a>(&'a self, prefix: &'a Ipv4Net) -> impl Iterator<Item = &'a Route> + 'a {
        self.tables.values().filter_map(move |t| t.get(prefix))
    }

    /// The route for `prefix` from a specific peer.
    pub fn get(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&Route> {
        self.tables.get(&peer.0).and_then(|t| t.get(prefix))
    }

    /// Total number of stored routes.
    pub fn route_count(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// All prefixes known from any peer.
    pub fn all_prefixes(&self) -> Vec<Ipv4Net> {
        let mut v: Vec<Ipv4Net> = self
            .tables
            .values()
            .flat_map(|t| t.keys().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Approximate byte footprint for checkpoint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.route_count() * 64
    }
}

/// A selected best route with the decision step that chose it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selected {
    /// The winning route.
    pub route: Route,
    /// Which decision-process step was decisive.
    pub reason: DecisionReason,
}

/// The local RIB: one best route per prefix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LocRib {
    routes: BTreeMap<Ipv4Net, Selected>,
    /// Count of best-route changes per prefix (oscillation evidence for the
    /// DiCE checkers).
    pub flips: BTreeMap<Ipv4Net, u64>,
}

impl LocRib {
    /// Install `sel` as best for `prefix`; returns `true` when this changed
    /// the selection (and bumps the flip counter).
    pub fn install(&mut self, prefix: Ipv4Net, sel: Selected) -> bool {
        let changed = match self.routes.get(&prefix) {
            Some(prev) => prev.route != sel.route,
            None => true,
        };
        if changed {
            *self.flips.entry(prefix).or_insert(0) += 1;
            self.routes.insert(prefix, sel);
        }
        changed
    }

    /// Remove the best route for `prefix`; returns `true` when present.
    pub fn withdraw(&mut self, prefix: &Ipv4Net) -> bool {
        let removed = self.routes.remove(prefix).is_some();
        if removed {
            *self.flips.entry(*prefix).or_insert(0) += 1;
        }
        removed
    }

    /// Current best route for `prefix`.
    pub fn best(&self, prefix: &Ipv4Net) -> Option<&Selected> {
        self.routes.get(prefix)
    }

    /// Iterate all (prefix, best) pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Net, &Selected)> {
        self.routes.iter()
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Total best-route flips across prefixes since start.
    pub fn total_flips(&self) -> u64 {
        self.flips.values().sum()
    }

    /// Approximate byte footprint for checkpoint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.routes.len() * 72 + self.flips.len() * 12
    }
}

/// What we last advertised to each peer, to compute deltas and withdrawals.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjRibOut {
    tables: BTreeMap<u32, BTreeMap<Ipv4Net, Arc<PathAttrs>>>,
}

impl AdjRibOut {
    /// Record an advertisement; returns `true` if it differs from what was
    /// previously sent (callers skip duplicate updates).
    pub fn advertise(&mut self, peer: NodeId, prefix: Ipv4Net, attrs: Arc<PathAttrs>) -> bool {
        let t = self.tables.entry(peer.0).or_default();
        match t.get(&prefix) {
            Some(prev) if *prev == attrs => false,
            _ => {
                t.insert(prefix, attrs);
                true
            }
        }
    }

    /// Record a withdrawal; returns `true` if the prefix had been advertised.
    pub fn withdraw(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        self.tables
            .get_mut(&peer.0)
            .map(|t| t.remove(prefix).is_some())
            .unwrap_or(false)
    }

    /// Forget everything sent to `peer` (session loss).
    pub fn flush_peer(&mut self, peer: NodeId) {
        self.tables.remove(&peer.0);
    }

    /// What was last sent to `peer` for `prefix`.
    pub fn sent(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&PathAttrs> {
        self.tables
            .get(&peer.0)
            .and_then(|t| t.get(prefix))
            .map(Arc::as_ref)
    }

    /// Total advertised entries.
    pub fn route_count(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Approximate byte footprint for checkpoint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.route_count() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::types::{net, Ipv4Addr};

    fn route(path: &[u16], peer: u32) -> Route {
        Route {
            attrs: Arc::new(PathAttrs {
                as_path: AsPath::sequence(path.iter().copied()),
                next_hop: Ipv4Addr(0x0A000001),
                ..Default::default()
            }),
            from_peer: Some(peer),
            peer_router_id: peer,
        }
    }

    #[test]
    fn adj_rib_in_insert_replace_remove() {
        let mut rib = AdjRibIn::default();
        let p = net("10.0.0.0/8");
        rib.insert(NodeId(1), p, route(&[65002], 1));
        assert_eq!(rib.route_count(), 1);
        rib.insert(NodeId(1), p, route(&[65003], 1)); // replace
        assert_eq!(rib.route_count(), 1);
        assert_eq!(
            rib.get(NodeId(1), &p).unwrap().attrs.as_path,
            AsPath::sequence([65003])
        );
        assert!(rib.remove(NodeId(1), &p));
        assert!(!rib.remove(NodeId(1), &p));
        assert_eq!(rib.route_count(), 0);
    }

    #[test]
    fn candidates_span_peers() {
        let mut rib = AdjRibIn::default();
        let p = net("10.0.0.0/8");
        rib.insert(NodeId(1), p, route(&[65002], 1));
        rib.insert(NodeId(2), p, route(&[65003, 65004], 2));
        assert_eq!(rib.candidates(&p).count(), 2);
        assert_eq!(rib.all_prefixes(), vec![p]);
    }

    #[test]
    fn flush_peer_returns_prefixes() {
        let mut rib = AdjRibIn::default();
        rib.insert(NodeId(1), net("10.0.0.0/8"), route(&[2], 1));
        rib.insert(NodeId(1), net("11.0.0.0/8"), route(&[2], 1));
        rib.insert(NodeId(2), net("10.0.0.0/8"), route(&[3], 2));
        let flushed = rib.flush_peer(NodeId(1));
        assert_eq!(flushed.len(), 2);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn loc_rib_flip_accounting() {
        let mut rib = LocRib::default();
        let p = net("10.0.0.0/8");
        let sel = |peer| Selected {
            route: route(&[65002], peer),
            reason: DecisionReason::OnlyRoute,
        };
        assert!(rib.install(p, sel(1)));
        assert!(!rib.install(p, sel(1)), "same route is not a flip");
        assert!(rib.install(p, sel(2)));
        assert!(rib.withdraw(&p));
        assert!(!rib.withdraw(&p));
        assert_eq!(rib.total_flips(), 3);
    }

    #[test]
    fn adj_rib_out_dedup() {
        let mut out = AdjRibOut::default();
        let p = net("10.0.0.0/8");
        let a = route(&[65001], 0).attrs;
        assert!(out.advertise(NodeId(1), p, a.clone()));
        assert!(
            !out.advertise(NodeId(1), p, a.clone()),
            "identical re-advertisement suppressed"
        );
        let mut b = a.clone();
        Arc::make_mut(&mut b).med = Some(9);
        assert!(out.advertise(NodeId(1), p, b));
        assert!(out.withdraw(NodeId(1), &p));
        assert!(!out.withdraw(NodeId(1), &p));
    }
}
