//! Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! All maps are `BTreeMap`s or sorted vectors so iteration order — and
//! therefore the entire simulation — is deterministic.

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

/// One prefix's rows, one per peer, ascending by peer id.
type Rows<T> = Vec<(u32, T)>;

/// A prefix-major table of per-peer rows. Each prefix's rows sit behind an
/// `Arc`, so copying the table (a checkpoint, a validation clone's first
/// touch of its router) bumps one pointer per prefix, and a write copies
/// only the rows of the prefix it names. A prefix with no rows has no
/// entry.
type Table<T> = BTreeMap<Ipv4Net, Arc<Rows<T>>>;

fn row<'a, T>(table: &'a Table<T>, peer: NodeId, prefix: &Ipv4Net) -> Option<&'a T> {
    let rows = table.get(prefix)?;
    let i = rows.binary_search_by_key(&peer.0, |r| r.0).ok()?;
    Some(&rows[i].1)
}

fn put<T: Clone>(table: &mut Table<T>, peer: NodeId, prefix: Ipv4Net, value: T) {
    let rows = Arc::make_mut(table.entry(prefix).or_default());
    match rows.binary_search_by_key(&peer.0, |r| r.0) {
        Ok(i) => rows[i].1 = value,
        Err(i) => rows.insert(i, (peer.0, value)),
    }
}

/// Remove `peer`'s row from one prefix's rows; returns whether there was
/// one. Looks before it copies: a miss leaves shared rows shared.
fn take_row<T: Clone>(rows: &mut Arc<Rows<T>>, peer: NodeId) -> bool {
    match rows.binary_search_by_key(&peer.0, |r| r.0) {
        Ok(i) => {
            Arc::make_mut(rows).remove(i);
            true
        }
        Err(_) => false,
    }
}

/// Remove `peer`'s row for `prefix`; returns whether there was one.
fn take<T: Clone>(table: &mut Table<T>, peer: NodeId, prefix: &Ipv4Net) -> bool {
    let Some(rows) = table.get_mut(prefix) else {
        return false;
    };
    let taken = take_row(rows, peer);
    if rows.is_empty() {
        table.remove(prefix);
    }
    taken
}

/// Remove every row of `peer`, returning the prefixes that had one in
/// prefix order. Walks every prefix: session loss is rare, the per-UPDATE
/// operations above are not, and the layout serves those.
fn flush<T: Clone>(table: &mut Table<T>, peer: NodeId) -> Vec<Ipv4Net> {
    let mut flushed = Vec::new();
    table.retain(|prefix, rows| {
        if take_row(rows, peer) {
            flushed.push(*prefix);
        }
        !rows.is_empty()
    });
    flushed
}

fn row_count<T>(table: &Table<T>) -> usize {
    table.values().map(|rows| rows.len()).sum()
}

/// Store of accepted routes (post-import-policy), by prefix then peer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjRibIn {
    table: Table<Route>,
}

impl AdjRibIn {
    /// Insert or replace the route for `prefix` from `peer`.
    pub fn insert(&mut self, peer: NodeId, prefix: Ipv4Net, route: Route) {
        put(&mut self.table, peer, prefix, route);
    }

    /// Remove the route for `prefix` from `peer`; returns whether present.
    pub fn remove(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        take(&mut self.table, peer, prefix)
    }

    /// Drop every route learned from `peer` (session loss), returning the
    /// affected prefixes.
    pub fn flush_peer(&mut self, peer: NodeId) -> Vec<Ipv4Net> {
        flush(&mut self.table, peer)
    }

    /// All candidate routes for `prefix` across peers, in peer order.
    pub fn candidates<'a>(&'a self, prefix: &'a Ipv4Net) -> impl Iterator<Item = &'a Route> + 'a {
        self.table
            .get(prefix)
            .into_iter()
            .flat_map(|rows| rows.iter().map(|(_, route)| route))
    }

    /// The route for `prefix` from a specific peer.
    pub fn get(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&Route> {
        row(&self.table, peer, prefix)
    }

    /// Total number of stored routes.
    pub fn route_count(&self) -> usize {
        row_count(&self.table)
    }

    /// All prefixes known from any peer.
    pub fn all_prefixes(&self) -> Vec<Ipv4Net> {
        self.table.keys().copied().collect()
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
    /// Install `route` as best for `prefix`, chosen for `reason`; returns
    /// `true` when this changed the selection (and bumps the flip counter).
    /// The route is copied — one pointer bump — only when it is installed.
    pub fn install(&mut self, prefix: Ipv4Net, route: &Route, reason: DecisionReason) -> bool {
        let changed = match self.routes.get(&prefix) {
            Some(prev) => prev.route != *route,
            None => true,
        };
        if changed {
            *self.flips.entry(prefix).or_insert(0) += 1;
            let route = route.clone();
            self.routes.insert(prefix, Selected { route, reason });
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

/// What we last advertised to each peer, to compute deltas and
/// withdrawals; by prefix then peer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjRibOut {
    table: Table<Arc<PathAttrs>>,
}

impl AdjRibOut {
    /// Record an advertisement; returns `true` if it differs from what was
    /// previously sent (callers skip duplicate updates). Peers handed the
    /// same `Arc` compare by pointer.
    pub fn advertise(&mut self, peer: NodeId, prefix: Ipv4Net, attrs: Arc<PathAttrs>) -> bool {
        if row(&self.table, peer, &prefix) == Some(&attrs) {
            return false;
        }
        put(&mut self.table, peer, prefix, attrs);
        true
    }

    /// Record a withdrawal; returns `true` if the prefix had been advertised.
    pub fn withdraw(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        take(&mut self.table, peer, prefix)
    }

    /// Forget everything sent to `peer` (session loss).
    pub fn flush_peer(&mut self, peer: NodeId) {
        flush(&mut self.table, peer);
    }

    /// What was last sent to `peer` for `prefix`.
    pub fn sent(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&PathAttrs> {
        row(&self.table, peer, prefix).map(Arc::as_ref)
    }

    /// Total advertised entries.
    pub fn route_count(&self) -> usize {
        row_count(&self.table)
    }

    /// Approximate byte footprint for checkpoint accounting.
    pub fn approx_bytes(&self) -> usize {
        self.route_count() * 64
    }
}

/// Whether both tables hold the very same allocation for `prefix`.
#[cfg(test)]
fn same_rows<T>(a: &Table<T>, b: &Table<T>, prefix: &Ipv4Net) -> bool {
    matches!((a.get(prefix), b.get(prefix)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
}

#[cfg(test)]
impl AdjRibIn {
    pub(crate) fn shares_rows(&self, other: &AdjRibIn, prefix: &Ipv4Net) -> bool {
        same_rows(&self.table, &other.table, prefix)
    }
}

#[cfg(test)]
impl AdjRibOut {
    pub(crate) fn shares_rows(&self, other: &AdjRibOut, prefix: &Ipv4Net) -> bool {
        same_rows(&self.table, &other.table, prefix)
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
        let mut install = |peer| rib.install(p, &route(&[65002], peer), DecisionReason::OnlyRoute);
        assert!(install(1));
        assert!(!install(1), "same route is not a flip");
        assert!(install(2));
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
