//! The routing information base: one prefix-major table holding, per
//! prefix, its Adj-RIB-In rows, its Loc-RIB best route with the count of
//! best-route changes, and its Adj-RIB-Out rows.
//!
//! The table is a vector sorted by prefix and each prefix's rows are sorted
//! by peer id, so iteration order — and therefore the entire simulation —
//! is deterministic.

use crate::attrs::PathAttrs;
use crate::decision::DecisionReason;
use crate::types::Ipv4Net;
use dice_netsim::NodeId;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A route candidate: attributes plus provenance.
///
/// The attribute bag is immutable once a route exists and shared by
/// pointer between the Adj-RIB-In row, the best route and every copy of a
/// router checkpoint, so cloning a `Route` never copies an AS path.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A selected best route with the decision step that chose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selected {
    /// The winning route.
    pub route: Route,
    /// Which decision-process step was decisive.
    pub reason: DecisionReason,
}

/// A vector whose copy, unless empty, has room for one more element. The
/// tables below are copied on write, and the write that follows a copy
/// often adds a row (or an entry): it then fills the room instead of
/// growing the copy a second time. An empty table is copied empty, as a
/// `Vec` is: most stay so.
#[derive(Debug)]
struct Roomy<T>(Vec<T>);

impl<T> Default for Roomy<T> {
    fn default() -> Self {
        Roomy(Vec::new())
    }
}

impl<T: Clone> Clone for Roomy<T> {
    fn clone(&self) -> Self {
        if self.0.is_empty() {
            return Roomy::default();
        }
        let mut copy = Vec::with_capacity(self.0.len() + 1);
        copy.extend_from_slice(&self.0);
        Roomy(copy)
    }
}

impl<T> Deref for Roomy<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> DerefMut for Roomy<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

/// One prefix's rows, one per peer, ascending by peer id.
type Rows<T> = Roomy<(u32, T)>;

fn row<T>(rows: &Rows<T>, peer: NodeId) -> Option<&T> {
    let i = rows.binary_search_by_key(&peer.0, |r| r.0).ok()?;
    Some(&rows[i].1)
}

fn put<T>(rows: &mut Rows<T>, peer: NodeId, value: T) {
    match rows.binary_search_by_key(&peer.0, |r| r.0) {
        Ok(i) => rows[i].1 = value,
        Err(i) => rows.insert(i, (peer.0, value)),
    }
}

fn take<T>(rows: &mut Rows<T>, peer: NodeId) -> bool {
    match rows.binary_search_by_key(&peer.0, |r| r.0) {
        Ok(i) => {
            rows.remove(i);
            true
        }
        Err(_) => false,
    }
}

/// Everything the router holds for one prefix.
#[derive(Debug, Clone, Default)]
struct PrefixEntry {
    /// Accepted routes (post-import-policy), one per peer.
    rows_in: Rows<Route>,
    /// The Loc-RIB's best route.
    best: Option<Selected>,
    /// Count of best-route changes (oscillation evidence for the DiCE
    /// checkers); never reset, so a prefix that once had a best route
    /// keeps its entry.
    flips: u64,
    /// What was last advertised to each peer.
    rows_out: Rows<Arc<PathAttrs>>,
}

impl PrefixEntry {
    fn is_empty(&self) -> bool {
        self.rows_in.is_empty()
            && self.best.is_none()
            && self.flips == 0
            && self.rows_out.is_empty()
    }

    fn approx_bytes(&self) -> usize {
        self.rows_in.len() * 64
            + usize::from(self.best.is_some()) * 72
            + usize::from(self.flips > 0) * 12
            + self.rows_out.len() * 64
    }
}

/// A router's routing information base, prefix-major.
///
/// The table and each prefix's entry sit behind an `Arc`: copying a `Rib`
/// (a checkpoint, a validation clone's first touch of its router) bumps one
/// pointer, and a write copies the table's spine (one pointer per prefix)
/// and the one entry it names, nothing else; each copy keeps room for the
/// row or entry the write adds. Every write but `insert` (which always
/// stores) looks before it copies: one that would change nothing leaves a
/// shared table shared. A prefix with no rows, no best route and no flips
/// has no entry.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    entries: Arc<Roomy<(Ipv4Net, Arc<PrefixEntry>)>>,
}

impl Rib {
    fn entry(&self, prefix: &Ipv4Net) -> Option<&Arc<PrefixEntry>> {
        let i = self.entries.binary_search_by(|(p, _)| p.cmp(prefix)).ok()?;
        Some(&self.entries[i].1)
    }

    /// Apply `write` to `prefix`'s entry, made unique first (created if
    /// absent), and drop the entry if the write left it empty.
    fn edit<R>(&mut self, prefix: Ipv4Net, write: impl FnOnce(&mut PrefixEntry) -> R) -> R {
        let entries = Arc::make_mut(&mut self.entries);
        let i = match entries.binary_search_by(|(p, _)| p.cmp(&prefix)) {
            Ok(i) => i,
            Err(i) => {
                entries.insert(i, (prefix, Arc::default()));
                i
            }
        };
        let out = write(Arc::make_mut(&mut entries[i].1));
        if entries[i].1.is_empty() {
            entries.remove(i);
        }
        out
    }

    // ------------------------------------------------------------------
    // Adj-RIB-In: accepted routes, by prefix then peer
    // ------------------------------------------------------------------

    /// Insert or replace the route for `prefix` from `peer`.
    pub fn insert(&mut self, peer: NodeId, prefix: Ipv4Net, route: Route) {
        self.edit(prefix, |e| put(&mut e.rows_in, peer, route));
    }

    /// Remove the route for `prefix` from `peer`; returns whether present.
    pub fn remove(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        self.get(peer, prefix).is_some() && self.edit(*prefix, |e| take(&mut e.rows_in, peer))
    }

    /// The route for `prefix` from a specific peer.
    pub fn get(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&Route> {
        row(&self.entry(prefix)?.rows_in, peer)
    }

    /// All candidate routes for `prefix` across peers, in peer order.
    pub fn candidates(&self, prefix: &Ipv4Net) -> impl Iterator<Item = &Route> {
        let rows = self.entry(prefix).map_or(&[][..], |e| &e.rows_in[..]);
        rows.iter().map(|(_, route)| route)
    }

    /// Total number of accepted routes.
    pub fn route_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.rows_in.len()).sum()
    }

    // ------------------------------------------------------------------
    // Loc-RIB: one best route per prefix, and its flip count
    // ------------------------------------------------------------------

    /// Install `route` as best for `prefix`, chosen for `reason`; returns
    /// `true` when this changed the selection (and bumps the flip counter).
    pub fn install(&mut self, prefix: Ipv4Net, route: Route, reason: DecisionReason) -> bool {
        if self.best(&prefix).is_some_and(|sel| sel.route == route) {
            return false;
        }
        self.edit(prefix, |e| {
            e.flips += 1;
            e.best = Some(Selected { route, reason });
        });
        true
    }

    /// Remove the best route for `prefix`; returns `true` when present
    /// (and bumps the flip counter).
    pub fn uninstall(&mut self, prefix: &Ipv4Net) -> bool {
        if self.best(prefix).is_none() {
            return false;
        }
        self.edit(*prefix, |e| {
            e.flips += 1;
            e.best = None;
        });
        true
    }

    /// Current best route for `prefix`.
    pub fn best(&self, prefix: &Ipv4Net) -> Option<&Selected> {
        self.entry(prefix)?.best.as_ref()
    }

    /// Iterate all (prefix, best) pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Net, &Selected)> {
        self.entries
            .iter()
            .filter_map(|(prefix, e)| Some((prefix, e.best.as_ref()?)))
    }

    /// Number of prefixes with a best route.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no prefix has a best route.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Each prefix whose best route ever changed, with its count of
    /// changes, in prefix order.
    pub fn flips(&self) -> impl Iterator<Item = (Ipv4Net, u64)> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.flips > 0)
            .map(|(prefix, e)| (*prefix, e.flips))
    }

    /// Total best-route flips across prefixes since start.
    pub fn total_flips(&self) -> u64 {
        self.entries.iter().map(|(_, e)| e.flips).sum()
    }

    // ------------------------------------------------------------------
    // Adj-RIB-Out: what was last advertised, by prefix then peer
    // ------------------------------------------------------------------

    /// Record an advertisement; returns `true` if it differs from what was
    /// previously sent (callers skip duplicate updates). Peers handed the
    /// same `Arc` compare by pointer.
    pub fn advertise(&mut self, peer: NodeId, prefix: Ipv4Net, attrs: Arc<PathAttrs>) -> bool {
        let sent = self.entry(&prefix).and_then(|e| row(&e.rows_out, peer));
        if sent == Some(&attrs) {
            return false;
        }
        self.edit(prefix, |e| put(&mut e.rows_out, peer, attrs));
        true
    }

    /// Record a withdrawal; returns `true` if the prefix had been advertised.
    pub fn withdraw(&mut self, peer: NodeId, prefix: &Ipv4Net) -> bool {
        self.sent(peer, prefix).is_some() && self.edit(*prefix, |e| take(&mut e.rows_out, peer))
    }

    /// What was last sent to `peer` for `prefix`.
    pub fn sent(&self, peer: NodeId, prefix: &Ipv4Net) -> Option<&PathAttrs> {
        row(&self.entry(prefix)?.rows_out, peer).map(Arc::as_ref)
    }

    /// Total advertised entries.
    pub fn sent_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.rows_out.len()).sum()
    }

    // ------------------------------------------------------------------
    // The whole table
    // ------------------------------------------------------------------

    /// Drop every route learned from and everything sent to `peer`
    /// (session loss), returning the prefixes it had a learned route for,
    /// in prefix order. Walks every prefix: session loss is rare, the
    /// per-UPDATE operations above are not, and the layout serves those.
    pub fn flush_peer(&mut self, peer: NodeId) -> Vec<Ipv4Net> {
        let holds =
            |e: &PrefixEntry| row(&e.rows_in, peer).is_some() || row(&e.rows_out, peer).is_some();
        let mut flushed = Vec::new();
        if !self.entries.iter().any(|(_, e)| holds(e)) {
            return flushed;
        }
        Arc::make_mut(&mut self.entries).retain_mut(|(prefix, e)| {
            if holds(e) {
                let e = Arc::make_mut(e);
                if take(&mut e.rows_in, peer) {
                    flushed.push(*prefix);
                }
                take(&mut e.rows_out, peer);
            }
            !e.is_empty()
        });
        flushed
    }

    /// Approximate byte footprint for checkpoint accounting: 64 per
    /// Adj-RIB-In row, 72 per best route, 12 per flipped prefix and 64 per
    /// Adj-RIB-Out row.
    pub fn approx_bytes(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.approx_bytes()).sum()
    }

    /// Whether both tables hold the very same allocation for `prefix`'s
    /// entry: neither has copied it since one was copied from the other.
    pub fn shares_entry(&self, other: &Rib, prefix: &Ipv4Net) -> bool {
        matches!((self.entry(prefix), other.entry(prefix)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Whether both tables are the very same allocation: neither has been
    /// written since one was copied from the other.
    pub fn shares_table(&self, other: &Rib) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
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
        let mut rib = Rib::default();
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
        assert!(rib.entries.is_empty(), "an empty entry is dropped");
    }

    #[test]
    fn candidates_span_peers() {
        let mut rib = Rib::default();
        let p = net("10.0.0.0/8");
        rib.insert(NodeId(2), p, route(&[65003, 65004], 2));
        rib.insert(NodeId(1), p, route(&[65002], 1));
        let peers: Vec<_> = rib.candidates(&p).map(|r| r.from_peer).collect();
        assert_eq!(peers, [Some(1), Some(2)]);
    }

    #[test]
    fn flush_peer_returns_prefixes() {
        let mut rib = Rib::default();
        let (a, b) = (net("10.0.0.0/8"), net("11.0.0.0/8"));
        rib.insert(NodeId(1), b, route(&[2], 1));
        rib.insert(NodeId(1), a, route(&[2], 1));
        rib.insert(NodeId(2), a, route(&[3], 2));
        rib.advertise(NodeId(1), net("12.0.0.0/8"), route(&[1], 0).attrs);
        assert_eq!(rib.flush_peer(NodeId(1)), [a, b]);
        assert_eq!(rib.route_count(), 1);
        assert_eq!(rib.sent_count(), 0);
        assert_eq!(rib.entries.len(), 1);
    }

    #[test]
    fn loc_rib_flip_accounting() {
        let mut rib = Rib::default();
        let p = net("10.0.0.0/8");
        let mut install = |peer| rib.install(p, route(&[65002], peer), DecisionReason::OnlyRoute);
        assert!(install(1));
        assert!(!install(1), "same route is not a flip");
        assert!(install(2));
        assert!(rib.uninstall(&p));
        assert!(!rib.uninstall(&p));
        assert_eq!(rib.total_flips(), 3);
        assert_eq!(rib.flips().collect::<Vec<_>>(), [(p, 3)]);
        assert!(rib.is_empty(), "the flip count outlives the best route");
        assert_eq!(rib.approx_bytes(), 12);
    }

    #[test]
    fn adj_rib_out_dedup() {
        let mut rib = Rib::default();
        let p = net("10.0.0.0/8");
        let a = route(&[65001], 0).attrs;
        assert!(rib.advertise(NodeId(1), p, a.clone()));
        assert!(
            !rib.advertise(NodeId(1), p, a.clone()),
            "identical re-advertisement suppressed"
        );
        let mut b = a.clone();
        Arc::make_mut(&mut b).med = Some(9);
        assert!(rib.advertise(NodeId(1), p, b));
        assert!(rib.withdraw(NodeId(1), &p));
        assert!(!rib.withdraw(NodeId(1), &p));
    }

    #[test]
    fn a_write_copies_the_spine_and_one_entry() {
        let mut rib = Rib::default();
        let (a, b) = (net("10.0.0.0/8"), net("20.0.0.0/8"));
        rib.insert(NodeId(1), a, route(&[65002], 1));
        rib.insert(NodeId(1), b, route(&[65002], 1));
        let mut copy = rib.clone();
        assert!(copy.shares_table(&rib));
        assert!(!copy.remove(NodeId(2), &a), "a miss copies nothing");
        assert!(!copy.uninstall(&a));
        assert!(copy.shares_table(&rib));
        copy.insert(NodeId(2), a, route(&[65003], 2));
        assert!(!copy.shares_table(&rib));
        assert!(!copy.shares_entry(&rib, &a));
        assert!(copy.shares_entry(&rib, &b));
        assert_eq!(rib.route_count(), 2, "the original is untouched");
    }
}
