//! Topologies: which nodes exist and how they are connected.
//!
//! Edges carry link parameters and, for AS-level graphs, a Gao–Rexford
//! business relationship (customer–provider or peer–peer). The relationship
//! labels are consumed by the BGP policy generator to derive realistic
//! import/export policies, which is how the paper's "Internet-like
//! conditions" arise at the routing layer.

use crate::link::LinkParams;
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::BTreeSet;

/// Business relationship of an edge `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relationship {
    /// `a` is the provider, `b` the customer.
    ProviderCustomer,
    /// Settlement-free peering.
    PeerPeer,
    /// No commercial semantics (lab topologies).
    Unlabeled,
}

/// An undirected edge between two nodes.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Link parameters (used for both directions).
    pub params: LinkParams,
    /// Business relationship, oriented `a` → `b` per [`Relationship`].
    pub rel: Relationship,
}

/// A static topology: node count plus an edge list.
///
/// An adjacency index (edge indices per node, in insertion order) backs all
/// neighborhood queries, so `neighbors`/`are_adjacent`/`degree`/
/// `relationship` cost O(degree) instead of O(edges) — the difference
/// between seconds and hours when generating and simulating the 1k–10k-node
/// Internet-like graphs the scale experiments use.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: usize,
    edges: Vec<EdgeSpec>,
    /// Per-node indices into `edges`, in edge insertion order.
    adj: Vec<Vec<u32>>,
}

impl Topology {
    /// An empty topology with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Topology {
            nodes: n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// All edges.
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes as u32).map(NodeId)
    }

    /// Add an undirected edge. Panics on out-of-range endpoints, self-loops
    /// or duplicate edges — topology bugs should fail fast.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, params: LinkParams, rel: Relationship) {
        assert!(
            a.index() < self.nodes && b.index() < self.nodes,
            "endpoint out of range"
        );
        assert_ne!(a, b, "self loops are not allowed");
        assert!(!self.are_adjacent(a, b), "duplicate edge {a}-{b}");
        let idx = self.edges.len() as u32;
        self.edges.push(EdgeSpec { a, b, params, rel });
        self.adj[a.index()].push(idx);
        self.adj[b.index()].push(idx);
    }

    /// Whether `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_between(a, b).is_some()
    }

    /// The edge connecting `a` and `b` (either orientation), if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<&EdgeSpec> {
        self.edge_index(a, b).map(|i| &self.edges[i])
    }

    /// Index into [`Topology::edges`] of the edge connecting `a` and `b`
    /// (either orientation), if any. O(min degree).
    pub fn edge_index(&self, a: NodeId, b: NodeId) -> Option<usize> {
        // Scan the sparser endpoint's incidence list.
        let (n, m) = if self.adj[a.index()].len() <= self.adj[b.index()].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.incident(n)
            .find(|&(_, peer)| peer == m)
            .map(|(i, _)| i)
    }

    /// Edges incident to `n` as `(edge index, neighbor)`, in deterministic
    /// (insertion) order.
    pub fn incident(&self, n: NodeId) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.adj[n.index()].iter().map(move |&i| {
            let e = &self.edges[i as usize];
            (i as usize, if e.a == n { e.b } else { e.a })
        })
    }

    /// The link direction of edge `e` that leaves `from`, as the
    /// simulator's link table indexes it: `2 * e` carries `a -> b`,
    /// `2 * e + 1` carries `b -> a`.
    pub(crate) fn direction(&self, e: usize, from: NodeId) -> usize {
        2 * e + usize::from(self.edges[e].a != from)
    }

    /// The `(src, dst)` endpoints of link direction `dir`.
    pub(crate) fn endpoints(&self, dir: usize) -> (NodeId, NodeId) {
        let e = &self.edges[dir / 2];
        if dir.is_multiple_of(2) {
            (e.a, e.b)
        } else {
            (e.b, e.a)
        }
    }

    /// Neighbors of `n`, in deterministic (insertion) order.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.incident(n).map(|(_, m)| m).collect()
    }

    /// The relationship of `n` toward neighbor `m`, from `n`'s point of view.
    /// Returns `None` when not adjacent.
    pub fn relationship(&self, n: NodeId, m: NodeId) -> Option<NeighborRole> {
        let e = self.edge_between(n, m)?;
        Some(if e.a == n {
            match e.rel {
                Relationship::ProviderCustomer => NeighborRole::Customer,
                Relationship::PeerPeer => NeighborRole::Peer,
                Relationship::Unlabeled => NeighborRole::Unlabeled,
            }
        } else {
            match e.rel {
                Relationship::ProviderCustomer => NeighborRole::Provider,
                Relationship::PeerPeer => NeighborRole::Peer,
                Relationship::Unlabeled => NeighborRole::Unlabeled,
            }
        })
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// Whether the topology is connected (ignoring direction).
    pub fn is_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![NodeId(0)];
        seen.insert(NodeId(0));
        while let Some(n) = stack.pop() {
            for m in self.neighbors(n) {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen.len() == self.nodes
    }

    /// Render the topology in Graphviz DOT format (the demo GUI view).
    pub fn to_dot(&self, labels: impl Fn(NodeId) -> String) -> String {
        let mut out = String::from("graph topology {\n  layout=neato;\n");
        for n in self.node_ids() {
            out.push_str(&format!("  {} [label=\"{}\"];\n", n.0, labels(n)));
        }
        for e in &self.edges {
            let style = match e.rel {
                Relationship::ProviderCustomer => " [dir=forward, color=blue]",
                Relationship::PeerPeer => " [style=dashed, color=gray]",
                Relationship::Unlabeled => "",
            };
            out.push_str(&format!("  {} -- {}{};\n", e.a.0, e.b.0, style));
        }
        out.push_str("}\n");
        out
    }
}

/// How a neighbor relates to *this* node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborRole {
    /// The neighbor pays us for transit.
    Customer,
    /// We pay the neighbor for transit.
    Provider,
    /// Settlement-free peer.
    Peer,
    /// No commercial semantics.
    Unlabeled,
}

/// Builders for standard lab topologies.
impl Topology {
    /// A path `0 - 1 - … - (n-1)`.
    pub fn line(n: usize, params: LinkParams) -> Self {
        let mut t = Topology::with_nodes(n);
        for i in 1..n {
            t.add_edge(
                NodeId(i as u32 - 1),
                NodeId(i as u32),
                params.clone(),
                Relationship::Unlabeled,
            );
        }
        t
    }

    /// A cycle of `n >= 3` nodes.
    pub fn ring(n: usize, params: LinkParams) -> Self {
        assert!(n >= 3, "ring needs at least 3 nodes");
        let mut t = Topology::line(n, params.clone());
        t.add_edge(
            NodeId(n as u32 - 1),
            NodeId(0),
            params,
            Relationship::Unlabeled,
        );
        t
    }

    /// A star with node 0 at the center.
    pub fn star(n: usize, params: LinkParams) -> Self {
        let mut t = Topology::with_nodes(n);
        for i in 1..n {
            t.add_edge(
                NodeId(0),
                NodeId(i as u32),
                params.clone(),
                Relationship::Unlabeled,
            );
        }
        t
    }

    /// Every pair connected.
    pub fn full_mesh(n: usize, params: LinkParams) -> Self {
        let mut t = Topology::with_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                t.add_edge(
                    NodeId(i as u32),
                    NodeId(j as u32),
                    params.clone(),
                    Relationship::Unlabeled,
                );
            }
        }
        t
    }
}

/// Parameters for the Internet-like AS-graph generator.
#[derive(Debug, Clone)]
pub struct InternetParams {
    /// Number of tier-1 ASes (fully meshed by peering).
    pub tier1: usize,
    /// Providers attached to each subsequent AS: sampled in `[1, max_providers]`.
    pub max_providers: usize,
    /// Probability of adding an extra peer–peer edge between two mid-degree nodes.
    pub peering_prob: f64,
    /// Median wide-area latency.
    pub median_latency: SimDuration,
}

impl Default for InternetParams {
    fn default() -> Self {
        InternetParams {
            tier1: 3,
            max_providers: 2,
            peering_prob: 0.15,
            median_latency: SimDuration::from_millis(20),
        }
    }
}

impl Topology {
    /// Generate an Internet-like AS topology of `n` nodes: a tier-1 clique,
    /// preferential-attachment customer–provider edges, and sparse lateral
    /// peering. Deterministic in `rng`.
    pub fn internet_like(n: usize, p: &InternetParams, rng: &mut SimRng) -> Self {
        assert!(n >= p.tier1.max(1), "need at least tier1 nodes");
        let mut t = Topology::with_nodes(n);
        let wan = || LinkParams::internet_like(p.median_latency);

        // Tier-1 clique: peers of each other.
        for i in 0..p.tier1 {
            for j in (i + 1)..p.tier1 {
                t.add_edge(
                    NodeId(i as u32),
                    NodeId(j as u32),
                    wan(),
                    Relationship::PeerPeer,
                );
            }
        }

        // Preferential attachment for everyone else: pick 1..=max_providers
        // distinct providers among already-placed nodes, weighted by degree+1.
        for i in p.tier1..n {
            let want = 1 + rng.index(p.max_providers);
            let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
            let mut guard = 0;
            while chosen.len() < want.min(i) && guard < 64 {
                guard += 1;
                let total: usize = (0..i).map(|j| t.degree(NodeId(j as u32)) + 1).sum();
                let mut pick = rng.index(total.max(1));
                let mut provider = NodeId(0);
                for j in 0..i {
                    let w = t.degree(NodeId(j as u32)) + 1;
                    if pick < w {
                        provider = NodeId(j as u32);
                        break;
                    }
                    pick -= w;
                }
                chosen.insert(provider);
            }
            for provider in chosen {
                // provider -> customer edge.
                t.add_edge(
                    provider,
                    NodeId(i as u32),
                    wan(),
                    Relationship::ProviderCustomer,
                );
            }
        }

        // Sparse lateral peering between non-tier-1 nodes of similar tier.
        for i in p.tier1..n {
            for j in (i + 1)..n {
                if !t.are_adjacent(NodeId(i as u32), NodeId(j as u32)) && rng.chance(p.peering_prob)
                {
                    t.add_edge(
                        NodeId(i as u32),
                        NodeId(j as u32),
                        wan(),
                        Relationship::PeerPeer,
                    );
                }
            }
        }
        t
    }

    /// The fixed 27-router topology of the paper's Figure 1 demo:
    /// 3 tier-1 ASes in a peering clique, 8 tier-2 ASes multi-homed to two
    /// tier-1s (with lateral peering), and 16 stub ASes under tier-2
    /// providers. Fully deterministic.
    pub fn demo27() -> Self {
        let mut t = Topology::with_nodes(27);
        let wan = |ms: u64| LinkParams::internet_like(SimDuration::from_millis(ms));

        // Tier-1: nodes 0,1,2 — clique.
        for i in 0..3u32 {
            for j in (i + 1)..3 {
                t.add_edge(NodeId(i), NodeId(j), wan(15), Relationship::PeerPeer);
            }
        }
        // Tier-2: nodes 3..=10, each with two tier-1 providers.
        for k in 0..8u32 {
            let n = 3 + k;
            let p1 = NodeId(k % 3);
            let p2 = NodeId((k + 1) % 3);
            t.add_edge(p1, NodeId(n), wan(20), Relationship::ProviderCustomer);
            t.add_edge(p2, NodeId(n), wan(25), Relationship::ProviderCustomer);
        }
        // Lateral tier-2 peering ring (every second pair).
        for k in (0..8u32).step_by(2) {
            let a = NodeId(3 + k);
            let b = NodeId(3 + (k + 1) % 8);
            if !t.are_adjacent(a, b) {
                t.add_edge(a, b, wan(10), Relationship::PeerPeer);
            }
        }
        // Stubs: nodes 11..=26, each under one or two tier-2 providers.
        for k in 0..16u32 {
            let n = 11 + k;
            let p1 = NodeId(3 + (k % 8));
            t.add_edge(p1, NodeId(n), wan(8), Relationship::ProviderCustomer);
            if k % 3 == 0 {
                let p2 = NodeId(3 + ((k + 4) % 8));
                if !t.are_adjacent(p2, NodeId(n)) {
                    t.add_edge(p2, NodeId(n), wan(12), Relationship::ProviderCustomer);
                }
            }
        }
        debug_assert!(t.is_connected());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> LinkParams {
        LinkParams::default()
    }

    #[test]
    fn line_shape() {
        let t = Topology::line(4, p());
        assert_eq!(t.len(), 4);
        assert_eq!(t.edges().len(), 3);
        assert!(t.are_adjacent(NodeId(0), NodeId(1)));
        assert!(!t.are_adjacent(NodeId(0), NodeId(2)));
        assert!(t.is_connected());
    }

    #[test]
    fn ring_closes_the_loop() {
        let t = Topology::ring(5, p());
        assert_eq!(t.edges().len(), 5);
        assert!(t.are_adjacent(NodeId(4), NodeId(0)));
        assert_eq!(t.degree(NodeId(2)), 2);
    }

    #[test]
    fn star_has_center() {
        let t = Topology::star(6, p());
        assert_eq!(t.degree(NodeId(0)), 5);
        assert_eq!(t.degree(NodeId(3)), 1);
    }

    #[test]
    fn full_mesh_edge_count() {
        let t = Topology::full_mesh(6, p());
        assert_eq!(t.edges().len(), 15);
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let mut t = Topology::with_nodes(2);
        t.add_edge(NodeId(0), NodeId(1), p(), Relationship::Unlabeled);
        t.add_edge(NodeId(1), NodeId(0), p(), Relationship::Unlabeled);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_rejected() {
        let mut t = Topology::with_nodes(2);
        t.add_edge(NodeId(1), NodeId(1), p(), Relationship::Unlabeled);
    }

    #[test]
    fn relationship_orientation() {
        let mut t = Topology::with_nodes(2);
        t.add_edge(NodeId(0), NodeId(1), p(), Relationship::ProviderCustomer);
        assert_eq!(
            t.relationship(NodeId(0), NodeId(1)),
            Some(NeighborRole::Customer)
        );
        assert_eq!(
            t.relationship(NodeId(1), NodeId(0)),
            Some(NeighborRole::Provider)
        );
        assert_eq!(t.relationship(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn demo27_shape() {
        let t = Topology::demo27();
        assert_eq!(t.len(), 27);
        assert!(t.is_connected());
        // Tier-1 clique intact.
        assert!(t.are_adjacent(NodeId(0), NodeId(1)));
        assert!(t.are_adjacent(NodeId(1), NodeId(2)));
        assert!(t.are_adjacent(NodeId(0), NodeId(2)));
        // Every stub has at least one provider.
        for k in 11..27u32 {
            assert!(t.degree(NodeId(k)) >= 1, "stub {k} disconnected");
        }
        // Deterministic: two calls agree.
        let t2 = Topology::demo27();
        assert_eq!(t.edges().len(), t2.edges().len());
    }

    #[test]
    fn internet_like_is_connected_and_deterministic() {
        let mut r1 = SimRng::seed_from_u64(77);
        let mut r2 = SimRng::seed_from_u64(77);
        let params = InternetParams::default();
        let t1 = Topology::internet_like(40, &params, &mut r1);
        let t2 = Topology::internet_like(40, &params, &mut r2);
        assert!(t1.is_connected());
        assert_eq!(t1.edges().len(), t2.edges().len());
        for (e1, e2) in t1.edges().iter().zip(t2.edges()) {
            assert_eq!((e1.a, e1.b), (e2.a, e2.b));
        }
    }

    #[test]
    fn internet_like_has_provider_edges() {
        let mut rng = SimRng::seed_from_u64(5);
        let t = Topology::internet_like(30, &InternetParams::default(), &mut rng);
        let pc = t
            .edges()
            .iter()
            .filter(|e| e.rel == Relationship::ProviderCustomer)
            .count();
        let pp = t
            .edges()
            .iter()
            .filter(|e| e.rel == Relationship::PeerPeer)
            .count();
        assert!(
            pc >= 27,
            "expected at least one provider edge per non-tier1 node"
        );
        assert!(pp >= 3, "tier-1 clique should peer");
    }

    #[test]
    fn dot_rendering_mentions_every_node() {
        let t = Topology::demo27();
        let dot = t.to_dot(|n| format!("AS{}", 65000 + n.0));
        for n in 0..27 {
            assert!(dot.contains(&format!("AS{}", 65000 + n)));
        }
        assert!(dot.starts_with("graph topology {"));
    }
}
