//! The system-under-test seam: what DiCE needs from a node to test it.
//!
//! The paper's claim is online testing of *federated and heterogeneous*
//! systems, so the runtime must not be welded to one protocol
//! implementation. This module captures the complete contract between
//! `dice-core` and a node implementation as two traits:
//!
//! * [`ExplorableNode`] — everything the exploration pipeline needs:
//!   which peers' inputs can be impersonated, how to build the
//!   instrumented twin plus its seed corpus ([`ExplorationPlan`]), and
//!   which ownership facts the node attests into the shared registry.
//! * [`CheckView`] — the read-only state the property-checker battery
//!   inspects on clones: best-route table, route-flip counters, session
//!   health.
//!
//! Concrete node types are connected through [`SutProbe`] functions
//! collected in a [`SutCatalog`]. A probe inspects a `dyn Node` and, when
//! it recognizes the concrete type, returns it as an [`ExplorableNode`].
//! The BGP adapter in [`crate::bgp_sut`] is the canonical (and, inside
//! `dice-core`, the *only*) place that downcasts to `BgpRouter`; external
//! crates add their own probes with [`SutCatalog::with_probe`] to test
//! heterogeneous federations.

use dice_bgp::{Asn, Ipv4Net};
use dice_concolic::ConcolicProgram;
use dice_netsim::{Node, NodeId, ShadowSnapshot, Simulator};

use crate::interface::AttestationRegistry;

/// Everything phase 2 (concolic exploration) needs for one `(explorer,
/// peer)` pair: the instrumented twin, the symbolic-marking policy, and
/// the seed corpus.
pub struct ExplorationPlan {
    /// The instrumented twin of the node's input handler, run by the
    /// concolic engine over symbolically marked message bytes.
    pub program: Box<dyn ConcolicProgram + Send>,
    /// Which bytes of an input are symbolic (DiCE's marking policy).
    pub marker: fn(&[u8]) -> Vec<bool>,
    /// Valid-by-construction seed inputs (the Oasis "test suite" role).
    pub seeds: Vec<Vec<u8>>,
}

impl core::fmt::Debug for ExplorationPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ExplorationPlan")
            .field("seeds", &self.seeds.len())
            .finish_non_exhaustive()
    }
}

/// Session-health summary exposed to checkers and campaign reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SessionHealth {
    /// Sessions the node is configured to maintain.
    pub configured: usize,
    /// Sessions currently established.
    pub established: usize,
}

/// Checker-visible node state, behind a trait so checkers work on any
/// protocol. All of it is *local* state — nothing here crosses domain
/// boundaries except through [`crate::interface::LocalVerdict`]s.
///
/// The table accessors are visitor-shaped so implementations stream
/// straight from their routing structures — checkers run once per node
/// per validated clone, and materializing intermediate `Vec`s there would
/// be pure allocation churn. Protocols without a routing table simply
/// never call the visitor.
pub trait CheckView {
    /// Visit the per-prefix best-route flip counters (cumulative since
    /// node start). Any order is judged correctly; ascending by prefix,
    /// each prefix once — what a `BTreeMap` walk yields — keeps the
    /// oscillation checker's join against the cut's baseline linear.
    fn for_each_route_flip(&self, visit: &mut dyn FnMut(Ipv4Net, u64));

    /// Visit the best-route table as (prefix, origin AS) pairs, with the
    /// origin already resolved (own AS for locally originated routes).
    fn for_each_best_route(&self, visit: &mut dyn FnMut(Ipv4Net, Asn));

    /// Configured vs. established sessions, surfaced per round as
    /// [`RoundReport::explorer_sessions`](crate::explorer::RoundReport::explorer_sessions).
    fn session_health(&self) -> SessionHealth;

    /// Total best-route flips across all prefixes.
    fn total_flips(&self) -> u64 {
        let mut total = 0;
        self.for_each_route_flip(&mut |_, flips| total += flips);
        total
    }
}

/// The complete contract between DiCE and a node implementation under
/// test. One implementation per protocol; `BgpRouter`'s lives in
/// [`crate::bgp_sut`].
pub trait ExplorableNode: Send + Sync {
    /// Short protocol tag used in reports (`"bgp"`, `"monitor"`, ...).
    fn kind(&self) -> &'static str;

    /// Peers whose inputs may be impersonated during exploration (for a
    /// BGP router: its configured neighbors).
    fn injection_peers(&self) -> Vec<NodeId>;

    /// Build the instrumented twin and seed corpus for exploring inputs
    /// that appear to arrive from `peer`.
    ///
    /// `grammar_seeds` is the grammar-generation budget: `0` disables the
    /// grammar layer entirely and the implementation must fall back to a
    /// single fixed minimal seed; for `n >= 1` implementations generate at
    /// least `n` seeds and may add a bounded number of protocol-specific
    /// structural seeds on top (the BGP adapter adds one large-unknown-
    /// attribute message). `seed` derives any generator randomness
    /// deterministically.
    fn exploration_plan(
        &self,
        peer: NodeId,
        grammar_seeds: usize,
        seed: u64,
    ) -> Result<ExplorationPlan, String>;

    /// Publish this node's ownership facts (e.g. `owned` prefixes) into
    /// the shared attestation registry. Only salted digests are stored.
    fn attest(&self, registry: &mut AttestationRegistry);

    /// The read-only state checkers may inspect.
    fn check_view(&self) -> &dyn CheckView;
}

/// A probe inspects a node and, when it recognizes the concrete type,
/// exposes it through the SUT seam. Plain function pointers keep the
/// catalog `Copy`-cheap, `Send + Sync`, and trivially clonable.
pub type SutProbe = fn(&dyn Node) -> Option<&dyn ExplorableNode>;

/// The ordered set of [`SutProbe`]s the runtime uses to recognize nodes.
/// Earlier probes win. The default catalog recognizes every protocol with
/// an in-tree adapter — BGP routers ([`crate::bgp_sut`]) and gossip nodes
/// ([`crate::gossip_sut`]); external protocols chain their probes on with
/// [`SutCatalog::with_probe`].
#[derive(Clone)]
pub struct SutCatalog {
    probes: Vec<SutProbe>,
}

impl Default for SutCatalog {
    fn default() -> Self {
        SutCatalog {
            probes: vec![crate::bgp_sut::probe, crate::gossip_sut::probe],
        }
    }
}

impl core::fmt::Debug for SutCatalog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SutCatalog")
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl SutCatalog {
    /// A catalog with no probes; nothing is explorable until probes are
    /// added with [`SutCatalog::with_probe`].
    pub fn empty() -> Self {
        SutCatalog { probes: Vec::new() }
    }

    /// Add a probe (tried after the existing ones). Returns `self` for
    /// builder-style chaining.
    pub fn with_probe(mut self, probe: SutProbe) -> Self {
        self.probes.push(probe);
        self
    }

    /// Resolve a node through the probe chain.
    pub fn resolve<'a>(&self, node: &'a dyn Node) -> Option<&'a dyn ExplorableNode> {
        self.probes.iter().find_map(|p| p(node))
    }

    /// Iterate the explorable nodes of a live simulator.
    pub fn explorables<'a>(
        &'a self,
        sim: &'a Simulator,
    ) -> impl Iterator<Item = (NodeId, &'a dyn ExplorableNode)> + 'a {
        sim.topology()
            .node_ids()
            .filter_map(move |id| self.resolve(sim.node(id)).map(|e| (id, e)))
    }

    /// Iterate the explorable nodes captured in a shadow snapshot.
    pub fn shadow_explorables<'a>(
        &'a self,
        shadow: &'a ShadowSnapshot,
    ) -> impl Iterator<Item = (NodeId, &'a dyn ExplorableNode)> + 'a {
        shadow
            .nodes()
            .iter()
            .filter_map(move |(id, node)| self.resolve(node.as_ref()).map(|e| (*id, e)))
    }

    /// Build the shared attestation registry by letting every explorable
    /// node attest its ownership facts (the IRR/RPKI-like out-of-band
    /// step; only digests are stored).
    pub fn build_registry(&self, sim: &Simulator, seed: u64) -> AttestationRegistry {
        let mut registry = AttestationRegistry::with_seed(seed);
        for (_, sut) in self.explorables(sim) {
            sut.attest(&mut registry);
        }
        registry
    }

    /// Every eligible `(explorer, inject_peer)` pair across the
    /// federation, in node order — the sweep domain of a
    /// [`crate::campaign::Campaign`].
    pub fn eligible_pairs(&self, sim: &Simulator) -> Vec<(NodeId, NodeId)> {
        self.explorables(sim)
            .flat_map(|(id, sut)| sut.injection_peers().into_iter().map(move |p| (id, p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn default_catalog_resolves_bgp_routers() {
        let sim = scenarios::healthy_line(3, 5);
        let catalog = SutCatalog::default();
        let found: Vec<_> = catalog.explorables(&sim).collect();
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|(_, e)| e.kind() == "bgp"));
    }

    #[test]
    fn empty_catalog_resolves_nothing() {
        let sim = scenarios::healthy_line(3, 5);
        let catalog = SutCatalog::empty();
        assert_eq!(catalog.explorables(&sim).count(), 0);
        assert!(catalog.eligible_pairs(&sim).is_empty());
    }

    #[test]
    fn eligible_pairs_follow_neighbor_config() {
        let sim = scenarios::healthy_line(3, 5);
        let pairs = SutCatalog::default().eligible_pairs(&sim);
        // Line 0-1-2: ends have one neighbor, the middle node two.
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(1), NodeId(0))));
        assert!(pairs.contains(&(NodeId(1), NodeId(2))));
        assert!(pairs.contains(&(NodeId(2), NodeId(1))));
    }

    #[test]
    fn registry_built_through_the_seam() {
        let sim = scenarios::healthy_line(2, 5);
        let reg = SutCatalog::default().build_registry(&sim, 7);
        // Every node owns its generated prefix.
        assert_eq!(reg.len(), 2);
        assert!(reg.is_attested(&scenarios::prefix_of(0), scenarios::asn_of(0)));
        assert!(!reg.is_attested(&scenarios::prefix_of(0), scenarios::asn_of(1)));
    }
}
