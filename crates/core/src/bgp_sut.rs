//! The BGP adapter for the SUT seam — the **only** module in `dice-core`
//! that downcasts to [`BgpRouter`].
//!
//! Everything the runtime previously obtained by sprinkling
//! `downcast_ref::<BgpRouter>()` through explorer, snapshot and checker
//! code is implemented here once, behind [`ExplorableNode`] and
//! [`CheckView`]. Other protocols plug in the same way: implement the two
//! traits, export a [`SutProbe`]-shaped function, and register it with
//! [`SutCatalog::with_probe`](crate::sut::SutCatalog::with_probe).

use dice_bgp::{encode, AsPath, Asn, BgpRouter, Ipv4Addr, Ipv4Net, Message, PathAttrs, UpdateMsg};
use dice_netsim::{Node, NodeId};

use crate::domain::DomainProgram;
use crate::grammar::UpdateGrammar;
use crate::interface::AttestationRegistry;
use crate::sut::{CheckView, ExplorableNode, ExplorationPlan, SessionHealth, SutProbe};
use crate::symmark::mark_update;

/// The BGP probe of the [default `SutCatalog`](crate::sut::SutCatalog::default):
/// recognizes [`BgpRouter`] nodes.
pub fn probe(node: &dyn Node) -> Option<&dyn ExplorableNode> {
    node.as_any()
        .downcast_ref::<BgpRouter>()
        .map(|r| r as &dyn ExplorableNode)
}

// Let the type checker confirm the signature matches the seam.
const _: SutProbe = probe;

/// View a node as a BGP router, if it is one. Scenario builders and tests
/// use this instead of downcasting at every call site.
pub fn as_bgp(node: &dyn Node) -> Option<&BgpRouter> {
    node.as_any().downcast_ref::<BgpRouter>()
}

/// Mutable variant of [`as_bgp`], for operator actions applied through
/// `Simulator::invoke_node`.
pub fn as_bgp_mut(node: &mut dyn Node) -> Option<&mut BgpRouter> {
    node.as_any_mut().downcast_mut::<BgpRouter>()
}

/// The fixed minimal seed used when the grammar layer is disabled
/// (`grammar_seeds == 0`): one deterministic, valid-by-construction
/// announcement from `peer_asn` for a documentation prefix.
pub fn minimal_seed(peer_asn: Asn) -> Vec<u8> {
    let attrs = PathAttrs {
        as_path: AsPath::sequence([peer_asn.0]),
        next_hop: Ipv4Addr(0x0A00_0001),
        ..Default::default()
    };
    encode(&Message::Update(UpdateMsg {
        withdrawn: vec![],
        attrs: Some(attrs),
        nlri: vec![Ipv4Net::new(0xC633_6400, 24)], // 198.51.100.0/24
    }))
}

impl ExplorableNode for BgpRouter {
    fn kind(&self) -> &'static str {
        "bgp"
    }

    fn injection_peers(&self) -> Vec<NodeId> {
        self.config().neighbors.iter().map(|n| n.node).collect()
    }

    fn exploration_plan(
        &self,
        peer: NodeId,
        grammar_seeds: usize,
        seed: u64,
    ) -> Result<ExplorationPlan, String> {
        let twin = self
            .update_twin(peer)
            .ok_or("inject peer is not a neighbor of the explorer")?;
        let peer_asn = twin.peer_asn();

        // `grammar_seeds == 0` disables the grammar layer: exploration
        // starts from one fixed minimal message and everything else is up
        // to the concolic engine. Otherwise the corpus plays the role of
        // Oasis's test-suite seeds: ordinary announcements plus one
        // message exercising the unknown-attribute path with a large
        // value region.
        let seeds = if grammar_seeds == 0 {
            vec![minimal_seed(peer_asn)]
        } else {
            let mut grammar = UpdateGrammar::new(peer_asn, seed ^ 0x6A33);
            let mut seeds = vec![grammar.generate(), grammar.generate_large_unknown()];
            if grammar_seeds > 1 {
                seeds.extend(grammar.batch(grammar_seeds - 1));
            }
            seeds
        };

        Ok(ExplorationPlan {
            program: Box::new(DomainProgram(twin)),
            marker: mark_update,
            seeds,
        })
    }

    // `plan_depends_on_peer` keeps its default, `true`: the twin runs the
    // neighbour's import policy and the seeds carry its ASN.

    fn attest(&self, registry: &mut AttestationRegistry) {
        let cfg = self.config();
        for prefix in &cfg.owned {
            registry.attest(prefix, cfg.asn);
        }
    }

    fn check_view(&self) -> &dyn CheckView {
        self
    }
}

impl CheckView for BgpRouter {
    fn for_each_route_flip(&self, visit: &mut dyn FnMut(Ipv4Net, u64)) {
        for (prefix, flips) in self.loc_rib().flips() {
            visit(prefix, flips);
        }
    }

    fn for_each_best_route(&self, visit: &mut dyn FnMut(Ipv4Net, Asn)) {
        let own = self.config().asn;
        for (prefix, sel) in self.loc_rib().iter() {
            visit(*prefix, sel.route.attrs.as_path.origin_asn().unwrap_or(own));
        }
    }

    fn session_health(&self) -> SessionHealth {
        let configured = self.config().neighbors.len();
        let established = self
            .config()
            .neighbors
            .iter()
            .filter(|n| self.session_state(n.node) == dice_bgp::SessionState::Established)
            .count();
        SessionHealth {
            configured,
            established,
        }
    }

    fn total_flips(&self) -> u64 {
        self.loc_rib().total_flips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::policy::{Match, PrefixFilter, Rule};
    use dice_bgp::wire::sites;
    use dice_bgp::{net, Policy, RouterConfig, RouterId, Verdict};
    use dice_concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymInput};

    fn config() -> RouterConfig {
        RouterConfig::minimal(Asn(65001), RouterId(1))
            .with_network(net("10.0.0.0/16"))
            .with_neighbor(NodeId(2), Asn(65002), "all", "all")
    }

    fn router() -> BgpRouter {
        BgpRouter::new(config())
    }

    /// An announcement of 10.0.0.0/8 over the path 65002 65003.
    fn valid_update() -> Vec<u8> {
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65002, 65003]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }))
    }

    /// The twin of a router with `config` on `bytes`, the body symbolic as
    /// exploration marks it: its status and the context it ran in.
    fn run_symbolic(config: RouterConfig, bytes: &[u8]) -> (RunStatus, ConcolicCtx) {
        let twin = BgpRouter::new(config).update_twin(NodeId(2)).unwrap();
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.to_vec(), mark_update(bytes)));
        (DomainProgram(twin).run(&mut ctx), ctx)
    }

    #[test]
    fn symbolic_run_records_constraints() {
        let (status, ctx) = run_symbolic(config(), &valid_update());
        assert_eq!(status, RunStatus::Ok);
        let len = ctx.path().len();
        assert!(len >= 15, "expected a rich path condition, got {len}");
    }

    #[test]
    fn preference_oracle_branches() {
        let (status, ctx) = run_symbolic(config(), &valid_update());
        assert_eq!(status, RunStatus::Ok);
        // The last recorded branch is the preference oracle.
        let last = ctx.path().last().unwrap();
        assert_eq!(last.site, SiteId(sites::PREFERENCE_ORACLE));
        assert!(last.taken, "default oracle says preferred");
    }

    #[test]
    fn config_complexity_grows_constraints() {
        // The same input produces more recorded constraints under a more
        // complex configuration — the paper's "code and configuration"
        // claim in miniature.
        let bytes = valid_update();
        let (_, simple) = run_symbolic(config(), &bytes);
        let rules = (0..6u16)
            .map(|i| Rule {
                matches: vec![
                    Match::PrefixIn(vec![PrefixFilter::or_longer(net(&format!(
                        "{}.0.0.0/8",
                        20 + i
                    )))]),
                    Match::AsPathContains(Asn(64100 + i)),
                ],
                actions: vec![],
                verdict: None,
            })
            .collect();
        let mut rich = config().with_policy(Policy {
            name: "rich".into(),
            rules,
            default: Verdict::Accept,
        });
        rich.neighbors[0].import = "rich".into();
        let (_, rich) = run_symbolic(rich, &bytes);
        let (rich, simple) = (rich.path().len(), simple.path().len());
        assert!(
            rich > simple,
            "rich config must add constraints: {rich} vs {simple}"
        );
    }

    #[test]
    fn probe_recognizes_routers_only() {
        let r = router();
        let boxed: Box<dyn Node> = Box::new(r);
        assert!(probe(boxed.as_ref()).is_some());
        assert_eq!(probe(boxed.as_ref()).unwrap().kind(), "bgp");
    }

    #[test]
    fn plan_requires_configured_peer() {
        let r = router();
        assert!(r.exploration_plan(NodeId(9), 4, 1).is_err());
        assert!(r.exploration_plan(NodeId(2), 4, 1).is_ok());
    }

    #[test]
    fn zero_grammar_seeds_means_zero_grammar_seeds() {
        // Regression: `grammar_seeds = 0` used to still emit two
        // grammar-generated messages. It must now fall back to the one
        // fixed minimal seed, independent of the RNG seed.
        let r = router();
        let a = r.exploration_plan(NodeId(2), 0, 1).unwrap();
        let b = r.exploration_plan(NodeId(2), 0, 999).unwrap();
        assert_eq!(a.seeds.len(), 1);
        assert_eq!(a.seeds, b.seeds, "minimal seed is fixed, not generated");
        assert_eq!(a.seeds[0], minimal_seed(Asn(65002)));
        // And the minimal seed is accepted by the twin.
        let mut plan = r.exploration_plan(NodeId(2), 0, 1).unwrap();
        let mut ctx = dice_concolic::ConcolicCtx::new(dice_concolic::SymInput::all_concrete(
            plan.seeds[0].clone(),
        ));
        assert_eq!(plan.program.run(&mut ctx), dice_concolic::RunStatus::Ok);
    }

    #[test]
    fn grammar_seed_counts() {
        let r = router();
        assert_eq!(r.exploration_plan(NodeId(2), 1, 1).unwrap().seeds.len(), 2);
        assert_eq!(r.exploration_plan(NodeId(2), 8, 1).unwrap().seeds.len(), 9);
    }

    #[test]
    fn check_view_exposes_local_routes() {
        let r = router();
        let view = ExplorableNode::check_view(&r);
        // Loc-RIB is empty before on_start; flips likewise.
        assert_eq!(view.total_flips(), 0);
        assert_eq!(view.session_health().configured, 1);
        assert_eq!(view.session_health().established, 0);
    }

    #[test]
    fn attest_publishes_owned_prefixes() {
        let r = router();
        let mut reg = AttestationRegistry::with_seed(3);
        ExplorableNode::attest(&r, &mut reg);
        assert!(reg.is_attested(&net("10.0.0.0/16"), Asn(65001)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn zero_grammar_seeds_disables_grammar_layer() {
        // Regression: `grammar_seeds = 0` is documented to disable the
        // grammar layer but used to seed two generated messages anyway.
        let sim = crate::scenarios::healthy_line(3, 13);
        let router = as_bgp(sim.node(NodeId(1))).expect("node 1 is a router");
        let plan = router
            .exploration_plan(NodeId(0), 0, 0xD1CE)
            .expect("node 0 is node 1's neighbour");
        // The only seed is the fixed minimal message.
        assert_eq!(
            plan.seeds,
            [minimal_seed(crate::scenarios::asn_of(0))],
            "grammar layer must be fully disabled at zero seeds"
        );
    }
}
