//! The gossip adapter for the SUT seam — the **only** module in
//! `dice-core` that downcasts to [`GossipNode`].
//!
//! Structurally parallel to [`crate::bgp_sut`]: a [`SutProbe`]-shaped
//! [`probe`], an [`ExplorableNode`] implementation supplying the node's own
//! exploration twin ([`GossipNode::frame_twin`], run through
//! [`DomainProgram`]) plus its seed corpus, and a [`CheckView`] that
//! translates gossip state into the checker-visible vocabulary:
//!
//! * **best routes** — per-topic, the origin of the highest rumor id seen,
//!   keyed by a synthetic multicast-style prefix ([`topic_prefix`]). A node
//!   publishing on a topic it does not own therefore trips the
//!   origin-authority checker exactly like a BGP prefix hijack.
//! * **route flips** — per-topic duplicate-delivery counters: a
//!   duplication storm reads as oscillation.
//! * **session health** — configured gossip peers vs. established
//!   sessions.

use dice_bgp::{Asn, Ipv4Net};
use dice_gossip::{
    encode, GossipConfig, GossipFrame, GossipNode, Rumor, TopicId, ACK_KIND_RUMOR, MAX_TTL,
};
use dice_netsim::{Node, NodeId, SimRng};

use crate::domain::DomainProgram;
use crate::interface::AttestationRegistry;
use crate::sut::{CheckView, ExplorableNode, ExplorationPlan, SessionHealth, SutProbe};

/// The probe registered by the
/// [default `SutCatalog`](crate::sut::SutCatalog::default): recognizes
/// [`GossipNode`]s.
pub fn probe(node: &dyn Node) -> Option<&dyn ExplorableNode> {
    node.as_any()
        .downcast_ref::<GossipNode>()
        .map(|g| g as &dyn ExplorableNode)
}

// Let the type checker confirm the signature matches the seam.
const _: SutProbe = probe;

/// View a node as a gossip node, if it is one.
pub fn as_gossip(node: &dyn Node) -> Option<&GossipNode> {
    node.as_any().downcast_ref::<GossipNode>()
}

/// The synthetic prefix standing in for a topic in checker vocabulary:
/// `239.<hi>.<lo>.0/24` (administratively scoped multicast block), so
/// topic "routes" can never collide with the scenarios' unicast space.
pub fn topic_prefix(topic: TopicId) -> Ipv4Net {
    Ipv4Net::new(0xEF00_0000 | ((topic as u32) << 8), 24)
}

/// The fixed minimal seed used when the grammar layer is disabled
/// (`grammar_seeds == 0`): one valid rumor on the node's first interest
/// (or topic 0), from a fixed foreign origin.
pub fn minimal_seed(config: &GossipConfig) -> Vec<u8> {
    let topic = config.interests().into_iter().next().unwrap_or(0);
    encode(&GossipFrame::Rumor(Rumor {
        topic,
        id: 1,
        origin: 0x5EED,
        ttl: 2,
        payload: vec![0xA5; 4],
    }))
}

/// Deterministic seed corpus for `grammar_seeds >= 1`: one valid digest,
/// one subscribe and one ack, then `n` valid rumors over the node's
/// interests — every opcode is represented, so exploration starts with all
/// four dispatch arms covered. The digest frame leads the corpus on purpose:
/// seeds run FIFO, so its count byte is negated within the first
/// generation of flips and the seeded overflow bug (count >= threshold)
/// is reachable well inside the default execution budget — no rumor seed
/// has to be flipped *into* the digest arm first.
pub fn seed_corpus(config: &GossipConfig, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6055_19D0);
    let topics: Vec<TopicId> = {
        let i = config.interests();
        if i.is_empty() {
            vec![0]
        } else {
            i.into_iter().collect()
        }
    };
    let first = topics.first().copied().unwrap_or(0);
    // Draw order is part of the corpus contract (rumors first), so the
    // rumor bytes are stable across this reordering of the output.
    let mut rumors = Vec::with_capacity(n);
    for topic in topics.iter().copied().cycle().take(n) {
        let plen = rng.below(9) as usize;
        let mut payload = Vec::with_capacity(plen);
        for _ in 0..plen {
            payload.push(rng.next_u32() as u8);
        }
        rumors.push(encode(&GossipFrame::Rumor(Rumor {
            topic,
            id: rng.next_u32() & 0x00FF_FFFF,
            origin: (0xE000 | rng.below(64) as u16) ^ 0x0800,
            ttl: (rng.below(MAX_TTL as u64 + 1)) as u8,
            payload,
        })));
    }
    let digest: Vec<(TopicId, u32)> = topics
        .iter()
        .take(3)
        .map(|&t| (t, rng.next_u32() & 0xFFFF))
        .collect();
    let mut seeds = Vec::with_capacity(n + 3);
    seeds.push(encode(&GossipFrame::Digest(digest)));
    seeds.push(encode(&GossipFrame::Subscribe { topic: first }));
    seeds.push(encode(&GossipFrame::Ack {
        kind: ACK_KIND_RUMOR,
        topic: first,
        id: 1,
    }));
    seeds.extend(rumors);
    seeds
}

/// All bytes symbolic: gossip frames are datagram-exact, so (unlike BGP's
/// concrete stream header) even the opcode is fair game — flipping it is
/// precisely how exploration crosses from the rumor arm into the digest
/// arm where the seeded bug lives.
pub fn mark_gossip(bytes: &[u8]) -> Vec<bool> {
    vec![true; bytes.len()]
}

impl ExplorableNode for GossipNode {
    fn kind(&self) -> &'static str {
        "gossip"
    }

    fn injection_peers(&self) -> Vec<NodeId> {
        self.config().peers.clone()
    }

    fn exploration_plan(
        &self,
        peer: NodeId,
        grammar_seeds: usize,
        seed: u64,
    ) -> Result<ExplorationPlan, String> {
        if !self.config().peers.contains(&peer) {
            return Err("inject peer is not a gossip peer of the explorer".into());
        }
        let seeds = if grammar_seeds == 0 {
            vec![minimal_seed(self.config())]
        } else {
            seed_corpus(self.config(), grammar_seeds, seed)
        };
        Ok(ExplorationPlan {
            program: Box::new(DomainProgram(self.frame_twin())),
            marker: mark_gossip,
            seeds,
        })
    }

    fn attest(&self, registry: &mut AttestationRegistry) {
        let cfg = self.config();
        for &t in &cfg.publishes {
            registry.attest(&topic_prefix(t), Asn(cfg.origin));
        }
    }

    fn check_view(&self) -> &dyn CheckView {
        self
    }
}

impl CheckView for GossipNode {
    fn for_each_route_flip(&self, visit: &mut dyn FnMut(Ipv4Net, u64)) {
        for (&topic, &dupes) in self.duplicates() {
            visit(topic_prefix(topic), dupes);
        }
    }

    fn for_each_best_route(&self, visit: &mut dyn FnMut(Ipv4Net, Asn)) {
        for (&topic, &(_id, origin)) in self.best_per_topic() {
            visit(topic_prefix(topic), Asn(origin));
        }
    }

    fn session_health(&self) -> SessionHealth {
        SessionHealth {
            configured: self.config().peers.len(),
            established: self.established_peers(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SymInput};
    use dice_gossip::{FrameTwin, BUG_COUNT_THRESHOLD, OP_ACK, OP_DIGEST, OP_RUMOR, OP_SUBSCRIBE};

    fn config() -> GossipConfig {
        GossipConfig::new(61001)
            .with_peer(NodeId(2))
            .with_peer(NodeId(3))
            .subscribe(1)
            .subscribe(2)
            .publish(7)
    }

    fn twin(cfg: GossipConfig) -> DomainProgram<FrameTwin> {
        DomainProgram(GossipNode::new(cfg).frame_twin())
    }

    fn run_concrete(cfg: GossipConfig, bytes: &[u8]) -> RunStatus {
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
        twin(cfg).run(&mut ctx)
    }

    #[test]
    fn probe_recognizes_gossip_nodes_only() {
        let g: Box<dyn Node> = Box::new(GossipNode::new(config()));
        assert!(probe(g.as_ref()).is_some());
        assert_eq!(probe(g.as_ref()).unwrap().kind(), "gossip");
        let b: Box<dyn Node> = Box::new(dice_bgp::BgpRouter::new(dice_bgp::RouterConfig::minimal(
            Asn(65000),
            dice_bgp::RouterId(1),
        )));
        assert!(probe(b.as_ref()).is_none());
    }

    #[test]
    fn plan_requires_configured_peer() {
        let g = GossipNode::new(config());
        assert!(g.exploration_plan(NodeId(9), 4, 1).is_err());
        assert!(g.exploration_plan(NodeId(2), 4, 1).is_ok());
    }

    #[test]
    fn zero_grammar_seeds_means_fixed_minimal_seed() {
        let g = GossipNode::new(config());
        let a = g.exploration_plan(NodeId(2), 0, 1).unwrap();
        let b = g.exploration_plan(NodeId(2), 0, 999).unwrap();
        assert_eq!(a.seeds.len(), 1);
        assert_eq!(a.seeds, b.seeds, "minimal seed is fixed, not generated");
        // And the minimal seed is accepted by the twin.
        let st = run_concrete(config(), &a.seeds[0]);
        assert_eq!(st, RunStatus::Ok);
    }

    #[test]
    fn grammar_seed_counts_cover_all_opcodes() {
        let g = GossipNode::new(config());
        let plan = g.exploration_plan(NodeId(2), 4, 7).unwrap();
        assert_eq!(plan.seeds.len(), 7, "4 rumors + digest + subscribe + ack");
        let ops: std::collections::BTreeSet<u8> = plan.seeds.iter().map(|s| s[0]).collect();
        assert!(ops.contains(&OP_RUMOR));
        assert!(ops.contains(&OP_DIGEST));
        assert!(ops.contains(&OP_SUBSCRIBE));
        assert!(ops.contains(&OP_ACK));
        // Every generated seed is valid-by-construction for the twin.
        for s in &plan.seeds {
            assert_eq!(run_concrete(config(), s), RunStatus::Ok, "seed {s:?}");
        }
    }

    #[test]
    fn exploration_reaches_seeded_bug_from_rumor_seeds() {
        // End-to-end concolic reachability: starting from valid rumor
        // seeds only, the solver must flip the opcode into the digest arm
        // and then the count above the bug threshold.
        let mut buggy = config();
        buggy.bugs.digest_count_overflow = true;
        let seeds = vec![minimal_seed(&buggy)];
        let mut program = twin(buggy);
        let report = dice_concolic::explore(
            &mut program,
            &seeds,
            &mark_gossip,
            &dice_concolic::ExploreConfig {
                strategy: dice_concolic::Strategy::Generational,
                max_executions: 64,
                ..Default::default()
            },
        );
        let crash = report.first_crash().expect("bug must be reached");
        let input = &report.executions[crash].input;
        assert_eq!(input[0], OP_DIGEST);
        assert!(input[1] >= BUG_COUNT_THRESHOLD);
    }

    #[test]
    fn default_corpus_reaches_seeded_bug_within_a_small_budget() {
        // The digest frame leads the corpus, so the overflow-guarded
        // count byte is a first-generation flip target: the campaign's
        // default budget (192 executions) has an order of magnitude of
        // headroom over what detection actually needs. Locked in at 32
        // so a corpus-ordering regression fails loudly here instead of
        // as a missing fault class in the heterogeneous campaign test.
        let mut buggy = config();
        buggy.bugs.digest_count_overflow = true;
        let seeds = seed_corpus(&buggy, 4, 7);
        let mut program = twin(buggy);
        assert_eq!(seeds[0][0], OP_DIGEST, "digest seed must lead");
        let report = dice_concolic::explore(
            &mut program,
            &seeds,
            &mark_gossip,
            &dice_concolic::ExploreConfig {
                strategy: dice_concolic::Strategy::Generational,
                max_executions: 32,
                ..Default::default()
            },
        );
        let crash = report
            .first_crash()
            .expect("digest-first corpus must reach the bug within 32 executions");
        let input = &report.executions[crash].input;
        assert_eq!(input[0], OP_DIGEST);
        assert!(input[1] >= BUG_COUNT_THRESHOLD);
    }

    #[test]
    fn config_complexity_grows_constraints() {
        // More subscriptions -> more recorded constraints on the same
        // input: interpreted configuration explored like code.
        let bytes = minimal_seed(&config());
        let path_len = |cfg: GossipConfig| {
            let mask = mark_gossip(&bytes);
            let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
            let _ = twin(cfg).run(&mut ctx);
            ctx.path().len()
        };
        let simple = path_len(GossipConfig::new(1).with_peer(NodeId(2)).subscribe(0));
        let mut rich_cfg = GossipConfig::new(1).with_peer(NodeId(2));
        for t in 0..12 {
            rich_cfg = rich_cfg.subscribe(t);
        }
        let rich = path_len(rich_cfg);
        assert!(
            rich >= simple,
            "rich config must not lose constraints: {rich} vs {simple}"
        );
    }

    #[test]
    fn check_view_translates_gossip_state() {
        let g = GossipNode::new(config());
        let view = ExplorableNode::check_view(&g);
        assert_eq!(view.session_health().configured, 2);
        assert_eq!(view.session_health().established, 0);
        assert_eq!(view.total_flips(), 0);
        let mut reg = AttestationRegistry::with_seed(3);
        ExplorableNode::attest(&g, &mut reg);
        assert!(reg.is_attested(&topic_prefix(7), Asn(61001)));
        assert!(!reg.is_attested(&topic_prefix(1), Asn(61001)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn topic_prefixes_are_distinct_multicast_slices() {
        assert_ne!(topic_prefix(1), topic_prefix(2));
        assert_eq!(topic_prefix(0).len(), 24);
        // 239.0.7.0/24 for topic 7.
        assert_eq!(topic_prefix(7).addr(), 0xEF00_0700);
    }
}
