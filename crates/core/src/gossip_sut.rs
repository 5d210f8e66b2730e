//! The gossip adapter for the SUT seam — the **only** module in
//! `dice-core` that downcasts to [`GossipNode`].
//!
//! Structurally parallel to [`crate::bgp_sut`]: a [`SutProbe`]-shaped
//! [`probe`], an [`ExplorableNode`] implementation supplying the
//! instrumented twin ([`SymbolicGossipHandler`]) plus its seed corpus, and
//! a [`CheckView`] that translates gossip state into the checker-visible
//! vocabulary:
//!
//! * **best routes** — per-topic, the origin of the highest rumor id seen,
//!   keyed by a synthetic multicast-style prefix ([`topic_prefix`]). A node
//!   publishing on a topic it does not own therefore trips the
//!   origin-authority checker exactly like a BGP prefix hijack.
//! * **route flips** — per-topic duplicate-delivery counters: a
//!   duplication storm reads as oscillation.
//! * **session health** — configured gossip peers vs. established
//!   sessions.

use std::sync::Arc;

use dice_bgp::{Asn, Ipv4Net};
use dice_concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymBool};
use dice_gossip::{
    encode, GossipConfig, GossipFrame, GossipNode, Rumor, TopicId, ACK_KIND_RUMOR,
    ACK_KIND_SUBSCRIBE, ACK_LEN, BUG_COUNT_THRESHOLD, DIGEST_ENTRY_LEN, MAX_DIGEST_ENTRIES,
    MAX_PAYLOAD, MAX_TTL, OP_ACK, OP_DIGEST, OP_RUMOR, OP_SUBSCRIBE, RUMOR_HEADER_LEN,
};
use dice_netsim::{Node, NodeId, SimRng};

use crate::interface::AttestationRegistry;
use crate::sut::{CheckView, ExplorableNode, ExplorationPlan, SessionHealth, SutProbe};

/// Stable branch-site identifiers for the gossip twin. Based at 200 so the
/// campaign-level coverage union never aliases the BGP handler's sites
/// (10..=150) or the scenario test stubs' single-digit sites.
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in the twin below"
    )]
    pub const OP_IS_RUMOR: u32 = 200;
    pub const OP_IS_DIGEST: u32 = 201;
    pub const OP_IS_SUBSCRIBE: u32 = 202;
    pub const RUMOR_TTL: u32 = 203;
    pub const RUMOR_PLEN_LIMIT: u32 = 204;
    pub const RUMOR_PLEN_EXACT: u32 = 205;
    pub const RUMOR_TOPIC_SUBSCRIBED: u32 = 206;
    pub const RUMOR_NOVEL: u32 = 207;
    pub const DIGEST_COUNT_LIMIT: u32 = 208;
    pub const DIGEST_LEN_EXACT: u32 = 209;
    pub const DIGEST_ENTRY_KNOWN: u32 = 210;
    pub const BUG_DIGEST_COUNT: u32 = 211;
    pub const OP_IS_ACK: u32 = 212;
    pub const ACK_KIND_VALID: u32 = 213;
}

/// The probe registered by
/// [`SutCatalog::standard`](crate::sut::SutCatalog::standard): recognizes
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
// dice-lint: allow(panic-freedom): topics is non-empty by construction (falls back to vec![0])
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
    // Draw order is part of the corpus contract (rumors first), so the
    // rumor bytes are stable across this reordering of the output.
    let mut rumors = Vec::with_capacity(n);
    for k in 0..n {
        let topic = topics[k % topics.len()];
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
    seeds.push(encode(&GossipFrame::Subscribe { topic: topics[0] }));
    seeds.push(encode(&GossipFrame::Ack {
        kind: ACK_KIND_RUMOR,
        topic: topics[0],
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

/// The instrumented twin of [`GossipNode`]'s frame handler: the same
/// dispatch-validate pipeline as `GossipNode::on_message` + `wire::decode`,
/// written against concolic values so every data-dependent branch lands in
/// the path condition. Subscription membership is interpreted over the
/// node's *configuration*, so constraints mention config-derived constants
/// (the paper's code-and-configuration claim, on a non-BGP protocol).
#[derive(Debug, Clone)]
pub struct SymbolicGossipHandler {
    config: Arc<GossipConfig>,
    /// How often an input survived the whole pipeline.
    pub accepted: u64,
    /// How often the novelty oracle admitted a rumor as fresh.
    pub fresh: u64,
}

impl SymbolicGossipHandler {
    /// Create the twin for a node with `config` (owned, or the node's own
    /// [`GossipNode::shared_config`]).
    pub fn new(config: impl Into<Arc<GossipConfig>>) -> Self {
        SymbolicGossipHandler {
            config: config.into(),
            accepted: 0,
            fresh: 0,
        }
    }
}

impl ConcolicProgram for SymbolicGossipHandler {
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        run_gossip_frame(self, ctx)
    }
}

/// Branch helper mirroring `crate::handler::br`.
fn br(ctx: &mut ConcolicCtx, site: u32, cond: SymBool) -> bool {
    ctx.branch(SiteId(site), cond)
}

fn run_gossip_frame(h: &mut SymbolicGossipHandler, ctx: &mut ConcolicCtx) -> RunStatus {
    let total = ctx.input().bytes.len();
    if total == 0 {
        return RunStatus::Rejected("empty".into());
    }
    let op = ctx.read_u8(0);

    // ---- RUMOR arm ---------------------------------------------------
    let is_rumor = ctx.eq_const(op, OP_RUMOR as u64);
    if br(ctx, sites::OP_IS_RUMOR, is_rumor) {
        if total < RUMOR_HEADER_LEN {
            return RunStatus::Rejected("rumor-truncated".into());
        }
        let topic = ctx.read_u16_be(1);
        let _id = ctx.read_u32_be(3);
        let _origin = ctx.read_u16_be(7);
        let ttl = ctx.read_u8(9);
        let ttl_ok = ctx.ule_const(ttl, MAX_TTL as u64);
        if !br(ctx, sites::RUMOR_TTL, ttl_ok) {
            return RunStatus::Rejected("ttl-too-large".into());
        }
        let plen = ctx.read_u8(10);
        let plen_ok = ctx.ule_const(plen, MAX_PAYLOAD as u64);
        if !br(ctx, sites::RUMOR_PLEN_LIMIT, plen_ok) {
            return RunStatus::Rejected("payload-too-long".into());
        }
        let exact = ctx.eq_const(plen, (total - RUMOR_HEADER_LEN) as u64);
        if !br(ctx, sites::RUMOR_PLEN_EXACT, exact) {
            return RunStatus::Rejected("rumor-length".into());
        }
        // Configuration interpreted symbolically: subscription membership.
        let mut subscribed = SymBool::concrete(false);
        for &t in &h.config.subscriptions {
            let eq = ctx.eq_const(topic, t as u64);
            subscribed = ctx.bor(subscribed, eq);
        }
        let delivered = br(ctx, sites::RUMOR_TOPIC_SUBSCRIBED, subscribed);
        // Novelty (seen-set membership) depends on node state the twin
        // does not carry; mark the condition symbolic via an oracle, like
        // the BGP twin's route-preference treatment.
        let novel = ctx.oracle_bool(true);
        if br(ctx, sites::RUMOR_NOVEL, novel) {
            h.fresh += 1;
        }
        let _ = delivered;
        h.accepted += 1;
        return RunStatus::Ok;
    }

    // ---- DIGEST arm --------------------------------------------------
    let is_digest = ctx.eq_const(op, OP_DIGEST as u64);
    if br(ctx, sites::OP_IS_DIGEST, is_digest) {
        if total < 2 {
            return RunStatus::Rejected("digest-truncated".into());
        }
        let count = ctx.read_u8(1);
        // ---- Seeded programming error (mirrors GossipNode's hook) ----
        // The buggy build consumes the count byte before any validation.
        if h.config.bugs.digest_count_overflow {
            let count_big = ctx.uge_const(count, BUG_COUNT_THRESHOLD as u64);
            if br(ctx, sites::BUG_DIGEST_COUNT, count_big) {
                return RunStatus::Crash(
                    "seeded bug: digest count overflow corrupts seen-set".into(),
                );
            }
        }
        let count_ok = ctx.ule_const(count, MAX_DIGEST_ENTRIES as u64);
        if !br(ctx, sites::DIGEST_COUNT_LIMIT, count_ok) {
            return RunStatus::Rejected("digest-too-long".into());
        }
        let exact = ctx.eq_const(count, ((total - 2) / DIGEST_ENTRY_LEN) as u64);
        let body_aligned = (total - 2).is_multiple_of(DIGEST_ENTRY_LEN);
        let exact = if body_aligned {
            exact
        } else {
            SymBool::concrete(false)
        };
        if !br(ctx, sites::DIGEST_LEN_EXACT, exact) {
            return RunStatus::Rejected("digest-length".into());
        }
        let interests = h.config.interests();
        for k in 0..count.val as usize {
            let at = 2 + k * DIGEST_ENTRY_LEN;
            let topic = ctx.read_u16_be(at);
            let _id = ctx.read_u32_be(at + 2);
            let mut known = SymBool::concrete(false);
            for &t in &interests {
                let eq = ctx.eq_const(topic, t as u64);
                known = ctx.bor(known, eq);
            }
            // Either direction is fine (unknown entries are ignored), but
            // the branch records config constants in the path condition.
            br(ctx, sites::DIGEST_ENTRY_KNOWN, known);
        }
        h.accepted += 1;
        return RunStatus::Ok;
    }

    // ---- SUBSCRIBE arm -----------------------------------------------
    let is_sub = ctx.eq_const(op, OP_SUBSCRIBE as u64);
    if br(ctx, sites::OP_IS_SUBSCRIBE, is_sub) {
        if total != 3 {
            return RunStatus::Rejected("subscribe-length".into());
        }
        let _topic = ctx.read_u16_be(1);
        h.accepted += 1;
        return RunStatus::Ok;
    }

    // ---- ACK arm -----------------------------------------------------
    let is_ack = ctx.eq_const(op, OP_ACK as u64);
    if br(ctx, sites::OP_IS_ACK, is_ack) {
        if total != ACK_LEN {
            return RunStatus::Rejected("ack-length".into());
        }
        let kind = ctx.read_u8(1);
        let is_rumor_ack = ctx.eq_const(kind, ACK_KIND_RUMOR as u64);
        let is_sub_ack = ctx.eq_const(kind, ACK_KIND_SUBSCRIBE as u64);
        let kind_ok = ctx.bor(is_rumor_ack, is_sub_ack);
        if !br(ctx, sites::ACK_KIND_VALID, kind_ok) {
            return RunStatus::Rejected("ack-kind".into());
        }
        let _topic = ctx.read_u16_be(2);
        let _id = ctx.read_u32_be(4);
        h.accepted += 1;
        return RunStatus::Ok;
    }

    RunStatus::Rejected("unknown-opcode".into())
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
        let config = Arc::clone(self.shared_config());
        let seeds = if grammar_seeds == 0 {
            vec![minimal_seed(&config)]
        } else {
            seed_corpus(&config, grammar_seeds, seed)
        };
        Ok(ExplorationPlan {
            program: Box::new(SymbolicGossipHandler::new(config)),
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
    use dice_concolic::SymInput;

    fn config() -> GossipConfig {
        GossipConfig::new(61001)
            .with_peer(NodeId(2))
            .with_peer(NodeId(3))
            .subscribe(1)
            .subscribe(2)
            .publish(7)
    }

    fn run_concrete(cfg: GossipConfig, bytes: &[u8]) -> RunStatus {
        let mut h = SymbolicGossipHandler::new(cfg);
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
        h.run(&mut ctx)
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
    fn twin_agrees_with_wire_decoder() {
        // Differential fidelity on frame validation: the twin accepts
        // exactly the frames the conforming decoder accepts (novelty and
        // forwarding are node-state concerns outside the twin's scope).
        let cases: Vec<Vec<u8>> = vec![
            minimal_seed(&config()),
            encode(&GossipFrame::Digest(vec![(1, 5), (9, 2)])),
            encode(&GossipFrame::Subscribe { topic: 4 }),
            encode(&GossipFrame::Ack {
                kind: ACK_KIND_SUBSCRIBE,
                topic: 4,
                id: 0,
            }),
            vec![OP_RUMOR, 0, 1, 0, 0, 0, 1, 0, 9, 20, 0], // ttl 20 > MAX_TTL
            vec![OP_DIGEST, 3, 0, 0],                      // truncated digest
            vec![0x44, 1, 2],                              // unknown opcode
            vec![OP_SUBSCRIBE, 1, 2, 3],                   // trailing bytes
            vec![OP_ACK, 7, 0, 1, 0, 0, 0, 2],             // bad ack kind
            vec![OP_ACK, 0, 0, 1],                         // truncated ack
        ];
        for bytes in cases {
            let twin = run_concrete(config(), &bytes);
            let reference = dice_gossip::decode(&bytes);
            assert_eq!(
                matches!(twin, RunStatus::Ok),
                reference.is_ok(),
                "twin={twin:?} reference={reference:?} bytes={bytes:?}"
            );
        }
    }

    #[test]
    fn seeded_bug_reached_only_when_enabled() {
        let attack = vec![OP_DIGEST, BUG_COUNT_THRESHOLD];
        assert!(matches!(
            run_concrete(config(), &attack),
            RunStatus::Rejected(_)
        ));
        let mut buggy = config();
        buggy.bugs.digest_count_overflow = true;
        assert!(matches!(run_concrete(buggy, &attack), RunStatus::Crash(_)));
    }

    #[test]
    fn exploration_reaches_seeded_bug_from_rumor_seeds() {
        // End-to-end concolic reachability: starting from valid rumor
        // seeds only, the solver must flip the opcode into the digest arm
        // and then the count above the bug threshold.
        let mut buggy = config();
        buggy.bugs.digest_count_overflow = true;
        let mut program = SymbolicGossipHandler::new(buggy.clone());
        let seeds = vec![minimal_seed(&buggy)];
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
        let mut program = SymbolicGossipHandler::new(buggy.clone());
        let seeds = seed_corpus(&buggy, 4, 7);
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
            let mut h = SymbolicGossipHandler::new(cfg);
            let mask = mark_gossip(&bytes);
            let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
            let _ = h.run(&mut ctx);
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
