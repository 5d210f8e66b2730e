//! The instrumented twin of the router's UPDATE path.
//!
//! This is the "source instrumentation" of the paper's BIRD integration:
//! the pipeline `dice_bgp::router::BgpRouter` runs on an UPDATE (wire
//! validation → loop and first-AS checks → import policy → decision
//! preference), on concolic values so every data-dependent branch lands in
//! the path condition. None of it is a copy: the twin runs the router's own
//! [`dice_bgp::wire::validate_update`], [`dice_bgp::policy::screen_path`]
//! and [`Policy::decide`] on the concolic value domain (`crate::domain`),
//! so its accept / reject / crash verdict is the router's by construction.
//! What the twin owns is the framing checks before the validator, the
//! sink that hands the validated fields to the decision, and the
//! route-preference oracle after it.
//!
//! Two properties matter and are enforced by tests:
//!
//! 1. **Differential fidelity** — on a fully concrete input, the twin's
//!    verdict agrees with the router's (`tests/handler_differential.rs`).
//! 2. **Configuration coverage** — the import policy is *interpreted* over
//!    symbolic values, so constraints mention config-derived constants;
//!    exploration therefore covers code and configuration simultaneously.

use dice_bgp::policy::{screen_path, PathFault, RouteView};
use dice_bgp::wire::{self, validate_update, DecodeError, UpdateSink, HEADER_LEN, MAX_MESSAGE_LEN};
use dice_bgp::{Asn, Policy, RouterConfig, SegmentKind};
use dice_concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymWord};
use dice_netsim::NodeId;

use crate::domain::Concolic;

/// Stable branch-site identifiers of the twin: the router's
/// ([`dice_bgp::wire::sites`]: the wire validator's 10–61 and 80–81, the
/// import decision's 70, 71 and 100 up), then the preference oracle.
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in the twin below"
    )]
    pub use dice_bgp::wire::sites::*;
    pub const PREFERENCE_ORACLE: u32 = 90;
}

/// What the import decision reads of a validated UPDATE, as the validator
/// hands it over.
#[derive(Debug, Default)]
struct SymUpdate {
    origin: Option<SymWord>,
    path: Vec<SymWord>,
    /// The first and the current AS_PATH segment are AS_SETs.
    first_set: bool,
    in_set: bool,
    /// One hop per sequence member, one per set.
    hops: u32,
    communities: Vec<SymWord>,
    /// Each announced prefix: its address (missing NLRI bytes zero-filled)
    /// and length.
    prefixes: Vec<(SymWord, SymWord)>,
}

impl UpdateSink<SymWord> for SymUpdate {
    fn origin(&mut self, v: SymWord) {
        self.origin = Some(v);
    }

    fn segment(&mut self, kind: SymWord, _count: SymWord) {
        self.in_set = kind.val == SegmentKind::Set as u64;
        self.hops += self.in_set as u32;
    }

    fn asn(&mut self, asn: SymWord) {
        if self.path.is_empty() {
            self.first_set = self.in_set;
        }
        self.hops += !self.in_set as u32;
        self.path.push(asn);
    }

    fn community(&mut self, c: SymWord) {
        self.communities.push(c);
    }

    fn nlri(&mut self, len: SymWord, addr: SymWord) {
        self.prefixes.push((addr, len));
    }
}

/// A segment has at least one member (the validator requires it), so the
/// last member's segment is the last one read.
impl RouteView<SymWord> for SymUpdate {
    fn members(&self) -> impl Iterator<Item = SymWord> + '_ {
        self.path.iter().copied()
    }

    fn first(&self) -> Option<(SymWord, bool)> {
        self.path.first().map(|&asn| (asn, self.first_set))
    }

    fn last(&self) -> Option<(SymWord, bool)> {
        self.path.last().map(|&asn| (asn, self.in_set))
    }

    fn hops(&self) -> u32 {
        self.hops
    }

    fn communities(&self) -> impl Iterator<Item = SymWord> + '_ {
        self.communities.iter().copied()
    }

    fn origin(&self) -> Option<SymWord> {
        self.origin
    }
}

/// The instrumented UPDATE handler for one router node.
#[derive(Debug, Clone)]
pub struct SymbolicUpdateHandler {
    config: RouterConfig,
    peer: NodeId,
}

impl SymbolicUpdateHandler {
    /// Create the twin for the node with `config`, treating inputs as
    /// arriving from `peer`.
    pub fn new(config: RouterConfig, peer: NodeId) -> Self {
        assert!(
            config.neighbor(peer).is_some(),
            "peer {peer} is not configured on this router"
        );
        SymbolicUpdateHandler { config, peer }
    }

    /// The import policy for the configured peer.
    // dice-lint: allow(panic-freedom): peer and policy ids are validated in new()
    fn import_policy(&self) -> &Policy {
        let n = self.config.neighbor(self.peer).expect("validated in new()");
        &self.config.policies[&n.import]
    }

    // dice-lint: allow(panic-freedom): peer and policy ids are validated in new()
    fn neighbor_asn(&self) -> Asn {
        self.config
            .neighbor(self.peer)
            .expect("validated in new()")
            .asn
    }
}

impl ConcolicProgram for SymbolicUpdateHandler {
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        run_update(self, ctx)
    }
}

/// The stage a rejected UPDATE names, for [`RunStatus::Rejected`].
fn stage(e: &DecodeError) -> &'static str {
    match e {
        DecodeError::MalformedAttrList => "malformed-attr-list",
        DecodeError::AttrFlagsError { .. } => "attr-flags",
        DecodeError::AttrLenError { .. } => "attr-len",
        DecodeError::UnrecognizedWellKnown(_) => "unrecognized-well-known",
        DecodeError::InvalidOrigin(_) => "origin-value",
        DecodeError::MalformedAsPath => "malformed-as-path",
        DecodeError::InvalidNextHop => "next-hop",
        DecodeError::MissingWellKnown(_) => "missing-mandatory",
        DecodeError::DuplicateAttr(_) => "duplicate-attr",
        DecodeError::InvalidNlri => "nlri",
        _ => "framing",
    }
}

fn run_update(h: &SymbolicUpdateHandler, ctx: &mut ConcolicCtx) -> RunStatus {
    let total = ctx.input().bytes.len();
    // Framing is concrete by the marking policy; check it plainly.
    if !(HEADER_LEN + 4..=MAX_MESSAGE_LEN).contains(&total) {
        return RunStatus::Rejected("framing".into());
    }
    if ctx.input().bytes[18] != 2 {
        return RunStatus::Rejected("not-update".into());
    }

    let mut d = Concolic(ctx);
    let mut update = SymUpdate::default();
    match validate_update(&mut d, h.config.bugs, &mut update) {
        Ok(()) => {}
        Err(wire::Verdict::Reject(e)) => return RunStatus::Rejected(stage(&e).into()),
        Err(wire::Verdict::Crash(why)) => return RunStatus::Crash(why.into()),
    }
    if update.prefixes.is_empty() {
        // Withdraw-only update: accepted trivially.
        return RunStatus::Ok;
    }

    let own = h.config.asn;
    match screen_path(&mut d, &update, own, h.neighbor_asn()) {
        Ok(()) => {}
        Err(PathFault::Loop) => return RunStatus::Rejected("as-loop".into()),
        Err(PathFault::FirstAs) => return RunStatus::Rejected("first-as".into()),
    }
    let policy = h.import_policy();
    for (slot, &prefix) in update.prefixes.iter().enumerate() {
        if policy.decide(&mut d, prefix, &update, own, slot).is_none() {
            return RunStatus::Rejected("import-policy".into());
        }
    }

    // ---- Route-preference condition, marked symbolic (paper §3) -------
    let preferred = ctx.oracle_bool(true);
    ctx.branch(SiteId(sites::PREFERENCE_ORACLE), preferred);
    RunStatus::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::{
        encode, net, AsPath, Ipv4Addr, Message, PathAttrs, RouterConfig, RouterId, UpdateMsg,
    };
    use dice_concolic::SymInput;

    fn config_with_peer() -> RouterConfig {
        RouterConfig::minimal(Asn(65001), RouterId(0x0A000001)).with_neighbor(
            NodeId(2),
            Asn(65002),
            "all",
            "all",
        )
    }

    fn valid_update(nlri: &[&str]) -> Vec<u8> {
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65002, 65003]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: nlri.iter().map(|s| net(s)).collect(),
        }))
    }

    fn run_concrete(h: &mut SymbolicUpdateHandler, bytes: &[u8]) -> RunStatus {
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
        h.run(&mut ctx)
    }

    fn run_symbolic(h: &mut SymbolicUpdateHandler, bytes: &[u8]) -> (RunStatus, usize) {
        let mask = crate::symmark::mark_update(bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.to_vec(), mask));
        let st = h.run(&mut ctx);
        (st, ctx.path().len())
    }

    #[test]
    fn accepts_valid_update() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        assert_eq!(run_concrete(&mut h, &bytes), RunStatus::Ok);
    }

    #[test]
    fn symbolic_run_records_constraints() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        let (st, path_len) = run_symbolic(&mut h, &bytes);
        assert_eq!(st, RunStatus::Ok);
        assert!(
            path_len >= 15,
            "expected a rich path condition, got {path_len}"
        );
    }

    #[test]
    fn rejects_as_loop() {
        let cfg = config_with_peer();
        let mut h = SymbolicUpdateHandler::new(cfg, NodeId(2));
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65002, 65001]), // contains own AS
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));
        assert_eq!(
            run_concrete(&mut h, &bytes),
            RunStatus::Rejected("as-loop".into())
        );
    }

    #[test]
    fn rejects_wrong_first_as() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65009]), // not the peer AS
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));
        assert_eq!(
            run_concrete(&mut h, &bytes),
            RunStatus::Rejected("first-as".into())
        );
    }

    #[test]
    fn policy_rejection_mirrors_engine() {
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let mut cfg = config_with_peer().with_policy(dice_bgp::Policy {
            name: "no10".into(),
            rules: vec![Rule::reject(vec![Match::PrefixIn(vec![
                PrefixFilter::or_longer(net("10.0.0.0/8")),
            ])])],
            default: dice_bgp::Verdict::Accept,
        });
        cfg.neighbors[0].import = "no10".into();
        let mut h = SymbolicUpdateHandler::new(cfg.clone(), NodeId(2));
        let rejected = valid_update(&["10.1.0.0/16"]);
        let accepted = valid_update(&["20.0.0.0/8"]);
        assert_eq!(
            run_concrete(&mut h, &rejected),
            RunStatus::Rejected("import-policy".into())
        );
        assert_eq!(run_concrete(&mut h, &accepted), RunStatus::Ok);
    }

    /// Differential fidelity: the twin's verdict equals decode + policy +
    /// loop/first-AS checks done with the concrete machinery.
    #[test]
    fn differential_against_concrete_pipeline() {
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let mut cfg = config_with_peer().with_policy(dice_bgp::Policy {
            name: "imp".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::PrefixIn(vec![PrefixFilter {
                        net: net("10.0.0.0/8"),
                        min_len: 8,
                        max_len: 24,
                    }])],
                    actions: vec![],
                    verdict: Some(dice_bgp::Verdict::Accept),
                },
                Rule::reject(vec![Match::AsPathContains(Asn(64000))]),
            ],
            default: dice_bgp::Verdict::Accept,
        });
        cfg.neighbors[0].import = "imp".into();

        let cases: Vec<Vec<u8>> = vec![
            valid_update(&["10.2.0.0/16"]),
            valid_update(&["10.0.0.0/8"]),
            valid_update(&["192.0.2.0/24"]),
            {
                let attrs = PathAttrs {
                    as_path: AsPath::sequence([65002, 64000]),
                    next_hop: Ipv4Addr(0x0A000002),
                    ..Default::default()
                };
                encode(&Message::Update(UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(attrs),
                    nlri: vec![net("172.16.0.0/12")],
                }))
            },
        ];

        for bytes in cases {
            let mut h = SymbolicUpdateHandler::new(cfg.clone(), NodeId(2));
            let twin = run_concrete(&mut h, &bytes);

            // Concrete reference pipeline.
            let reference = match dice_bgp::decode(&bytes) {
                Ok((Message::Update(u), _)) => {
                    let attrs = u.attrs.as_ref().unwrap();
                    if attrs.as_path.contains(Asn(65001)) {
                        RunStatus::Rejected("as-loop".into())
                    } else if attrs.as_path.first_asn() != Some(Asn(65002)) {
                        RunStatus::Rejected("first-as".into())
                    } else {
                        let pol = &cfg.policies["imp"];
                        let all_ok = u
                            .nlri
                            .iter()
                            .all(|p| pol.apply(p, attrs, Asn(65001)).is_some());
                        if all_ok {
                            RunStatus::Ok
                        } else {
                            RunStatus::Rejected("import-policy".into())
                        }
                    }
                }
                Ok(_) => RunStatus::Rejected("not-update".into()),
                Err(e) => RunStatus::Rejected(format!("decode: {e}").into()),
            };
            let agree = matches!(
                (&twin, &reference),
                (RunStatus::Ok, RunStatus::Ok) | (RunStatus::Rejected(_), RunStatus::Rejected(_))
            );
            assert!(agree, "twin={twin:?} reference={reference:?}");
        }
    }

    #[test]
    fn seeded_bug_reached_only_when_enabled() {
        let mut attrs = PathAttrs {
            as_path: AsPath::sequence([65002]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        attrs.unknown.push(dice_bgp::RawAttr {
            flags: dice_bgp::attrs::flags::OPTIONAL | dice_bgp::attrs::flags::TRANSITIVE,
            code: 0xF7,
            value: vec![0xAA; 0x95],
        });
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));

        let mut benign = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        assert_eq!(run_concrete(&mut benign, &bytes), RunStatus::Ok);

        let mut buggy_cfg = config_with_peer();
        buggy_cfg.bugs.attr_overflow_crash = true;
        let mut buggy = SymbolicUpdateHandler::new(buggy_cfg, NodeId(2));
        assert!(matches!(
            run_concrete(&mut buggy, &bytes),
            RunStatus::Crash(_)
        ));
    }

    #[test]
    fn config_complexity_grows_constraints() {
        // The same input produces more recorded constraints under a more
        // complex configuration — the paper's "code and configuration"
        // claim in miniature.
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let bytes = valid_update(&["10.0.0.0/8"]);

        let simple = config_with_peer();
        let mut h1 = SymbolicUpdateHandler::new(simple, NodeId(2));
        let (_, len_simple) = run_symbolic(&mut h1, &bytes);

        let mut rich = config_with_peer();
        let mut rules = Vec::new();
        for i in 0..6u16 {
            rules.push(Rule {
                matches: vec![
                    Match::PrefixIn(vec![PrefixFilter::or_longer(net(&format!(
                        "{}.0.0.0/8",
                        20 + i
                    )))]),
                    Match::AsPathContains(Asn(64100 + i)),
                ],
                actions: vec![],
                verdict: None,
            });
        }
        rich = rich.with_policy(dice_bgp::Policy {
            name: "rich".into(),
            rules,
            default: dice_bgp::Verdict::Accept,
        });
        rich.neighbors[0].import = "rich".into();
        let mut h2 = SymbolicUpdateHandler::new(rich, NodeId(2));
        let (_, len_rich) = run_symbolic(&mut h2, &bytes);

        assert!(
            len_rich > len_simple,
            "rich config must add constraints: {len_rich} vs {len_simple}"
        );
    }

    #[test]
    fn withdraw_only_accepted() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![net("10.0.0.0/8")],
            attrs: None,
            nlri: vec![],
        }));
        assert_eq!(run_concrete(&mut h, &bytes), RunStatus::Ok);
    }

    #[test]
    fn preference_oracle_branches() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        let mask = crate::symmark::mark_update(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
        let st = h.run(&mut ctx);
        assert_eq!(st, RunStatus::Ok);
        // The last recorded branch is the preference oracle.
        let last = ctx.path().last().unwrap();
        assert_eq!(last.site, SiteId(sites::PREFERENCE_ORACLE));
        assert!(last.taken, "default oracle says preferred");
    }
}
