//! The instrumented twin of the router's UPDATE path.
//!
//! This is the "source instrumentation" of the paper's BIRD integration:
//! the pipeline `dice_bgp::router::BgpRouter` runs on an UPDATE (wire
//! validation → loop and first-AS checks → import policy → decision
//! preference), on concolic values so every data-dependent branch lands in
//! the path condition. The wire validation is not a copy: the twin runs the
//! router's own [`dice_bgp::wire::validate_update`] on the concolic value
//! domain (`crate::domain`), so its accept / reject / crash verdict on a
//! message's structure is the router's by construction. What follows the
//! validation is the twin's own.
//!
//! Two properties matter and are enforced by tests:
//!
//! 1. **Differential fidelity** — on a fully concrete input, the twin's
//!    verdict agrees with the router's decoder + policy engine
//!    (`tests/handler_differential.rs`, which guards the decision part).
//! 2. **Configuration coverage** — the import policy is *interpreted* over
//!    symbolic values, so constraints mention config-derived constants;
//!    exploration therefore covers code and configuration simultaneously.

use dice_bgp::policy::{Action, Match, Policy, Verdict};
use dice_bgp::wire::{self, validate_update, DecodeError, UpdateSink, HEADER_LEN, MAX_MESSAGE_LEN};
use dice_bgp::{Asn, Community, RouterConfig, SegmentKind};
use dice_concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymBool, SymWord};
use dice_netsim::NodeId;

use crate::domain::Concolic;

/// Stable branch-site identifiers of the twin: the wire validator's
/// ([`dice_bgp::wire::sites`], 10–61 and 80–81), then the decision part's.
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in the twin below"
    )]
    pub use dice_bgp::wire::sites::*;
    pub const LOOP_CHECK: u32 = 70;
    pub const FIRST_AS: u32 = 71;
    pub const PREFERENCE_ORACLE: u32 = 90;
    /// Policy rule sites: `POLICY_BASE + rule_index`.
    pub const POLICY_BASE: u32 = 100;
}

/// A symbolic IPv4 prefix parsed from NLRI.
#[derive(Debug, Clone, Copy)]
struct SymPrefix {
    /// 32-bit address (missing NLRI bytes zero-filled).
    addr: SymWord,
    /// Length in bits.
    len: SymWord,
}

/// An AS_PATH member, with the concrete kind of its segment.
#[derive(Debug, Clone, Copy)]
struct PathAsn {
    asn: SymWord,
    /// Its segment is an AS_SET.
    in_set: bool,
}

/// What the decision part reads of a validated UPDATE, as the validator
/// hands it over.
#[derive(Debug, Default)]
struct SymUpdate {
    origin: Option<SymWord>,
    path: Vec<PathAsn>,
    /// The AS_SET segments among them.
    sets: u32,
    /// The segment being read is an AS_SET.
    in_set: bool,
    communities: Vec<SymWord>,
    prefixes: Vec<SymPrefix>,
}

impl SymUpdate {
    /// The AS_PATH length the decision process counts: one hop per
    /// sequence member, one per set.
    fn path_len(&self) -> u32 {
        self.path.iter().filter(|p| !p.in_set).count() as u32 + self.sets
    }
}

impl UpdateSink<SymWord> for SymUpdate {
    fn origin(&mut self, v: SymWord) {
        self.origin = Some(v);
    }

    fn segment(&mut self, kind: SymWord, _count: SymWord) {
        self.in_set = kind.val == SegmentKind::Set as u64;
        self.sets += self.in_set as u32;
    }

    fn asn(&mut self, asn: SymWord) {
        let in_set = self.in_set;
        self.path.push(PathAsn { asn, in_set });
    }

    fn community(&mut self, c: SymWord) {
        self.communities.push(c);
    }

    fn nlri(&mut self, len: SymWord, addr: SymWord) {
        self.prefixes.push(SymPrefix { addr, len });
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

/// Branch helper: returns the concrete direction, recording the constraint.
fn br(ctx: &mut ConcolicCtx, site: u32, cond: SymBool) -> bool {
    ctx.branch(SiteId(site), cond)
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

    let mut update = SymUpdate::default();
    match validate_update(&mut Concolic(ctx), h.config.bugs, &mut update) {
        Ok(()) => {}
        Err(wire::Verdict::Reject(e)) => return RunStatus::Rejected(stage(&e).into()),
        Err(wire::Verdict::Crash(why)) => return RunStatus::Crash(why.into()),
    }
    if update.prefixes.is_empty() {
        // Withdraw-only update: accepted trivially.
        return RunStatus::Ok;
    }

    // ---- Loop detection and first-AS check ---------------------------
    let own = h.config.asn;
    let mut has_own = SymBool::concrete(false);
    for p in &update.path {
        let eq = ctx.eq_const(p.asn, own.0 as u64);
        has_own = ctx.bor(has_own, eq);
    }
    if br(ctx, sites::LOOP_CHECK, has_own) {
        return RunStatus::Rejected("as-loop".into());
    }
    // A path led by an AS_SET has no first AS, as `AsPath::first_asn`.
    let neigh = h.neighbor_asn();
    let first_ok = match update.path.first() {
        Some(first) if !first.in_set => ctx.eq_const(first.asn, neigh.0 as u64),
        _ => SymBool::concrete(false),
    };
    if !br(ctx, sites::FIRST_AS, first_ok) {
        return RunStatus::Rejected("first-as".into());
    }

    // ---- Import policy, interpreted symbolically ----------------------
    let policy = h.import_policy();
    for (pi, prefix) in update.prefixes.iter().enumerate() {
        match eval_policy(ctx, policy, *prefix, &update, own, pi) {
            Verdict::Reject => return RunStatus::Rejected("import-policy".into()),
            Verdict::Accept => {}
        }
    }

    // ---- Route-preference condition, marked symbolic (paper §3) -------
    let preferred = ctx.oracle_bool(true);
    br(ctx, sites::PREFERENCE_ORACLE, preferred);
    RunStatus::Ok
}

/// What the actions of the rules that fired without a verdict did to the
/// route the later rules read, as [`Policy::apply`] edits its copy.
#[derive(Debug, Default)]
struct Edits {
    /// Hops of the router's own AS prepended.
    prepended: u32,
    /// Communities added (`true`) or removed, the last action on each.
    communities: Vec<(Community, bool)>,
}

impl Edits {
    fn apply(&mut self, action: &Action) {
        let (c, present) = match *action {
            Action::AddCommunity(c) => (c, true),
            Action::RemoveCommunity(c) => (c, false),
            Action::Prepend(n) => {
                self.prepended += n as u32;
                return;
            }
            // No match reads them.
            Action::SetLocalPref(_) | Action::SetMed(_) => return,
        };
        match self.communities.iter_mut().find(|(k, _)| *k == c) {
            Some(edit) => edit.1 = present,
            None => self.communities.push((c, present)),
        }
    }

    /// Whether an action decided that the route carries `c`.
    fn community(&self, c: Community) -> Option<bool> {
        let edit = self.communities.iter().find(|(k, _)| *k == c);
        edit.map(|&(_, present)| present)
    }
}

/// Interpret the policy over a symbolic route, as [`Policy::apply`] does.
/// Every rule's predicate is a recorded branch, so constraints encode the
/// *configuration*.
fn eval_policy(
    ctx: &mut ConcolicCtx,
    policy: &Policy,
    prefix: SymPrefix,
    attrs: &SymUpdate,
    own: Asn,
    prefix_index: usize,
) -> Verdict {
    let mut edits = Edits::default();
    for (ri, rule) in policy.rules.iter().enumerate() {
        let mut fires = SymBool::concrete(true);
        for m in &rule.matches {
            let hit = eval_match(ctx, m, prefix, attrs, &edits, own);
            fires = ctx.band(fires, hit);
        }
        // Site encodes (rule, prefix slot) so different NLRI entries keep
        // distinguishable branch identities.
        let site = sites::POLICY_BASE + (ri as u32) * 8 + (prefix_index as u32 % 8);
        if br(ctx, site, fires) {
            if let Some(v) = rule.verdict {
                return v;
            }
            for a in &rule.actions {
                edits.apply(a);
            }
        }
    }
    policy.default
}

fn eval_match(
    ctx: &mut ConcolicCtx,
    m: &Match,
    prefix: SymPrefix,
    attrs: &SymUpdate,
    edits: &Edits,
    own: Asn,
) -> SymBool {
    match m {
        Match::Any => SymBool::concrete(true),
        Match::PrefixIn(filters) => {
            let mut any = SymBool::concrete(false);
            for f in filters {
                let maskv: u64 = if f.net.len() == 0 {
                    0
                } else {
                    ((u32::MAX as u64) << (32 - f.net.len() as u64)) & u32::MAX as u64
                };
                let masked = ctx.and_const(prefix.addr, maskv);
                let base_eq = ctx.eq_const(masked, f.net.addr() as u64);
                let ge = ctx.uge_const(prefix.len, f.min_len as u64);
                let le = ctx.ule_const(prefix.len, f.max_len as u64);
                let range = ctx.band(ge, le);
                let hit = ctx.band(base_eq, range);
                any = ctx.bor(any, hit);
            }
            any
        }
        Match::PrefixLenIn { min, max } => {
            let ge = ctx.uge_const(prefix.len, *min as u64);
            let le = ctx.ule_const(prefix.len, *max as u64);
            ctx.band(ge, le)
        }
        Match::AsPathContains(a) => {
            let mut any = SymBool::concrete(edits.prepended > 0 && *a == own);
            for p in &attrs.path {
                let eq = ctx.eq_const(p.asn, a.0 as u64);
                any = ctx.bor(any, eq);
            }
            any
        }
        Match::AsPathLenAtMost(n) => SymBool::concrete(attrs.path_len() + edits.prepended <= *n),
        // A path that ends in an AS_SET has no originator
        // (`AsPath::origin_asn`); a prepend names one only on an empty path.
        Match::OriginatedBy(a) => match attrs.path.last() {
            Some(last) if !last.in_set => ctx.eq_const(last.asn, a.0 as u64),
            Some(_) => SymBool::concrete(false),
            None => SymBool::concrete(edits.prepended > 0 && *a == own),
        },
        Match::HasCommunity(c) => {
            if let Some(present) = edits.community(*c) {
                return SymBool::concrete(present);
            }
            let mut any = SymBool::concrete(false);
            for &comm in &attrs.communities {
                let eq = ctx.eq_const(comm, c.0 as u64);
                any = ctx.bor(any, eq);
            }
            any
        }
        Match::OriginIs(o) => match attrs.origin {
            Some(origin) => ctx.eq_const(origin, *o as u64),
            None => SymBool::concrete(false),
        },
    }
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
