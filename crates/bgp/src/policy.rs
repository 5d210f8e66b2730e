//! The data-driven routing policy engine.
//!
//! Policies are *data*, interpreted rule-by-rule at run time — exactly like
//! BIRD's filter language. This matters for DiCE: because the interpreter's
//! branches depend on both the input route and the configuration, concolic
//! execution over the interpreter records constraints that cover **code and
//! configuration simultaneously** (the paper's §3 point about BIRD's
//! configuration interpreter).
//!
//! A policy is an ordered list of rules; a rule is a conjunction of matches,
//! a list of actions, and an optional terminal verdict. The first rule whose
//! matches all hold applies its actions; if it carries a verdict, evaluation
//! stops. Routes that fall off the end get the policy default.
//!
//! The import decision is written once, over a [`Domain`]:
//! [`screen_path`] (the AS-path loop and first-AS checks) and
//! [`Policy::decide`] (the rule walk) read a route through a [`RouteView`].
//! The router runs them on [`Concrete`] values of its [`PathAttrs`]; DiCE's
//! exploration twin runs the same code on concolic values of the UPDATE it
//! validated, so its verdict is the router's by construction.
//! [`Match::eval`] and [`Action::apply`] stay as the reference semantics
//! the walk is tested against.

use crate::attrs::{Communities, Origin, PathAttrs, SegmentKind};
use crate::types::{Asn, Community, Ipv4Addr, Ipv4Net};
use crate::wire::sites;
use dice_netsim::{Concrete, Domain};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

#[cfg(test)]
mod reference;

/// One entry of a prefix set: a base prefix plus an acceptable length range
/// (BIRD's `10.0.0.0/8{8,24}` notation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixFilter {
    /// Base prefix that must cover the candidate.
    pub net: Ipv4Net,
    /// Minimum acceptable prefix length.
    pub min_len: u8,
    /// Maximum acceptable prefix length.
    pub max_len: u8,
}

impl PrefixFilter {
    /// Exact-match filter for one prefix.
    pub fn exact(net: Ipv4Net) -> Self {
        PrefixFilter {
            net,
            min_len: net.len(),
            max_len: net.len(),
        }
    }

    /// `net` or any more-specific prefix (`{len,32}`).
    pub fn or_longer(net: Ipv4Net) -> Self {
        PrefixFilter {
            net,
            min_len: net.len(),
            max_len: 32,
        }
    }

    /// Whether `candidate` matches this filter.
    pub fn matches(&self, candidate: &Ipv4Net) -> bool {
        self.net.covers(candidate)
            && candidate.len() >= self.min_len
            && candidate.len() <= self.max_len
    }
}

/// A predicate over (prefix, attributes, peer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Match {
    /// Prefix matches any filter in the set.
    PrefixIn(Vec<PrefixFilter>),
    /// Prefix length within the inclusive range.
    PrefixLenIn {
        /// Minimum length.
        min: u8,
        /// Maximum length.
        max: u8,
    },
    /// AS_PATH mentions the given AS anywhere.
    AsPathContains(Asn),
    /// AS_PATH length (sets count 1) is at most this.
    AsPathLenAtMost(u32),
    /// AS_PATH originates from the given AS.
    OriginatedBy(Asn),
    /// The COMMUNITY attribute carries this value.
    HasCommunity(Community),
    /// The ORIGIN attribute equals this value.
    OriginIs(Origin),
    /// Always true (for unconditional action rules).
    Any,
}

impl Match {
    /// Evaluate the predicate on a candidate route.
    pub fn eval(&self, prefix: &Ipv4Net, attrs: &PathAttrs) -> bool {
        match self {
            Match::PrefixIn(filters) => filters.iter().any(|f| f.matches(prefix)),
            Match::PrefixLenIn { min, max } => prefix.len() >= *min && prefix.len() <= *max,
            Match::AsPathContains(asn) => attrs.as_path.contains(*asn),
            Match::AsPathLenAtMost(n) => attrs.as_path.path_len() <= *n,
            Match::OriginatedBy(asn) => attrs.as_path.origin_asn() == Some(*asn),
            Match::HasCommunity(c) => attrs.has_community(*c),
            Match::OriginIs(o) => attrs.origin == *o,
            Match::Any => true,
        }
    }

    /// [`eval`](Self::eval) over a value domain: the predicate on
    /// `prefix` (address, length) and `route` as the rules before it
    /// edited the route.
    fn test<D: Domain>(
        &self,
        d: &mut D,
        (addr, len): (D::Word, D::Word),
        route: &impl RouteView<D::Word>,
        edits: &Edits<'_>,
    ) -> D::Bool {
        match self {
            Match::Any => d.lit(true),
            Match::PrefixIn(filters) => {
                let mut any = d.lit(false);
                for f in filters {
                    let masked = d.and_const(addr, Ipv4Net::mask(f.net.len()) as u64);
                    let base_eq = d.eq_const(masked, f.net.addr() as u64);
                    // `covers`: no shorter than the filter's own prefix.
                    let ge = d.uge_const(len, f.min_len.max(f.net.len()) as u64);
                    let le = d.ule_const(len, f.max_len as u64);
                    let range = d.band(ge, le);
                    let hit = d.band(base_eq, range);
                    any = d.bor(any, hit);
                }
                any
            }
            Match::PrefixLenIn { min, max } => {
                let ge = d.uge_const(len, *min as u64);
                let le = d.ule_const(len, *max as u64);
                d.band(ge, le)
            }
            Match::AsPathContains(a) => {
                let mut any = d.lit(edits.prepended() > 0 && *a == edits.own);
                for asn in route.members() {
                    let eq = d.eq_const(asn, a.0 as u64);
                    any = d.bor(any, eq);
                }
                any
            }
            Match::AsPathLenAtMost(n) => d.lit(route.hops() + edits.prepended() <= *n),
            // A path that ends in an AS_SET has no originator; a prepend
            // names one only on an empty path.
            Match::OriginatedBy(a) => match route.last() {
                Some((asn, false)) => d.eq_const(asn, a.0 as u64),
                Some(_) => d.lit(false),
                None => d.lit(edits.prepended() > 0 && *a == edits.own),
            },
            Match::HasCommunity(c) => match edits.community(*c) {
                Some(present) => d.lit(present),
                None => route.carries(d, *c),
            },
            Match::OriginIs(o) => match route.origin() {
                Some(origin) => d.eq_const(origin, *o as u64),
                None => d.lit(false),
            },
        }
    }
}

/// An attribute transformation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Set LOCAL_PREF.
    SetLocalPref(u32),
    /// Set MED.
    SetMed(u32),
    /// Add a community value.
    AddCommunity(Community),
    /// Remove a community value.
    RemoveCommunity(Community),
    /// Prepend own AS `count` extra times at export.
    Prepend(u8),
}

impl Action {
    /// Apply the transformation to an attribute bag. `own_asn` is needed
    /// for prepending.
    pub fn apply(&self, attrs: &mut PathAttrs, own_asn: Asn) {
        match self {
            Action::SetLocalPref(v) => attrs.local_pref = Some(*v),
            Action::SetMed(v) => attrs.med = Some(*v),
            Action::AddCommunity(c) => {
                attrs.communities.insert(*c);
            }
            Action::RemoveCommunity(c) => {
                attrs.communities.remove(c);
            }
            Action::Prepend(count) => attrs.as_path.prepend(own_asn, *count),
        }
    }
}

/// Accept or reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Let the route through (with accumulated modifications).
    Accept,
    /// Drop the route.
    Reject,
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// All must hold for the rule to fire (empty = always fires).
    pub matches: Vec<Match>,
    /// Applied in order when the rule fires.
    pub actions: Vec<Action>,
    /// Terminal verdict; `None` continues to the next rule.
    pub verdict: Option<Verdict>,
}

impl Rule {
    /// A rule that accepts everything it matches.
    pub fn accept(matches: Vec<Match>) -> Self {
        Rule {
            matches,
            actions: vec![],
            verdict: Some(Verdict::Accept),
        }
    }

    /// A rule that rejects everything it matches.
    pub fn reject(matches: Vec<Match>) -> Self {
        Rule {
            matches,
            actions: vec![],
            verdict: Some(Verdict::Reject),
        }
    }
}

/// An ordered rule list with a default verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Policy name (referenced from neighbor configs).
    pub name: String,
    /// Rules, evaluated first-match-wins.
    pub rules: Vec<Rule>,
    /// Verdict when no rule produced one.
    pub default: Verdict,
}

impl Policy {
    /// The accept-everything policy.
    pub fn accept_all(name: impl Into<String>) -> Self {
        Policy {
            name: name.into(),
            rules: vec![],
            default: Verdict::Accept,
        }
    }

    /// The reject-everything policy.
    pub fn reject_all(name: impl Into<String>) -> Self {
        Policy {
            name: name.into(),
            rules: vec![],
            default: Verdict::Reject,
        }
    }

    /// Interpret the policy on `(prefix, attrs)`. On `Accept`, returns the
    /// transformed attribute bag; on `Reject`, `None`.
    ///
    /// Decide before copying: [`decide`](Self::decide) runs on the bag as
    /// it was passed, then the actions of the rules that fired are folded
    /// into it. A borrowed bag is copied at the first of those actions and
    /// handed back borrowed when there is none; a `Reject` allocates
    /// nothing (below 65 rules). A caller that owns its bag passes it by
    /// value and no copy is made.
    pub fn apply<'a>(
        &self,
        prefix: &Ipv4Net,
        attrs: impl Into<Cow<'a, PathAttrs>>,
        own_asn: Asn,
    ) -> Option<Cow<'a, PathAttrs>> {
        let mut out = attrs.into();
        let at = (prefix.addr() as u64, prefix.len() as u64);
        let fired = self.decide(&mut Concrete(&[]), at, &*out, own_asn, 0)?;
        if fired.is_empty() {
            return Some(out);
        }
        for a in fired.actions(&self.rules) {
            a.apply(out.to_mut(), own_asn);
        }
        Some(out)
    }

    /// What this policy makes of `attrs` as an eBGP export: the verdict
    /// and actions of [`apply`](Self::apply), then the rewrite every eBGP
    /// export makes — `own` prepended once more, NEXT_HOP set to
    /// `next_hop`, LOCAL_PREF dropped and the communities that name `own`
    /// stripped. The bag is built in one pass from the borrowed one: the
    /// AS_PATH at its final size, the communities as they end up.
    pub fn export(
        &self,
        prefix: &Ipv4Net,
        attrs: &PathAttrs,
        own: Asn,
        next_hop: Ipv4Addr,
    ) -> Option<PathAttrs> {
        let at = (prefix.addr() as u64, prefix.len() as u64);
        let fired = self.decide(&mut Concrete(&[]), at, attrs, own, 0)?;
        let actions = fired.actions(&self.rules);
        let prepends = actions.clone().filter_map(|a| match a {
            Action::Prepend(n) => Some(*n),
            _ => None,
        });
        let foreign = |c: &Community| c.asn_part() != own.0;
        let mut communities: Communities =
            attrs.communities.iter().copied().filter(foreign).collect();
        let mut med = attrs.med;
        for action in actions {
            match *action {
                Action::SetMed(v) => med = Some(v),
                Action::AddCommunity(c) if foreign(&c) => {
                    communities.insert(c);
                }
                Action::RemoveCommunity(c) => {
                    communities.remove(&c);
                }
                Action::AddCommunity(_) | Action::SetLocalPref(_) | Action::Prepend(_) => {}
            }
        }
        Some(PathAttrs {
            origin: attrs.origin,
            as_path: attrs.as_path.prepended(own, prepends.chain([1])),
            next_hop,
            med,
            local_pref: None,
            atomic_aggregate: attrs.atomic_aggregate,
            aggregator: attrs.aggregator,
            communities,
            unknown: attrs.unknown.clone(),
        })
    }

    /// The policy's verdict on a route, in a value domain: `None` for a
    /// reject, else the rules whose actions the accepted route carries.
    /// This is the one interpreter of [`Rule`]s: [`apply`](Self::apply)
    /// runs it on the router's bag, the exploration twin on concolic
    /// values, so every rule's predicate is a branch whose constraint
    /// names the configuration.
    ///
    /// A rule's matches are joined with `band` and taken as the branch
    /// `POLICY_BASE + rule * 8 + slot % 8` (`slot`, the prefix's place in
    /// its UPDATE, keeps the NLRI entries' branches apart). The rules
    /// after one that fired without a verdict read the route through an
    /// overlay of its `AddCommunity`, `RemoveCommunity` and `Prepend` of
    /// `own`; `route` itself is not edited.
    pub fn decide<D: Domain>(
        &self,
        d: &mut D,
        prefix: (D::Word, D::Word),
        route: &impl RouteView<D::Word>,
        own: Asn,
        slot: usize,
    ) -> Option<Fired> {
        let mut fired = Fired::default();
        for (i, rule) in self.rules.iter().enumerate() {
            let edits = Edits {
                rules: &self.rules,
                fired: &fired,
                own,
            };
            let mut fires = d.lit(true);
            for m in &rule.matches {
                let hit = m.test(d, prefix, route, &edits);
                fires = d.band(fires, hit);
            }
            let site = sites::POLICY_BASE + (i as u32) * 8 + (slot as u32 % 8);
            if d.branch(site, fires) {
                match rule.verdict {
                    Some(Verdict::Reject) => return None,
                    Some(Verdict::Accept) => {
                        fired.insert(i);
                        return Some(fired);
                    }
                    None => fired.insert(i),
                }
            }
        }
        match self.default {
            Verdict::Accept => Some(fired),
            Verdict::Reject => None,
        }
    }

    /// Rough complexity measure (rule count + match/action arity), used by
    /// the code-vs-config experiment.
    pub fn complexity(&self) -> usize {
        self.rules
            .iter()
            .map(|r| 1 + r.matches.len() + r.actions.len())
            .sum()
    }
}

/// What the import decision reads of a route, as words of the domain it
/// runs in: the AS_PATH, the communities and the origin. The prefix
/// travels beside it, since an UPDATE announces several under one bag.
/// The router's view is its [`PathAttrs`]; the exploration twin's is the
/// sink its UPDATE validator fills.
pub trait RouteView<W> {
    /// The AS_PATH members, in order.
    fn members(&self) -> impl Iterator<Item = W> + '_;
    /// The first member, and whether its segment is an AS_SET.
    fn first(&self) -> Option<(W, bool)>;
    /// The last member, and whether its segment is an AS_SET.
    fn last(&self) -> Option<(W, bool)>;
    /// The AS_PATH length the decision process counts: one hop per
    /// sequence member, one per set.
    fn hops(&self) -> u32;
    /// The COMMUNITY values.
    fn communities(&self) -> impl Iterator<Item = W> + '_;
    /// The ORIGIN value.
    fn origin(&self) -> Option<W>;

    /// Whether the route carries `c`: any community equal to it. A view
    /// whose communities are concrete may answer with a lookup instead.
    fn carries<D: Domain<Word = W>>(&self, d: &mut D, c: Community) -> D::Bool {
        let mut any = d.lit(false);
        for comm in self.communities() {
            let eq = d.eq_const(comm, c.0 as u64);
            any = d.bor(any, eq);
        }
        any
    }
}

impl RouteView<u64> for PathAttrs {
    fn members(&self) -> impl Iterator<Item = u64> + '_ {
        self.as_path.all_asns().map(|a| a.0 as u64)
    }

    fn first(&self) -> Option<(u64, bool)> {
        let (asn, kind) = self.as_path.first_member()?;
        Some((asn.0 as u64, kind == SegmentKind::Set))
    }

    fn last(&self) -> Option<(u64, bool)> {
        let (asn, kind) = self.as_path.last_member()?;
        Some((asn.0 as u64, kind == SegmentKind::Set))
    }

    fn hops(&self) -> u32 {
        self.as_path.path_len()
    }

    fn communities(&self) -> impl Iterator<Item = u64> + '_ {
        self.communities.iter().map(|c| c.0 as u64)
    }

    fn origin(&self) -> Option<u64> {
        Some(self.origin as u64)
    }

    fn carries<D: Domain<Word = u64>>(&self, d: &mut D, c: Community) -> D::Bool {
        d.lit(self.has_community(c))
    }
}

/// Why [`screen_path`] drops an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathFault {
    /// The path holds the router's own AS: the announcements are ignored
    /// (RFC 4271 §9).
    Loop,
    /// The path does not start with the peer's AS: an UPDATE error
    /// (RFC 4271 §6.3).
    FirstAs,
}

/// The AS_PATH checks an eBGP router makes before its import policy, over
/// a value domain: the loop check (any member equal to `own`, branch
/// [`sites::LOOP_CHECK`]), then the first-AS check (the path starts with
/// `peer`, branch [`sites::FIRST_AS`]; a path led by an AS_SET has no
/// first AS).
pub fn screen_path<D: Domain>(
    d: &mut D,
    route: &impl RouteView<D::Word>,
    own: Asn,
    peer: Asn,
) -> Result<(), PathFault> {
    let mut has_own = d.lit(false);
    for asn in route.members() {
        let eq = d.eq_const(asn, own.0 as u64);
        has_own = d.bor(has_own, eq);
    }
    if d.branch(sites::LOOP_CHECK, has_own) {
        return Err(PathFault::Loop);
    }
    let first_ok = match route.first() {
        Some((asn, false)) => d.eq_const(asn, peer.0 as u64),
        _ => d.lit(false),
    };
    if d.branch(sites::FIRST_AS, first_ok) {
        Ok(())
    } else {
        Err(PathFault::FirstAs)
    }
}

/// The rules of a policy that fired and carry their actions into the
/// route: a bit each for the first 64, so a walk over a policy of up to
/// 64 rules allocates nothing, then their indices.
#[derive(Debug, Default)]
pub struct Fired {
    low: u64,
    high: Vec<usize>,
}

impl Fired {
    fn insert(&mut self, i: usize) {
        if i < 64 {
            self.low |= 1 << i;
        } else {
            self.high.push(i);
        }
    }

    /// No rule fired: what most walks find before their verdict.
    fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    fn contains(&self, i: usize) -> bool {
        if i < 64 {
            self.low & 1 << i != 0
        } else {
            self.high.contains(&i)
        }
    }

    /// The actions of the fired rules among `rules`, in order.
    fn actions<'p>(&'p self, rules: &'p [Rule]) -> impl Iterator<Item = &'p Action> + Clone {
        let fired = rules.iter().enumerate().filter(|(i, _)| self.contains(*i));
        fired.flat_map(|(_, rule)| &rule.actions)
    }
}

/// What the rules that fired without a verdict did to the route the
/// later rules read.
struct Edits<'p> {
    rules: &'p [Rule],
    fired: &'p Fired,
    own: Asn,
}

impl Edits<'_> {
    /// Hops of the router's own AS prepended.
    fn prepended(&self) -> u32 {
        if self.fired.is_empty() {
            return 0;
        }
        let prepends = self.fired.actions(self.rules).map(|a| match a {
            Action::Prepend(n) => *n as u32,
            _ => 0,
        });
        prepends.sum()
    }

    /// Whether an action decided that the route carries `c`: the last
    /// one that adds or removes it.
    fn community(&self, c: Community) -> Option<bool> {
        if self.fired.is_empty() {
            return None;
        }
        let edits = self.fired.actions(self.rules);
        edits.fold(None, |seen, a| match *a {
            Action::AddCommunity(k) if k == c => Some(true),
            Action::RemoveCommunity(k) if k == c => Some(false),
            _ => seen,
        })
    }
}

/// Communities used by the Gao–Rexford policy generator to tag where a
/// route was learned.
pub mod gao_rexford {
    use super::*;
    use crate::types::Community;

    /// Community tag: learned from a customer.
    pub fn tag_customer(asn: Asn) -> Community {
        Community::from_pair(asn.0, 1)
    }
    /// Community tag: learned from a peer.
    pub fn tag_peer(asn: Asn) -> Community {
        Community::from_pair(asn.0, 2)
    }
    /// Community tag: learned from a provider.
    pub fn tag_provider(asn: Asn) -> Community {
        Community::from_pair(asn.0, 3)
    }

    /// LOCAL_PREF assigned to customer routes.
    pub const LP_CUSTOMER: u32 = 200;
    /// LOCAL_PREF assigned to peer routes.
    pub const LP_PEER: u32 = 100;
    /// LOCAL_PREF assigned to provider routes.
    pub const LP_PROVIDER: u32 = 50;

    /// Import policy for a neighbor with the given role: tag and set
    /// LOCAL_PREF by the Gao–Rexford preference order
    /// (customer > peer > provider).
    pub fn import_policy(own: Asn, role: dice_netsim::NeighborRole) -> Policy {
        use dice_netsim::NeighborRole as R;
        let (lp, tag) = match role {
            R::Customer => (LP_CUSTOMER, tag_customer(own)),
            R::Peer => (LP_PEER, tag_peer(own)),
            R::Provider | R::Unlabeled => (LP_PROVIDER, tag_provider(own)),
        };
        Policy {
            name: format!("gr-import-{:?}", role).to_lowercase(),
            rules: vec![Rule {
                matches: vec![Match::Any],
                actions: vec![Action::SetLocalPref(lp), Action::AddCommunity(tag)],
                verdict: Some(Verdict::Accept),
            }],
            default: Verdict::Accept,
        }
    }

    /// Export policy toward a neighbor with the given role: the
    /// no-valley rule — routes learned from peers/providers are exported
    /// only to customers.
    pub fn export_policy(own: Asn, role: dice_netsim::NeighborRole) -> Policy {
        use dice_netsim::NeighborRole as R;
        match role {
            // To customers: everything.
            R::Customer => Policy::accept_all(format!("gr-export-{role:?}").to_lowercase()),
            // To peers and providers: own routes + customer routes only.
            R::Peer | R::Provider | R::Unlabeled => Policy {
                name: format!("gr-export-{role:?}").to_lowercase(),
                rules: vec![
                    Rule::reject(vec![Match::HasCommunity(tag_peer(own))]),
                    Rule::reject(vec![Match::HasCommunity(tag_provider(own))]),
                ],
                default: Verdict::Accept,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::net;

    fn attrs_with_path(asns: &[u16]) -> PathAttrs {
        PathAttrs {
            as_path: crate::attrs::AsPath::sequence(asns.iter().copied()),
            next_hop: crate::types::Ipv4Addr(0x0A000001),
            ..Default::default()
        }
    }

    #[test]
    fn prefix_filter_range() {
        let f = PrefixFilter {
            net: net("10.0.0.0/8"),
            min_len: 16,
            max_len: 24,
        };
        assert!(f.matches(&net("10.1.0.0/16")));
        assert!(f.matches(&net("10.1.2.0/24")));
        assert!(!f.matches(&net("10.0.0.0/8")), "too short");
        assert!(!f.matches(&net("10.1.2.128/25")), "too long");
        assert!(!f.matches(&net("11.0.0.0/16")), "outside base");
    }

    #[test]
    fn exact_and_or_longer() {
        let e = PrefixFilter::exact(net("192.0.2.0/24"));
        assert!(e.matches(&net("192.0.2.0/24")));
        assert!(!e.matches(&net("192.0.2.0/25")));
        let o = PrefixFilter::or_longer(net("192.0.2.0/24"));
        assert!(o.matches(&net("192.0.2.0/25")));
        assert!(o.matches(&net("192.0.2.128/26")));
        assert!(!o.matches(&net("192.0.0.0/16")));
    }

    #[test]
    fn first_match_wins() {
        let p = Policy {
            name: "t".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::PrefixIn(vec![PrefixFilter::or_longer(net(
                        "10.0.0.0/8",
                    ))])],
                    actions: vec![Action::SetLocalPref(500)],
                    verdict: Some(Verdict::Accept),
                },
                Rule::reject(vec![Match::Any]),
            ],
            default: Verdict::Reject,
        };
        let a = attrs_with_path(&[65002]);
        let hit = p.apply(&net("10.1.0.0/16"), &a, Asn(65001)).unwrap();
        assert_eq!(hit.local_pref, Some(500));
        assert!(p.apply(&net("172.16.0.0/12"), &a, Asn(65001)).is_none());
    }

    #[test]
    fn non_terminal_rules_accumulate() {
        let p = Policy {
            name: "t".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::Any],
                    actions: vec![Action::AddCommunity(Community::from_pair(1, 1))],
                    verdict: None,
                },
                Rule {
                    matches: vec![Match::Any],
                    actions: vec![Action::AddCommunity(Community::from_pair(1, 2))],
                    verdict: Some(Verdict::Accept),
                },
            ],
            default: Verdict::Reject,
        };
        let out = p
            .apply(&net("10.0.0.0/8"), attrs_with_path(&[2]), Asn(1))
            .unwrap();
        assert!(out.has_community(Community::from_pair(1, 1)));
        assert!(out.has_community(Community::from_pair(1, 2)));
    }

    #[test]
    fn edits_reach_later_rules_past_64() {
        // Rules 70 and 71 fire without a verdict, beyond the inline bits.
        let c = Community::from_pair(1, 9);
        let mut rules = vec![Rule::reject(vec![Match::HasCommunity(c)]); 70];
        rules.push(Rule {
            matches: vec![Match::Any],
            actions: vec![Action::AddCommunity(c)],
            verdict: None,
        });
        rules.push(Rule {
            matches: vec![Match::Any],
            actions: vec![Action::Prepend(2)],
            verdict: None,
        });
        let mut p = Policy {
            name: "t".into(),
            rules,
            default: Verdict::Accept,
        };
        let a = attrs_with_path(&[2]);
        let out = p.apply(&net("10.0.0.0/8"), &a, Asn(1)).unwrap();
        assert!(out.has_community(c));
        assert_eq!(out.as_path.path_len(), 3);
        p.rules.push(Rule::reject(vec![
            Match::HasCommunity(c),
            Match::AsPathLenAtMost(3),
            Match::AsPathContains(Asn(1)),
        ]));
        assert!(p.apply(&net("10.0.0.0/8"), &a, Asn(1)).is_none());
    }

    #[test]
    fn aspath_matches() {
        let a = attrs_with_path(&[65002, 65003, 65004]);
        assert!(Match::AsPathContains(Asn(65003)).eval(&net("10.0.0.0/8"), &a));
        assert!(!Match::AsPathContains(Asn(65009)).eval(&net("10.0.0.0/8"), &a));
        assert!(Match::OriginatedBy(Asn(65004)).eval(&net("10.0.0.0/8"), &a));
        assert!(!Match::OriginatedBy(Asn(65002)).eval(&net("10.0.0.0/8"), &a));
        assert!(Match::AsPathLenAtMost(3).eval(&net("10.0.0.0/8"), &a));
        assert!(!Match::AsPathLenAtMost(2).eval(&net("10.0.0.0/8"), &a));
    }

    #[test]
    fn actions_transform() {
        let mut a = attrs_with_path(&[65002]);
        Action::SetLocalPref(250).apply(&mut a, Asn(65001));
        Action::SetMed(10).apply(&mut a, Asn(65001));
        Action::AddCommunity(Community::from_pair(65001, 7)).apply(&mut a, Asn(65001));
        Action::Prepend(2).apply(&mut a, Asn(65001));
        assert_eq!(a.local_pref, Some(250));
        assert_eq!(a.med, Some(10));
        assert!(a.has_community(Community::from_pair(65001, 7)));
        assert_eq!(a.as_path.path_len(), 3);
        assert_eq!(a.as_path.first_asn(), Some(Asn(65001)));
        Action::RemoveCommunity(Community::from_pair(65001, 7)).apply(&mut a, Asn(65001));
        assert!(!a.has_community(Community::from_pair(65001, 7)));
    }

    #[test]
    fn default_verdicts() {
        let acc = Policy::accept_all("a");
        let rej = Policy::reject_all("r");
        let a = attrs_with_path(&[2]);
        assert!(acc.apply(&net("10.0.0.0/8"), &a, Asn(1)).is_some());
        assert!(rej.apply(&net("10.0.0.0/8"), &a, Asn(1)).is_none());
    }

    #[test]
    fn gao_rexford_no_valley() {
        use dice_netsim::NeighborRole as R;
        let own = Asn(65001);
        // Route learned from a peer, tagged by import...
        let imported = gao_rexford::import_policy(own, R::Peer)
            .apply(&net("10.0.0.0/8"), attrs_with_path(&[65002]), own)
            .unwrap()
            .into_owned();
        assert_eq!(imported.local_pref, Some(gao_rexford::LP_PEER));
        // ...must not be exported to another peer or a provider.
        assert!(gao_rexford::export_policy(own, R::Peer)
            .apply(&net("10.0.0.0/8"), &imported, own)
            .is_none());
        assert!(gao_rexford::export_policy(own, R::Provider)
            .apply(&net("10.0.0.0/8"), &imported, own)
            .is_none());
        // ...but may be exported to a customer.
        assert!(gao_rexford::export_policy(own, R::Customer)
            .apply(&net("10.0.0.0/8"), &imported, own)
            .is_some());
    }

    #[test]
    fn gao_rexford_customer_routes_go_everywhere() {
        use dice_netsim::NeighborRole as R;
        let own = Asn(65001);
        let imported = gao_rexford::import_policy(own, R::Customer)
            .apply(&net("10.0.0.0/8"), attrs_with_path(&[65002]), own)
            .unwrap()
            .into_owned();
        assert_eq!(imported.local_pref, Some(gao_rexford::LP_CUSTOMER));
        for role in [R::Customer, R::Peer, R::Provider] {
            assert!(
                gao_rexford::export_policy(own, role)
                    .apply(&net("10.0.0.0/8"), &imported, own)
                    .is_some(),
                "customer routes export to {role:?}"
            );
        }
    }

    #[test]
    fn complexity_counts() {
        let p = Policy {
            name: "c".into(),
            rules: vec![Rule {
                matches: vec![Match::Any, Match::OriginIs(Origin::Igp)],
                actions: vec![Action::SetMed(1)],
                verdict: Some(Verdict::Accept),
            }],
            default: Verdict::Accept,
        };
        assert_eq!(p.complexity(), 4);
        assert_eq!(Policy::accept_all("x").complexity(), 0);
    }
}
