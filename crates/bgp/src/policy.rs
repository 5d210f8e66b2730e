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

use crate::attrs::{Origin, PathAttrs};
use crate::types::{Asn, Community, Ipv4Net};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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
    /// Decide before copying: matches read the bag as it was passed, a
    /// borrowed bag is copied at the first action of a firing rule that
    /// does not reject, and is handed back borrowed when no action fired —
    /// a `Reject` that no earlier action precedes allocates nothing. A
    /// caller that owns its bag passes it by value and no copy is made.
    ///
    /// This interpreter is deliberately written as a sequence of
    /// data-dependent branches — its concolic twin in `dice-core` mirrors it
    /// branch for branch.
    pub fn apply<'a>(
        &self,
        prefix: &Ipv4Net,
        attrs: impl Into<Cow<'a, PathAttrs>>,
        own_asn: Asn,
    ) -> Option<Cow<'a, PathAttrs>> {
        let mut out = attrs.into();
        for rule in &self.rules {
            let fires = rule.matches.iter().all(|m| m.eval(prefix, &out));
            if fires {
                if rule.verdict == Some(Verdict::Reject) {
                    // Its actions would edit a bag nobody will see.
                    return None;
                }
                for a in &rule.actions {
                    a.apply(out.to_mut(), own_asn);
                }
                if rule.verdict == Some(Verdict::Accept) {
                    return Some(out);
                }
            }
        }
        match self.default {
            Verdict::Accept => Some(out),
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
