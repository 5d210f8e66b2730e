//! Differential tests of the two mechanisms `dice-bgp` owns on the UPDATE
//! path: the decide-before-copy policy evaluator against a clone-first
//! reference, and the prefix-major Adj-RIBs against a flat
//! `(peer, prefix)`-keyed model.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use dice_bench::{allocations as allocs, CountingAlloc};
use dice_bgp::policy::gao_rexford;
use dice_bgp::{
    Action, AdjRibIn, AdjRibOut, AsPath, AsPathSegment, Asn, Community, Ipv4Addr, Ipv4Net, Match,
    Origin, PathAttrs, Policy, PrefixFilter, Route, Rule, SegmentKind, Verdict,
};
use dice_netsim::NodeId;
use proptest::prelude::*;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OWN: Asn = Asn(65001);

// Small domains, so that matches fire and actions collide.

fn arb_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![Just(OWN), (1u16..6).prop_map(Asn)]
}

fn arb_community() -> impl Strategy<Value = Community> {
    (0u16..3, 0u16..3).prop_map(|(a, v)| Community::from_pair(65001 - a, v))
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Net> {
    (0u32..4, prop_oneof![Just(8u8), Just(16), Just(24)])
        .prop_map(|(net, len)| Ipv4Net::new(0x0A00_0000 + (net << 16), len))
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

fn arb_attrs() -> impl Strategy<Value = PathAttrs> {
    let segment = (
        prop_oneof![Just(SegmentKind::Sequence), Just(SegmentKind::Set)],
        prop::collection::vec(arb_asn(), 1..4),
    )
        .prop_map(|(kind, asns)| AsPathSegment { kind, asns });
    (
        arb_origin(),
        prop::collection::vec(segment, 0..3),
        prop::option::of(0u32..3),
        prop::option::of(0u32..3),
        prop::collection::btree_set(arb_community(), 0..4),
    )
        .prop_map(
            |(origin, segments, med, local_pref, communities)| PathAttrs {
                origin,
                as_path: AsPath { segments },
                next_hop: Ipv4Addr(0x0A00_0001),
                med,
                local_pref,
                communities,
                ..PathAttrs::default()
            },
        )
}

fn arb_match() -> impl Strategy<Value = Match> {
    let filter = (arb_prefix(), 0u8..3, 0u8..3).prop_map(|(net, lo, hi)| PrefixFilter {
        net,
        min_len: net.len() + 4 * lo.min(hi),
        max_len: net.len() + 4 * lo.max(hi),
    });
    prop_oneof![
        prop::collection::vec(filter, 1..3).prop_map(Match::PrefixIn),
        (0u8..3, 0u8..3).prop_map(|(a, b)| Match::PrefixLenIn {
            min: 8 + 8 * a.min(b),
            max: 8 + 8 * a.max(b),
        }),
        arb_asn().prop_map(Match::AsPathContains),
        (0u32..5).prop_map(Match::AsPathLenAtMost),
        arb_asn().prop_map(Match::OriginatedBy),
        arb_community().prop_map(Match::HasCommunity),
        arb_origin().prop_map(Match::OriginIs),
        Just(Match::Any),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u32..3).prop_map(Action::SetLocalPref),
        (0u32..3).prop_map(Action::SetMed),
        arb_community().prop_map(Action::AddCommunity),
        arb_community().prop_map(Action::RemoveCommunity),
        (0u8..3).prop_map(Action::Prepend),
    ]
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![Just(Verdict::Accept), Just(Verdict::Reject)]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    let rule = (
        prop::collection::vec(arb_match(), 0..3),
        prop::collection::vec(arb_action(), 0..3),
        prop::option::of(arb_verdict()),
    )
        .prop_map(|(matches, actions, verdict)| Rule {
            matches,
            actions,
            verdict,
        });
    (prop::collection::vec(rule, 0..5), arb_verdict()).prop_map(|(rules, default)| Policy {
        name: "p".into(),
        rules,
        default,
    })
}

/// The evaluator as it was before it learnt to decide first: copy the bag,
/// then interpret. Also reports whether any action ran.
fn clone_first(policy: &Policy, prefix: &Ipv4Net, attrs: &PathAttrs) -> (Option<PathAttrs>, bool) {
    let mut out = attrs.clone();
    let mut edited = false;
    for rule in &policy.rules {
        if rule.matches.iter().all(|m| m.eval(prefix, &out)) {
            let terminal_reject = rule.verdict == Some(Verdict::Reject);
            for a in &rule.actions {
                a.apply(&mut out, OWN);
                edited |= !terminal_reject;
            }
            match rule.verdict {
                Some(Verdict::Accept) => return (Some(out), edited),
                Some(Verdict::Reject) => return (None, edited),
                None => {}
            }
        }
    }
    match policy.default {
        Verdict::Accept => (Some(out), edited),
        Verdict::Reject => (None, edited),
    }
}

proptest! {
    #[test]
    fn borrowing_evaluator_equals_clone_first_reference(
        policy in arb_policy(),
        prefix in arb_prefix(),
        attrs in arb_attrs(),
    ) {
        let (want, edited) = clone_first(&policy, &prefix, &attrs);

        let before = allocs();
        let got = policy.apply(&prefix, &attrs, OWN);
        let spent = allocs() - before;
        prop_assert_eq!(got.as_deref(), want.as_ref());
        if !edited {
            // No action ran on a bag anyone will see: a `Reject` came for
            // free and an `Accept` hands the caller's bag back.
            prop_assert_eq!(spent, 0);
            prop_assert!(!matches!(got, Some(Cow::Owned(_))));
        }

        // An owned bag is edited in place; same verdict, same result.
        let owned = policy.apply(&prefix, attrs.clone(), OWN);
        prop_assert_eq!(owned.as_deref(), want.as_ref());
    }
}

#[test]
fn valley_free_reject_allocates_nothing() {
    // The case the fan-out meets most: a peer-learned route offered to a
    // peer or a provider.
    let imported = gao_rexford::import_policy(OWN, dice_netsim::NeighborRole::Peer)
        .apply(
            &Ipv4Net::new(0x0A00_0000, 8),
            PathAttrs {
                as_path: AsPath::sequence([65002, 65003]),
                ..PathAttrs::default()
            },
            OWN,
        )
        .expect("import accepts")
        .into_owned();
    let export = gao_rexford::export_policy(OWN, dice_netsim::NeighborRole::Provider);
    let before = allocs();
    let verdict = export.apply(&Ipv4Net::new(0x0A00_0000, 8), &imported, OWN);
    assert_eq!(allocs() - before, 0);
    assert!(verdict.is_none());
}

/// One step of a RIB history.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Ipv4Net, u16),
    Remove(u32, Ipv4Net),
    FlushIn(u32),
    Advertise(u32, Ipv4Net, u16),
    Withdraw(u32, Ipv4Net),
    FlushOut(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let peer = || 0u32..5;
    let bag = || 0u16..3;
    prop_oneof![
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Insert(q, p, b)),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Insert(q, p, b)),
        (peer(), arb_prefix()).prop_map(|(q, p)| Op::Remove(q, p)),
        peer().prop_map(Op::FlushIn),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Advertise(q, p, b)),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Advertise(q, p, b)),
        (peer(), arb_prefix()).prop_map(|(q, p)| Op::Withdraw(q, p)),
        peer().prop_map(Op::FlushOut),
    ]
}

fn bag(id: u16) -> Arc<PathAttrs> {
    Arc::new(PathAttrs {
        as_path: AsPath::sequence([65000 + id]),
        ..PathAttrs::default()
    })
}

/// The prefixes `peer` has a row for, in order, then without those rows.
fn flush_model<T>(model: &mut BTreeMap<(u32, Ipv4Net), T>, peer: u32) -> Vec<Ipv4Net> {
    let gone: Vec<Ipv4Net> = model
        .keys()
        .filter(|(q, _)| *q == peer)
        .map(|(_, p)| *p)
        .collect();
    model.retain(|(q, _), _| *q != peer);
    gone
}

proptest! {
    #[test]
    fn prefix_major_ribs_equal_a_flat_model(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut rib_in = AdjRibIn::default();
        let mut rib_out = AdjRibOut::default();
        let mut model_in: BTreeMap<(u32, Ipv4Net), Route> = BTreeMap::new();
        let mut model_out: BTreeMap<(u32, Ipv4Net), Arc<PathAttrs>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(q, p, b) => {
                    let route = Route { attrs: bag(b), from_peer: Some(q), peer_router_id: q };
                    rib_in.insert(NodeId(q), p, route.clone());
                    model_in.insert((q, p), route);
                }
                Op::Remove(q, p) => {
                    prop_assert_eq!(rib_in.remove(NodeId(q), &p), model_in.remove(&(q, p)).is_some());
                }
                Op::FlushIn(q) => {
                    prop_assert_eq!(rib_in.flush_peer(NodeId(q)), flush_model(&mut model_in, q));
                }
                Op::Advertise(q, p, b) => {
                    let changed = model_out.get(&(q, p)) != Some(&bag(b));
                    model_out.insert((q, p), bag(b));
                    prop_assert_eq!(rib_out.advertise(NodeId(q), p, bag(b)), changed);
                }
                Op::Withdraw(q, p) => {
                    prop_assert_eq!(rib_out.withdraw(NodeId(q), &p), model_out.remove(&(q, p)).is_some());
                }
                Op::FlushOut(q) => {
                    rib_out.flush_peer(NodeId(q));
                    flush_model(&mut model_out, q);
                }
            }

            prop_assert_eq!(rib_in.route_count(), model_in.len());
            prop_assert_eq!(rib_in.approx_bytes(), model_in.len() * 64);
            prop_assert_eq!(rib_out.route_count(), model_out.len());
            prop_assert_eq!(rib_out.approx_bytes(), model_out.len() * 64);
            let mut prefixes: Vec<Ipv4Net> = model_in.keys().map(|(_, p)| *p).collect();
            prefixes.sort_unstable();
            prefixes.dedup();
            prop_assert_eq!(rib_in.all_prefixes(), prefixes);
            for net in 0..4 {
                for len in [8, 16, 24] {
                    let p = Ipv4Net::new(0x0A00_0000 + (net << 16), len);
                    // Keyed `(peer, prefix)`, the model yields one prefix's
                    // routes in ascending peer id: the order `select` sees.
                    let want: Vec<&Route> = model_in
                        .iter()
                        .filter(|((_, at), _)| *at == p)
                        .map(|(_, route)| route)
                        .collect();
                    prop_assert_eq!(rib_in.candidates(&p).collect::<Vec<_>>(), want);
                    for q in 0..5 {
                        prop_assert_eq!(rib_in.get(NodeId(q), &p), model_in.get(&(q, p)));
                        prop_assert_eq!(
                            rib_out.sent(NodeId(q), &p),
                            model_out.get(&(q, p)).map(Arc::as_ref)
                        );
                    }
                }
            }
        }
    }
}
