//! Differential tests of the two mechanisms `dice-bgp` owns on the UPDATE
//! path: the decide-before-copy policy evaluator against a clone-first
//! reference, and the prefix-major, copy-on-write RIB against flat
//! `BTreeMap` models of its three parts. The evaluator, `Policy::apply`,
//! is the domain-generic rule walk (`Policy::decide`) that the exploration
//! twin also runs, here on concrete values; the reference is written with
//! `Match::eval` and `Action::apply`, so this is where the walk's semantics
//! are checked.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dice_bench::{allocations as allocs, CountingAlloc};
use dice_bgp::policy::gao_rexford;
use dice_bgp::{
    Action, AsPath, AsPathSegment, Asn, Community, DecisionReason, Ipv4Addr, Ipv4Net, Match,
    Origin, PathAttrs, Policy, PrefixFilter, Rib, Route, Rule, SegmentKind, Selected, Verdict,
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

/// The prefix lengths drawn: byte-aligned, between bytes, and shorter
/// than a `/8`.
const LENS: [u8; 10] = [4, 5, 6, 7, 8, 12, 15, 16, 20, 24];

fn arb_prefix() -> impl Strategy<Value = Ipv4Net> {
    (0u32..4, 0..LENS.len()).prop_map(|(net, i)| Ipv4Net::new(0x0A00_0000 + (net << 16), LENS[i]))
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
                as_path: segments.into_iter().collect(),
                next_hop: Ipv4Addr(0x0A00_0001),
                med,
                local_pref,
                communities: communities.into_iter().collect(),
                ..PathAttrs::default()
            },
        )
}

fn arb_match() -> impl Strategy<Value = Match> {
    // `min_len` from below the filter's own length to past it.
    let filter =
        (arb_prefix(), 0u8..3, 0u8..3, 0u8..3).prop_map(|(net, below, lo, hi)| PrefixFilter {
            net,
            min_len: (net.len() + 4 * lo.min(hi)).saturating_sub(4 * below),
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
    Install(u32, Ipv4Net, u16, bool),
    Uninstall(Ipv4Net),
    Advertise(u32, Ipv4Net, u16),
    Withdraw(u32, Ipv4Net),
    Flush(u32),
    /// Snapshot the table as a checkpoint is taken: later writes must not
    /// reach it.
    Copy,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let peer = || 0u32..5;
    let bag = || 0u16..3;
    prop_oneof![
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Insert(q, p, b)),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Insert(q, p, b)),
        (peer(), arb_prefix()).prop_map(|(q, p)| Op::Remove(q, p)),
        (peer(), arb_prefix(), bag(), any::<bool>())
            .prop_map(|(q, p, b, r)| Op::Install(q, p, b, r)),
        arb_prefix().prop_map(Op::Uninstall),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Advertise(q, p, b)),
        (peer(), arb_prefix(), bag()).prop_map(|(q, p, b)| Op::Advertise(q, p, b)),
        (peer(), arb_prefix()).prop_map(|(q, p)| Op::Withdraw(q, p)),
        peer().prop_map(Op::Flush),
        Just(Op::Copy),
    ]
}

fn bag(id: u16) -> Arc<PathAttrs> {
    Arc::new(PathAttrs {
        as_path: AsPath::sequence([65000 + id]),
        ..PathAttrs::default()
    })
}

fn route(peer: u32, id: u16) -> Route {
    Route {
        attrs: bag(id),
        from_peer: Some(peer),
        peer_router_id: peer,
    }
}

/// Every prefix `arb_prefix` draws, ascending.
fn prefixes() -> impl Iterator<Item = Ipv4Net> {
    let all =
        (0..4u32).flat_map(|net| LENS.map(|len| Ipv4Net::new(0x0A00_0000 + (net << 16), len)));
    all.collect::<BTreeSet<_>>().into_iter()
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

/// The RIB as flat maps, written the way the three tables it replaced
/// wrote theirs: rows keyed `(peer, prefix)`, and a best route per prefix
/// whose every change — an install of a different route, a withdraw of a
/// present one — bumps the prefix's flip count.
#[derive(Debug, Clone, Default)]
struct Model {
    rows_in: BTreeMap<(u32, Ipv4Net), Route>,
    best: BTreeMap<Ipv4Net, Selected>,
    flips: BTreeMap<Ipv4Net, u64>,
    rows_out: BTreeMap<(u32, Ipv4Net), Arc<PathAttrs>>,
}

impl Model {
    /// Everything the model holds for `prefix`, to tell which prefixes a
    /// step changed.
    fn at(&self, prefix: Ipv4Net) -> String {
        let rows = |q: &u32, p: &Ipv4Net| (*p == prefix).then_some(*q);
        let ins: Vec<_> = self
            .rows_in
            .iter()
            .filter_map(|((q, p), r)| rows(q, p).map(|q| (q, r)))
            .collect();
        let outs: Vec<_> = self
            .rows_out
            .iter()
            .filter_map(|((q, p), a)| rows(q, p).map(|q| (q, a)))
            .collect();
        format!(
            "{ins:?} {:?} {:?} {outs:?}",
            self.best.get(&prefix),
            self.flips.get(&prefix)
        )
    }

    /// Apply a write to the model and to `rib`, asserting both report the
    /// same outcome.
    fn step(&mut self, rib: &mut Rib, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Insert(q, p, b) => {
                rib.insert(NodeId(q), p, route(q, b));
                self.rows_in.insert((q, p), route(q, b));
            }
            Op::Remove(q, p) => {
                prop_assert_eq!(
                    rib.remove(NodeId(q), &p),
                    self.rows_in.remove(&(q, p)).is_some()
                );
            }
            Op::Install(q, p, b, tie) => {
                let reason = if tie {
                    DecisionReason::RouterId
                } else {
                    DecisionReason::OnlyRoute
                };
                let changed = self.best.get(&p).is_none_or(|sel| sel.route != route(q, b));
                if changed {
                    *self.flips.entry(p).or_insert(0) += 1;
                    self.best.insert(
                        p,
                        Selected {
                            route: route(q, b),
                            reason,
                        },
                    );
                }
                prop_assert_eq!(rib.install(p, route(q, b), reason), changed);
            }
            Op::Uninstall(p) => {
                let removed = self.best.remove(&p).is_some();
                if removed {
                    *self.flips.entry(p).or_insert(0) += 1;
                }
                prop_assert_eq!(rib.uninstall(&p), removed);
            }
            Op::Advertise(q, p, b) => {
                let changed = self.rows_out.get(&(q, p)) != Some(&bag(b));
                self.rows_out.insert((q, p), bag(b));
                prop_assert_eq!(rib.advertise(NodeId(q), p, bag(b)), changed);
            }
            Op::Withdraw(q, p) => {
                prop_assert_eq!(
                    rib.withdraw(NodeId(q), &p),
                    self.rows_out.remove(&(q, p)).is_some()
                );
            }
            Op::Flush(q) => {
                let flushed = flush_model(&mut self.rows_in, q);
                flush_model(&mut self.rows_out, q);
                prop_assert_eq!(rib.flush_peer(NodeId(q)), flushed);
            }
            Op::Copy => {}
        }
        Ok(())
    }

    /// `rib` reads exactly what the model holds, through every reader.
    fn check(&self, rib: &Rib) -> Result<(), TestCaseError> {
        let best: Vec<(Ipv4Net, &Selected)> = rib.iter().map(|(p, sel)| (*p, sel)).collect();
        let want: Vec<(Ipv4Net, &Selected)> = self.best.iter().map(|(p, sel)| (*p, sel)).collect();
        prop_assert_eq!(best, want);
        prop_assert_eq!(rib.len(), self.best.len());
        prop_assert_eq!(rib.is_empty(), self.best.is_empty());
        let flips: Vec<(Ipv4Net, u64)> = self.flips.iter().map(|(p, n)| (*p, *n)).collect();
        prop_assert_eq!(rib.flips().collect::<Vec<_>>(), flips);
        prop_assert_eq!(rib.total_flips(), self.flips.values().sum::<u64>());
        prop_assert_eq!(rib.route_count(), self.rows_in.len());
        prop_assert_eq!(rib.sent_count(), self.rows_out.len());
        prop_assert_eq!(
            rib.approx_bytes(),
            self.rows_in.len() * 64
                + self.best.len() * 72
                + self.flips.len() * 12
                + self.rows_out.len() * 64
        );
        for p in prefixes() {
            prop_assert_eq!(rib.best(&p), self.best.get(&p));
            // Keyed `(peer, prefix)`, the model yields one prefix's
            // routes in ascending peer id: the order `select` sees.
            let want: Vec<&Route> = self
                .rows_in
                .iter()
                .filter(|((_, at), _)| *at == p)
                .map(|(_, route)| route)
                .collect();
            prop_assert_eq!(rib.candidates(&p).collect::<Vec<_>>(), want);
            for q in 0..5 {
                prop_assert_eq!(rib.get(NodeId(q), &p), self.rows_in.get(&(q, p)));
                prop_assert_eq!(
                    rib.sent(NodeId(q), &p),
                    self.rows_out.get(&(q, p)).map(Arc::as_ref)
                );
            }
        }
        Ok(())
    }
}

/// A copy taken mid-history: the table, what it held then, and the
/// prefixes the live table has changed since.
struct Checkpoint {
    rib: Rib,
    model: Model,
    written: BTreeSet<Ipv4Net>,
}

proptest! {
    #[test]
    fn prefix_major_ribs_equal_a_flat_model(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut rib = Rib::default();
        let mut model = Model::default();
        let mut copies: Vec<Checkpoint> = Vec::new();
        for op in &ops {
            if let Op::Copy = op {
                copies.push(Checkpoint { rib: rib.clone(), model: model.clone(), written: BTreeSet::new() });
            }
            let before: Vec<String> = prefixes().map(|p| model.at(p)).collect();
            model.step(&mut rib, op)?;
            model.check(&rib)?;
            // An insert writes the prefix it names even when it stores
            // the route already there; every other write looks first.
            let named = match *op { Op::Insert(_, p, _) => Some(p), _ => None };
            for (p, was) in prefixes().zip(before) {
                if model.at(p) != was || named == Some(p) {
                    for copy in &mut copies {
                        copy.written.insert(p);
                    }
                }
            }
            for copy in &copies {
                // Every earlier copy still reads exactly what it held ...
                copy.model.check(&copy.rib)?;
                // ... and shares, by pointer, every entry no later write
                // changed — all of the table while nothing was written.
                prop_assert_eq!(rib.shares_table(&copy.rib), copy.written.is_empty());
                for p in prefixes().filter(|p| !copy.written.contains(p)) {
                    let held = copy.rib.best(&p).is_some()
                        || copy.model.flips.contains_key(&p)
                        || copy.rib.candidates(&p).next().is_some()
                        || (0..5).any(|q| copy.rib.sent(NodeId(q), &p).is_some());
                    prop_assert_eq!(rib.shares_entry(&copy.rib, &p), held, "{}", p);
                }
            }
        }
    }
}
