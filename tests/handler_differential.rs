//! Differential tests: the router's UPDATE twin (`dice_bgp::UpdateTwin`
//! run as a `DomainProgram`, what exploration runs) must classify every
//! UPDATE as the router does — accept, policy reject, structural reject or
//! crash. Both run the same code in two value domains (the router on
//! concrete values, the twin on concolic ones): the wire validator
//! `dice_bgp::wire::validate_update`, the path screen
//! `dice_bgp::policy::screen_path` and the policy walk `Policy::decide`.
//! So agreement holds by construction, and this file guards what does not
//! follow from the types: that the two domains and the two route views
//! (the router's `PathAttrs`, the twin's validator sink) agree on every
//! bound — on a bound grid, on grammar-generated, mutated and arbitrary
//! messages, under generated policies (AS_SETs, actions, prefix filters
//! around their own length), clean and buggy configuration — and, in the
//! probes, that what both do is what the router should do.
//! `bgp_twin_paths_are_pinned` holds the twin's branches. The walk itself
//! is held to `Match::eval` / `Action::apply` by `dice-bgp`'s own
//! differential.
//!
//! The grid and the probes run a real router whose session to the peer is
//! established (`router_class`). The property tests compare against
//! `reference_class`: the router's bug-aware decode, then its
//! `handle_update` checks with `AsPath` and `Policy::apply`; the grid holds
//! it equal to the real router.
//!
//! Break it once: make the twin's sink count every AS_PATH member as a hop
//! (`SymUpdate::asn` in `bgp/src/twin.rs`), and
//! `probe_as_set_counts_one_hop` and `agrees_at_every_bound` go red.

mod outcomes;

use std::collections::BTreeSet;

use dice_system::bgp::attrs::{code, flags};
use dice_system::bgp::wire::{decode_with, Verdict as Wire};
use dice_system::bgp::{
    encode, net, Action, AsPath, AsPathSegment, Asn, BgpRouter, Community, Ipv4Addr, Ipv4Net,
    Match, Message, Origin, PathAttrs, Policy, PrefixFilter, RawAttr, RouterConfig, RouterId,
    RouterStats, Rule, SegmentKind, UpdateMsg, Verdict,
};
use dice_system::concolic::{ConcolicCtx, ConcolicProgram, ExprArena, ExprId, RunStatus, SymInput};
use dice_system::dice::bgp_sut::minimal_seed;
use dice_system::dice::hash::hex;
use dice_system::dice::{mark_update, DomainProgram, Sha256, UpdateGrammar};
use dice_system::netsim::{LinkParams, NodeId, SimDuration, SimTime, Simulator, Topology};
use proptest::prelude::*;

const OWN: Asn = Asn(65001);
const PEER: Asn = Asn(65002);
/// The router under test is node 1 of a two-router line; its peer node 0.
const PEER_NODE: NodeId = NodeId(0);

/// The router's decode with its bug switches, then what `handle_update`
/// decides of an announcement: the AS-path loop and first-AS checks, then
/// the import policy on every prefix.
fn reference_class(cfg: &RouterConfig, bytes: &[u8]) -> Class {
    let update = match decode_with(bytes, cfg.bugs) {
        Ok((Message::Update(u), _)) => u,
        Ok(_) | Err(Wire::Reject(_)) => return Class::Reject,
        Err(Wire::Crash(_)) => return Class::Crash,
    };
    let Some(attrs) = update.attrs.as_ref().filter(|_| !update.nlri.is_empty()) else {
        return Class::Accept;
    };
    if attrs.as_path.contains(OWN) || attrs.as_path.first_asn() != Some(PEER) {
        return Class::Reject;
    }
    let import = &cfg.policies["imp"];
    if update
        .nlri
        .iter()
        .all(|p| import.apply(p, attrs, OWN).is_some())
    {
        Class::Accept
    } else {
        Class::PolicyReject
    }
}

/// How a handler disposes of one UPDATE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Accept,
    PolicyReject,
    Reject,
    Crash,
}

fn class_of(status: RunStatus) -> Class {
    match status {
        RunStatus::Ok => Class::Accept,
        RunStatus::Rejected(stage) if stage == "import-policy" => Class::PolicyReject,
        RunStatus::Rejected(_) => Class::Reject,
        RunStatus::Crash(_) => Class::Crash,
    }
}

fn twin_class(cfg: &RouterConfig, bytes: &[u8]) -> Class {
    let mut twin = DomainProgram(BgpRouter::new(cfg.clone()).update_twin(PEER_NODE).unwrap());
    let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
    class_of(twin.run(&mut ctx))
}

fn stats(sim: &Simulator) -> RouterStats {
    let node = sim.node(NodeId(1)).as_any();
    node.downcast_ref::<BgpRouter>().expect("a router").stats()
}

/// The real router, its session to the peer established, receives `bytes`
/// from the peer: it crashes, drops the UPDATE with a NOTIFICATION or
/// for an AS-path loop, filters it at import, or takes it.
fn router_class(cfg: &RouterConfig, bytes: &[u8]) -> Class {
    let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(1)));
    let mut sim = Simulator::new(topo, 1);
    let peer = RouterConfig::minimal(PEER, RouterId(2)).with_neighbor(NodeId(1), OWN, "all", "all");
    sim.set_node(PEER_NODE, Box::new(BgpRouter::new(peer)));
    sim.set_node(NodeId(1), Box::new(BgpRouter::new(cfg.clone())));
    sim.start();
    sim.run_until(SimTime::from_nanos(5_000_000_000));
    let before = stats(&sim);
    sim.deliver_direct(PEER_NODE, NodeId(1), bytes);
    if sim.crashed(NodeId(1)).is_some() {
        return Class::Crash;
    }
    let after = stats(&sim);
    if after.notifications_tx > before.notifications_tx || after.loop_rejects > before.loop_rejects
    {
        Class::Reject
    } else if after.policy_rejects > before.policy_rejects {
        Class::PolicyReject
    } else {
        Class::Accept
    }
}

/// A configuration with `rules` and `default` as the peer's import policy.
fn with_import(rules: Vec<Rule>, default: Verdict) -> RouterConfig {
    RouterConfig::minimal(OWN, RouterId(1))
        .with_neighbor(PEER_NODE, PEER, "imp", "all")
        .with_policy(Policy {
            name: "imp".into(),
            rules,
            default,
        })
}

/// An announcement of [`NLRI`] from the peer with the AS_PATH `path`.
fn announce(path: &[(u8, &[u16])]) -> Vec<u8> {
    let a = attr(WK, code::AS_PATH, &segments(path));
    update(&[], &attrs_with(Some((code::AS_PATH, a)), &[]), &NLRI)
}

/// Both sides on one input, and what the router does.
fn probe(cfg: &RouterConfig, bytes: &[u8], router: Class) {
    assert_eq!(router_class(cfg, bytes), router, "the router");
    assert_eq!(twin_class(cfg, bytes), router, "the twin");
}

/// An AS_PATH that is one AS_SET: the router has no first AS to check
/// against the peer's and closes the session.
#[test]
fn probe_as_set_first_segment() {
    let cfg = with_import(vec![], Verdict::Accept);
    probe(&cfg, &announce(&[(SET, &[PEER.0])]), Class::Reject);
    probe(
        &cfg,
        &announce(&[(SEQ, &[PEER.0]), (SET, &[PEER.0])]),
        Class::Accept,
    );
}

/// The seeded defect, armed, on a transitive unknown attribute before an
/// invalid NLRI length, and on a non-transitive one: both crash the router
/// when it parses them.
#[test]
fn probe_seeded_defect_while_parsing() {
    let mut cfg = with_import(vec![], Verdict::Accept);
    cfg.bugs.attr_overflow_crash = true;
    let unknown = |fl: u8| attrs_with(None, &attr(fl, 0xF5, &[0xAA; 0x95]));
    probe(
        &cfg,
        &update(&[], &unknown(OPT_TRANS), &[60, 10]),
        Class::Crash,
    );
    probe(&cfg, &update(&[], &unknown(OPT), &NLRI), Class::Crash);
}

/// `AsPathLenAtMost` counts an AS_SET as one hop.
#[test]
fn probe_as_set_counts_one_hop() {
    let cfg = with_import(
        vec![Rule::accept(vec![Match::AsPathLenAtMost(2)])],
        Verdict::Reject,
    );
    let path: &[(u8, &[u16])] = &[(SEQ, &[PEER.0]), (SET, &[1, 2, 3])];
    probe(&cfg, &announce(path), Class::Accept);
}

/// A rule without a verdict edits the route the rules after it read.
#[test]
fn probe_policy_actions_reach_later_rules() {
    let c = Community::from_pair(OWN.0, 9);
    let tag = Rule {
        matches: vec![Match::Any],
        actions: vec![Action::AddCommunity(c)],
        verdict: None,
    };
    let cfg = with_import(
        vec![tag.clone(), Rule::reject(vec![Match::HasCommunity(c)])],
        Verdict::Accept,
    );
    probe(&cfg, &announce(&[(SEQ, &[PEER.0])]), Class::PolicyReject);
    // Removed again, and a prepend of the router's own AS seen by a
    // path-length rule.
    let untag = Rule {
        matches: vec![Match::Any],
        actions: vec![Action::RemoveCommunity(c), Action::Prepend(2)],
        verdict: None,
    };
    let cfg = with_import(
        vec![
            tag,
            untag,
            Rule::reject(vec![Match::HasCommunity(c)]),
            Rule::reject(vec![Match::AsPathLenAtMost(2)]),
            Rule::accept(vec![Match::AsPathContains(OWN)]),
        ],
        Verdict::Reject,
    );
    probe(&cfg, &announce(&[(SEQ, &[PEER.0])]), Class::Accept);
}

/// `OriginatedBy` is false when the last segment is a set.
#[test]
fn probe_as_set_has_no_originator() {
    let cfg = with_import(
        vec![Rule::reject(vec![Match::OriginatedBy(Asn(64903))])],
        Verdict::Accept,
    );
    probe(
        &cfg,
        &announce(&[(SEQ, &[PEER.0]), (SET, &[64903])]),
        Class::Accept,
    );
    probe(
        &cfg,
        &announce(&[(SEQ, &[PEER.0, 64903])]),
        Class::PolicyReject,
    );
}

/// A prefix-range filter that accepts ahead of a path rule that rejects:
/// inside the range below its longest length and at its shortest, outside
/// it (the default), and a path through the rejected AS.
#[test]
fn probe_range_accept_before_a_path_reject() {
    let range = PrefixFilter {
        net: net("10.0.0.0/8"),
        min_len: 8,
        max_len: 24,
    };
    let cfg = with_import(
        vec![
            Rule::accept(vec![Match::PrefixIn(vec![range])]),
            Rule::reject(vec![Match::AsPathContains(Asn(64000))]),
        ],
        Verdict::Accept,
    );
    let announce_via = |path: [u16; 2], prefix: &str| {
        let attrs = PathAttrs {
            as_path: AsPath::sequence(path),
            next_hop: Ipv4Addr(0x0A00_0002),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net(prefix)],
        }))
    };
    for prefix in ["10.2.0.0/16", "10.0.0.0/8", "192.0.2.0/24"] {
        let bytes = announce_via([PEER.0, 65003], prefix);
        probe(&cfg, &bytes, Class::Accept);
    }
    let through = announce_via([PEER.0, 64000], "172.16.0.0/12");
    probe(&cfg, &through, Class::PolicyReject);
}

/// A prefix shorter than a filter's own is outside it, whatever the
/// filter's `min_len`: `PrefixIn` needs the filter's prefix to cover the
/// candidate. Here `10.0.0.0/7` against `10.0.0.0/8 {0, 32}`.
#[test]
fn probe_filter_below_its_own_length() {
    let filter = PrefixFilter {
        net: net("10.0.0.0/8"),
        min_len: 0,
        max_len: 32,
    };
    let cfg = with_import(
        vec![Rule::reject(vec![Match::PrefixIn(vec![filter])])],
        Verdict::Accept,
    );
    let nlri = [7, 10];
    probe(
        &cfg,
        &update(&[], &attrs_with(None, &[]), &nlri),
        Class::Accept,
    );
}

/// An UPDATE from raw sections: the withdrawn routes, the attribute block
/// and the NLRI, each as its wire bytes.
fn update(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
    let mut m = vec![0xFF; 16];
    let len = 19 + 2 + withdrawn.len() + 2 + attrs.len() + nlri.len();
    m.extend_from_slice(&(len as u16).to_be_bytes());
    m.push(2);
    m.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
    m.extend_from_slice(withdrawn);
    m.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    m.extend_from_slice(attrs);
    m.extend_from_slice(nlri);
    m
}

/// One attribute: a two-byte length when `fl` sets the extended-length bit.
fn attr(fl: u8, tc: u8, value: &[u8]) -> Vec<u8> {
    let mut a = vec![fl, tc];
    if fl & flags::EXT_LEN != 0 {
        a.extend_from_slice(&(value.len() as u16).to_be_bytes());
    } else {
        a.push(value.len() as u8);
    }
    a.extend_from_slice(value);
    a
}

/// An AS_PATH value from `(segment kind, members)`.
fn segments(segs: &[(u8, &[u16])]) -> Vec<u8> {
    let mut v = Vec::new();
    for (kind, asns) in segs {
        v.push(*kind);
        v.push(asns.len() as u8);
        for a in *asns {
            v.extend_from_slice(&a.to_be_bytes());
        }
    }
    v
}

const WK: u8 = flags::TRANSITIVE;
const OPT: u8 = flags::OPTIONAL;
const OPT_TRANS: u8 = flags::OPTIONAL | flags::TRANSITIVE;
const SET: u8 = 1;
const SEQ: u8 = 2;

/// ORIGIN, AS_PATH and NEXT_HOP of a valid announcement from the peer,
/// with `replace` standing in for the attribute of its code, then `extra`.
fn attrs_with(replace: Option<(u8, Vec<u8>)>, extra: &[u8]) -> Vec<u8> {
    let trio = [
        (code::ORIGIN, attr(WK, code::ORIGIN, &[0])),
        (
            code::AS_PATH,
            attr(WK, code::AS_PATH, &segments(&[(SEQ, &[PEER.0, 64901])])),
        ),
        (code::NEXT_HOP, attr(WK, code::NEXT_HOP, &[10, 0, 0, 1])),
    ];
    let mut out = Vec::new();
    let mut replaced = false;
    for (tc, a) in trio {
        match &replace {
            Some((rc, r)) if *rc == tc => {
                out.extend_from_slice(r);
                replaced = true;
            }
            _ => out.extend_from_slice(&a),
        }
    }
    if let (Some((_, r)), false) = (&replace, replaced) {
        out.extend_from_slice(r);
    }
    out.extend_from_slice(extra);
    out
}

/// A prefix entry of `plen` bits followed by `nb` address bytes.
fn prefix(plen: u8, nb: usize) -> Vec<u8> {
    let mut p = vec![plen];
    p.extend((0..nb).map(|i| [10, 1, 2, 3, 4][i % 5]));
    p
}

const NLRI: [u8; 4] = [24, 10, 1, 2];

/// Every UPDATE whose checked field sits at a bound the handler tests, one
/// either side of it, or at a shape the checks single out: prefix lengths
/// 32 / 33 with their bytes one short, exact and one over; each attribute
/// one byte short, exact and one over, with and without the extended-length
/// flag and under every flag pattern; AS_PATH segment kinds 0–3, counts
/// 0–2, sets first, last and alone; unknown codes 0xEF / 0xF0 with values
/// of 0x8F / 0x90 bytes, transitive or not, before valid and invalid NLRI;
/// and the framing of each section.
fn updates_at_bounds() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let trio = attrs_with(None, &[]);
    // Prefix lengths, as NLRI and as withdrawn routes.
    for plen in [0u8, 1, 8, 9, 24, 31, 32, 33, 255] {
        let nb = (plen as usize).div_ceil(8);
        for n in [nb.checked_sub(1), Some(nb), Some(nb + 1)]
            .into_iter()
            .flatten()
        {
            out.push(update(&[], &trio, &prefix(plen, n)));
            out.push(update(&prefix(plen, n), &[], &[]));
            out.push(update(&prefix(plen, n), &trio, &NLRI));
        }
    }
    out.push(update(
        &[],
        &trio,
        &[NLRI.as_slice(), &prefix(16, 2)].concat(),
    ));
    // Each known attribute: length one short, exact, one over; with and
    // without the extended-length flag; under all four flag patterns.
    let known: [(u8, u8, &[u8]); 7] = [
        (WK, code::ORIGIN, &[1]),
        (WK, code::NEXT_HOP, &[10, 0, 0, 9]),
        (OPT, code::MED, &[0, 0, 0, 7]),
        (WK, code::LOCAL_PREF, &[0, 0, 0, 100]),
        (WK, code::ATOMIC_AGGREGATE, &[]),
        (OPT_TRANS, code::AGGREGATOR, &[0xFD, 0xE9, 10, 0, 0, 1]),
        (OPT_TRANS, code::COMMUNITY, &[0xFD, 0xE9, 0, 1]),
    ];
    for (fl, tc, value) in known {
        let mut lens = vec![value.len(), value.len() + 1];
        lens.extend(value.len().checked_sub(1));
        for len in lens {
            let mut v = value.to_vec();
            v.resize(len, 0x01);
            for ext in [0, flags::EXT_LEN] {
                out.push(update(
                    &[],
                    &attrs_with(Some((tc, attr(fl | ext, tc, &v))), &[]),
                    &NLRI,
                ));
            }
        }
        for fl in [0, WK, OPT, OPT_TRANS] {
            out.push(update(
                &[],
                &attrs_with(Some((tc, attr(fl, tc, value))), &[]),
                &NLRI,
            ));
        }
    }
    for origin in [0u8, 2, 3, 255] {
        let a = attr(WK, code::ORIGIN, &[origin]);
        out.push(update(
            &[],
            &attrs_with(Some((code::ORIGIN, a)), &[]),
            &NLRI,
        ));
    }
    for nh in [0u32, 1, 0xFFFF_FFFE, u32::MAX] {
        let a = attr(WK, code::NEXT_HOP, &nh.to_be_bytes());
        out.push(update(
            &[],
            &attrs_with(Some((code::NEXT_HOP, a)), &[]),
            &NLRI,
        ));
    }
    for comms in [8usize, 12] {
        let v: Vec<u8> = (0..comms)
            .map(|i| [0xFD, 0xE9, 0, 1 + i as u8][i % 4])
            .collect();
        let a = attr(OPT_TRANS, code::COMMUNITY, &v);
        out.push(update(
            &[],
            &attrs_with(Some((code::COMMUNITY, a)), &[]),
            &NLRI,
        ));
    }
    // AS_PATH: segment kinds, counts and their value lengths; sets.
    for kind in 0u8..=3 {
        for count in 0u8..=2 {
            let mut v = vec![kind, count];
            for k in 0..count {
                v.extend_from_slice(&(PEER.0 + k as u16).to_be_bytes());
            }
            for len in [v.len().saturating_sub(1), v.len(), v.len() + 1] {
                let mut v = v.clone();
                v.resize(len, 0xFD);
                let a = attr(WK, code::AS_PATH, &v);
                out.push(update(
                    &[],
                    &attrs_with(Some((code::AS_PATH, a)), &[]),
                    &NLRI,
                ));
            }
        }
    }
    let paths: [&[(u8, &[u16])]; 7] = [
        &[(SET, &[PEER.0])],
        &[(SET, &[PEER.0, 64901])],
        &[(SEQ, &[PEER.0]), (SET, &[64901, 64902, 64903])],
        &[(SEQ, &[PEER.0, 64901]), (SEQ, &[64902])],
        &[(SET, &[64901]), (SEQ, &[PEER.0])],
        &[(SEQ, &[PEER.0, OWN.0])],
        &[],
    ];
    for segs in paths {
        let a = attr(WK, code::AS_PATH, &segments(segs));
        out.push(update(
            &[],
            &attrs_with(Some((code::AS_PATH, a)), &[]),
            &NLRI,
        ));
    }
    // The unknown-attribute arm around the seeded defect's trigger window.
    for tc in [0xEFu8, 0xF0] {
        for len in [0x8Fusize, 0x90] {
            for fl in [OPT_TRANS, OPT, WK] {
                for ext in [0, flags::EXT_LEN] {
                    let a = attr(fl | ext, tc, &vec![0xAA; len]);
                    for nlri in [&NLRI[..], &[60, 10], &[]] {
                        out.push(update(&[], &attrs_with(None, &a), nlri));
                    }
                }
            }
        }
    }
    // Presence, duplicates and the framing of each section.
    for tc in [code::ORIGIN, code::AS_PATH, code::NEXT_HOP] {
        let without: Vec<u8> = {
            let mut a = Vec::new();
            let full = attrs_with(None, &[]);
            let mut i = 0;
            while i < full.len() {
                let n = 3 + full[i + 2] as usize;
                if full[i + 1] != tc {
                    a.extend_from_slice(&full[i..i + n]);
                }
                i += n;
            }
            a
        };
        out.push(update(&[], &without, &NLRI));
        out.push(update(&prefix(8, 1), &without, &[]));
    }
    out.push(update(
        &[],
        &attrs_with(None, &attr(WK, code::ORIGIN, &[0])),
        &NLRI,
    ));
    out.push(update(&[], &[], &NLRI));
    out.push(update(&[], &[], &[]));
    for block in [
        &[WK][..],
        &[WK, code::ORIGIN],
        &[WK | flags::EXT_LEN, code::ORIGIN, 0],
    ] {
        out.push(update(&[], &[trio.as_slice(), block].concat(), &NLRI));
    }
    let mut overrun = update(&[], &trio, &NLRI);
    overrun[22] = 0xFF; // the attribute block's length, low byte
    out.push(overrun);
    let mut overrun = update(&prefix(8, 1), &trio, &NLRI);
    overrun[20] = 0x40; // the withdrawn routes' length, low byte
    out.push(overrun);
    for body in 0..6 {
        let mut m = update(&[], &[], &[]);
        m.truncate(19);
        m.extend((0..body).map(|_| 0));
        m[17] = m.len() as u8;
        out.push(m);
    }
    out
}

/// The configuration the pinned paths run under: an import policy that
/// reads every attribute the twin interprets, with an action-bearing rule
/// before the rules that could see its effect.
fn pin_config(buggy: bool) -> RouterConfig {
    let tag = Community::from_pair(OWN.0, 7);
    let policy = Policy {
        name: "imp".into(),
        rules: vec![
            Rule {
                matches: vec![Match::PrefixIn(vec![PrefixFilter::or_longer(net(
                    "10.0.0.0/8",
                ))])],
                actions: vec![Action::AddCommunity(tag)],
                verdict: None,
            },
            Rule::reject(vec![Match::HasCommunity(tag), Match::AsPathLenAtMost(1)]),
            Rule::reject(vec![Match::OriginatedBy(Asn(64903))]),
            Rule::reject(vec![Match::AsPathContains(Asn(64905))]),
            Rule::accept(vec![
                Match::OriginIs(Origin::Igp),
                Match::PrefixLenIn { min: 8, max: 24 },
            ]),
        ],
        default: Verdict::Reject,
    };
    let mut cfg = RouterConfig::minimal(OWN, RouterId(1))
        .with_neighbor(PEER_NODE, PEER, "imp", "all")
        .with_policy(policy);
    cfg.bugs.attr_overflow_crash = buggy;
    cfg
}

/// The twin's paths, pinned: one session arena (as `explore` threads it)
/// runs the minimal seed, a grammar corpus (its large-unknown seed
/// included) and the whole bound grid, for the clean and then the buggy
/// configuration, the body symbolic as `mark_update` marks it. One SHA-256
/// covers every execution's branches (site, constraint id, taken), its
/// class, and the nodes it added to the arena, in id order — so a change
/// that reorders the twin's reads or comparisons, even one that keeps
/// every class and every branch, moves it.
///
/// Break it once: swap the reads of an attribute's flags and type code in
/// `dice_bgp::wire::validate_update`, and the hash moves.
#[test]
fn bgp_twin_paths_are_pinned() {
    let mut sha = Sha256::new();
    let (mut arena, mut path) = (ExprArena::new(), Vec::new());
    let mut executions = 0;
    for buggy in [false, true] {
        let mut twin = DomainProgram(
            BgpRouter::new(pin_config(buggy))
                .update_twin(PEER_NODE)
                .unwrap(),
        );
        let mut g = UpdateGrammar::new(PEER, 7);
        let mut inputs = vec![minimal_seed(PEER), g.generate(), g.generate_large_unknown()];
        inputs.extend(g.batch(8));
        inputs.extend(updates_at_bounds());
        for bytes in inputs {
            let interned = arena.len() as u32;
            let input = SymInput::with_mask(bytes.clone(), mark_update(&bytes));
            let mut ctx = ConcolicCtx::continuing(input, Default::default(), arena, path);
            let class = class_of(twin.run(&mut ctx));
            for b in ctx.path() {
                sha.update(&b.site.0.to_be_bytes());
                sha.update(&b.constraint.0.to_be_bytes());
                sha.update(&[b.taken as u8]);
            }
            sha.update(&[class as u8]);
            (_, _, arena, path) = ctx.into_parts();
            for id in interned..arena.len() as u32 {
                sha.update(format!("{:?};", arena.get(ExprId(id))).as_bytes());
            }
            executions += 1;
        }
    }
    assert!(executions > 400, "{executions}");
    assert_eq!(
        hex(&sha.finalize()),
        outcomes::pinned("twin_paths", "bgp_twin_paths_are_pinned")
    );
}

/// The configurations the grid runs under: an accept-all import, one that
/// accepts paths of at most two hops, and the pinned paths' policy, each
/// clean and with the seeded defect armed.
fn grid_configs() -> Vec<RouterConfig> {
    let mut out = Vec::new();
    for buggy in [false, true] {
        let short = Rule::accept(vec![Match::AsPathLenAtMost(2)]);
        for mut cfg in [
            with_import(vec![], Verdict::Accept),
            with_import(vec![short], Verdict::Reject),
            pin_config(buggy),
        ] {
            cfg.bugs.attr_overflow_crash = buggy;
            out.push(cfg);
        }
    }
    out
}

/// Every grid input under every grid configuration: the twin classifies it
/// as the real router does, and so does `reference_class`, which the
/// property tests below stand on.
#[test]
fn agrees_at_every_bound() {
    let inputs = updates_at_bounds();
    let mut classes = BTreeSet::new();
    for cfg in grid_configs() {
        let buggy = cfg.bugs.attr_overflow_crash;
        for bytes in &inputs {
            let router = router_class(&cfg, bytes);
            let twin = twin_class(&cfg, bytes);
            assert_eq!(twin, router, "twin (buggy {buggy}) on {bytes:02x?}");
            let reference = reference_class(&cfg, bytes);
            assert_eq!(
                reference, router,
                "reference (buggy {buggy}) on {bytes:02x?}"
            );
            classes.insert(router);
        }
    }
    use Class::*;
    assert_eq!(
        classes,
        BTreeSet::from([Accept, PolicyReject, Reject, Crash])
    );
}

/// ASes the generated paths and policies draw from, so that matches fire;
/// the router's own now and then, for the loop check.
fn arb_asn() -> impl Strategy<Value = u16> {
    let pool = || 64901u16..64905;
    prop_oneof![Just(PEER.0), Just(OWN.0), pool(), pool(), pool(), pool()]
}

fn arb_community() -> impl Strategy<Value = Community> {
    (0u16..3).prop_map(|v| Community::from_pair(OWN.0, v))
}

/// A prefix in or near the generated filters' nets (`10/8`, `20/8`,
/// `10.0/16`), some shorter than a `/8` or a `/16`.
fn arb_prefix() -> impl Strategy<Value = Ipv4Net> {
    (
        prop_oneof![Just(10u32), Just(10), Just(20), Just(192)],
        prop_oneof![Just(0u32), 0u32..256],
        any::<u16>(),
        prop_oneof![4u8..=7, 7u8..=15, 8u8..=32],
    )
        .prop_map(|(a, b, c, len)| Ipv4Net::new((a << 24) | (b << 16) | c as u32, len))
}

/// An AS_PATH of sequences and sets, most of them led by a sequence that
/// starts with the peer, some by a set that holds it.
fn arb_path() -> impl Strategy<Value = AsPath> {
    let kind = || prop_oneof![Just(SegmentKind::Sequence), Just(SegmentKind::Set)];
    let segment = (kind(), prop::collection::vec(arb_asn().prop_map(Asn), 1..4))
        .prop_map(|(kind, asns)| AsPathSegment { kind, asns });
    let lead = prop_oneof![
        kind().prop_map(Some),
        Just(Some(SegmentKind::Sequence)),
        Just(Some(SegmentKind::Sequence)),
        Just(None)
    ];
    (prop::collection::vec(segment, 0..3), lead).prop_map(|(mut segments, lead)| {
        if let Some(kind) = lead {
            let asns = vec![PEER];
            segments.insert(0, AsPathSegment { kind, asns });
        }
        segments.into_iter().collect()
    })
}

/// A well-formed UPDATE: generated parts (AS_SETs, the policies'
/// communities, an unknown attribute around the defect's trigger window),
/// or the exploration grammar's.
fn arb_update() -> impl Strategy<Value = Vec<u8>> {
    let unknown = (
        prop_oneof![Just(OPT), Just(OPT_TRANS)],
        prop_oneof![Just(0xE5u8), Just(0xEF), Just(0xF0), Just(0xF5)],
        prop_oneof![Just(4usize), Just(0x8F), Just(0x90), Just(0x95)],
    )
        .prop_map(|(flags, code, len)| RawAttr {
            flags,
            code,
            value: vec![0xA5; len],
        });
    let attrs = (
        arb_path(),
        0u8..3,
        prop::collection::btree_set(arb_community(), 0..3),
        prop::option::of(unknown),
        prop::option::of(0u32..3),
    )
        .prop_map(|(as_path, origin, communities, unknown, med)| PathAttrs {
            origin: Origin::from_u8(origin).unwrap_or_default(),
            as_path,
            next_hop: Ipv4Addr(0x0A00_0001),
            med,
            communities: communities.into_iter().collect(),
            unknown: unknown.into_iter().collect(),
            ..PathAttrs::default()
        });
    let generated = (
        prop::collection::vec(arb_prefix(), 0..2),
        prop::option::of(attrs),
        prop::collection::vec(arb_prefix(), 0..3),
    )
        .prop_map(|(withdrawn, attrs, nlri)| {
            encode(&Message::Update(UpdateMsg {
                withdrawn,
                attrs,
                nlri,
            }))
        })
        .boxed();
    let grammar = any::<u64>().prop_map(|seed| UpdateGrammar::new(PEER, seed).generate());
    prop_oneof![generated.clone(), generated, grammar]
}

fn arb_match() -> impl Strategy<Value = Match> {
    // Sets of up to three filters, `min_len` from below a filter's own
    // length to past it; drawn three times as often as the other matches.
    let prefix_in = || {
        let nets = prop_oneof![
            Just(net("10.0.0.0/8")),
            Just(net("20.0.0.0/8")),
            Just(net("10.0.0.0/16"))
        ];
        let min_len = prop_oneof![0u8..=7, 0u8..=15, 8u8..=24];
        let filter = (nets, min_len, 16u8..=32).prop_map(|(net, min_len, max_len)| PrefixFilter {
            net,
            min_len,
            max_len,
        });
        prop::collection::vec(filter, 1..4).prop_map(Match::PrefixIn)
    };
    prop_oneof![
        Just(Match::Any),
        prefix_in(),
        prefix_in(),
        prefix_in(),
        (8u8..=24, 16u8..=32).prop_map(|(min, max)| Match::PrefixLenIn { min, max }),
        arb_asn().prop_map(|a| Match::AsPathContains(Asn(a))),
        (0u32..4).prop_map(Match::AsPathLenAtMost),
        arb_asn().prop_map(|a| Match::OriginatedBy(Asn(a))),
        arb_community().prop_map(Match::HasCommunity),
        (0u8..3).prop_map(|o| Match::OriginIs(Origin::from_u8(o).unwrap_or_default())),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_community().prop_map(Action::AddCommunity),
        arb_community().prop_map(Action::RemoveCommunity),
        (0u8..3).prop_map(Action::Prepend),
        Just(Action::SetLocalPref(150)),
    ]
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![Just(Verdict::Accept), Just(Verdict::Reject)]
}

/// An import policy of up to four rules that carry actions, with or
/// without verdicts, and the seeded defect armed or not.
fn arb_config() -> impl Strategy<Value = RouterConfig> {
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
    (
        prop::collection::vec(rule, 0..4),
        arb_verdict(),
        any::<bool>(),
    )
        .prop_map(|(rules, default, buggy)| {
            let mut cfg = with_import(rules, default);
            cfg.bugs.attr_overflow_crash = buggy;
            cfg
        })
}

fn agree(cfg: &RouterConfig, bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        twin_class(cfg, bytes),
        reference_class(cfg, bytes),
        "twin vs reference (buggy {}) on {:02x?} under {:?}",
        cfg.bugs.attr_overflow_crash,
        bytes,
        cfg.policies["imp"]
    );
    Ok(())
}

proptest! {
    /// Well-formed UPDATEs under generated policies, clean and buggy: the
    /// exact class.
    #[test]
    fn agrees_on_valid_messages(bytes in arb_update(), cfg in arb_config()) {
        agree(&cfg, &bytes)?;
    }

    /// Well-formed UPDATEs with body bytes overwritten, dropped or
    /// appended (the header's length follows, so the body is parsed).
    #[test]
    fn agrees_on_mutated_messages(
        bytes in arb_update(),
        cfg in arb_config(),
        mutations in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        resize in prop_oneof![Just(0i8), Just(-1i8), Just(1i8)],
    ) {
        let mut bytes = bytes;
        for (pos, val) in mutations {
            // Never the 19-byte header: the marking policy keeps framing
            // concrete, and the twin leaves its checks to the decoder.
            let i = 19 + pos % (bytes.len() - 19);
            bytes[i] = val;
        }
        match resize {
            -1 => drop(bytes.pop()),
            1 => bytes.push(0),
            _ => {}
        }
        let len = bytes.len() as u16;
        bytes[16..18].copy_from_slice(&len.to_be_bytes());
        agree(&cfg, &bytes)?;
    }

    /// A valid header before arbitrary bytes.
    #[test]
    fn agrees_on_arbitrary_bodies(
        body in prop::collection::vec(any::<u8>(), 0..96),
        cfg in arb_config(),
    ) {
        let mut bytes = vec![0xFF; 16];
        bytes.extend_from_slice(&((19 + body.len()) as u16).to_be_bytes());
        bytes.push(2); // UPDATE
        bytes.extend_from_slice(&body);
        agree(&cfg, &bytes)?;
    }

    /// The twin is total: arbitrary bodies never panic it.
    #[test]
    fn twin_never_panics(body in prop::collection::vec(any::<u8>(), 4..256)) {
        let cfg = with_import(vec![], Verdict::Accept);
        let mut bytes = vec![0xFF; 16];
        bytes.extend_from_slice(&((19 + body.len()) as u16).to_be_bytes());
        bytes.push(2); // UPDATE
        bytes.extend_from_slice(&body);
        let mut handler = DomainProgram(BgpRouter::new(cfg).update_twin(PEER_NODE).unwrap());
        let mask = mark_update(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes, mask));
        let _ = handler.run(&mut ctx);
    }
}
