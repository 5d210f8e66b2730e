//! The export sequence [`Policy::export`] replaced, on the attribute
//! layout it ran on: an AS_PATH as a vector of segments that each own
//! their members, and the communities in a `BTreeSet`. The sequence copied
//! the bag the export policy accepted (`Policy::apply`, then
//! `into_owned`), front-inserted the router's AS, then set NEXT_HOP,
//! dropped LOCAL_PREF and stripped the router's own communities. Kept to
//! hold the one-pass export and the one-allocation layout equal to it.

use super::*;
use crate::attrs::{code, flags, AsPathSegment, RawAttr};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The AS_PATH as it was stored: one vector per segment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OldPath {
    segments: Vec<AsPathSegment>,
}

impl OldPath {
    fn path_len(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| match s.kind {
                SegmentKind::Sequence => s.asns.len() as u32,
                SegmentKind::Set => 1,
            })
            .sum()
    }

    fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns.contains(&asn))
    }

    fn first_asn(&self) -> Option<Asn> {
        self.segments.first().and_then(|s| match s.kind {
            SegmentKind::Sequence => s.asns.first().copied(),
            SegmentKind::Set => None,
        })
    }

    fn origin_asn(&self) -> Option<Asn> {
        self.segments.last().and_then(|s| match s.kind {
            SegmentKind::Sequence => s.asns.last().copied(),
            SegmentKind::Set => None,
        })
    }

    fn prepend(&mut self, asn: Asn, count: u8) {
        if count == 0 {
            return;
        }
        match self.segments.first_mut() {
            Some(seg)
                if seg.kind == SegmentKind::Sequence && seg.asns.len() + count as usize <= 255 =>
            {
                for _ in 0..count {
                    seg.asns.insert(0, asn);
                }
            }
            _ => {
                self.segments.insert(
                    0,
                    AsPathSegment {
                        kind: SegmentKind::Sequence,
                        asns: vec![asn; count as usize],
                    },
                );
            }
        }
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let (open, sep, close) = match seg.kind {
                SegmentKind::Sequence => ("", " ", ""),
                SegmentKind::Set => ("{", ",", "}"),
            };
            out.push_str(open);
            let members: Vec<String> = seg.asns.iter().map(|a| a.0.to_string()).collect();
            out.push_str(&members.join(sep));
            out.push_str(close);
        }
        out
    }
}

/// The attribute bag as it was stored.
#[derive(Debug, Clone)]
struct OldAttrs {
    origin: Origin,
    as_path: OldPath,
    next_hop: Ipv4Addr,
    med: Option<u32>,
    local_pref: Option<u32>,
    atomic_aggregate: bool,
    aggregator: Option<(Asn, Ipv4Addr)>,
    communities: BTreeSet<Community>,
    unknown: Vec<RawAttr>,
}

impl OldAttrs {
    fn apply(&mut self, action: &Action, own: Asn) {
        match action {
            Action::SetLocalPref(v) => self.local_pref = Some(*v),
            Action::SetMed(v) => self.med = Some(*v),
            Action::AddCommunity(c) => {
                self.communities.insert(*c);
            }
            Action::RemoveCommunity(c) => {
                self.communities.remove(c);
            }
            Action::Prepend(count) => self.as_path.prepend(own, *count),
        }
    }

    /// The attribute block as the encoder wrote it from this layout.
    fn encode(&self) -> Vec<u8> {
        fn attr(out: &mut Vec<u8>, fl: u8, code: u8, value: &[u8]) {
            if value.len() > 255 {
                out.extend_from_slice(&[fl | flags::EXT_LEN, code]);
                out.extend_from_slice(&(value.len() as u16).to_be_bytes());
            } else {
                out.extend_from_slice(&[fl & !flags::EXT_LEN, code, value.len() as u8]);
            }
            out.extend_from_slice(value);
        }
        let mut out = Vec::new();
        attr(
            &mut out,
            flags::TRANSITIVE,
            code::ORIGIN,
            &[self.origin as u8],
        );
        let mut path = Vec::new();
        for seg in &self.as_path.segments {
            path.extend_from_slice(&[seg.kind as u8, seg.asns.len() as u8]);
            for a in &seg.asns {
                path.extend_from_slice(&a.0.to_be_bytes());
            }
        }
        attr(&mut out, flags::TRANSITIVE, code::AS_PATH, &path);
        let nh = self.next_hop.0.to_be_bytes();
        attr(&mut out, flags::TRANSITIVE, code::NEXT_HOP, &nh);
        if let Some(med) = self.med {
            attr(&mut out, flags::OPTIONAL, code::MED, &med.to_be_bytes());
        }
        if let Some(lp) = self.local_pref {
            attr(
                &mut out,
                flags::TRANSITIVE,
                code::LOCAL_PREF,
                &lp.to_be_bytes(),
            );
        }
        if self.atomic_aggregate {
            attr(&mut out, flags::TRANSITIVE, code::ATOMIC_AGGREGATE, &[]);
        }
        let opt_trans = flags::OPTIONAL | flags::TRANSITIVE;
        if let Some((asn, ip)) = self.aggregator {
            let mut v = asn.0.to_be_bytes().to_vec();
            v.extend_from_slice(&ip.0.to_be_bytes());
            attr(&mut out, opt_trans, code::AGGREGATOR, &v);
        }
        if !self.communities.is_empty() {
            let v: Vec<u8> = self
                .communities
                .iter()
                .flat_map(|c| c.0.to_be_bytes())
                .collect();
            attr(&mut out, opt_trans, code::COMMUNITY, &v);
        }
        for raw in &self.unknown {
            attr(&mut out, raw.flags, raw.code, &raw.value);
        }
        out
    }

    /// The same bag in today's layout.
    fn to_attrs(&self) -> PathAttrs {
        PathAttrs {
            origin: self.origin,
            as_path: self.as_path.segments.iter().cloned().collect(),
            next_hop: self.next_hop,
            med: self.med,
            local_pref: self.local_pref,
            atomic_aggregate: self.atomic_aggregate,
            aggregator: self.aggregator,
            communities: self.communities.iter().copied().collect(),
            unknown: self.unknown.clone(),
        }
    }
}

/// What the import decision read of the old layout.
impl RouteView<u64> for OldAttrs {
    fn members(&self) -> impl Iterator<Item = u64> + '_ {
        let segments = self.as_path.segments.iter();
        segments.flat_map(|s| s.asns.iter().map(|a| a.0 as u64))
    }

    fn first(&self) -> Option<(u64, bool)> {
        let seg = self.as_path.segments.first()?;
        Some((seg.asns.first()?.0 as u64, seg.kind == SegmentKind::Set))
    }

    fn last(&self) -> Option<(u64, bool)> {
        let seg = self.as_path.segments.last()?;
        Some((seg.asns.last()?.0 as u64, seg.kind == SegmentKind::Set))
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
}

/// The export as the router ran it before [`Policy::export`].
fn old_export(
    policy: &Policy,
    prefix: &Ipv4Net,
    attrs: &OldAttrs,
    own: Asn,
    next_hop: Ipv4Addr,
) -> Option<OldAttrs> {
    let at = (prefix.addr() as u64, prefix.len() as u64);
    let fired = policy.decide(&mut Concrete(&[]), at, attrs, own, 0)?;
    let mut out = attrs.clone();
    for a in fired.actions(&policy.rules) {
        out.apply(a, own);
    }
    out.as_path.prepend(own, 1);
    out.next_hop = next_hop;
    out.local_pref = None;
    out.communities.retain(|c| c.asn_part() != own.0);
    Some(out)
}

/// The router's AS and the two others paths and communities name.
const ASNS: [u16; 3] = [65001, 65002, 65003];
const OWN: Asn = Asn(ASNS[0]);

fn arb_asn() -> impl Strategy<Value = Asn> {
    (0usize..ASNS.len()).prop_map(|i| Asn(ASNS[i]))
}

fn arb_community() -> impl Strategy<Value = Community> {
    (arb_asn(), 1u16..4).prop_map(|(a, v)| Community::from_pair(a.0, v))
}

/// Segments of sets and sequences, some of them full (255 members) or
/// nearly so, which is where a prepend opens a segment of its own.
fn arb_segments() -> impl Strategy<Value = Vec<AsPathSegment>> {
    let kind = prop_oneof![Just(SegmentKind::Sequence), Just(SegmentKind::Set)];
    let size = prop_oneof![1usize..4, 250usize..=255, Just(255usize)];
    let segment = (kind, size, arb_asn(), arb_asn()).prop_map(|(kind, n, a, b)| {
        let asns = (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect();
        AsPathSegment { kind, asns }
    });
    prop::collection::vec(segment, 0..3)
}

fn arb_old_attrs() -> impl Strategy<Value = OldAttrs> {
    let unknown = prop::collection::vec(any::<u8>(), 0..6).prop_map(|value| RawAttr {
        flags: flags::OPTIONAL | flags::TRANSITIVE | flags::PARTIAL,
        code: 0xE5,
        value,
    });
    (
        (0u8..3, arb_segments(), prop::option::of(0u32..3)),
        (
            prop::option::of(0u32..3),
            any::<bool>(),
            prop::collection::btree_set(arb_community(), 0..7),
            prop::option::of(unknown),
        ),
    )
        .prop_map(
            |((origin, segments, med), (local_pref, atomic, communities, unknown))| OldAttrs {
                origin: Origin::from_u8(origin).unwrap_or_default(),
                as_path: OldPath { segments },
                next_hop: Ipv4Addr(0x0A00_0001),
                med,
                local_pref,
                atomic_aggregate: atomic,
                aggregator: atomic.then_some((Asn(ASNS[1]), Ipv4Addr(0x0A00_0002))),
                communities,
                unknown: unknown.into_iter().collect(),
            },
        )
}

fn arb_export_policy() -> impl Strategy<Value = Policy> {
    let matches = prop_oneof![
        Just(Match::Any),
        arb_community().prop_map(Match::HasCommunity),
        arb_asn().prop_map(Match::AsPathContains),
        arb_asn().prop_map(Match::OriginatedBy),
        (0u32..6).prop_map(Match::AsPathLenAtMost),
    ];
    let action = prop_oneof![
        (0u32..3).prop_map(Action::SetLocalPref),
        (0u32..3).prop_map(Action::SetMed),
        arb_community().prop_map(Action::AddCommunity),
        arb_community().prop_map(Action::RemoveCommunity),
        (0u8..7).prop_map(Action::Prepend),
    ];
    let verdict = prop_oneof![Just(Verdict::Accept), Just(Verdict::Reject)];
    let rule = (
        prop::collection::vec(matches, 0..2),
        prop::collection::vec(action, 0..4),
        prop::option::of(verdict.clone()),
    )
        .prop_map(|(matches, actions, verdict)| Rule {
            matches,
            actions,
            verdict,
        });
    (prop::collection::vec(rule, 0..4), verdict).prop_map(|(rules, default)| Policy {
        name: "export".into(),
        rules,
        default,
    })
}

proptest! {
    /// [`Policy::export`] on today's layout against the sequence it
    /// replaced on the old one: the same verdict, the same attribute
    /// block on the wire, the same AS_PATH text, length, first, origin
    /// and members, and the same bag. The step-by-step sequence on
    /// today's layout (`apply`, `into_owned`, `AsPath::prepend`) agrees
    /// too.
    #[test]
    fn one_pass_export_matches_the_old_sequence(
        old in arb_old_attrs(),
        policy in arb_export_policy(),
    ) {
        let prefix = Ipv4Net::new(0x0A00_0000, 8);
        let next_hop = Ipv4Addr(0x0A00_0009);
        let attrs = old.to_attrs();
        let mut bytes = Vec::new();
        crate::wire::encode_attrs_into(&attrs, &mut bytes);
        prop_assert_eq!(&bytes, &old.encode(), "the layouts encode alike");

        let new = policy.export(&prefix, &attrs, OWN, next_hop);
        let reference = old_export(&policy, &prefix, &old, OWN, next_hop);
        prop_assert_eq!(new.is_some(), reference.is_some(), "the verdict");
        let (Some(new), Some(reference)) = (new, reference) else {
            return Ok(());
        };
        let mut bytes = Vec::new();
        crate::wire::encode_attrs_into(&new, &mut bytes);
        prop_assert_eq!(bytes, reference.encode());
        let (path, old_path) = (&new.as_path, &reference.as_path);
        prop_assert_eq!(path.to_string(), old_path.to_text());
        prop_assert_eq!(path.path_len(), old_path.path_len());
        prop_assert_eq!(path.first_asn(), old_path.first_asn());
        prop_assert_eq!(path.origin_asn(), old_path.origin_asn());
        for asn in ASNS.into_iter().chain([64999]).map(Asn) {
            prop_assert_eq!(path.contains(asn), old_path.contains(asn));
        }
        prop_assert_eq!(&new, &reference.to_attrs());

        let mut stepwise = policy.apply(&prefix, &attrs, OWN).expect("accepted").into_owned();
        stepwise.as_path.prepend(OWN, 1);
        stepwise.next_hop = next_hop;
        stepwise.local_pref = None;
        stepwise.communities = stepwise
            .communities
            .iter()
            .copied()
            .filter(|c| c.asn_part() != OWN.0)
            .collect();
        prop_assert_eq!(&new, &stepwise);
    }
}
