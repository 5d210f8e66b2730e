//! BGP path attributes (RFC 4271 §4.3, RFC 1997 communities).
//!
//! The attribute bag [`PathAttrs`] preserves unknown optional-transitive
//! attributes verbatim (flags included), as a real router must — this is
//! also where the seeded "programming error" of the evaluation lives: a
//! BIRD-style mishandling of an unknown attribute's extended length.

use crate::types::{Asn, Community, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Attribute flag bits.
pub mod flags {
    /// Attribute is optional (not well-known).
    pub const OPTIONAL: u8 = 0x80;
    /// Attribute is transitive.
    pub const TRANSITIVE: u8 = 0x40;
    /// Attribute was forwarded by a router that did not understand it.
    pub const PARTIAL: u8 = 0x20;
    /// Attribute length is two octets.
    pub const EXT_LEN: u8 = 0x10;
}

/// Attribute type codes.
pub mod code {
    /// ORIGIN, well-known mandatory.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH, well-known mandatory.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP, well-known mandatory.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC, optional non-transitive.
    pub const MED: u8 = 4;
    /// LOCAL_PREF, well-known (iBGP).
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE, well-known discretionary.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR, optional transitive.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITY, optional transitive (RFC 1997).
    pub const COMMUNITY: u8 = 8;
}

/// The ORIGIN attribute value.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Origin {
    /// Learned from an IGP.
    #[default]
    Igp = 0,
    /// Learned via EGP.
    Egp = 1,
    /// Origin unknown.
    Incomplete = 2,
}

impl Origin {
    /// Decode from the wire value.
    pub fn from_u8(v: u8) -> Option<Origin> {
        match v {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// AS_PATH segment kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Unordered set (from aggregation); counts as one hop.
    Set = 1,
    /// Ordered sequence of traversed ASes.
    Sequence = 2,
}

impl SegmentKind {
    /// Decode from the wire value.
    pub fn from_u8(v: u8) -> Option<SegmentKind> {
        match v {
            1 => Some(SegmentKind::Set),
            2 => Some(SegmentKind::Sequence),
            _ => None,
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsPathSegment {
    /// Set or sequence.
    pub kind: SegmentKind,
    /// Member AS numbers (max 255 per segment on the wire).
    pub asns: Vec<Asn>,
}

/// The AS_PATH attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AsPath {
    /// Segments in wire order.
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// The empty path (locally originated routes).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A pure sequence path.
    pub fn sequence(asns: impl IntoIterator<Item = u16>) -> Self {
        let asns: Vec<Asn> = asns.into_iter().map(Asn).collect();
        if asns.is_empty() {
            return AsPath::empty();
        }
        AsPath {
            segments: vec![AsPathSegment {
                kind: SegmentKind::Sequence,
                asns,
            }],
        }
    }

    /// Path length for the decision process: sequences count per-AS,
    /// each set counts as 1 (RFC 4271 §9.1.2.2.a).
    pub fn path_len(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| match s.kind {
                SegmentKind::Sequence => s.asns.len() as u32,
                SegmentKind::Set => 1,
            })
            .sum()
    }

    /// Whether the path mentions `asn` anywhere (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns.contains(&asn))
    }

    /// The leftmost AS (the neighbor that sent us the route), if any.
    pub fn first_asn(&self) -> Option<Asn> {
        self.segments.first().and_then(|s| match s.kind {
            SegmentKind::Sequence => s.asns.first().copied(),
            SegmentKind::Set => None,
        })
    }

    /// The rightmost AS (the originator), if any.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.segments.last().and_then(|s| match s.kind {
            SegmentKind::Sequence => s.asns.last().copied(),
            SegmentKind::Set => None,
        })
    }

    /// Prepend `asn` `count` times (eBGP export).
    pub fn prepend(&mut self, asn: Asn, count: u8) {
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

    /// All ASNs in order of appearance (sets flattened).
    pub fn all_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns.iter().copied())
    }
}

impl core::fmt::Display for AsPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            let (open, sep, close) = match seg.kind {
                SegmentKind::Sequence => ("", " ", ""),
                SegmentKind::Set => ("{", ",", "}"),
            };
            f.write_str(open)?;
            for (j, asn) in seg.asns.iter().enumerate() {
                if j > 0 {
                    f.write_str(sep)?;
                }
                write!(f, "{}", asn.0)?;
            }
            f.write_str(close)?;
        }
        Ok(())
    }
}

/// An attribute this implementation does not interpret, preserved verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawAttr {
    /// Original flag octet.
    pub flags: u8,
    /// Type code.
    pub code: u8,
    /// Raw value bytes.
    pub value: Vec<u8>,
}

/// The parsed attribute bag of an UPDATE (or of a RIB entry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathAttrs {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH (well-known mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP (well-known mandatory).
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC, if present.
    pub med: Option<u32>,
    /// LOCAL_PREF, if present (iBGP / policy-assigned).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (asn, speaker), if present.
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// COMMUNITY values, deduplicated and ordered.
    pub communities: BTreeSet<Community>,
    /// Unknown optional-transitive attributes carried through.
    pub unknown: Vec<RawAttr>,
}

impl Default for PathAttrs {
    fn default() -> Self {
        PathAttrs {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: Ipv4Addr(0),
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: BTreeSet::new(),
            unknown: Vec::new(),
        }
    }
}

/// A borrowed bag as a [`Cow`]: what lets [`Policy::apply`] take `&PathAttrs`
/// (copy only if an action fires) and `PathAttrs` (edit in place) alike.
///
/// [`Policy::apply`]: crate::policy::Policy::apply
impl<'a> From<&'a PathAttrs> for Cow<'a, PathAttrs> {
    fn from(attrs: &'a PathAttrs) -> Self {
        Cow::Borrowed(attrs)
    }
}

impl From<PathAttrs> for Cow<'_, PathAttrs> {
    fn from(attrs: PathAttrs) -> Self {
        Cow::Owned(attrs)
    }
}

impl PathAttrs {
    /// Attribute bag for a locally originated route.
    pub fn originated(next_hop: Ipv4Addr) -> Self {
        PathAttrs {
            next_hop,
            ..Default::default()
        }
    }

    /// Effective LOCAL_PREF for the decision process (default 100).
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// Effective MED (missing treated as 0, i.e. best).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }

    /// Whether the community is present.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes() {
        assert_eq!(Origin::from_u8(0), Some(Origin::Igp));
        assert_eq!(Origin::from_u8(1), Some(Origin::Egp));
        assert_eq!(Origin::from_u8(2), Some(Origin::Incomplete));
        assert_eq!(Origin::from_u8(3), None);
        assert!(Origin::Igp < Origin::Egp && Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn path_len_counts_sets_as_one() {
        let p = AsPath {
            segments: vec![
                AsPathSegment {
                    kind: SegmentKind::Sequence,
                    asns: vec![Asn(1), Asn(2)],
                },
                AsPathSegment {
                    kind: SegmentKind::Set,
                    asns: vec![Asn(3), Asn(4), Asn(5)],
                },
            ],
        };
        assert_eq!(p.path_len(), 3);
    }

    #[test]
    fn prepend_extends_leading_sequence() {
        let mut p = AsPath::sequence([20, 30]);
        p.prepend(Asn(10), 2);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].asns, vec![Asn(10), Asn(10), Asn(20), Asn(30)]);
        assert_eq!(p.first_asn(), Some(Asn(10)));
        assert_eq!(p.origin_asn(), Some(Asn(30)));
    }

    #[test]
    fn prepend_to_empty_creates_segment() {
        let mut p = AsPath::empty();
        p.prepend(Asn(7), 1);
        assert_eq!(p.path_len(), 1);
        assert_eq!(p.first_asn(), Some(Asn(7)));
    }

    #[test]
    fn prepend_zero_is_noop() {
        let mut p = AsPath::sequence([1]);
        p.prepend(Asn(9), 0);
        assert_eq!(p.path_len(), 1);
    }

    #[test]
    fn loop_detection_sees_sets() {
        let p = AsPath {
            segments: vec![
                AsPathSegment {
                    kind: SegmentKind::Sequence,
                    asns: vec![Asn(1)],
                },
                AsPathSegment {
                    kind: SegmentKind::Set,
                    asns: vec![Asn(9)],
                },
            ],
        };
        assert!(p.contains(Asn(9)));
        assert!(p.contains(Asn(1)));
        assert!(!p.contains(Asn(2)));
    }

    #[test]
    fn display_formats() {
        let seg = |kind, asns: &[u16]| AsPathSegment {
            kind,
            asns: asns.iter().copied().map(Asn).collect(),
        };
        let path = |segments: Vec<AsPathSegment>| AsPath { segments }.to_string();
        // The `best` trace line embeds this text; it is pinned byte for byte.
        assert_eq!(path(vec![]), "");
        assert_eq!(
            path(vec![seg(SegmentKind::Sequence, &[65001, 7, 65003])]),
            "65001 7 65003"
        );
        assert_eq!(path(vec![seg(SegmentKind::Set, &[30, 40, 5])]), "{30,40,5}");
        assert_eq!(
            path(vec![
                seg(SegmentKind::Sequence, &[10, 20]),
                seg(SegmentKind::Set, &[30, 40]),
                seg(SegmentKind::Sequence, &[50]),
            ]),
            "10 20 {30,40} 50"
        );
    }

    #[test]
    fn effective_defaults() {
        let a = PathAttrs::default();
        assert_eq!(a.effective_local_pref(), 100);
        assert_eq!(a.effective_med(), 0);
        let b = PathAttrs {
            local_pref: Some(300),
            med: Some(5),
            ..Default::default()
        };
        assert_eq!(b.effective_local_pref(), 300);
        assert_eq!(b.effective_med(), 5);
    }

    #[test]
    fn originated_bag_is_minimal() {
        let a = PathAttrs::originated(Ipv4Addr(0x0A000001));
        assert_eq!(a.as_path.path_len(), 0);
        assert_eq!(a.origin, Origin::Igp);
        assert!(a.communities.is_empty());
    }
}
