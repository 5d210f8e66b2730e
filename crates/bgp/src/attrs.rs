//! BGP path attributes (RFC 4271 §4.3, RFC 1997 communities).
//!
//! The attribute bag [`PathAttrs`] preserves unknown optional-transitive
//! attributes verbatim (flags included), as a real router must. The seeded
//! "programming error" of the evaluation, a BIRD-style mishandling of an
//! unknown attribute's length, sits where such an attribute is parsed:
//! `crate::wire::validate_update`.

use crate::types::{Asn, Community, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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

/// One AS_PATH segment, as a path is built from parts
/// ([`AsPath`]'s `FromIterator`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsPathSegment {
    /// Set or sequence.
    pub kind: SegmentKind,
    /// Member AS numbers, 1 to 255 (what a segment's count octet holds).
    pub asns: Vec<Asn>,
}

/// The most members one segment holds: its count is one octet.
const SEGMENT_MAX: usize = 255;

/// A segment's header word: its two wire octets, kind then count.
fn header(kind: SegmentKind, count: usize) -> u16 {
    debug_assert!((1..=SEGMENT_MAX).contains(&count), "segment of {count}");
    ((kind as u16) << 8) | count as u16
}

/// The AS_PATH attribute, stored as its wire value: per segment a header
/// word (the kind in the high octet, the member count in the low one),
/// then one word per member. A path of any number of segments is one
/// allocation, and encoding it writes its words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AsPath {
    words: Vec<u16>,
}

impl AsPath {
    /// The empty path (locally originated routes).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A pure sequence path, split into segments of at most 255 members.
    pub fn sequence(asns: impl IntoIterator<Item = u16>) -> Self {
        let asns: Vec<u16> = asns.into_iter().collect();
        let mut words = Vec::with_capacity(asns.len() + asns.len().div_ceil(SEGMENT_MAX));
        for chunk in asns.chunks(SEGMENT_MAX) {
            words.push(header(SegmentKind::Sequence, chunk.len()));
            words.extend_from_slice(chunk);
        }
        AsPath { words }
    }

    /// The path an AS_PATH attribute's value encodes. `value` has passed
    /// [`validate_update`](crate::wire::validate_update): whole segments,
    /// each of a known kind and a count that fits.
    pub(crate) fn from_wire(value: &[u8]) -> Self {
        let words = value.chunks_exact(2);
        AsPath {
            words: words.map(|w| u16::from_be_bytes([w[0], w[1]])).collect(),
        }
    }

    /// The attribute's wire value as 16-bit words, in order.
    pub(crate) fn words(&self) -> &[u16] {
        &self.words
    }

    /// The segments in wire order: each one's kind and members.
    pub fn segments(&self) -> impl Iterator<Item = (SegmentKind, &[u16])> + '_ {
        let mut rest = &self.words[..];
        core::iter::from_fn(move || {
            let (&head, tail) = rest.split_first()?;
            let (members, next) = tail.split_at(usize::from(head as u8));
            rest = next;
            let kind = if head >> 8 == SegmentKind::Set as u16 {
                SegmentKind::Set
            } else {
                SegmentKind::Sequence
            };
            Some((kind, members))
        })
    }

    /// Path length for the decision process: sequences count per-AS,
    /// each set counts as 1 (RFC 4271 §9.1.2.2.a).
    pub fn path_len(&self) -> u32 {
        self.segments()
            .map(|(kind, members)| match kind {
                SegmentKind::Sequence => members.len() as u32,
                SegmentKind::Set => 1,
            })
            .sum()
    }

    /// Whether the path mentions `asn` anywhere (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.all_asns().any(|a| a == asn)
    }

    /// The first member and the kind of its segment, if any.
    pub(crate) fn first_member(&self) -> Option<(Asn, SegmentKind)> {
        let (kind, members) = self.segments().next()?;
        Some((Asn(*members.first()?), kind))
    }

    /// The last member and the kind of its segment, if any.
    pub(crate) fn last_member(&self) -> Option<(Asn, SegmentKind)> {
        let (kind, members) = self.segments().last()?;
        Some((Asn(*members.last()?), kind))
    }

    /// The leftmost AS (the neighbor that sent us the route), if any.
    pub fn first_asn(&self) -> Option<Asn> {
        match self.first_member()? {
            (asn, SegmentKind::Sequence) => Some(asn),
            (_, SegmentKind::Set) => None,
        }
    }

    /// The rightmost AS (the originator), if any.
    pub fn origin_asn(&self) -> Option<Asn> {
        match self.last_member()? {
            (asn, SegmentKind::Sequence) => Some(asn),
            (_, SegmentKind::Set) => None,
        }
    }

    /// Prepend `asn` `count` times (eBGP export).
    pub fn prepend(&mut self, asn: Asn, count: u8) {
        if count > 0 {
            *self = self.prepended(asn, [count]);
        }
    }

    /// The path `asn` prepended `counts` times in turn makes of this one,
    /// built at its final size. Each count is one [`prepend`](Self::prepend):
    /// it joins the leading segment when that is a sequence with room for
    /// it, and opens a new sequence segment otherwise.
    pub(crate) fn prepended(
        &self,
        asn: Asn,
        counts: impl IntoIterator<Item = u8> + Clone,
    ) -> AsPath {
        // Replay the prepends on the leading segment's kind and size to
        // learn the final length, then again to fill the words from the
        // back: the original path ends the buffer, each prepend extends
        // the segment at `front` or opens one before it.
        let lead = match self.words.first() {
            Some(&h) => (h >> 8 == SegmentKind::Sequence as u16, usize::from(h as u8)),
            None => (false, 0),
        };
        let (mut sequence, mut size) = lead;
        let mut added = 0;
        for count in counts.clone().into_iter().filter(|&c| c > 0) {
            let count = usize::from(count);
            if sequence && size + count <= SEGMENT_MAX {
                size += count;
            } else {
                (sequence, size) = (true, count);
                added += 1;
            }
            added += count;
        }
        let total = self.words.len() + added;
        let mut words = vec![0; total];
        words[added..].copy_from_slice(&self.words);
        let mut front = added;
        (sequence, size) = lead;
        for count in counts.into_iter().filter(|&c| c > 0) {
            let count = usize::from(count);
            if sequence && size + count <= SEGMENT_MAX {
                // The header moves `count` words left over the new members.
                size += count;
                front -= count;
            } else {
                (sequence, size) = (true, count);
                front -= count + 1;
            }
            words[front] = header(SegmentKind::Sequence, size);
            words[front + 1..front + 1 + count].fill(asn.0);
        }
        debug_assert_eq!(front, 0);
        AsPath { words }
    }

    /// All ASNs in order of appearance (sets flattened).
    pub fn all_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments()
            .flat_map(|(_, members)| members.iter().copied().map(Asn))
    }
}

/// A path of whole segments, in order.
impl FromIterator<AsPathSegment> for AsPath {
    fn from_iter<I: IntoIterator<Item = AsPathSegment>>(segments: I) -> Self {
        let mut words = Vec::new();
        for seg in segments {
            let count = seg.asns.len();
            assert!(
                (1..=SEGMENT_MAX).contains(&count),
                "an AS_PATH segment holds 1 to 255 members, not {count}"
            );
            words.push(header(seg.kind, count));
            words.extend(seg.asns.iter().map(|a| a.0));
        }
        AsPath { words }
    }
}

impl core::fmt::Display for AsPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, (kind, members)) in self.segments().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            let (open, sep, close) = match kind {
                SegmentKind::Sequence => ("", " ", ""),
                SegmentKind::Set => ("{", ",", "}"),
            };
            f.write_str(open)?;
            for (j, asn) in members.iter().enumerate() {
                if j > 0 {
                    f.write_str(sep)?;
                }
                write!(f, "{asn}")?;
            }
            f.write_str(close)?;
        }
        Ok(())
    }
}

/// How many communities a set holds without a heap allocation.
const INLINE_COMMUNITIES: usize = 4;

/// The COMMUNITY values of a route: a set, iterated in ascending order.
/// Up to four values sit inline, so the tag an import policy adds to a
/// route that carries none, and a copy of a small set, allocate nothing.
#[derive(Clone)]
pub struct Communities(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` values, ascending.
    Inline(u8, [Community; INLINE_COMMUNITIES]),
    /// Ascending; once a set outgrows the inline array it stays here.
    Heap(Vec<Community>),
}

impl Default for Communities {
    fn default() -> Self {
        Communities(Repr::Inline(0, [Community(0); INLINE_COMMUNITIES]))
    }
}

impl Communities {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The values in ascending order.
    pub fn as_slice(&self) -> &[Community] {
        match &self.0 {
            Repr::Inline(len, vals) => &vals[..usize::from(*len)],
            Repr::Heap(vals) => vals,
        }
    }

    /// Iterate the values in ascending order.
    pub fn iter(&self) -> core::slice::Iter<'_, Community> {
        self.as_slice().iter()
    }

    /// How many values the set holds.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether `c` is in the set.
    pub fn contains(&self, c: &Community) -> bool {
        self.as_slice().binary_search(c).is_ok()
    }

    /// Add `c`; whether it was new.
    pub fn insert(&mut self, c: Community) -> bool {
        let Err(at) = self.as_slice().binary_search(&c) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, vals) if usize::from(*len) < INLINE_COMMUNITIES => {
                let n = usize::from(*len);
                vals.copy_within(at..n, at + 1);
                vals[at] = c;
                *len += 1;
            }
            Repr::Inline(_, vals) => {
                let mut heap = Vec::with_capacity(2 * INLINE_COMMUNITIES);
                heap.extend_from_slice(vals);
                heap.insert(at, c);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(vals) => vals.insert(at, c),
        }
        true
    }

    /// Remove `c`; whether it was present.
    pub fn remove(&mut self, c: &Community) -> bool {
        let Ok(at) = self.as_slice().binary_search(c) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, vals) => {
                vals.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Repr::Heap(vals) => {
                vals.remove(at);
            }
        }
        true
    }
}

impl PartialEq for Communities {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Communities {}

impl core::fmt::Debug for Communities {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Community> for Communities {
    fn from_iter<I: IntoIterator<Item = Community>>(values: I) -> Self {
        let mut set = Communities::new();
        for c in values {
            set.insert(c);
        }
        set
    }
}

impl<const N: usize> From<[Community; N]> for Communities {
    fn from(values: [Community; N]) -> Self {
        values.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Communities {
    type Item = &'a Community;
    type IntoIter = core::slice::Iter<'a, Community>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// An attribute this implementation does not interpret, preserved verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAttr {
    /// Original flag octet.
    pub flags: u8,
    /// Type code.
    pub code: u8,
    /// Raw value bytes.
    pub value: Vec<u8>,
}

/// The parsed attribute bag of an UPDATE (or of a RIB entry).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub communities: Communities,
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
            communities: Communities::new(),
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

    fn seg(kind: SegmentKind, asns: &[u16]) -> AsPathSegment {
        AsPathSegment {
            kind,
            asns: asns.iter().copied().map(Asn).collect(),
        }
    }

    #[test]
    fn path_len_counts_sets_as_one() {
        let p: AsPath = [
            seg(SegmentKind::Sequence, &[1, 2]),
            seg(SegmentKind::Set, &[3, 4, 5]),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.path_len(), 3);
        // The words are the attribute's wire value.
        assert_eq!(p.words(), [0x0202, 1, 2, 0x0103, 3, 4, 5]);
    }

    #[test]
    fn prepend_extends_leading_sequence() {
        let mut p = AsPath::sequence([20, 30]);
        p.prepend(Asn(10), 2);
        let segments: Vec<_> = p.segments().collect();
        assert_eq!(segments, [(SegmentKind::Sequence, &[10, 10, 20, 30][..])]);
        assert_eq!(p.first_asn(), Some(Asn(10)));
        assert_eq!(p.origin_asn(), Some(Asn(30)));
    }

    #[test]
    fn prepend_opens_a_segment_before_a_set_or_a_full_sequence() {
        let mut p: AsPath = [seg(SegmentKind::Set, &[3, 4])].into_iter().collect();
        p.prepend(Asn(9), 1);
        assert_eq!(p.to_string(), "9 {3,4}");
        let mut full = AsPath::sequence(vec![7; 255]);
        full.prepend(Asn(9), 2);
        assert_eq!(full.segments().count(), 2);
        assert_eq!(full.path_len(), 257);
        // Two prepends in turn: the first fills the new segment's room
        // only as far as the second leaves it.
        let twice = AsPath::sequence(vec![7; 250]).prepended(Asn(9), [3, 3, 1]);
        let sizes: Vec<usize> = twice.segments().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, [4, 253]);
    }

    #[test]
    fn a_long_sequence_splits_at_255() {
        let p = AsPath::sequence(1..=300);
        let sizes: Vec<usize> = p.segments().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, [255, 45]);
        assert_eq!(p.path_len(), 300);
        assert_eq!(p.origin_asn(), Some(Asn(300)));
    }

    #[test]
    fn community_sets_stay_ordered_past_the_inline_array() {
        let mut set = Communities::new();
        for v in [5, 1, 9, 3, 7, 1, 2] {
            set.insert(Community(v));
        }
        let values: Vec<u32> = set.iter().map(|c| c.0).collect();
        assert_eq!(values, [1, 2, 3, 5, 7, 9]);
        assert!(set.remove(&Community(3)) && !set.remove(&Community(3)));
        let small: Communities = [Community(9), Community(1)].into();
        assert!(small.contains(&Community(1)) && !small.contains(&Community(3)));
        // Equality is by content, whatever the storage.
        let mut spilled: Communities = (0..6).map(Community).collect();
        for v in 2..6 {
            spilled.remove(&Community(v));
        }
        assert_eq!(spilled, [Community(0), Community(1)].into());
        assert_eq!(format!("{spilled:?}"), "{Community(0), Community(1)}");
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
        let p: AsPath = [
            seg(SegmentKind::Sequence, &[1]),
            seg(SegmentKind::Set, &[9]),
        ]
        .into_iter()
        .collect();
        assert!(p.contains(Asn(9)));
        assert!(p.contains(Asn(1)));
        assert!(!p.contains(Asn(2)));
    }

    #[test]
    fn display_formats() {
        let path = |segments: Vec<AsPathSegment>| AsPath::from_iter(segments).to_string();
        // `tests/snapshot_properties.rs` compares Loc-RIBs by this text; it
        // is pinned byte for byte.
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
