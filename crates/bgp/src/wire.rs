//! RFC 4271 wire format: message framing and the OPEN / UPDATE /
//! NOTIFICATION / KEEPALIVE codecs.
//!
//! Decoding is strict: every malformation maps to a [`DecodeError`] that
//! carries the NOTIFICATION error code/subcode a conforming speaker must
//! send (§6). Encoding is deterministic (attributes in ascending type-code
//! order) so byte-level round-trips are testable. Every check a receiver
//! makes on an UPDATE is in [`validate_update`], the one function both the
//! router and DiCE's exploration twin run.

use dice_netsim::{Concrete, Domain};

use crate::attrs::{code, flags, AsPath, Origin, PathAttrs, RawAttr, SegmentKind};
use crate::config::BugSwitches;
use crate::types::{Asn, Community, Ipv4Addr, Ipv4Net, RouterId};

#[cfg(test)]
mod oracle;

/// Length of the all-ones marker field.
pub const MARKER_LEN: usize = 16;
/// Length of the fixed message header.
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message size (§4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// BGP message type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// Session negotiation.
    Open = 1,
    /// Route advertisement / withdrawal.
    Update = 2,
    /// Error report; closes the session.
    Notification = 3,
    /// Liveness probe.
    Keepalive = 4,
}

impl MessageType {
    /// Decode from the wire value.
    pub fn from_u8(v: u8) -> Option<MessageType> {
        match v {
            1 => Some(MessageType::Open),
            2 => Some(MessageType::Update),
            3 => Some(MessageType::Notification),
            4 => Some(MessageType::Keepalive),
            _ => None,
        }
    }
}

/// An OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version; must be 4.
    pub version: u8,
    /// Sender's AS number.
    pub asn: Asn,
    /// Proposed hold time in seconds (0 or >= 3).
    pub hold_time: u16,
    /// Sender's BGP identifier.
    pub router_id: RouterId,
    /// Raw optional parameters, preserved but not interpreted.
    pub opt_params: Vec<u8>,
}

/// An UPDATE message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Ipv4Net>,
    /// Path attributes; `None` only for withdraw-only updates.
    pub attrs: Option<PathAttrs>,
    /// Announced prefixes sharing `attrs`.
    pub nlri: Vec<Ipv4Net>,
}

/// A NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    /// Error code (§4.5).
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// OPEN.
    Open(OpenMsg),
    /// UPDATE.
    Update(UpdateMsg),
    /// NOTIFICATION.
    Notification(NotificationMsg),
    /// KEEPALIVE.
    Keepalive,
}

/// NOTIFICATION error codes.
pub mod notif {
    /// Message Header Error.
    pub const MSG_HEADER: u8 = 1;
    /// OPEN Message Error.
    pub const OPEN_ERROR: u8 = 2;
    /// UPDATE Message Error.
    pub const UPDATE_ERROR: u8 = 3;
    /// Hold Timer Expired.
    pub const HOLD_EXPIRED: u8 = 4;
    /// FSM Error.
    pub const FSM_ERROR: u8 = 5;
    /// Cease.
    pub const CEASE: u8 = 6;
}

/// Decoding failures, each mapped to the NOTIFICATION it should trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    missing_docs,
    reason = "every variant is documented; the payload fields are the offending code / flags / value"
)]
pub enum DecodeError {
    /// Fewer bytes than a header.
    Truncated,
    /// Marker field is not all ones.
    BadMarker,
    /// Header length field out of bounds or inconsistent.
    BadLength(u16),
    /// Unknown message type code.
    BadType(u8),
    /// OPEN: unsupported version.
    UnsupportedVersion(u8),
    /// OPEN: unacceptable hold time (1 or 2).
    BadHoldTime(u16),
    /// OPEN: malformed body.
    BadOpen,
    /// UPDATE: malformed attribute list structure.
    MalformedAttrList,
    /// UPDATE: attribute flags conflict with the type code.
    AttrFlagsError { code: u8, flags: u8 },
    /// UPDATE: attribute length inconsistent with content.
    AttrLenError { code: u8 },
    /// UPDATE: unrecognized well-known attribute.
    UnrecognizedWellKnown(u8),
    /// UPDATE: ORIGIN value invalid.
    InvalidOrigin(u8),
    /// UPDATE: AS_PATH malformed.
    MalformedAsPath,
    /// UPDATE: NEXT_HOP invalid.
    InvalidNextHop,
    /// UPDATE: a mandatory attribute is missing.
    MissingWellKnown(u8),
    /// UPDATE: the same attribute appears twice.
    DuplicateAttr(u8),
    /// UPDATE: NLRI field unparseable.
    InvalidNlri,
    /// NOTIFICATION body truncated.
    BadNotification,
}

impl DecodeError {
    /// The `(code, subcode)` a conforming speaker puts in its NOTIFICATION.
    pub fn notification_codes(&self) -> (u8, u8) {
        use DecodeError::*;
        match self {
            Truncated | BadLength(_) => (notif::MSG_HEADER, 2),
            BadMarker => (notif::MSG_HEADER, 1),
            BadType(_) => (notif::MSG_HEADER, 3),
            UnsupportedVersion(_) => (notif::OPEN_ERROR, 1),
            BadHoldTime(_) => (notif::OPEN_ERROR, 6),
            BadOpen => (notif::OPEN_ERROR, 0),
            MalformedAttrList => (notif::UPDATE_ERROR, 1),
            UnrecognizedWellKnown(_) => (notif::UPDATE_ERROR, 2),
            MissingWellKnown(_) => (notif::UPDATE_ERROR, 3),
            AttrFlagsError { .. } => (notif::UPDATE_ERROR, 4),
            AttrLenError { .. } => (notif::UPDATE_ERROR, 5),
            InvalidOrigin(_) => (notif::UPDATE_ERROR, 6),
            InvalidNextHop => (notif::UPDATE_ERROR, 8),
            MalformedAsPath => (notif::UPDATE_ERROR, 11),
            InvalidNlri => (notif::UPDATE_ERROR, 10),
            DuplicateAttr(_) => (notif::UPDATE_ERROR, 1),
            BadNotification => (notif::MSG_HEADER, 2),
        }
    }

    /// The stage of an UPDATE's handling that rejects with this error, as
    /// the exploration twin names it.
    pub fn stage(&self) -> &'static str {
        use DecodeError::*;
        match self {
            MalformedAttrList => "malformed-attr-list",
            AttrFlagsError { .. } => "attr-flags",
            AttrLenError { .. } => "attr-len",
            UnrecognizedWellKnown(_) => "unrecognized-well-known",
            InvalidOrigin(_) => "origin-value",
            MalformedAsPath => "malformed-as-path",
            InvalidNextHop => "next-hop",
            MissingWellKnown(_) => "missing-mandatory",
            DuplicateAttr(_) => "duplicate-attr",
            InvalidNlri => "nlri",
            _ => "framing",
        }
    }
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn encode_nlri_into(out: &mut Vec<u8>, nets: &[Ipv4Net]) {
    for n in nets {
        out.push(n.len());
        let bytes = n.addr().to_be_bytes();
        out.extend_from_slice(&bytes[..n.nlri_bytes()]);
    }
}

/// Write an attribute header for a value of `len` bytes; the value bytes
/// themselves follow, appended by the caller. EXT_LEN is set iff the value
/// does not fit in a one-byte length.
fn encode_attr_header(out: &mut Vec<u8>, fl: u8, code: u8, len: usize) {
    if len > 255 {
        out.push(fl | flags::EXT_LEN);
        out.push(code);
        push_u16(out, len as u16);
    } else {
        out.push(fl & !flags::EXT_LEN);
        out.push(code);
        out.push(len as u8);
    }
}

fn encode_attr(out: &mut Vec<u8>, fl: u8, code: u8, value: &[u8]) {
    encode_attr_header(out, fl, code, value.len());
    out.extend_from_slice(value);
}

/// Encode the path-attribute block (without the length prefix) directly
/// into `out`, appending. Variable-length attributes (AS_PATH, AGGREGATOR,
/// COMMUNITY) have their value length computed analytically so the header
/// can be written first and the value bytes streamed in place — no
/// per-attribute scratch buffers.
pub fn encode_attrs_into(attrs: &PathAttrs, out: &mut Vec<u8>) {
    // ORIGIN
    encode_attr(out, flags::TRANSITIVE, code::ORIGIN, &[attrs.origin as u8]);
    // AS_PATH: its words are the value (kind + count, then the ASNs, per
    // segment).
    let words = attrs.as_path.words();
    encode_attr_header(out, flags::TRANSITIVE, code::AS_PATH, 2 * words.len());
    for &w in words {
        push_u16(out, w);
    }
    // NEXT_HOP
    encode_attr(
        out,
        flags::TRANSITIVE,
        code::NEXT_HOP,
        &attrs.next_hop.0.to_be_bytes(),
    );
    if let Some(med) = attrs.med {
        encode_attr(out, flags::OPTIONAL, code::MED, &med.to_be_bytes());
    }
    if let Some(lp) = attrs.local_pref {
        encode_attr(out, flags::TRANSITIVE, code::LOCAL_PREF, &lp.to_be_bytes());
    }
    if attrs.atomic_aggregate {
        encode_attr(out, flags::TRANSITIVE, code::ATOMIC_AGGREGATE, &[]);
    }
    if let Some((asn, ip)) = attrs.aggregator {
        encode_attr_header(
            out,
            flags::OPTIONAL | flags::TRANSITIVE,
            code::AGGREGATOR,
            6,
        );
        push_u16(out, asn.0);
        push_u32(out, ip.0);
    }
    if !attrs.communities.is_empty() {
        encode_attr_header(
            out,
            flags::OPTIONAL | flags::TRANSITIVE,
            code::COMMUNITY,
            attrs.communities.len() * 4,
        );
        for c in &attrs.communities {
            push_u32(out, c.0);
        }
    }
    for raw in &attrs.unknown {
        encode_attr(out, raw.flags, raw.code, &raw.value);
    }
}

/// Encode a full message with header into `out`.
///
/// `out` is cleared first, so a dirty reused buffer is fine — this is the
/// zero-copy entry point for pooled wire buffers. The whole datagram
/// (header, body, path attributes, NLRI) is written in a single pass with
/// no intermediate allocations; the message length, withdrawn-routes
/// length, and total-path-attribute length are reserved as placeholders
/// and back-patched once their section is written.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    begin_message(out);
    let ty = match msg {
        Message::Open(o) => {
            out.push(o.version);
            push_u16(out, o.asn.0);
            push_u16(out, o.hold_time);
            push_u32(out, o.router_id.0);
            out.push(o.opt_params.len() as u8);
            out.extend_from_slice(&o.opt_params);
            MessageType::Open
        }
        Message::Update(u) => {
            encode_update_body(out, &u.withdrawn, u.attrs.as_ref(), &u.nlri);
            MessageType::Update
        }
        Message::Notification(n) => {
            out.push(n.code);
            out.push(n.subcode);
            out.extend_from_slice(&n.data);
            MessageType::Notification
        }
        Message::Keepalive => MessageType::Keepalive,
    };
    finish_message(out, ty);
}

/// Encode an UPDATE from borrowed parts into `out`: byte-for-byte what
/// [`encode_into`] writes for the [`UpdateMsg`] owning the same parts, for
/// senders whose attributes live in a RIB and need no message of their own.
pub fn encode_update_into(
    withdrawn: &[Ipv4Net],
    attrs: Option<&PathAttrs>,
    nlri: &[Ipv4Net],
    out: &mut Vec<u8>,
) {
    begin_message(out);
    encode_update_body(out, withdrawn, attrs, nlri);
    finish_message(out, MessageType::Update);
}

/// Clear `out` and write the header with placeholder length and type.
#[inline]
fn begin_message(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0xFF; MARKER_LEN]);
    push_u16(out, 0); // total length, back-patched by `finish_message`
    out.push(0); // type, likewise
}

#[inline]
fn finish_message(out: &mut [u8], ty: MessageType) {
    out[MARKER_LEN + 2] = ty as u8;
    let total = out.len() as u16;
    out[MARKER_LEN..MARKER_LEN + 2].copy_from_slice(&total.to_be_bytes());
    debug_assert!(out.len() <= MAX_MESSAGE_LEN, "encoded message too large");
}

#[inline]
fn encode_update_body(
    out: &mut Vec<u8>,
    withdrawn: &[Ipv4Net],
    attrs: Option<&PathAttrs>,
    nlri: &[Ipv4Net],
) {
    let wd_pos = out.len();
    push_u16(out, 0); // withdrawn length, back-patched
    encode_nlri_into(out, withdrawn);
    let wd_len = (out.len() - wd_pos - 2) as u16;
    out[wd_pos..wd_pos + 2].copy_from_slice(&wd_len.to_be_bytes());
    let ab_pos = out.len();
    push_u16(out, 0); // attr length, back-patched
    if let Some(a) = attrs {
        encode_attrs_into(a, out);
    }
    let ab_len = (out.len() - ab_pos - 2) as u16;
    out[ab_pos..ab_pos + 2].copy_from_slice(&ab_len.to_be_bytes());
    encode_nlri_into(out, nlri);
}

/// Encode a full message with header.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(msg, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Stable branch-site identifiers of an UPDATE's handling: those of
/// [`validate_update`] (10–61, 80–81), then those of the import decision
/// (70–71 in [`crate::policy::screen_path`], 100 and up in
/// [`crate::policy::Policy::decide`]) and the exploration twin's
/// preference oracle (90, [`crate::twin::UpdateTwin`]).
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in `validate_update`, the import decision or the twin"
    )]
    pub const WLEN_FITS: u32 = 10;
    pub const WD_PLEN: u32 = 11;
    pub const WD_FITS: u32 = 12;
    pub const ALEN_FITS: u32 = 13;
    pub const ATTR_HDR_FITS: u32 = 20;
    pub const ATTR_EXT_LEN: u32 = 21;
    pub const ATTR_VAL_FITS: u32 = 22;
    pub const ATTR_WK_FLAGS: u32 = 23;
    pub const ATTR_OPT_FLAG: u32 = 24;
    /// Dispatch sites: `DISPATCH_BASE + type_code` for known codes.
    pub const DISPATCH_BASE: u32 = 30;
    pub const ORIGIN_LEN: u32 = 40;
    pub const ORIGIN_VAL: u32 = 41;
    pub const ASPATH_SEG_KIND: u32 = 42;
    pub const ASPATH_SEG_COUNT: u32 = 43;
    pub const ASPATH_SEG_FITS: u32 = 44;
    pub const NEXTHOP_LEN: u32 = 45;
    pub const NEXTHOP_NONZERO: u32 = 46;
    pub const MED_LEN: u32 = 47;
    pub const LOCALPREF_LEN: u32 = 48;
    pub const ATOMIC_LEN: u32 = 49;
    pub const AGGREGATOR_LEN: u32 = 50;
    pub const COMMUNITY_MOD4: u32 = 51;
    pub const NEXTHOP_NOT_BCAST: u32 = 54;
    pub const ATTR_OPT_TRANS_FLAGS: u32 = 55;
    pub const BUG_CODE_HIGH: u32 = 60;
    pub const BUG_LEN_OVERFLOW: u32 = 61;
    pub const NLRI_PLEN: u32 = 80;
    pub const NLRI_FITS: u32 = 81;
    pub const LOOP_CHECK: u32 = 70;
    pub const FIRST_AS: u32 = 71;
    pub const PREFERENCE_ORACLE: u32 = 90;
    /// Policy rule sites: `POLICY_BASE + rule * 8 + prefix slot % 8`.
    pub const POLICY_BASE: u32 = 100;
}

/// Why [`validate_update`] did not accept an UPDATE: a conforming speaker
/// answers a rejection with the NOTIFICATION the error names.
pub type Verdict = dice_netsim::Verdict<DecodeError>;

/// What [`validate_update`] hands its reader, field by field in wire
/// order, as words of the domain it runs in. A field the validator checks
/// by its length alone comes as the offset of its value in the message.
/// Every method ignores its field unless a reader overrides it.
#[allow(
    unused_variables,
    reason = "the default bodies ignore the field their parameters name"
)]
pub trait UpdateSink<W> {
    /// A withdrawn prefix of `plen` bits, its address bytes at `at`.
    fn withdrawn(&mut self, plen: W, at: usize) {}
    /// The attribute block is not empty.
    fn path_attrs(&mut self) {}
    /// The ORIGIN value.
    fn origin(&mut self, v: W) {}
    /// An AS_PATH segment of `kind` and `count` members; one
    /// [`asn`](Self::asn) per member follows.
    fn segment(&mut self, kind: SegmentKind, count: W) {}
    /// A member of the last [`segment`](Self::segment).
    fn asn(&mut self, asn: W) {}
    /// The whole AS_PATH value, at `value`, once its segments passed.
    fn as_path(&mut self, value: core::ops::Range<usize>) {}
    /// The NEXT_HOP address.
    fn next_hop(&mut self, v: W) {}
    /// MULTI_EXIT_DISC, four bytes at `at`.
    fn med(&mut self, at: usize) {}
    /// LOCAL_PREF, four bytes at `at`.
    fn local_pref(&mut self, at: usize) {}
    /// ATOMIC_AGGREGATE.
    fn atomic_aggregate(&mut self) {}
    /// AGGREGATOR: its AS (two bytes) and address (four) at `at`.
    fn aggregator(&mut self, at: usize) {}
    /// A COMMUNITY value.
    fn community(&mut self, c: W) {}
    /// An unrecognized optional attribute, its value at `value`.
    fn unknown(&mut self, flags: W, code: W, value: core::ops::Range<usize>) {}
    /// An announced prefix: `plen` bits of `addr`.
    fn nlri(&mut self, plen: W, addr: W) {}
}

/// The attribute type codes seen so far in one block.
#[derive(Default)]
struct CodeSet([u64; 4]);

impl CodeSet {
    /// Add `code`; whether it was new.
    fn insert(&mut self, code: u8) -> bool {
        let (word, bit) = ((code >> 6) as usize, 1u64 << (code & 63));
        let new = self.0[word] & bit == 0;
        self.0[word] |= bit;
        new
    }
}

/// The seeded defect's crash reason (see [`BugSwitches::attr_overflow_crash`]).
const BUG_CRASH: &str = "seeded bug: unknown-attribute length overflow in update handler";

/// `(plen + 7) >> 3`: how many address bytes a prefix of `plen` bits has.
fn prefix_bytes<D: Domain>(d: &mut D, plen: D::Word) -> D::Word {
    let p16 = d.zext(16, plen);
    let plus7 = d.add_const(p16, 7);
    d.shr(plus7, 3)
}

/// Take the branch `site` on `ok`, rejecting with `e` the way it is false.
fn require<D: Domain>(d: &mut D, site: u32, ok: D::Bool, e: DecodeError) -> Result<(), Verdict> {
    if d.branch(site, ok) {
        Ok(())
    } else {
        Err(Verdict::Reject(e))
    }
}

/// A bound read off concrete offsets, which records no branch.
fn ensure(ok: bool, e: DecodeError) -> Result<(), Verdict> {
    if ok {
        Ok(())
    } else {
        Err(Verdict::Reject(e))
    }
}

/// The UPDATE validation of a router, written once over a value domain:
/// the router and [`decode`] run it on [`Concrete`] bytes, DiCE's
/// exploration twin on concolic values. `d` holds the whole message, its
/// header already checked. It reads the withdrawn routes, the attribute
/// block (header, extended length, value bounds, duplicates, each
/// attribute's flag pattern and each known type's length and value) and
/// the NLRI, in wire order, handing each field to `sink`, then requires
/// the three mandatory attributes of an UPDATE that announces. With
/// [`BugSwitches::attr_overflow_crash`] on, an unknown optional attribute
/// with a type code at or above 0xF0 and a value of 0x90 bytes or more
/// crashes it.
///
/// Each data-dependent condition is a [`Domain::branch`] at a [`sites`]
/// constant; a bound that is a plain offset comparison is read off
/// concrete values and records none. The order of the domain calls is the
/// twin's path condition, so reordering two reads changes what
/// exploration records.
pub fn validate_update<D: Domain>(
    d: &mut D,
    bugs: BugSwitches,
    sink: &mut impl UpdateSink<D::Word>,
) -> Result<(), Verdict> {
    use DecodeError::*;
    let total = d.len();
    ensure(total >= HEADER_LEN + 2, MalformedAttrList)?;
    let mut pos = HEADER_LEN;

    // ---- Withdrawn routes ------------------------------------------------
    let wlen = d.read_u16_be(pos);
    pos += 2;
    let fits = d.ule_const(wlen, (total - pos) as u64);
    require(d, sites::WLEN_FITS, fits, MalformedAttrList)?;
    let wend = pos + d.value(wlen) as usize;
    while pos < wend {
        let plen = d.read_u8(pos);
        pos += 1;
        let ok = d.ule_const(plen, 32);
        require(d, sites::WD_PLEN, ok, MalformedAttrList)?;
        let nbytes = prefix_bytes(d, plen);
        let fits = d.ule_const(nbytes, (wend - pos) as u64);
        require(d, sites::WD_FITS, fits, MalformedAttrList)?;
        sink.withdrawn(plen, pos);
        pos += d.value(nbytes) as usize;
    }

    // ---- Path attribute block --------------------------------------------
    ensure(pos + 2 <= total, MalformedAttrList)?;
    let alen = d.read_u16_be(pos);
    pos += 2;
    let fits = d.ule_const(alen, (total - pos) as u64);
    require(d, sites::ALEN_FITS, fits, MalformedAttrList)?;
    let aend = pos + d.value(alen) as usize;
    if aend > pos {
        sink.path_attrs();
    }
    let mut seen = CodeSet::default();
    let (mut have_origin, mut have_as_path, mut have_next_hop) = (false, false, false);
    while pos < aend {
        let hdr_fits = d.lit(pos + 2 <= aend);
        require(d, sites::ATTR_HDR_FITS, hdr_fits, MalformedAttrList)?;
        let fl = d.read_u8(pos);
        let tcode = d.read_u8(pos + 1);
        pos += 2;
        let ext_bit = d.and_const(fl, flags::EXT_LEN as u64);
        let has_ext = d.ne_const(ext_bit, 0);
        let len = if d.branch(sites::ATTR_EXT_LEN, has_ext) {
            ensure(pos + 2 <= aend, MalformedAttrList)?;
            let l16 = d.read_u16_be(pos);
            pos += 2;
            l16
        } else {
            ensure(pos < aend, MalformedAttrList)?;
            let l8 = d.read_u8(pos);
            pos += 1;
            d.zext(16, l8)
        };
        let val_fits = d.ule_const(len, (aend - pos) as u64);
        require(d, sites::ATTR_VAL_FITS, val_fits, MalformedAttrList)?;
        let vstart = pos;
        pos += d.value(len) as usize;

        // Duplicates: a table lookup on the concrete code, as in C.
        let tc = d.value(tcode) as u8;
        ensure(seen.insert(tc), DuplicateAttr(tc))?;
        let flags_error = AttrFlagsError {
            code: tc,
            flags: d.value(fl) as u8,
        };
        let len_error = AttrLenError { code: tc };

        let optional = d.and_const(fl, flags::OPTIONAL as u64);
        let opt_set = d.ne_const(optional, 0);
        let transitive = d.and_const(fl, flags::TRANSITIVE as u64);
        let trans_set = d.ne_const(transitive, 0);
        // Well-known flag pattern: !optional && transitive.
        let not_opt = d.bnot(opt_set);
        let wk_ok = d.band(not_opt, trans_set);

        // Dispatch: an if / else-if chain over the known type codes.
        let is = |d: &mut D, k: u8| {
            let hit = d.eq_const(tcode, k as u64);
            d.branch(sites::DISPATCH_BASE + k as u32, hit)
        };
        if is(d, code::ORIGIN) {
            require(d, sites::ATTR_WK_FLAGS, wk_ok, flags_error)?;
            let len_ok = d.eq_const(len, 1);
            require(d, sites::ORIGIN_LEN, len_ok, len_error)?;
            let v = d.read_u8(vstart);
            let v_ok = d.ule_const(v, 2);
            let bad = InvalidOrigin(d.value(v) as u8);
            require(d, sites::ORIGIN_VAL, v_ok, bad)?;
            sink.origin(v);
            have_origin = true;
            continue;
        }
        if is(d, code::AS_PATH) {
            require(d, sites::ATTR_WK_FLAGS, wk_ok, flags_error)?;
            let vend = pos;
            let mut p = vstart;
            while p < vend {
                let kind = d.read_u8(p);
                let set = d.eq_const(kind, 1);
                let sequence = d.eq_const(kind, 2);
                let kind_ok = d.bor(set, sequence);
                require(d, sites::ASPATH_SEG_KIND, kind_ok, MalformedAsPath)?;
                ensure(p + 2 <= vend, MalformedAsPath)?;
                let count = d.read_u8(p + 1);
                let nonzero = d.uge_const(count, 1);
                require(d, sites::ASPATH_SEG_COUNT, nonzero, MalformedAsPath)?;
                let c16 = d.zext(16, count);
                let segbytes = d.shl(c16, 1);
                let fits = d.ule_const(segbytes, (vend - p - 2) as u64);
                require(d, sites::ASPATH_SEG_FITS, fits, MalformedAsPath)?;
                p += 2;
                // Validated above: a kind that is not a set is a sequence.
                let set = d.value(kind) == SegmentKind::Set as u64;
                let kind = if set {
                    SegmentKind::Set
                } else {
                    SegmentKind::Sequence
                };
                sink.segment(kind, count);
                for _ in 0..d.value(count) {
                    let asn = d.read_u16_be(p);
                    sink.asn(asn);
                    p += 2;
                }
            }
            sink.as_path(vstart..vend);
            have_as_path = true;
            continue;
        }
        if is(d, code::NEXT_HOP) {
            require(d, sites::ATTR_WK_FLAGS, wk_ok, flags_error)?;
            let len_ok = d.eq_const(len, 4);
            require(d, sites::NEXTHOP_LEN, len_ok, len_error)?;
            let v = d.read_u32_be(vstart);
            let nonzero = d.ne_const(v, 0);
            require(d, sites::NEXTHOP_NONZERO, nonzero, InvalidNextHop)?;
            let not_bcast = d.ne_const(v, u32::MAX as u64);
            require(d, sites::NEXTHOP_NOT_BCAST, not_bcast, InvalidNextHop)?;
            sink.next_hop(v);
            have_next_hop = true;
            continue;
        }
        if is(d, code::MED) {
            require(d, sites::ATTR_OPT_FLAG, opt_set, flags_error)?;
            let len_ok = d.eq_const(len, 4);
            require(d, sites::MED_LEN, len_ok, len_error)?;
            sink.med(vstart);
            continue;
        }
        if is(d, code::LOCAL_PREF) {
            require(d, sites::ATTR_WK_FLAGS, wk_ok, flags_error)?;
            let len_ok = d.eq_const(len, 4);
            require(d, sites::LOCALPREF_LEN, len_ok, len_error)?;
            sink.local_pref(vstart);
            continue;
        }
        if is(d, code::ATOMIC_AGGREGATE) {
            require(d, sites::ATTR_WK_FLAGS, wk_ok, flags_error)?;
            let len_ok = d.eq_const(len, 0);
            require(d, sites::ATOMIC_LEN, len_ok, len_error)?;
            sink.atomic_aggregate();
            continue;
        }
        // Optional-transitive flag pattern shared by AGGREGATOR / COMMUNITY.
        let opt_trans = d.band(opt_set, trans_set);
        if is(d, code::AGGREGATOR) {
            require(d, sites::ATTR_OPT_TRANS_FLAGS, opt_trans, flags_error)?;
            let len_ok = d.eq_const(len, 6);
            require(d, sites::AGGREGATOR_LEN, len_ok, len_error)?;
            sink.aggregator(vstart);
            continue;
        }
        if is(d, code::COMMUNITY) {
            require(d, sites::ATTR_OPT_TRANS_FLAGS, opt_trans, flags_error)?;
            let low2 = d.and_const(len, 3);
            let mod_ok = d.eq_const(low2, 0);
            require(d, sites::COMMUNITY_MOD4, mod_ok, len_error)?;
            for at in (vstart..pos).step_by(4) {
                let c = d.read_u32_be(at);
                sink.community(c);
            }
            continue;
        }

        // Unknown attribute: a well-known one is fatal; an optional one is
        // carried when transitive and dropped when not.
        require(d, sites::ATTR_OPT_FLAG, opt_set, UnrecognizedWellKnown(tc))?;
        // The seeded programming error: a BIRD-style signed 8-bit length
        // temporary for high-numbered unknown attributes.
        if bugs.attr_overflow_crash {
            let code_high = d.uge_const(tcode, 0xF0);
            if d.branch(sites::BUG_CODE_HIGH, code_high) {
                let len_big = d.uge_const(len, 0x90);
                if d.branch(sites::BUG_LEN_OVERFLOW, len_big) {
                    return Err(Verdict::Crash(BUG_CRASH));
                }
            }
        }
        sink.unknown(fl, tcode, vstart..pos);
    }

    // ---- NLRI ------------------------------------------------------------
    let mut announces = false;
    while pos < total {
        let plen = d.read_u8(pos);
        pos += 1;
        let ok = d.ule_const(plen, 32);
        require(d, sites::NLRI_PLEN, ok, InvalidNlri)?;
        let nbytes = prefix_bytes(d, plen);
        let fits = d.ule_const(nbytes, (total - pos) as u64);
        require(d, sites::NLRI_FITS, fits, InvalidNlri)?;
        // The 32-bit address from up to four bytes, the rest zero.
        let nbytes = d.value(nbytes) as usize;
        let mut addr = d.word(32, 0);
        for k in 0..4 {
            let byte = if k < nbytes {
                let b = d.read_u8(pos + k);
                d.zext(32, b)
            } else {
                d.word(32, 0)
            };
            let shifted = d.shl(byte, (24 - 8 * k) as u8);
            addr = d.or(addr, shifted);
        }
        pos += nbytes;
        sink.nlri(plen, addr);
        announces = true;
    }

    if announces {
        ensure(have_origin, MissingWellKnown(code::ORIGIN))?;
        ensure(have_as_path, MissingWellKnown(code::AS_PATH))?;
        ensure(have_next_hop, MissingWellKnown(code::NEXT_HOP))?;
    }
    Ok(())
}

/// The prefixes of a validated withdrawn-routes or NLRI field, read in
/// place: each a length octet and as many address octets as it needs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prefixes<'a>(&'a [u8]);

impl Iterator for Prefixes<'_> {
    type Item = Ipv4Net;

    fn next(&mut self) -> Option<Ipv4Net> {
        let (&plen, rest) = self.0.split_first()?;
        let (bytes, rest) = rest.split_at(usize::from(plen).div_ceil(8));
        self.0 = rest;
        let mut addr = [0u8; 4];
        addr[..bytes.len()].copy_from_slice(bytes);
        Some(Ipv4Net::new(u32::from_be_bytes(addr), plen))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.clone().count();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Prefixes<'_> {}

/// An UPDATE as a router takes it in: the attribute bag built, the
/// withdrawn and announced prefixes left in the message bytes they were
/// validated in, so no list of them is allocated.
#[derive(Debug, Default)]
pub(crate) struct UpdateView<'a> {
    withdrawn: &'a [u8],
    /// Path attributes; `None` only for withdraw-only updates.
    pub(crate) attrs: Option<PathAttrs>,
    nlri: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// The view of `bytes`, a whole UPDATE [`validate_update`] accepted.
    fn new(bytes: &'a [u8], attrs: Option<PathAttrs>) -> Self {
        let u16_at = |at: usize| usize::from(u16::from_be_bytes([bytes[at], bytes[at + 1]]));
        let wend = HEADER_LEN + 2 + u16_at(HEADER_LEN);
        let aend = wend + 2 + u16_at(wend);
        UpdateView {
            withdrawn: &bytes[HEADER_LEN + 2..wend],
            attrs,
            nlri: &bytes[aend..],
        }
    }

    /// Withdrawn prefixes.
    pub(crate) fn withdrawn(&self) -> Prefixes<'a> {
        Prefixes(self.withdrawn)
    }

    /// Announced prefixes sharing `attrs`.
    pub(crate) fn nlri(&self) -> Prefixes<'a> {
        Prefixes(self.nlri)
    }

    /// The [`UpdateMsg`] holding the same parts.
    fn into_msg(self) -> UpdateMsg {
        UpdateMsg {
            withdrawn: self.withdrawn().collect(),
            nlri: self.nlri().collect(),
            attrs: self.attrs,
        }
    }
}

/// The attribute bag of a validated UPDATE, built as [`validate_update`]
/// hands over its fields; the prefixes are read later, in place
/// ([`UpdateView`]).
struct Decoded<'a> {
    bytes: &'a [u8],
    attrs: Option<PathAttrs>,
}

impl Decoded<'_> {
    fn attrs(&mut self) -> &mut PathAttrs {
        self.attrs.get_or_insert_with(PathAttrs::default)
    }
}

impl UpdateSink<u64> for Decoded<'_> {
    fn path_attrs(&mut self) {
        self.attrs();
    }

    fn origin(&mut self, v: u64) {
        self.attrs().origin = Origin::from_u8(v as u8).unwrap_or_default();
    }

    fn as_path(&mut self, value: core::ops::Range<usize>) {
        self.attrs().as_path = AsPath::from_wire(&self.bytes[value]);
    }

    fn next_hop(&mut self, v: u64) {
        self.attrs().next_hop = Ipv4Addr(v as u32);
    }

    fn med(&mut self, at: usize) {
        self.attrs().med = Some(Concrete(self.bytes).read_u32_be(at) as u32);
    }

    fn local_pref(&mut self, at: usize) {
        self.attrs().local_pref = Some(Concrete(self.bytes).read_u32_be(at) as u32);
    }

    fn atomic_aggregate(&mut self) {
        self.attrs().atomic_aggregate = true;
    }

    fn aggregator(&mut self, at: usize) {
        let mut d = Concrete(self.bytes);
        let aggregator = (
            Asn(d.read_u16_be(at) as u16),
            Ipv4Addr(d.read_u32_be(at + 2) as u32),
        );
        self.attrs().aggregator = Some(aggregator);
    }

    fn community(&mut self, c: u64) {
        self.attrs().communities.insert(Community(c as u32));
    }

    fn unknown(&mut self, fl: u64, tc: u64, value: core::ops::Range<usize>) {
        if fl as u8 & flags::TRANSITIVE != 0 {
            // Carried through with the partial bit set.
            let raw = RawAttr {
                flags: fl as u8 | flags::PARTIAL,
                code: tc as u8,
                value: self.bytes[value].to_vec(),
            };
            self.attrs().unknown.push(raw);
        }
    }
}

/// A message as a router takes it in: an UPDATE as an [`UpdateView`] of
/// the bytes, any other message decoded whole.
#[derive(Debug)]
pub(crate) enum Incoming<'a> {
    /// An UPDATE.
    Update(UpdateView<'a>),
    /// An OPEN, NOTIFICATION or KEEPALIVE.
    Other(Message),
}

/// Decode one message from `buf`, returning the message and bytes consumed.
/// An UPDATE's body is [`validate_update`] on the message's bytes, with no
/// seeded defect.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    match decode_with(buf, BugSwitches::default()) {
        Ok(decoded) => Ok(decoded),
        Err(Verdict::Reject(e)) => Err(e),
        Err(Verdict::Crash(why)) => unreachable!("{why} with no seeded defect"),
    }
}

/// [`decode`] as a router with `bugs` armed runs it: an UPDATE that trips
/// a seeded defect is a [`Verdict::Crash`].
pub fn decode_with(buf: &[u8], bugs: BugSwitches) -> Result<(Message, usize), Verdict> {
    let (incoming, len) = decode_incoming(buf, bugs)?;
    let msg = match incoming {
        Incoming::Update(update) => Message::Update(update.into_msg()),
        Incoming::Other(msg) => msg,
    };
    Ok((msg, len))
}

/// [`decode_with`] as the router reads a message: an UPDATE's prefixes
/// stay in `buf`.
pub(crate) fn decode_incoming(
    buf: &[u8],
    bugs: BugSwitches,
) -> Result<(Incoming<'_>, usize), Verdict> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated.into());
    }
    if buf[..MARKER_LEN].iter().any(|&b| b != 0xFF) {
        return Err(DecodeError::BadMarker.into());
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) || len > buf.len() {
        return Err(DecodeError::BadLength(len as u16).into());
    }
    let ty = MessageType::from_u8(buf[18]).ok_or(DecodeError::BadType(buf[18]))?;
    let body = &buf[HEADER_LEN..len];
    let msg = match ty {
        MessageType::Open => {
            use DecodeError::{BadHoldTime, BadOpen, UnsupportedVersion};
            let Some(&version) = body.first() else {
                return Err(BadOpen.into());
            };
            ensure(version == 4, UnsupportedVersion(version))?;
            let [_, a0, a1, h0, h1, rest @ ..] = body else {
                return Err(BadOpen.into());
            };
            let hold_time = u16::from_be_bytes([*h0, *h1]);
            ensure(hold_time != 1 && hold_time != 2, BadHoldTime(hold_time))?;
            let [r0, r1, r2, r3, opl, opt_params @ ..] = rest else {
                return Err(BadOpen.into());
            };
            ensure(opt_params.len() == *opl as usize, BadOpen)?;
            Message::Open(OpenMsg {
                version,
                asn: Asn(u16::from_be_bytes([*a0, *a1])),
                hold_time,
                router_id: RouterId(u32::from_be_bytes([*r0, *r1, *r2, *r3])),
                opt_params: opt_params.to_vec(),
            })
        }
        MessageType::Update => {
            let bytes = &buf[..len];
            let mut decoded = Decoded { bytes, attrs: None };
            validate_update(&mut Concrete(bytes), bugs, &mut decoded)?;
            let mut attrs = decoded.attrs;
            if let Some(attrs) = &mut attrs {
                attrs.unknown.sort_by_key(|r| r.code);
            }
            return Ok((Incoming::Update(UpdateView::new(bytes, attrs)), len));
        }
        MessageType::Notification => {
            let [code, subcode, data @ ..] = body else {
                return Err(DecodeError::BadNotification.into());
            };
            Message::Notification(NotificationMsg {
                code: *code,
                subcode: *subcode,
                data: data.to_vec(),
            })
        }
        MessageType::Keepalive => {
            if len != HEADER_LEN {
                return Err(DecodeError::BadLength(len as u16).into());
            }
            Message::Keepalive
        }
    };
    Ok((Incoming::Other(msg), len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPathSegment;
    use crate::types::net;
    use proptest::prelude::*;

    /// An UPDATE carrying the attribute block `ab` and announcing
    /// 10.0.0.0/8.
    fn update_with_attrs(ab: &[u8]) -> Vec<u8> {
        let mut msg = vec![0xFF; MARKER_LEN];
        msg.extend_from_slice(&((HEADER_LEN + 6 + ab.len()) as u16).to_be_bytes());
        msg.push(MessageType::Update as u8);
        msg.extend_from_slice(&0u16.to_be_bytes());
        msg.extend_from_slice(&(ab.len() as u16).to_be_bytes());
        msg.extend_from_slice(ab);
        msg.extend_from_slice(&[8, 10]);
        msg
    }

    /// The attributes `decode` makes of the block `ab`, or its error.
    fn decode_attrs(ab: &[u8]) -> Result<PathAttrs, DecodeError> {
        match decode(&update_with_attrs(ab))? {
            (Message::Update(u), _) => Ok(u.attrs.expect("a non-empty block")),
            (other, _) => panic!("decoded {other:?}"),
        }
    }

    /// The mandatory trio of a valid announcement.
    const TRIO: [u8; 18] = [
        flags::TRANSITIVE,
        code::ORIGIN,
        1,
        0,
        flags::TRANSITIVE,
        code::AS_PATH,
        4,
        2,
        1,
        0xFD,
        0xE9,
        flags::TRANSITIVE,
        code::NEXT_HOP,
        4,
        10,
        0,
        0,
        1,
    ];

    fn sample_attrs() -> PathAttrs {
        let mut a = PathAttrs {
            origin: Origin::Egp,
            as_path: AsPath::sequence([65001, 65002]),
            next_hop: Ipv4Addr(0x0A000001),
            med: Some(50),
            local_pref: Some(200),
            atomic_aggregate: true,
            aggregator: Some((Asn(65001), Ipv4Addr(0x0A000002))),
            ..Default::default()
        };
        a.communities.insert(Community::from_pair(65001, 1));
        a.communities.insert(Community::from_pair(65001, 666));
        a
    }

    #[test]
    fn keepalive_roundtrip() {
        let bytes = encode(&Message::Keepalive);
        assert_eq!(bytes.len(), HEADER_LEN);
        let (msg, used) = decode(&bytes).unwrap();
        assert_eq!(msg, Message::Keepalive);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn open_roundtrip() {
        let open = Message::Open(OpenMsg {
            version: 4,
            asn: Asn(65010),
            hold_time: 90,
            router_id: RouterId(0xC0A80101),
            opt_params: vec![],
        });
        let bytes = encode(&open);
        let (msg, _) = decode(&bytes).unwrap();
        assert_eq!(msg, open);
    }

    #[test]
    fn update_roundtrip_full() {
        let upd = Message::Update(UpdateMsg {
            withdrawn: vec![net("192.0.2.0/24"), net("198.51.100.0/25")],
            attrs: Some(sample_attrs()),
            nlri: vec![net("10.0.0.0/8"), net("10.64.0.0/10")],
        });
        let bytes = encode(&upd);
        let (msg, used) = decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, upd);
    }

    #[test]
    fn withdraw_only_update() {
        let upd = Message::Update(UpdateMsg {
            withdrawn: vec![net("203.0.113.0/24")],
            attrs: None,
            nlri: vec![],
        });
        let bytes = encode(&upd);
        let (msg, _) = decode(&bytes).unwrap();
        assert_eq!(msg, upd);
    }

    #[test]
    fn notification_roundtrip() {
        let n = Message::Notification(NotificationMsg {
            code: notif::UPDATE_ERROR,
            subcode: 4,
            data: vec![1, 2, 3],
        });
        let bytes = encode(&n);
        let (msg, _) = decode(&bytes).unwrap();
        assert_eq!(msg, n);
    }

    #[test]
    fn bad_marker_detected() {
        let mut bytes = encode(&Message::Keepalive);
        bytes[0] = 0;
        assert_eq!(decode(&bytes), Err(DecodeError::BadMarker));
    }

    #[test]
    fn truncated_header_detected() {
        assert_eq!(decode(&[0xFF; 10]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_length_detected() {
        let mut bytes = encode(&Message::Keepalive);
        bytes[16] = 0;
        bytes[17] = 5; // < HEADER_LEN
        assert!(matches!(decode(&bytes), Err(DecodeError::BadLength(5))));
    }

    #[test]
    fn bad_type_detected() {
        let mut bytes = encode(&Message::Keepalive);
        bytes[18] = 99;
        assert_eq!(decode(&bytes), Err(DecodeError::BadType(99)));
    }

    #[test]
    fn open_version_check() {
        let mut bytes = encode(&Message::Open(OpenMsg {
            version: 4,
            asn: Asn(1),
            hold_time: 90,
            router_id: RouterId(1),
            opt_params: vec![],
        }));
        bytes[HEADER_LEN] = 3; // version
        assert_eq!(decode(&bytes), Err(DecodeError::UnsupportedVersion(3)));
    }

    #[test]
    fn open_hold_time_check() {
        for ht in [1u16, 2] {
            let mut bytes = encode(&Message::Open(OpenMsg {
                version: 4,
                asn: Asn(1),
                hold_time: 90,
                router_id: RouterId(1),
                opt_params: vec![],
            }));
            bytes[HEADER_LEN + 3] = (ht >> 8) as u8;
            bytes[HEADER_LEN + 4] = ht as u8;
            assert_eq!(decode(&bytes), Err(DecodeError::BadHoldTime(ht)));
        }
    }

    #[test]
    fn origin_value_validated() {
        let mut a = sample_attrs();
        a.atomic_aggregate = false;
        let upd = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(a),
            nlri: vec![net("10.0.0.0/8")],
        };
        let mut bytes = encode(&Message::Update(upd));
        // ORIGIN is the first encoded attribute; its value byte is at a fixed
        // offset: header(19) + wlen(2) + alen(2) + flags/code/len(3).
        let origin_val = HEADER_LEN + 2 + 2 + 3;
        bytes[origin_val] = 9;
        assert_eq!(decode(&bytes), Err(DecodeError::InvalidOrigin(9)));
    }

    #[test]
    fn missing_mandatory_detected() {
        // NLRI present but zero attribute bytes.
        let mut body = Vec::new();
        body.extend_from_slice(&0u16.to_be_bytes()); // withdrawn len
        body.extend_from_slice(&0u16.to_be_bytes()); // attr len
        body.push(8);
        body.push(10); // 10.0.0.0/8
        let mut msg = Vec::new();
        msg.extend_from_slice(&[0xFF; 16]);
        msg.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
        msg.push(2);
        msg.extend_from_slice(&body);
        assert!(matches!(
            decode(&msg),
            Err(DecodeError::MissingWellKnown(_))
        ));
    }

    #[test]
    fn duplicate_attr_detected() {
        // Two ORIGIN attributes.
        let mut ab = Vec::new();
        for _ in 0..2 {
            ab.extend_from_slice(&[flags::TRANSITIVE, code::ORIGIN, 1, 0]);
        }
        assert_eq!(
            decode_attrs(&ab),
            Err(DecodeError::DuplicateAttr(code::ORIGIN))
        );
    }

    #[test]
    fn unknown_transitive_preserved_with_partial() {
        let mut ab = TRIO.to_vec();
        // Unknown optional transitive code 77.
        ab.extend_from_slice(&[flags::OPTIONAL | flags::TRANSITIVE, 77, 2, 0xAB, 0xCD]);
        // Unknown optional NON-transitive code 78 (dropped).
        ab.extend_from_slice(&[flags::OPTIONAL, 78, 1, 0xEE]);
        let attrs = decode_attrs(&ab).unwrap();
        assert_eq!(attrs.unknown.len(), 1);
        assert_eq!(attrs.unknown[0].code, 77);
        assert!(attrs.unknown[0].flags & flags::PARTIAL != 0);
        assert_eq!(attrs.unknown[0].value, vec![0xAB, 0xCD]);
    }

    #[test]
    fn unknown_well_known_rejected() {
        let ab = [TRIO.as_slice(), &[0u8 /* not optional */, 99, 1, 0]].concat();
        assert_eq!(
            decode_attrs(&ab),
            Err(DecodeError::UnrecognizedWellKnown(99))
        );
    }

    #[test]
    fn attr_flags_validated() {
        // ORIGIN marked optional: flag error.
        let ab = [flags::OPTIONAL | flags::TRANSITIVE, code::ORIGIN, 1, 0];
        assert!(matches!(
            decode_attrs(&ab),
            Err(DecodeError::AttrFlagsError { code: 1, .. })
        ));
    }

    #[test]
    fn next_hop_zero_rejected() {
        let mut ab = Vec::new();
        ab.extend_from_slice(&[flags::TRANSITIVE, code::ORIGIN, 1, 0]);
        ab.extend_from_slice(&[flags::TRANSITIVE, code::AS_PATH, 4, 2, 1, 0, 5]);
        ab.extend_from_slice(&[flags::TRANSITIVE, code::NEXT_HOP, 4, 0, 0, 0, 0]);
        assert_eq!(decode_attrs(&ab), Err(DecodeError::InvalidNextHop));
    }

    #[test]
    fn nlri_prefix_length_validated() {
        let upd = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(sample_attrs()),
            nlri: vec![net("10.0.0.0/8")],
        };
        let mut bytes = encode(&Message::Update(upd));
        // Last two bytes are the NLRI: [8, 10]; corrupt the length to 60.
        let n = bytes.len();
        bytes[n - 2] = 60;
        assert_eq!(decode(&bytes), Err(DecodeError::InvalidNlri));
    }

    #[test]
    fn extended_length_attr_roundtrip() {
        // A community list long enough to need extended length (>255 bytes).
        let mut a = PathAttrs {
            origin: Origin::Igp,
            as_path: AsPath::sequence([65001]),
            next_hop: Ipv4Addr(0x0A000001),
            ..Default::default()
        };
        for i in 0..100u16 {
            a.communities.insert(Community::from_pair(65001, i));
        }
        let upd = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(a.clone()),
            nlri: vec![net("10.0.0.0/8")],
        });
        let bytes = encode(&upd);
        let (msg, _) = decode(&bytes).unwrap();
        match msg {
            Message::Update(u) => assert_eq!(u.attrs.unwrap().communities.len(), 100),
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn notification_codes_mapping() {
        assert_eq!(DecodeError::BadMarker.notification_codes(), (1, 1));
        assert_eq!(DecodeError::InvalidOrigin(9).notification_codes(), (3, 6));
        assert_eq!(
            DecodeError::AttrFlagsError { code: 1, flags: 0 }.notification_codes(),
            (3, 4)
        );
    }

    /// An announcement whose last attribute is `fl`-flagged code `tc` with
    /// a `len`-byte value, and whose NLRI prefix length byte is `plen`.
    fn with_unknown(fl: u8, tc: u8, len: usize, plen: u8) -> Vec<u8> {
        let mut ab = TRIO.to_vec();
        ab.extend_from_slice(&[fl, tc, len as u8]);
        ab.resize(ab.len() + len, 0xAA);
        let mut bytes = update_with_attrs(&ab);
        let n = bytes.len();
        bytes[n - 2] = plen;
        bytes
    }

    #[test]
    fn seeded_defect_fires_while_parsing() {
        let armed = BugSwitches {
            attr_overflow_crash: true,
        };
        let opt = flags::OPTIONAL;
        let opt_trans = flags::OPTIONAL | flags::TRANSITIVE;
        // Transitive or not, before valid NLRI or invalid: the crash comes
        // from the attribute, where the parse reaches it.
        for (fl, plen) in [(opt_trans, 8), (opt, 8), (opt_trans, 60)] {
            let bytes = with_unknown(fl, 0xF5, 0x95, plen);
            assert_eq!(decode_with(&bytes, armed), Err(Verdict::Crash(BUG_CRASH)));
            let clean = if plen == 8 {
                Ok(())
            } else {
                Err(DecodeError::InvalidNlri)
            };
            assert_eq!(decode(&bytes).map(|_| ()), clean);
        }
        // Just outside the trigger window.
        for (tc, len) in [(0xEF, 0x95), (0xF5, 0x8F)] {
            let bytes = with_unknown(opt_trans, tc, len, 8);
            assert!(decode_with(&bytes, armed).is_ok());
        }
    }

    #[test]
    fn attribute_errors_precede_nlri_errors() {
        // A zero NEXT_HOP before a 60-bit prefix: the validator reads the
        // attribute block first, the decoder it replaced the NLRI.
        let mut ab = TRIO;
        ab[14..18].fill(0);
        let mut bytes = update_with_attrs(&ab);
        let n = bytes.len();
        bytes[n - 2] = 60;
        assert_eq!(decode(&bytes), Err(DecodeError::InvalidNextHop));
        assert_eq!(oracle::decode(&bytes), Err(DecodeError::InvalidNlri));
    }

    fn arb_net() -> impl Strategy<Value = Ipv4Net> {
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Net::new(addr, len))
    }

    fn arb_attrs() -> impl Strategy<Value = PathAttrs> {
        let segment = (
            prop_oneof![Just(SegmentKind::Sequence), Just(SegmentKind::Set)],
            prop::collection::vec(any::<u16>().prop_map(Asn), 1..4),
        )
            .prop_map(|(kind, asns)| AsPathSegment { kind, asns });
        let unknown = (
            prop_oneof![
                Just(flags::OPTIONAL | flags::TRANSITIVE),
                Just(flags::OPTIONAL)
            ],
            9u8..=255,
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(flags, code, value)| RawAttr { flags, code, value });
        (
            (
                0u8..3,
                prop::collection::vec(segment, 0..3),
                any::<u32>(),
                prop::option::of(any::<u32>()),
                prop::option::of(any::<u32>()),
            ),
            (
                any::<bool>(),
                prop::option::of((any::<u16>(), any::<u32>())),
                prop::collection::btree_set(any::<u32>().prop_map(Community), 0..4),
                prop::collection::vec(unknown, 0..3),
            ),
        )
            .prop_map(
                |((origin, segments, nh, med, local_pref), (atomic, aggr, comms, unknown))| {
                    PathAttrs {
                        origin: Origin::from_u8(origin).unwrap_or_default(),
                        as_path: segments.into_iter().collect(),
                        next_hop: Ipv4Addr(nh),
                        med,
                        local_pref,
                        atomic_aggregate: atomic,
                        aggregator: aggr.map(|(a, ip)| (Asn(a), Ipv4Addr(ip))),
                        communities: comms.into_iter().collect(),
                        unknown,
                    }
                },
            )
    }

    /// An UPDATE's bytes: encoded from generated parts, then overwritten,
    /// shortened or lengthened in the body (the header's length follows),
    /// or a valid header before arbitrary bytes; a valid header of any
    /// type before arbitrary bytes (an OPEN's version mostly 4); or
    /// arbitrary bytes.
    fn arb_message() -> impl Strategy<Value = Vec<u8>> {
        let update = (
            prop::collection::vec(arb_net(), 0..3),
            prop::option::of(arb_attrs()),
            prop::collection::vec(arb_net(), 0..4),
        )
            .prop_map(|(withdrawn, attrs, nlri)| {
                encode(&Message::Update(UpdateMsg {
                    withdrawn,
                    attrs,
                    nlri,
                }))
            })
            .boxed();
        let mutated = (
            update.clone(),
            prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
            prop_oneof![Just(0i8), Just(-1i8), Just(1i8)],
        )
            .prop_map(|(mut bytes, writes, resize)| {
                for (at, v) in writes {
                    let i = HEADER_LEN + at % (bytes.len() - HEADER_LEN);
                    bytes[i] = v;
                }
                match resize {
                    -1 => drop(bytes.pop()),
                    1 => bytes.push(0),
                    _ => {}
                }
                let len = bytes.len() as u16;
                bytes[MARKER_LEN..MARKER_LEN + 2].copy_from_slice(&len.to_be_bytes());
                bytes
            });
        let body = prop::collection::vec(any::<u8>(), 0..64).prop_map(|body| {
            let mut bytes = vec![0xFF; MARKER_LEN];
            bytes.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
            bytes.push(MessageType::Update as u8);
            bytes.extend(body);
            bytes
        });
        let other = (
            1u8..=4,
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..24),
        )
            .prop_map(|(ty, v4, mut body)| {
                if let (true, Some(version)) = (v4, body.first_mut()) {
                    *version = 4;
                }
                let mut bytes = vec![0xFF; MARKER_LEN];
                bytes.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
                bytes.push(ty);
                bytes.extend(body);
                bytes
            });
        let arbitrary = prop::collection::vec(any::<u8>(), 0..48);
        prop_oneof![update, mutated, body, other, arbitrary]
    }

    proptest! {
        /// [`decode`] (the validator on the bytes, building the message as
        /// it goes) against the decoder it replaced: the same message and
        /// length on every input either accepts, and the same error on
        /// every input both reject — except that an UPDATE malformed in
        /// both its attributes and its NLRI is now rejected for the
        /// attribute, which the old decoder reports when it parses the
        /// block alone.
        #[test]
        fn validated_decode_matches_the_oracle(bytes in arb_message()) {
            let new = decode(&bytes);
            let old = oracle::decode(&bytes);
            match (&new, &old) {
                (Err(e), Err(DecodeError::InvalidNlri)) if *e != DecodeError::InvalidNlri => {
                    let wlen = u16::from_be_bytes([bytes[19], bytes[20]]) as usize;
                    let at = HEADER_LEN + 2 + wlen;
                    let alen = u16::from_be_bytes([bytes[at], bytes[at + 1]]) as usize;
                    let block = oracle::decode_attrs(&bytes[at + 2..at + 2 + alen]);
                    prop_assert_eq!(Err(e.clone()), block);
                }
                _ => prop_assert_eq!(new, old),
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // Cheap deterministic fuzz of the decoder.
        let mut state = 0x12345678u64;
        for len in 0..200usize {
            let mut buf = vec![0u8; len];
            for b in buf.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 33) as u8;
            }
            let _ = decode(&buf); // must not panic
            let _ = decode_attrs(&buf);
            let _ = decode_with(
                &update_with_attrs(&buf),
                BugSwitches {
                    attr_overflow_crash: true,
                },
            );
        }
    }
}
