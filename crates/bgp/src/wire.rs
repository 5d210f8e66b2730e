//! RFC 4271 wire format: message framing and the OPEN / UPDATE /
//! NOTIFICATION / KEEPALIVE codecs.
//!
//! Decoding is strict: every malformation maps to a [`DecodeError`] that
//! carries the NOTIFICATION error code/subcode a conforming speaker must
//! send (§6). Encoding is deterministic (attributes in ascending type-code
//! order) so byte-level round-trips are testable.

use crate::attrs::{code, flags, AsPath, AsPathSegment, Origin, PathAttrs, RawAttr, SegmentKind};
use crate::types::{Asn, Community, Ipv4Addr, Ipv4Net, RouterId};

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
    // AS_PATH: each segment is kind + count + 2 bytes per ASN.
    let ap_len: usize = attrs
        .as_path
        .segments
        .iter()
        .map(|seg| 2 + 2 * seg.asns.len())
        .sum();
    encode_attr_header(out, flags::TRANSITIVE, code::AS_PATH, ap_len);
    for seg in &attrs.as_path.segments {
        out.push(seg.kind as u8);
        out.push(seg.asns.len() as u8);
        for a in &seg.asns {
            push_u16(out, a.0);
        }
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

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn u16(&mut self) -> Option<u16> {
        let hi = self.u8()? as u16;
        let lo = self.u8()? as u16;
        Some((hi << 8) | lo)
    }
    fn u32(&mut self) -> Option<u32> {
        let hi = self.u16()? as u32;
        let lo = self.u16()? as u32;
        Some((hi << 16) | lo)
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
}

fn decode_nlri(buf: &[u8], err: DecodeError) -> Result<Vec<Ipv4Net>, DecodeError> {
    let mut r = Reader::new(buf);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let len = r.u8().ok_or_else(|| err.clone())?;
        if len > 32 {
            return Err(err);
        }
        let nb = len as usize / 8 + usize::from(len % 8 != 0);
        let bytes = r.bytes(nb).ok_or_else(|| err.clone())?;
        let mut addr = [0u8; 4];
        addr[..nb].copy_from_slice(bytes);
        out.push(Ipv4Net::new(u32::from_be_bytes(addr), len));
    }
    Ok(out)
}

/// Presence of the three well-known mandatory attributes in a parsed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MandatoryPresence {
    /// ORIGIN present.
    pub origin: bool,
    /// AS_PATH present.
    pub as_path: bool,
    /// NEXT_HOP present.
    pub next_hop: bool,
}

/// Parse the path-attribute block of an UPDATE.
pub fn decode_attrs(buf: &[u8]) -> Result<PathAttrs, DecodeError> {
    decode_attrs_with_presence(buf).map(|(a, _)| a)
}

/// Like [`decode_attrs`], also reporting which mandatory attributes were
/// present (the UPDATE decoder enforces presence only when NLRI is present).
pub fn decode_attrs_with_presence(
    buf: &[u8],
) -> Result<(PathAttrs, MandatoryPresence), DecodeError> {
    let mut r = Reader::new(buf);
    let mut attrs = PathAttrs::default();
    let mut seen: Vec<u8> = Vec::new();
    let mut have_origin = false;
    let mut have_as_path = false;
    let mut have_next_hop = false;

    while r.remaining() > 0 {
        let fl = r.u8().ok_or(DecodeError::MalformedAttrList)?;
        let tc = r.u8().ok_or(DecodeError::MalformedAttrList)?;
        let len = if fl & flags::EXT_LEN != 0 {
            r.u16().ok_or(DecodeError::MalformedAttrList)? as usize
        } else {
            r.u8().ok_or(DecodeError::MalformedAttrList)? as usize
        };
        let value = r.bytes(len).ok_or(DecodeError::MalformedAttrList)?;
        if seen.contains(&tc) {
            return Err(DecodeError::DuplicateAttr(tc));
        }
        seen.push(tc);

        let optional = fl & flags::OPTIONAL != 0;
        let transitive = fl & flags::TRANSITIVE != 0;
        let well_known_check = |is_wk: bool| -> Result<(), DecodeError> {
            if is_wk && (optional || !transitive) {
                return Err(DecodeError::AttrFlagsError {
                    code: tc,
                    flags: fl,
                });
            }
            Ok(())
        };

        match tc {
            code::ORIGIN => {
                well_known_check(true)?;
                if value.len() != 1 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                attrs.origin =
                    Origin::from_u8(value[0]).ok_or(DecodeError::InvalidOrigin(value[0]))?;
                have_origin = true;
            }
            code::AS_PATH => {
                well_known_check(true)?;
                let mut pr = Reader::new(value);
                let mut segments = Vec::new();
                while pr.remaining() > 0 {
                    let kind = SegmentKind::from_u8(pr.u8().ok_or(DecodeError::MalformedAsPath)?)
                        .ok_or(DecodeError::MalformedAsPath)?;
                    let count = pr.u8().ok_or(DecodeError::MalformedAsPath)? as usize;
                    if count == 0 {
                        return Err(DecodeError::MalformedAsPath);
                    }
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(Asn(pr.u16().ok_or(DecodeError::MalformedAsPath)?));
                    }
                    segments.push(AsPathSegment { kind, asns });
                }
                attrs.as_path = AsPath { segments };
                have_as_path = true;
            }
            code::NEXT_HOP => {
                well_known_check(true)?;
                if value.len() != 4 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                let a = u32::from_be_bytes([value[0], value[1], value[2], value[3]]);
                if a == 0 || a == u32::MAX {
                    return Err(DecodeError::InvalidNextHop);
                }
                attrs.next_hop = Ipv4Addr(a);
                have_next_hop = true;
            }
            code::MED => {
                if !optional {
                    return Err(DecodeError::AttrFlagsError {
                        code: tc,
                        flags: fl,
                    });
                }
                if value.len() != 4 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                attrs.med = Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
            }
            code::LOCAL_PREF => {
                well_known_check(true)?;
                if value.len() != 4 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                attrs.local_pref =
                    Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
            }
            code::ATOMIC_AGGREGATE => {
                well_known_check(true)?;
                if !value.is_empty() {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                attrs.atomic_aggregate = true;
            }
            code::AGGREGATOR => {
                if !optional || !transitive {
                    return Err(DecodeError::AttrFlagsError {
                        code: tc,
                        flags: fl,
                    });
                }
                if value.len() != 6 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                let asn = Asn(u16::from_be_bytes([value[0], value[1]]));
                let ip = Ipv4Addr(u32::from_be_bytes([value[2], value[3], value[4], value[5]]));
                attrs.aggregator = Some((asn, ip));
            }
            code::COMMUNITY => {
                if !optional || !transitive {
                    return Err(DecodeError::AttrFlagsError {
                        code: tc,
                        flags: fl,
                    });
                }
                if value.len() % 4 != 0 {
                    return Err(DecodeError::AttrLenError { code: tc });
                }
                for ch in value.chunks_exact(4) {
                    attrs
                        .communities
                        .insert(Community(u32::from_be_bytes([ch[0], ch[1], ch[2], ch[3]])));
                }
            }
            _ => {
                if !optional {
                    return Err(DecodeError::UnrecognizedWellKnown(tc));
                }
                if transitive {
                    // Carry through with the partial bit set.
                    attrs.unknown.push(RawAttr {
                        flags: fl | flags::PARTIAL,
                        code: tc,
                        value: value.to_vec(),
                    });
                }
                // Unknown optional non-transitive: silently dropped.
            }
        }
    }

    attrs.unknown.sort_by_key(|r| r.code);
    Ok((
        attrs,
        MandatoryPresence {
            origin: have_origin,
            as_path: have_as_path,
            next_hop: have_next_hop,
        },
    ))
}

/// Decode one message from `buf`, returning the message and bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    if buf[..MARKER_LEN].iter().any(|&b| b != 0xFF) {
        return Err(DecodeError::BadMarker);
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) || len > buf.len() {
        return Err(DecodeError::BadLength(len as u16));
    }
    let ty = MessageType::from_u8(buf[18]).ok_or(DecodeError::BadType(buf[18]))?;
    let body = &buf[HEADER_LEN..len];
    let msg = match ty {
        MessageType::Open => {
            let mut r = Reader::new(body);
            let version = r.u8().ok_or(DecodeError::BadOpen)?;
            if version != 4 {
                return Err(DecodeError::UnsupportedVersion(version));
            }
            let asn = Asn(r.u16().ok_or(DecodeError::BadOpen)?);
            let hold_time = r.u16().ok_or(DecodeError::BadOpen)?;
            if hold_time == 1 || hold_time == 2 {
                return Err(DecodeError::BadHoldTime(hold_time));
            }
            let router_id = RouterId(r.u32().ok_or(DecodeError::BadOpen)?);
            let opl = r.u8().ok_or(DecodeError::BadOpen)? as usize;
            let opt_params = r.bytes(opl).ok_or(DecodeError::BadOpen)?.to_vec();
            if r.remaining() != 0 {
                return Err(DecodeError::BadOpen);
            }
            Message::Open(OpenMsg {
                version,
                asn,
                hold_time,
                router_id,
                opt_params,
            })
        }
        MessageType::Update => {
            let mut r = Reader::new(body);
            let wlen = r.u16().ok_or(DecodeError::MalformedAttrList)? as usize;
            let wbytes = r.bytes(wlen).ok_or(DecodeError::MalformedAttrList)?;
            let withdrawn = decode_nlri(wbytes, DecodeError::MalformedAttrList)?;
            let alen = r.u16().ok_or(DecodeError::MalformedAttrList)? as usize;
            let abytes = r.bytes(alen).ok_or(DecodeError::MalformedAttrList)?;
            let nlri_bytes = r.bytes(r.remaining()).unwrap_or(&[]);
            let nlri = decode_nlri(nlri_bytes, DecodeError::InvalidNlri)?;
            let attrs = if alen > 0 {
                let (a, pres) = decode_attrs_with_presence(abytes)?;
                if !nlri.is_empty() {
                    if !pres.origin {
                        return Err(DecodeError::MissingWellKnown(code::ORIGIN));
                    }
                    if !pres.as_path {
                        return Err(DecodeError::MissingWellKnown(code::AS_PATH));
                    }
                    if !pres.next_hop {
                        return Err(DecodeError::MissingWellKnown(code::NEXT_HOP));
                    }
                }
                Some(a)
            } else {
                if !nlri.is_empty() {
                    return Err(DecodeError::MissingWellKnown(code::ORIGIN));
                }
                None
            };
            Message::Update(UpdateMsg {
                withdrawn,
                attrs,
                nlri,
            })
        }
        MessageType::Notification => {
            let mut r = Reader::new(body);
            let codev = r.u8().ok_or(DecodeError::BadNotification)?;
            let subcode = r.u8().ok_or(DecodeError::BadNotification)?;
            let data = r.bytes(r.remaining()).unwrap_or(&[]).to_vec();
            Message::Notification(NotificationMsg {
                code: codev,
                subcode,
                data,
            })
        }
        MessageType::Keepalive => {
            if len != HEADER_LEN {
                return Err(DecodeError::BadLength(len as u16));
            }
            Message::Keepalive
        }
    };
    Ok((msg, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::net;

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
        let mut ab = Vec::new();
        // Mandatory trio.
        ab.extend_from_slice(&[flags::TRANSITIVE, code::ORIGIN, 1, 0]);
        ab.extend_from_slice(&[flags::TRANSITIVE, code::AS_PATH, 4, 2, 1, 0xFD, 0xE9]);
        ab.extend_from_slice(&[flags::TRANSITIVE, code::NEXT_HOP, 4, 10, 0, 0, 1]);
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
        let ab = [0u8 /* not optional */, 99, 1, 0];
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
        }
    }
}
