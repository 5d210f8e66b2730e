//! The UPDATE decoder [`validate_update`](super::validate_update) replaced:
//! a byte reader that decodes the withdrawn routes, then the NLRI, then
//! the attribute block. Kept test-only as the oracle of
//! `validated_decode_matches_the_oracle`, which holds [`super::decode`]
//! equal to it on every message either accepts, and on the error of every
//! message both reject.

use super::*;
use crate::attrs::AsPathSegment;

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
pub(crate) struct MandatoryPresence {
    /// ORIGIN present.
    pub origin: bool,
    /// AS_PATH present.
    pub as_path: bool,
    /// NEXT_HOP present.
    pub next_hop: bool,
}

/// Parse the path-attribute block of an UPDATE.
pub(crate) fn decode_attrs(buf: &[u8]) -> Result<PathAttrs, DecodeError> {
    decode_attrs_with_presence(buf).map(|(a, _)| a)
}

/// Like [`decode_attrs`], also reporting which mandatory attributes were
/// present (the UPDATE decoder enforces presence only when NLRI is present).
pub(crate) fn decode_attrs_with_presence(
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
                    let kind = match pr.u8().ok_or(DecodeError::MalformedAsPath)? {
                        1 => SegmentKind::Set,
                        2 => SegmentKind::Sequence,
                        _ => return Err(DecodeError::MalformedAsPath),
                    };
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
                attrs.as_path = segments.into_iter().collect();
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
pub(crate) fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
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
