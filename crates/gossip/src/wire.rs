//! The gossip wire format: four fixed-layout frames.
//!
//! Deliberately *not* BGP-shaped — the point of this protocol is to prove
//! the DiCE runtime generalizes, so the message grammar, the framing and
//! the failure modes are all different:
//!
//! ```text
//! RUMOR      [op=0x01][topic:u16][id:u32][origin:u16][ttl:u8][plen:u8][payload...]
//! DIGEST     [op=0x02][count:u8][count x (topic:u16, id:u32)]
//! SUBSCRIBE  [op=0x03][topic:u16]
//! ACK        [op=0x04][kind:u8][topic:u16][id:u32]
//! ```
//!
//! All multi-byte integers are big-endian. Every frame is length-exact:
//! trailing bytes are a decode error (gossip frames are datagram-shaped,
//! unlike BGP's self-delimiting TCP stream messages). Every check a
//! receiver makes is in [`validate`], the one function both the node and
//! DiCE's exploration twin run.

use dice_netsim::{Concrete, Domain};

use crate::node::GossipBugs;

/// Opcode of a [`Rumor`](GossipFrame::Rumor) frame.
pub const OP_RUMOR: u8 = 0x01;
/// Opcode of a [`Digest`](GossipFrame::Digest) frame.
pub const OP_DIGEST: u8 = 0x02;
/// Opcode of a [`Subscribe`](GossipFrame::Subscribe) frame.
pub const OP_SUBSCRIBE: u8 = 0x03;
/// Opcode of an [`Ack`](GossipFrame::Ack) frame.
pub const OP_ACK: u8 = 0x04;

/// Exact length of an ACK frame.
pub const ACK_LEN: usize = 8;
/// [`GossipFrame::Ack`] kind acknowledging a RUMOR.
pub const ACK_KIND_RUMOR: u8 = 0;
/// [`GossipFrame::Ack`] kind acknowledging a SUBSCRIBE (`id` is zero).
pub const ACK_KIND_SUBSCRIBE: u8 = 1;

/// Fixed header length of a RUMOR frame (payload follows).
pub const RUMOR_HEADER_LEN: usize = 11;
/// Bytes per digest entry: topic (2) + rumor id (4).
pub const DIGEST_ENTRY_LEN: usize = 6;
/// Maximum rumor payload a conforming node accepts.
pub const MAX_PAYLOAD: usize = 64;
/// Maximum hop TTL a conforming node accepts.
pub const MAX_TTL: u8 = 15;
/// Maximum entries in a digest a conforming node accepts.
pub const MAX_DIGEST_ENTRIES: u8 = 32;

/// A digest `count` at or above this value trips the seeded bug when
/// [`GossipBugs::digest_count_overflow`](crate::node::GossipBugs) is
/// enabled: the buggy code path uses the attacker-controlled count to size
/// a seen-set scan *before* validating it against the frame length —
/// the gossip analogue of the BGP adapter's unknown-attribute overflow.
pub const BUG_COUNT_THRESHOLD: u8 = 0xC0;

/// Topics are dense small integers, like interior routing tags.
pub type TopicId = u16;

/// One piece of application data being epidemically disseminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rumor {
    /// The pub/sub topic this rumor belongs to.
    pub topic: TopicId,
    /// Unique id within the topic (publisher-allocated, monotone).
    pub id: u32,
    /// Identity of the publisher (ASN-like; attested out of band).
    pub origin: u16,
    /// Remaining forwarding hops.
    pub ttl: u8,
    /// Opaque application payload.
    pub payload: Vec<u8>,
}

/// Any frame of the gossip protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipFrame {
    /// Push one rumor to a peer.
    Rumor(Rumor),
    /// Anti-entropy summary: `(topic, id)` pairs the sender has seen.
    Digest(Vec<(TopicId, u32)>),
    /// Announce interest in a topic.
    Subscribe {
        /// The topic being subscribed to.
        topic: TopicId,
    },
    /// Acknowledge receipt of a retransmittable frame (RUMOR or
    /// SUBSCRIBE), so the sender can clear its retransmit state. ACKs are
    /// never themselves acknowledged.
    Ack {
        /// [`ACK_KIND_RUMOR`] or [`ACK_KIND_SUBSCRIBE`].
        kind: u8,
        /// Topic of the acknowledged frame.
        topic: TopicId,
        /// Rumor id being acknowledged; zero for subscribe acks.
        id: u32,
    },
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Zero-length input.
    Empty,
    /// Frame shorter than its fixed layout requires.
    Truncated,
    /// Frame longer than its declared contents.
    TrailingBytes,
    /// First byte is not a known opcode.
    UnknownOpcode(u8),
    /// Rumor TTL above [`MAX_TTL`].
    TtlTooLarge(u8),
    /// Rumor payload length above [`MAX_PAYLOAD`].
    PayloadTooLong(u8),
    /// Digest entry count above [`MAX_DIGEST_ENTRIES`].
    DigestTooLong(u8),
    /// Ack kind byte is neither rumor nor subscribe.
    BadAckKind(u8),
}

impl DecodeError {
    /// The stage that rejects a frame with this error, as the exploration
    /// twin names it.
    pub fn stage(&self) -> &'static str {
        match self {
            DecodeError::Empty => "empty",
            DecodeError::Truncated => "truncated",
            DecodeError::TrailingBytes => "trailing-bytes",
            DecodeError::UnknownOpcode(_) => "unknown-opcode",
            DecodeError::TtlTooLarge(_) => "ttl-too-large",
            DecodeError::PayloadTooLong(_) => "payload-too-long",
            DecodeError::DigestTooLong(_) => "digest-too-long",
            DecodeError::BadAckKind(_) => "ack-kind",
        }
    }
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty frame"),
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after frame"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::TtlTooLarge(t) => write!(f, "ttl {t} above {MAX_TTL}"),
            DecodeError::PayloadTooLong(n) => write!(f, "payload length {n} above {MAX_PAYLOAD}"),
            DecodeError::DigestTooLong(n) => {
                write!(f, "digest count {n} above {MAX_DIGEST_ENTRIES}")
            }
            DecodeError::BadAckKind(k) => write!(f, "unknown ack kind {k}"),
        }
    }
}

/// Encode a frame into `out`, clearing it first.
///
/// This is the zero-copy entry point: a dirty reused (pooled) buffer is
/// fine, and the whole frame is written with no intermediate allocations.
pub fn encode_into(frame: &GossipFrame, out: &mut Vec<u8>) {
    out.clear();
    match frame {
        GossipFrame::Rumor(r) => {
            debug_assert!(r.payload.len() <= MAX_PAYLOAD);
            out.push(OP_RUMOR);
            out.extend_from_slice(&r.topic.to_be_bytes());
            out.extend_from_slice(&r.id.to_be_bytes());
            out.extend_from_slice(&r.origin.to_be_bytes());
            out.push(r.ttl);
            out.push(r.payload.len() as u8);
            out.extend_from_slice(&r.payload);
        }
        GossipFrame::Digest(entries) => {
            debug_assert!(entries.len() <= MAX_DIGEST_ENTRIES as usize);
            out.push(OP_DIGEST);
            out.push(entries.len() as u8);
            for (topic, id) in entries {
                out.extend_from_slice(&topic.to_be_bytes());
                out.extend_from_slice(&id.to_be_bytes());
            }
        }
        GossipFrame::Subscribe { topic } => {
            out.push(OP_SUBSCRIBE);
            out.extend_from_slice(&topic.to_be_bytes());
        }
        GossipFrame::Ack { kind, topic, id } => {
            debug_assert!(matches!(*kind, ACK_KIND_RUMOR | ACK_KIND_SUBSCRIBE));
            out.push(OP_ACK);
            out.push(*kind);
            out.extend_from_slice(&topic.to_be_bytes());
            out.extend_from_slice(&id.to_be_bytes());
        }
    }
}

/// Encode a frame to bytes.
pub fn encode(frame: &GossipFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

/// Stable branch-site identifiers of [`validate`] and of the exploration
/// twin's classification after it ([`crate::twin::FrameTwin`]). Based at 200 so a campaign's coverage
/// union never aliases the BGP twin's sites (10..=150).
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in `validate` or the twin"
    )]
    pub const OP_IS_RUMOR: u32 = 200;
    pub const OP_IS_DIGEST: u32 = 201;
    pub const OP_IS_SUBSCRIBE: u32 = 202;
    pub const RUMOR_TTL: u32 = 203;
    pub const RUMOR_PLEN_LIMIT: u32 = 204;
    pub const RUMOR_PLEN_EXACT: u32 = 205;
    pub const RUMOR_TOPIC_SUBSCRIBED: u32 = 206;
    pub const RUMOR_NOVEL: u32 = 207;
    pub const DIGEST_COUNT_LIMIT: u32 = 208;
    pub const DIGEST_LEN_EXACT: u32 = 209;
    pub const DIGEST_ENTRY_KNOWN: u32 = 210;
    pub const BUG_DIGEST_COUNT: u32 = 211;
    pub const OP_IS_ACK: u32 = 212;
    pub const ACK_KIND_VALID: u32 = 213;
}

/// The fields of a valid frame, as words of the domain it was validated
/// in. A digest's entries stay in the bytes: `count` of them follow the
/// count byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(
    missing_docs,
    reason = "the fields are the wire fields of the same name"
)]
pub enum Frame<W> {
    Rumor { topic: W, id: W, origin: W, ttl: W },
    Digest { count: W },
    Subscribe { topic: W },
    Ack { kind: W, topic: W, id: W },
}

/// Why [`validate`] did not accept a frame: a conforming node drops a
/// rejected one.
pub type Verdict = dice_netsim::Verdict<DecodeError>;

/// The frame validation of a gossip node, written once over a value
/// domain: the node and [`decode`] run it on [`Concrete`] bytes, DiCE's
/// exploration twin on concolic values. It dispatches on the opcode and
/// checks every bound of the frame's arm; with
/// [`GossipBugs::digest_count_overflow`] on, it first trips on a digest
/// count at or above [`BUG_COUNT_THRESHOLD`], before the count is checked.
///
/// Each data-dependent condition is a [`Domain::branch`] at a [`sites`]
/// constant. Whether a wrong length is [`DecodeError::Truncated`] or
/// [`DecodeError::TrailingBytes`] is read off concrete values and records
/// no branch. The order of the domain calls is the twin's path
/// condition, so reordering two reads changes what exploration records.
pub fn validate<D: Domain>(d: &mut D, bugs: GossipBugs) -> Result<Frame<D::Word>, Verdict> {
    let reject = |e| Err(Verdict::Reject(e));
    let total = d.len();
    if d.is_empty() {
        return reject(DecodeError::Empty);
    }
    let op = d.read_u8(0);

    let is_rumor = d.eq_const(op, OP_RUMOR as u64);
    if d.branch(sites::OP_IS_RUMOR, is_rumor) {
        if total < RUMOR_HEADER_LEN {
            return reject(DecodeError::Truncated);
        }
        let topic = d.read_u16_be(1);
        let id = d.read_u32_be(3);
        let origin = d.read_u16_be(7);
        let ttl = d.read_u8(9);
        let ttl_ok = d.ule_const(ttl, MAX_TTL as u64);
        if !d.branch(sites::RUMOR_TTL, ttl_ok) {
            return reject(DecodeError::TtlTooLarge(d.value(ttl) as u8));
        }
        let plen = d.read_u8(10);
        let plen_ok = d.ule_const(plen, MAX_PAYLOAD as u64);
        if !d.branch(sites::RUMOR_PLEN_LIMIT, plen_ok) {
            return reject(DecodeError::PayloadTooLong(d.value(plen) as u8));
        }
        let exact = d.eq_const(plen, (total - RUMOR_HEADER_LEN) as u64);
        if !d.branch(sites::RUMOR_PLEN_EXACT, exact) {
            let want = RUMOR_HEADER_LEN + d.value(plen) as usize;
            return reject(length_error(total, want));
        }
        return Ok(Frame::Rumor {
            topic,
            id,
            origin,
            ttl,
        });
    }

    let is_digest = d.eq_const(op, OP_DIGEST as u64);
    if d.branch(sites::OP_IS_DIGEST, is_digest) {
        if total < 2 {
            return reject(DecodeError::Truncated);
        }
        let count = d.read_u8(1);
        if bugs.digest_count_overflow {
            let count_big = d.uge_const(count, BUG_COUNT_THRESHOLD as u64);
            if d.branch(sites::BUG_DIGEST_COUNT, count_big) {
                return Err(Verdict::Crash(
                    "seeded bug: digest count overflow corrupts seen-set",
                ));
            }
        }
        let count_ok = d.ule_const(count, MAX_DIGEST_ENTRIES as u64);
        if !d.branch(sites::DIGEST_COUNT_LIMIT, count_ok) {
            return reject(DecodeError::DigestTooLong(d.value(count) as u8));
        }
        let body = total - 2;
        let exact = d.eq_const(count, (body / DIGEST_ENTRY_LEN) as u64);
        let exact = if body.is_multiple_of(DIGEST_ENTRY_LEN) {
            exact
        } else {
            d.lit(false)
        };
        if !d.branch(sites::DIGEST_LEN_EXACT, exact) {
            let want = d.value(count) as usize * DIGEST_ENTRY_LEN;
            return reject(length_error(body, want));
        }
        return Ok(Frame::Digest { count });
    }

    let is_subscribe = d.eq_const(op, OP_SUBSCRIBE as u64);
    if d.branch(sites::OP_IS_SUBSCRIBE, is_subscribe) {
        if total != 3 {
            return reject(length_error(total, 3));
        }
        let topic = d.read_u16_be(1);
        return Ok(Frame::Subscribe { topic });
    }

    let is_ack = d.eq_const(op, OP_ACK as u64);
    if d.branch(sites::OP_IS_ACK, is_ack) {
        if total != ACK_LEN {
            return reject(length_error(total, ACK_LEN));
        }
        let kind = d.read_u8(1);
        let is_rumor_ack = d.eq_const(kind, ACK_KIND_RUMOR as u64);
        let is_subscribe_ack = d.eq_const(kind, ACK_KIND_SUBSCRIBE as u64);
        let kind_ok = d.bor(is_rumor_ack, is_subscribe_ack);
        if !d.branch(sites::ACK_KIND_VALID, kind_ok) {
            return reject(DecodeError::BadAckKind(d.value(kind) as u8));
        }
        let topic = d.read_u16_be(2);
        let id = d.read_u32_be(4);
        return Ok(Frame::Ack { kind, topic, id });
    }

    reject(DecodeError::UnknownOpcode(d.value(op) as u8))
}

/// The error for a frame of `len` bytes where `want` were declared.
fn length_error(len: usize, want: usize) -> DecodeError {
    if len < want {
        DecodeError::Truncated
    } else {
        DecodeError::TrailingBytes
    }
}

impl Frame<u64> {
    /// The owned frame `bytes` hold, once [`validate`] accepted them.
    pub(crate) fn decoded(self, bytes: &[u8]) -> GossipFrame {
        match self {
            Frame::Rumor {
                topic,
                id,
                origin,
                ttl,
            } => GossipFrame::Rumor(Rumor {
                topic: topic as TopicId,
                id: id as u32,
                origin: origin as u16,
                ttl: ttl as u8,
                payload: bytes[RUMOR_HEADER_LEN..].to_vec(),
            }),
            Frame::Digest { count } => {
                let mut d = Concrete(bytes);
                GossipFrame::Digest(
                    (0..count as usize)
                        .map(|k| {
                            let at = 2 + k * DIGEST_ENTRY_LEN;
                            (d.read_u16_be(at) as TopicId, d.read_u32_be(at + 2) as u32)
                        })
                        .collect(),
                )
            }
            Frame::Subscribe { topic } => GossipFrame::Subscribe {
                topic: topic as TopicId,
            },
            Frame::Ack { kind, topic, id } => GossipFrame::Ack {
                kind: kind as u8,
                topic: topic as TopicId,
                id: id as u32,
            },
        }
    }
}

/// Decode one frame; the entire input must be consumed. This is
/// [`validate`] on the bytes with no seeded defect.
pub fn decode(bytes: &[u8]) -> Result<GossipFrame, DecodeError> {
    match validate(&mut Concrete(bytes), GossipBugs::default()) {
        Ok(frame) => Ok(frame.decoded(bytes)),
        Err(Verdict::Reject(e)) => Err(e),
        Err(Verdict::Crash(why)) => unreachable!("{why} with no seeded defect"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rumor() -> Rumor {
        Rumor {
            topic: 7,
            id: 0x00070003,
            origin: 61007,
            ttl: 4,
            payload: vec![0xDE, 0xAD, 0xBE],
        }
    }

    #[test]
    fn rumor_roundtrip() {
        let f = GossipFrame::Rumor(sample_rumor());
        let bytes = encode(&f);
        assert_eq!(bytes.len(), RUMOR_HEADER_LEN + 3);
        assert_eq!(decode(&bytes).unwrap(), f);
    }

    #[test]
    fn digest_roundtrip() {
        let f = GossipFrame::Digest(vec![(1, 10), (2, 0xFFFF_FFFF), (900, 3)]);
        let bytes = encode(&f);
        assert_eq!(bytes.len(), 2 + 3 * DIGEST_ENTRY_LEN);
        assert_eq!(decode(&bytes).unwrap(), f);
    }

    #[test]
    fn subscribe_roundtrip() {
        let f = GossipFrame::Subscribe { topic: 0xBEEF };
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn ack_roundtrip() {
        let f = GossipFrame::Ack {
            kind: ACK_KIND_RUMOR,
            topic: 7,
            id: 0x00070003,
        };
        let bytes = encode(&f);
        assert_eq!(bytes.len(), ACK_LEN);
        assert_eq!(decode(&bytes).unwrap(), f);
        let f = GossipFrame::Ack {
            kind: ACK_KIND_SUBSCRIBE,
            topic: 0xBEEF,
            id: 0,
        };
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn ack_rejects_bad_kind_and_wrong_length() {
        let mut bytes = encode(&GossipFrame::Ack {
            kind: ACK_KIND_RUMOR,
            topic: 1,
            id: 2,
        });
        bytes[1] = 9;
        assert_eq!(decode(&bytes), Err(DecodeError::BadAckKind(9)));
        bytes[1] = ACK_KIND_RUMOR;
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
        bytes.truncate(ACK_LEN - 1);
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn length_exactness_enforced() {
        let mut bytes = encode(&GossipFrame::Rumor(sample_rumor()));
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
        bytes.truncate(RUMOR_HEADER_LEN - 1);
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated));
        assert_eq!(decode(&[]), Err(DecodeError::Empty));
        assert_eq!(decode(&[0x77, 0, 0]), Err(DecodeError::UnknownOpcode(0x77)));
    }

    #[test]
    fn limits_enforced() {
        let mut r = sample_rumor();
        r.ttl = MAX_TTL + 1;
        let bytes = encode(&GossipFrame::Rumor(r));
        assert_eq!(decode(&bytes), Err(DecodeError::TtlTooLarge(MAX_TTL + 1)));

        // An over-long digest count is rejected by a *conforming* decoder;
        // the seeded bug in the node bypasses exactly this check.
        let bytes = vec![OP_DIGEST, MAX_DIGEST_ENTRIES + 1];
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::DigestTooLong(MAX_DIGEST_ENTRIES + 1))
        );
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // Deterministic byte soup across lengths 0..64.
        let mut state = 0x9E37u32;
        for len in 0..64usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                bytes.push((state >> 24) as u8);
            }
            let _ = decode(&bytes);
        }
    }
}
