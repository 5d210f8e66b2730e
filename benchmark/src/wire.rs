//! Micro-spans around the wire codecs on three fixed, realistic messages
//! (the builders are those of `dice_bench::wire_workload`, so these
//! numbers and the `wire_path` criterion bench time the same bytes).

use std::collections::BTreeMap;
use std::hint::black_box;

use dice_bgp::wire::{Message, UpdateMsg};
use dice_bgp::{net, AsPath, Community, Ipv4Addr, PathAttrs};
use dice_gossip::{GossipFrame, Rumor};

use crate::spans::{NameTotal, Recorder};

/// Codec calls per span.
const OPS_PER_SPAN: u64 = 2_000;
/// Spans per codec and message.
const SPANS: usize = 5;

/// A transit-grade BGP UPDATE: two withdrawals, a 4-hop AS_PATH, MED +
/// LOCAL_PREF, three communities, eight announced prefixes.
fn bgp_update() -> Message {
    let mut attrs = PathAttrs {
        as_path: AsPath::sequence([65001, 65007, 65021, 65100]),
        next_hop: Ipv4Addr(0x0a00_0001),
        med: Some(50),
        local_pref: Some(120),
        ..PathAttrs::default()
    };
    for c in [0xFDE8_0001u32, 0xFDE8_0002, 0xFDE8_0100] {
        attrs.communities.insert(Community(c));
    }
    let nlri = (0..8u32).map(|i| net(&format!("10.{i}.0.0/16"))).collect();
    Message::Update(UpdateMsg {
        withdrawn: vec![net("192.0.2.0/24"), net("198.51.100.0/24")],
        attrs: Some(attrs),
        nlri,
    })
}

/// An anti-entropy digest over 32 `(topic, id)` pairs.
fn gossip_digest() -> GossipFrame {
    GossipFrame::Digest((0..32u16).map(|t| (t, u32::from(t) * 7 + 1)).collect())
}

/// A rumor push with a 64-byte payload.
fn gossip_rumor() -> GossipFrame {
    GossipFrame::Rumor(Rumor {
        topic: 5,
        id: 421,
        origin: 65007,
        ttl: 4,
        payload: (0..64u8).collect(),
    })
}

fn spans_of(rec: &mut Recorder, name: &'static str, mut op: impl FnMut()) {
    op(); // first call sizes the reused buffer
    for _ in 0..SPANS {
        rec.leaf(name, || {
            for _ in 0..OPS_PER_SPAN {
                op();
            }
        });
    }
}

/// Record `bgp.wire.{encode_into,decode}` and
/// `gossip.wire.{encode_into,decode}` spans, each around
/// [`OPS_PER_SPAN`] calls.
pub fn micro_spans(rec: &mut Recorder) {
    let update = bgp_update();
    let mut buf = Vec::new();
    spans_of(rec, "bgp.wire.encode_into", || {
        buf.clear();
        dice_bgp::wire::encode_into(black_box(&update), &mut buf);
        black_box(buf.len());
    });
    let bytes = dice_bgp::wire::encode(&update);
    spans_of(rec, "bgp.wire.decode", || {
        black_box(dice_bgp::wire::decode(black_box(&bytes)).is_ok());
    });

    for frame in [gossip_digest(), gossip_rumor()] {
        let mut buf = Vec::new();
        spans_of(rec, "gossip.wire.encode_into", || {
            buf.clear();
            dice_gossip::wire::encode_into(black_box(&frame), &mut buf);
            black_box(buf.len());
        });
        let bytes = dice_gossip::wire::encode(&frame);
        spans_of(rec, "gossip.wire.decode", || {
            black_box(dice_gossip::wire::decode(black_box(&bytes)).is_ok());
        });
    }
}

/// Mean nanoseconds per codec call over the spans named `name`.
pub fn ns_per_op(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> Option<f64> {
    let t = totals.get(name)?;
    (t.count > 0).then(|| t.total_ns as f64 / (t.count * OPS_PER_SPAN) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;

    #[test]
    fn fixed_messages_round_trip_and_every_codec_gets_spans() {
        let update = bgp_update();
        let bytes = dice_bgp::wire::encode(&update);
        let (decoded, used) = dice_bgp::wire::decode(&bytes).expect("valid UPDATE");
        assert_eq!((decoded, used), (update, bytes.len()));
        for frame in [gossip_digest(), gossip_rumor()] {
            let bytes = dice_gossip::wire::encode(&frame);
            assert_eq!(
                dice_gossip::wire::decode(&bytes).expect("valid frame"),
                frame
            );
        }

        let mut rec = Recorder::timing();
        micro_spans(&mut rec);
        let totals = spans::totals(rec.spans());
        assert_eq!(totals["bgp.wire.decode"].count, SPANS as u64);
        assert_eq!(totals["gossip.wire.encode_into"].count, 2 * SPANS as u64);
        for name in [
            "bgp.wire.encode_into",
            "bgp.wire.decode",
            "gossip.wire.encode_into",
            "gossip.wire.decode",
        ] {
            assert!(ns_per_op(&totals, name).expect("recorded") > 0.0, "{name}");
        }
        assert_eq!(ns_per_op(&totals, "no.such.span"), None);
    }
}
