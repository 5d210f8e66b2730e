//! Property-based tests of the wire codecs: encode/decode inversion on
//! arbitrary valid messages, decoder totality on arbitrary bytes, and the
//! zero-copy contract — `encode_into` a dirty reused buffer is
//! byte-identical to a fresh `encode`, for both protocols.

use dice_system::bgp::{
    decode, encode, AsPathSegment, Asn, Community, Ipv4Addr, Ipv4Net, Message, NotificationMsg,
    OpenMsg, Origin, PathAttrs, RouterId, SegmentKind, UpdateMsg,
};
use dice_system::gossip::{GossipFrame, Rumor, MAX_DIGEST_ENTRIES, MAX_PAYLOAD, MAX_TTL};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Net> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Net::new(addr, len))
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

fn arb_segment() -> impl Strategy<Value = AsPathSegment> {
    (
        prop_oneof![Just(SegmentKind::Set), Just(SegmentKind::Sequence)],
        prop::collection::vec(any::<u16>().prop_map(Asn), 1..8),
    )
        .prop_map(|(kind, asns)| AsPathSegment { kind, asns })
}

fn arb_attrs() -> impl Strategy<Value = PathAttrs> {
    (
        arb_origin(),
        prop::collection::vec(arb_segment(), 0..4),
        1u32..u32::MAX, // next hop nonzero, not all-ones
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        any::<bool>(),
        prop::option::of((any::<u16>(), any::<u32>())),
        prop::collection::btree_set(any::<u32>().prop_map(Community), 0..6),
    )
        .prop_map(
            |(origin, segments, nh, med, local_pref, atomic, aggr, communities)| PathAttrs {
                origin,
                as_path: segments.into_iter().collect(),
                next_hop: Ipv4Addr(nh),
                med,
                local_pref,
                atomic_aggregate: atomic,
                aggregator: aggr.map(|(a, ip)| (Asn(a), Ipv4Addr(ip))),
                communities: communities.into_iter().collect(),
                unknown: Vec::new(),
            },
        )
}

fn arb_update() -> impl Strategy<Value = UpdateMsg> {
    (
        prop::collection::vec(arb_prefix(), 0..5),
        arb_attrs(),
        prop::collection::vec(arb_prefix(), 1..5),
    )
        .prop_map(|(withdrawn, attrs, nlri)| UpdateMsg {
            withdrawn,
            attrs: Some(attrs),
            nlri,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_update().prop_map(Message::Update),
        (any::<u16>(), prop_oneof![Just(0u16), 3u16..], any::<u32>()).prop_map(
            |(asn, hold, id)| Message::Open(OpenMsg {
                version: 4,
                asn: Asn(asn),
                hold_time: hold,
                router_id: RouterId(id),
                opt_params: vec![],
            })
        ),
        (
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(
                |(code, subcode, data)| Message::Notification(NotificationMsg {
                    code,
                    subcode,
                    data
                })
            ),
        Just(Message::Keepalive),
    ]
}

fn arb_gossip_frame() -> impl Strategy<Value = GossipFrame> {
    prop_oneof![
        (
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            0u8..=MAX_TTL,
            prop::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
        )
            .prop_map(
                |(topic, id, origin, ttl, payload)| GossipFrame::Rumor(Rumor {
                    topic,
                    id,
                    origin,
                    ttl,
                    payload,
                })
            ),
        prop::collection::vec(
            (any::<u16>(), any::<u32>()),
            0..=MAX_DIGEST_ENTRIES as usize
        )
        .prop_map(GossipFrame::Digest),
        any::<u16>().prop_map(|topic| GossipFrame::Subscribe { topic }),
    ]
}

proptest! {
    #[test]
    fn update_roundtrip(upd in arb_update()) {
        let msg = Message::Update(upd);
        let bytes = encode(&msg);
        let (decoded, used) = decode(&bytes).expect("self-encoded message decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn open_roundtrip(asn in any::<u16>(), hold in prop_oneof![Just(0u16), 3u16..], id in any::<u32>()) {
        let msg = Message::Open(OpenMsg {
            version: 4,
            asn: Asn(asn),
            hold_time: hold,
            router_id: RouterId(id),
            opt_params: vec![],
        });
        let bytes = encode(&msg);
        let (decoded, _) = decode(&bytes).expect("valid open decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn notification_roundtrip(code in any::<u8>(), sub in any::<u8>(), data in prop::collection::vec(any::<u8>(), 0..64)) {
        let msg = Message::Notification(NotificationMsg { code, subcode: sub, data });
        let bytes = encode(&msg);
        let (decoded, _) = decode(&bytes).expect("notification decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder is total: arbitrary bytes never panic.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Corrupting any single byte of a valid message either still decodes
    /// or produces a structured error — never a panic.
    #[test]
    fn single_byte_corruption_is_handled(upd in arb_update(), pos_seed in any::<usize>(), val in any::<u8>()) {
        let mut bytes = encode(&Message::Update(upd));
        let pos = pos_seed % bytes.len();
        bytes[pos] = val;
        let _ = decode(&bytes);
    }

    /// Zero-copy contract (BGP): `encode_into` a dirty reused buffer is
    /// byte-identical to a fresh `encode`, and decodes back to the same
    /// message. The buffer is pre-filled with garbage of arbitrary length
    /// to model a pooled buffer carrying a previous datagram's bytes.
    #[test]
    fn bgp_encode_into_matches_encode_on_dirty_buffers(
        msg in arb_message(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let fresh = encode(&msg);
        let mut reused = garbage;
        dice_system::bgp::wire::encode_into(&msg, &mut reused);
        prop_assert_eq!(&reused, &fresh, "reused buffer must match fresh encode");
        let (decoded, used) = decode(&reused).expect("self-encoded message decodes");
        prop_assert_eq!(used, reused.len());
        prop_assert_eq!(decoded, msg);
    }

    /// Zero-copy contract (gossip): same as above for the datagram codec.
    #[test]
    fn gossip_encode_into_matches_encode_on_dirty_buffers(
        frame in arb_gossip_frame(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let fresh = dice_system::gossip::encode(&frame);
        let mut reused = garbage;
        dice_system::gossip::wire::encode_into(&frame, &mut reused);
        prop_assert_eq!(&reused, &fresh, "reused buffer must match fresh encode");
        let decoded = dice_system::gossip::decode(&reused).expect("self-encoded frame decodes");
        prop_assert_eq!(decoded, frame);
    }

    /// The gossip decoder is total: arbitrary bytes never panic.
    #[test]
    fn gossip_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = dice_system::gossip::decode(&bytes);
    }

    /// Prefix canonicalization: parse/display roundtrip.
    #[test]
    fn prefix_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Ipv4Net = s.parse().expect("display parses");
        prop_assert_eq!(back, p);
    }

    /// covers() is a partial order consistent with overlaps().
    #[test]
    fn prefix_cover_laws(a in arb_prefix(), b in arb_prefix()) {
        prop_assert!(a.covers(&a));
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(a, b);
        }
        if a.covers(&b) {
            prop_assert!(a.overlaps(&b) && b.overlaps(&a));
        }
    }
}
