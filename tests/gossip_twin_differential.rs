//! Differential property test: the gossip handler twin
//! (`SymbolicGossipHandler`, what exploration runs) must classify every
//! frame as the real node does — accept, reject or crash. The real side
//! is `GossipNode::on_message` itself for the crash (the seeded
//! digest-count hook runs before decoding) and the conforming
//! `dice_gossip::decode` for accept vs reject. Both the clean and the
//! buggy configuration are checked.
//!
//! Break it once: move the twin's `RUMOR_PLEN_LIMIT` bound by one
//! (`MAX_PAYLOAD` ± 1 in `gossip_sut.rs`) and `agrees_at_every_bound` goes
//! red on a rumor whose payload length sits at the limit.

use std::collections::BTreeSet;

use dice_system::concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SymInput};
use dice_system::dice::SymbolicGossipHandler;
use dice_system::gossip::{
    decode, encode, GossipConfig, GossipFrame, GossipNode, Rumor, ACK_KIND_RUMOR,
    ACK_KIND_SUBSCRIBE, ACK_LEN, BUG_COUNT_THRESHOLD, DIGEST_ENTRY_LEN, MAX_DIGEST_ENTRIES,
    MAX_PAYLOAD, MAX_TTL, OP_ACK, OP_DIGEST, OP_RUMOR, OP_SUBSCRIBE, RUMOR_HEADER_LEN,
};
use dice_system::netsim::{LinkParams, NodeId, SimDuration, Simulator, Topology};
use proptest::prelude::*;

/// How a handler disposes of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Accept,
    Reject,
    Crash,
}

fn config(buggy: bool) -> GossipConfig {
    let mut cfg = GossipConfig::new(61001)
        .with_peer(NodeId(0))
        .subscribe(1)
        .subscribe(2)
        .publish(7);
    cfg.bugs.digest_count_overflow = buggy;
    cfg
}

fn twin_class(cfg: &GossipConfig, bytes: &[u8]) -> Class {
    let mut twin = SymbolicGossipHandler::new(cfg.clone());
    let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
    match twin.run(&mut ctx) {
        RunStatus::Ok => Class::Accept,
        RunStatus::Rejected(_) => Class::Reject,
        RunStatus::Crash(_) => Class::Crash,
    }
}

/// The real node receives `bytes` from its peer: it crashes, or the
/// conforming decoder decides.
fn node_class(cfg: &GossipConfig, bytes: &[u8]) -> Class {
    let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(1)));
    let mut sim = Simulator::new(topo, 1);
    let peer = GossipConfig::new(61000).with_peer(NodeId(1));
    sim.set_node(NodeId(0), Box::new(GossipNode::new(peer)));
    sim.set_node(NodeId(1), Box::new(GossipNode::new(cfg.clone())));
    sim.start();
    sim.deliver_direct(NodeId(0), NodeId(1), bytes);
    if sim.crashed(NodeId(1)).is_some() {
        Class::Crash
    } else if decode(bytes).is_ok() {
        Class::Accept
    } else {
        Class::Reject
    }
}

fn agree(buggy: bool, bytes: &[u8]) -> Result<(), TestCaseError> {
    let cfg = config(buggy);
    prop_assert_eq!(
        twin_class(&cfg, bytes),
        node_class(&cfg, bytes),
        "twin and node disagree (buggy {}) on {:02x?}",
        buggy,
        bytes
    );
    Ok(())
}

/// A valid frame of any of the four opcodes. Payload and digest lengths
/// land on their limits a third of the time.
fn valid_frame() -> impl Strategy<Value = GossipFrame> {
    let at_most = |max: usize| prop_oneof![0..=max, Just(max), Just(max)];
    let rumor = (
        (any::<u16>(), any::<u32>(), any::<u16>()),
        prop_oneof![0..=MAX_TTL, Just(MAX_TTL)],
        prop::collection::vec(any::<u8>(), MAX_PAYLOAD),
        at_most(MAX_PAYLOAD),
    )
        .prop_map(|((topic, id, origin), ttl, mut payload, len)| {
            payload.truncate(len);
            GossipFrame::Rumor(Rumor {
                topic,
                id,
                origin,
                ttl,
                payload,
            })
        });
    let max_entries = MAX_DIGEST_ENTRIES as usize;
    let digest = (
        prop::collection::vec((any::<u16>(), any::<u32>()), max_entries),
        at_most(max_entries),
    )
        .prop_map(|(mut entries, len)| {
            entries.truncate(len);
            GossipFrame::Digest(entries)
        });
    let subscribe = any::<u16>().prop_map(|topic| GossipFrame::Subscribe { topic });
    let ack = (
        prop_oneof![Just(ACK_KIND_RUMOR), Just(ACK_KIND_SUBSCRIBE)],
        any::<u16>(),
        any::<u32>(),
    )
        .prop_map(|(kind, topic, id)| GossipFrame::Ack { kind, topic, id });
    prop_oneof![rumor, digest, subscribe, ack]
}

/// Every frame whose length or checked field sits at a bound the handler
/// tests, one either side of it, or at the extremes — for all four
/// opcodes, plus every prefix shorter than a fixed header.
fn frames_at_bounds() -> Vec<Vec<u8>> {
    let sized = |head: &[u8], body: usize| {
        let mut frame = head.to_vec();
        frame.resize(head.len() + body, 0xA5);
        frame
    };
    let slack = |declared: usize| [declared.checked_sub(1), Some(declared), Some(declared + 1)];
    let mut frames: Vec<Vec<u8>> = vec![vec![]];
    for len in 1..RUMOR_HEADER_LEN {
        frames.push(sized(&[OP_RUMOR], len - 1));
    }
    for ttl in [0, MAX_TTL, MAX_TTL + 1, u8::MAX] {
        for plen in [0, MAX_PAYLOAD - 1, MAX_PAYLOAD, MAX_PAYLOAD + 1, 255] {
            let head = [OP_RUMOR, 0, 1, 0, 0, 0, 9, 0xEE, 0x01, ttl, plen as u8];
            frames.extend(slack(plen).into_iter().flatten().map(|n| sized(&head, n)));
        }
    }
    frames.push(vec![OP_DIGEST]);
    let max = MAX_DIGEST_ENTRIES;
    for count in [
        0,
        max - 1,
        max,
        max + 1,
        BUG_COUNT_THRESHOLD - 1,
        BUG_COUNT_THRESHOLD,
        255,
    ] {
        let body = count as usize * DIGEST_ENTRY_LEN;
        frames.extend(
            slack(body)
                .into_iter()
                .flatten()
                .map(|n| sized(&[OP_DIGEST, count], n)),
        );
    }
    frames.extend(
        slack(2)
            .into_iter()
            .flatten()
            .map(|n| sized(&[OP_SUBSCRIBE], n)),
    );
    for kind in [ACK_KIND_RUMOR, ACK_KIND_SUBSCRIBE, 2, u8::MAX] {
        let body = ACK_LEN - 2;
        frames.extend(
            slack(body)
                .into_iter()
                .flatten()
                .map(|n| sized(&[OP_ACK, kind], n)),
        );
    }
    frames.push(vec![OP_ACK]);
    for op in [0, OP_ACK + 1, u8::MAX] {
        frames.push(vec![op, 0, 0, 0]);
    }
    frames
}

#[test]
fn agrees_at_every_bound() {
    let frames = frames_at_bounds();
    assert!(frames.len() > 100);
    for buggy in [false, true] {
        for bytes in &frames {
            if let Err(e) = agree(buggy, bytes) {
                panic!("{e}");
            }
        }
    }
    // The grid reaches every class on both sides.
    let classes = |buggy: bool| -> BTreeSet<Class> {
        frames
            .iter()
            .map(|f| node_class(&config(buggy), f))
            .collect()
    };
    use Class::*;
    assert_eq!(classes(false), BTreeSet::from([Accept, Reject]));
    assert_eq!(classes(true), BTreeSet::from([Accept, Reject, Crash]));
}

proptest! {
    /// Valid frames of all four opcodes: both sides accept.
    #[test]
    fn agrees_on_valid_frames(frame in valid_frame(), buggy in any::<bool>()) {
        let bytes = encode(&frame);
        prop_assert_eq!(node_class(&config(buggy), &bytes), Class::Accept);
        agree(buggy, &bytes)?;
    }

    /// Valid frames with bytes overwritten, dropped or appended.
    #[test]
    fn agrees_on_mutated_frames(
        frame in valid_frame(),
        buggy in any::<bool>(),
        mutations in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
        resize in prop_oneof![Just(0i8), Just(-1i8), Just(1i8)],
    ) {
        let mut bytes = encode(&frame);
        for (pos, val) in mutations {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        match resize {
            -1 => {
                bytes.pop();
            }
            1 => bytes.push(0),
            _ => {}
        }
        agree(buggy, &bytes)?;
    }

    /// Arbitrary bytes: the twin is total and still agrees. The first
    /// byte is drawn mostly from the opcodes, or nearly every frame would
    /// be an unknown-opcode reject.
    #[test]
    fn agrees_on_arbitrary_bytes(
        op in prop_oneof![0u8..=OP_ACK + 1, any::<u8>()],
        rest in prop::collection::vec(any::<u8>(), 0..80),
        buggy in any::<bool>(),
    ) {
        let mut bytes = vec![op];
        bytes.extend(rest);
        agree(buggy, &bytes)?;
        agree(buggy, &bytes[1..])?;
    }
}
