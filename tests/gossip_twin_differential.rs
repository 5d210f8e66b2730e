//! Differential property test: the gossip frame twin
//! (`dice_gossip::FrameTwin` run as a `DomainProgram`, what exploration
//! runs) must classify every frame as the real node does — accept, reject
//! or crash. Both sides run one validator, `dice_gossip::wire::validate`,
//! in two value domains: the node (`GossipNode::on_message`, and
//! `dice_gossip::decode` for accept vs reject) on the bytes, the twin on
//! concolic values through `Concolic` (`core/src/domain.rs`). So agreement holds by construction where
//! the two domains agree, and this file checks the part that does not
//! follow from the types: that they do agree on every bound, and on valid,
//! mutated, over-long and arbitrary frames, clean and buggy configuration.
//! That file's proptest holds the two instances equal operation by
//! operation; `twin_paths_are_pinned` holds the twin's branches.
//!
//! Break it once: make the concolic instance's `ule_const` strict
//! (`self.0.ult_const` in `core/src/domain.rs`), and
//! `agrees_at_every_bound` goes red on a rumor whose payload length sits
//! at the limit.
//!
//! The panic lints are on in `dice-core` and `dice-concolic` only, not in
//! `dice-gossip`: `agrees_on_arbitrary_bytes` is what keeps `validate`
//! total — it reads a byte only after checking the length that holds it.

mod outcomes;

use std::collections::BTreeSet;

use dice_system::concolic::{ConcolicCtx, ConcolicProgram, ExprArena, ExprId, RunStatus, SymInput};
use dice_system::dice::gossip_sut::{mark_gossip, minimal_seed, seed_corpus};
use dice_system::dice::hash::hex;
use dice_system::dice::{DomainProgram, Sha256};
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
    let mut twin = DomainProgram(GossipNode::new(cfg.clone()).frame_twin());
    let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
    class_of(twin.run(&mut ctx))
}

fn class_of(status: RunStatus) -> Class {
    match status {
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

/// A declared length is one byte, so a body that overruns it by a
/// multiple of 256 (entries, for a digest) matches it modulo the byte's
/// width. Both sides must still see the trailing bytes.
#[test]
fn agrees_past_a_length_byte() {
    for buggy in [false, true] {
        for plen in [0, 1, MAX_PAYLOAD] {
            let mut frame = vec![OP_RUMOR, 0, 1, 0, 0, 0, 9, 0xEE, 0x01, 2, plen as u8];
            frame.resize(RUMOR_HEADER_LEN + plen + 256, 0xA5);
            agree(buggy, &frame).unwrap();
        }
        for count in [0, 1, MAX_DIGEST_ENTRIES] {
            let mut frame = vec![OP_DIGEST, count];
            frame.resize(2 + (count as usize + 256) * DIGEST_ENTRY_LEN, 0xA5);
            agree(buggy, &frame).unwrap();
        }
    }
}

/// The twin's paths, pinned: one session arena (as `explore` threads it)
/// runs the minimal seed, an 8-rumor corpus and the whole bound grid, for
/// the clean and then the buggy configuration, all bytes symbolic. One
/// SHA-256 covers every execution's branches (site, constraint id, taken),
/// its class, and the nodes it added to the arena, in id order — so a
/// change that reorders the twin's reads or comparisons, even one that
/// keeps every class and every branch, moves it.
///
/// Break it once: swap the rumor arm's `id` and `origin` reads, and the
/// hash moves.
#[test]
fn twin_paths_are_pinned() {
    let mut sha = Sha256::new();
    let (mut arena, mut path) = (ExprArena::new(), Vec::new());
    let mut executions = 0;
    for buggy in [false, true] {
        let cfg = config(buggy);
        let mut twin = DomainProgram(GossipNode::new(cfg.clone()).frame_twin());
        let mut inputs = vec![minimal_seed(&cfg)];
        inputs.extend(seed_corpus(&cfg, 8, 7));
        inputs.extend(frames_at_bounds());
        for bytes in inputs {
            let interned = arena.len() as u32;
            let input = SymInput::with_mask(bytes.clone(), mark_gossip(&bytes));
            let mut ctx = ConcolicCtx::continuing(input, Default::default(), arena, path);
            let class = class_of(twin.run(&mut ctx));
            for b in ctx.path() {
                sha.update(&b.site.0.to_be_bytes());
                sha.update(&b.constraint.0.to_be_bytes());
                sha.update(&[b.taken as u8]);
            }
            sha.update(&[class as u8]);
            (_, _, arena, path) = ctx.into_parts();
            for id in interned..arena.len() as u32 {
                sha.update(format!("{:?};", arena.get(ExprId(id))).as_bytes());
            }
            executions += 1;
        }
    }
    assert!(executions > 200);
    assert_eq!(
        hex(&sha.finalize()),
        outcomes::pinned("twin_paths", "twin_paths_are_pinned")
    );
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
