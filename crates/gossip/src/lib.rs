//! # dice-gossip — an epidemic publish/subscribe node
//!
//! The second *real* protocol under DiCE's SUT seam (the first is
//! `dice-bgp`). A [`GossipNode`] disseminates topic-tagged rumors over the
//! `dice-netsim` substrate using rumor mongering with per-peer infection
//! state, periodic anti-entropy digests, and TTL-based garbage collection —
//! application logic with nothing BGP-shaped about it: no routes, no
//! policies, datagram-exact framing, and failure modes of its own (delivery
//! loss, duplication storms, a seeded digest-length parser defect).
//!
//! This crate knows nothing about DiCE: it implements
//! [`dice_netsim::Node`], and its exploration twin ([`twin::FrameTwin`])
//! is a [`dice_netsim::Twin`]. The adapter that exposes it to the runtime
//! (`ExplorableNode` + `CheckView`) lives in `dice-core::gossip_sut`,
//! exactly parallel to `dice-core::bgp_sut`. Frame validation is written
//! once, as [`wire::validate`] over a [`dice_netsim::Domain`]: the node and
//! [`decode`] run it on the bytes, and the twin runs the same function on
//! concolic values, so the twin accepts, rejects and crashes exactly where
//! the node does.
//!
//! ## Example
//!
//! ```
//! use dice_gossip::{GossipConfig, GossipNode};
//! use dice_netsim::{LinkParams, NodeId, QuietOutcome, SimDuration, SimTime, Simulator, Topology};
//!
//! // Two nodes: 0 publishes topic 7, 1 subscribes to it.
//! let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
//! let mut sim = Simulator::new(topo, 1);
//! sim.set_node(
//!     NodeId(0),
//!     Box::new(GossipNode::new(GossipConfig::new(61000).publish(7).with_peer(NodeId(1)))),
//! );
//! sim.set_node(
//!     NodeId(1),
//!     Box::new(GossipNode::new(GossipConfig::new(61001).subscribe(7).with_peer(NodeId(0)))),
//! );
//! sim.start();
//! let out = sim.run_until_quiet(SimDuration::from_secs(5), SimTime::from_nanos(60_000_000_000));
//! assert_eq!(out, QuietOutcome::Quiescent);
//! let sub = sim.node(NodeId(1)).as_any().downcast_ref::<GossipNode>().unwrap();
//! assert_eq!(sub.delivered_total(), 2); // both of node 0's initial rumors arrived
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod twin;
pub mod wire;

pub use node::{GossipBugs, GossipConfig, GossipNode};
pub use twin::FrameTwin;
pub use wire::{
    decode, encode, DecodeError, GossipFrame, Rumor, TopicId, ACK_KIND_RUMOR, ACK_KIND_SUBSCRIBE,
    ACK_LEN, BUG_COUNT_THRESHOLD, DIGEST_ENTRY_LEN, MAX_DIGEST_ENTRIES, MAX_PAYLOAD, MAX_TTL,
    OP_ACK, OP_DIGEST, OP_RUMOR, OP_SUBSCRIBE, RUMOR_HEADER_LEN,
};
