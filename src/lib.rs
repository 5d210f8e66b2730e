//! # dice-system — the complete DiCE stack under one roof
//!
//! Facade crate re-exporting the four workspace layers:
//!
//! | Layer | Crate | What it is |
//! |---|---|---|
//! | [`netsim`] | `dice-netsim` | deterministic discrete-event network simulator with in-band Chandy–Lamport snapshots and fault injection |
//! | [`bgp`] | `dice-bgp` | BIRD-like BGP-4 router: RFC 4271 wire format, session FSM, RIBs, decision process, interpreted policy engine, builder-style router configuration |
//! | [`gossip`] | `dice-gossip` | epidemic publish/subscribe node: rumor mongering with per-peer infection state, anti-entropy digests, TTL garbage collection — the second real protocol under the SUT seam |
//! | [`concolic`] | `dice-concolic` | Oasis-like concolic execution engine: symbolic bytes, path constraints, byte-domain solver, generational search |
//! | [`dice`] | `dice-core` | DiCE itself: shadow snapshots, the instrumented handler twins (BGP UPDATE + gossip frame), grammar fuzzing, property checkers, the privacy-preserving information-sharing interface |
//!
//! See `examples/quickstart.rs` for the five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

#![forbid(unsafe_code)]

pub use dice_bgp as bgp;
pub use dice_concolic as concolic;
pub use dice_core as dice;
pub use dice_gossip as gossip;
pub use dice_netsim as netsim;
