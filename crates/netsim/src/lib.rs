//! # dice-netsim — deterministic discrete-event network simulator
//!
//! The network substrate DiCE runs on. Design goals, in order: determinism,
//! simplicity, robustness (following the smoltcp school of event-driven
//! networking code — no hidden runtime, no wall clock, no global state).
//!
//! * **Deterministic:** a run is a pure function of `(topology, nodes, seed)`.
//!   Randomness (link jitter, loss, topology generation) flows from a single
//!   splittable ChaCha stream.
//! * **Reliable in-order channels:** the transport under BGP is TCP, so
//!   channels deliver byte frames reliably and in order; link loss shows up
//!   as retransmission *delay*, sessions can be reset (dropping in-flight
//!   data), links can fail.
//! * **Snapshots as a first-class operation:** Chandy–Lamport marker
//!   snapshots run in-band through the same FIFO channels as data, producing
//!   a [`ShadowSnapshot`] — cloned node states plus captured channel
//!   contents — which can be instantiated into an isolated simulator
//!   ([`Simulator::from_shadow`]). This is the mechanism behind DiCE's
//!   "explore over isolated snapshots".
//! * **Fault injection:** scheduled session resets, link failures and node
//!   crashes ([`schedule::Schedule`]), plus an opt-in per-link
//!   channel-fidelity layer — probabilistic drop, duplication, bounded
//!   reordering and Gilbert–Elliott burst loss ([`faults::LinkFaults`],
//!   switched on by [`Simulator::set_unreliable_links`], its profile set by
//!   [`Simulator::set_link_faults`]).
//! * **One validator, two value domains:** [`Domain`] is what a protocol
//!   crate writes its frame checks against, so the node runs them on
//!   [`Concrete`] bytes and an exploration twin runs the same function on
//!   symbolic values.
//!
//! ## Quick example
//!
//! ```
//! use dice_netsim::{LinkParams, NodeId, SimDuration, SimTime, Simulator, Topology};
//! use dice_netsim::{Node, NodeApi, SessionEvent};
//! use core::any::Any;
//!
//! #[derive(Clone, Default)]
//! struct Hello { greeted: bool }
//!
//! impl Node for Hello {
//!     fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
//!         if matches!(ev, SessionEvent::Up) {
//!             api.send(peer, b"hello".to_vec());
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, data: &[u8], _api: &mut NodeApi<'_>) {
//!         assert_eq!(data, b"hello");
//!         self.greeted = true;
//!     }
//!     fn clone_node(&self) -> Box<dyn Node> { Box::new(self.clone()) }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let topo = Topology::line(2, LinkParams::fixed(SimDuration::from_millis(5)));
//! let mut sim = Simulator::new(topo, 42);
//! sim.set_node(NodeId(0), Box::new(Hello::default()));
//! sim.set_node(NodeId(1), Box::new(Hello::default()));
//! sim.start();
//! sim.run_until(SimTime::from_nanos(1_000_000_000));
//! let n1 = sim.node(NodeId(1)).as_any().downcast_ref::<Hello>().unwrap();
//! assert!(n1.greeted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod domain;
pub mod faults;
pub mod link;
pub mod node;
pub mod rng;
pub mod schedule;
pub mod sim;
pub mod snapshot;
pub mod time;
pub mod topology;
pub mod trace;

pub use buf::{BufPool, WireStats};
pub use domain::{Concrete, Domain, Twin, Verdict};
pub use faults::{BurstLoss, FaultVerdict, LinkFaultState, LinkFaults};
pub use link::{LatencyModel, LinkParams};
pub use node::{DownReason, Effect, Node, NodeApi, NodeId, SessionEvent};
pub use rng::SimRng;
pub use schedule::{FaultAction, Schedule, ScheduleSpec};
pub use sim::{QuietOutcome, Simulator, SnapshotStats};
pub use snapshot::{ShadowSnapshot, SnapshotId, SnapshotProgress};
pub use time::{SimDuration, SimTime};
pub use topology::{EdgeSpec, InternetParams, NeighborRole, Relationship, Topology};
pub use trace::{Trace, TraceStats};
