//! # dice-bgp — a BIRD-like BGP router substrate
//!
//! A compact but real BGP-4 implementation in the spirit of the BIRD daemon,
//! built as the system-under-test for DiCE (SIGCOMM'11). It implements the
//! code paths the paper instruments:
//!
//! * **Wire format** ([`wire`]): RFC 4271 framing and the OPEN / UPDATE /
//!   NOTIFICATION / KEEPALIVE codecs, with the full §6 error taxonomy.
//! * **Session FSM** ([`fsm`]): Idle → OpenSent → OpenConfirm → Established,
//!   hold/keepalive timers, NOTIFICATION-on-error.
//! * **RIB** ([`rib`]): one prefix-major table per router holding each
//!   prefix's Adj-RIB-In rows, Loc-RIB best route (with the best-route flip
//!   counter used by oscillation checkers) and Adj-RIB-Out rows (with delta
//!   suppression), shared copy-on-write so a router copy is a pointer bump.
//! * **Decision process** ([`decision`]): the §9.1 ranking with decisive-step
//!   reporting.
//! * **Policy engine** ([`policy`]): BIRD-style filters as *interpreted
//!   data* — the property DiCE exploits to cover configuration with concolic
//!   execution — plus a Gao–Rexford policy generator for Internet-like
//!   topologies. Its interpreter and the AS-path checks before it are
//!   written over a value domain, so the exploration twin runs them too.
//! * **Configuration** ([`config`]): sessions, originated prefixes and
//!   named policies, built in code and cross-checked by `validate()`.
//! * **The router** ([`router`]): a [`dice_netsim::Node`] wiring it all
//!   together, including seeded-bug switches used by the fault-detection
//!   experiments.
//! * **The exploration twin** ([`twin`]): the router's UPDATE handling
//!   composed once over a value domain, for DiCE to run concolically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod config;
pub mod decision;
pub mod fsm;
pub mod policy;
pub mod rib;
pub mod router;
pub mod twin;
pub mod types;
pub mod wire;

pub use attrs::{AsPath, AsPathSegment, Communities, Origin, PathAttrs, RawAttr, SegmentKind};
pub use config::{BugSwitches, ConfigError, NeighborConfig, RouterConfig};
pub use decision::{prefer, select, DecisionReason};
pub use fsm::{FsmEvent, PeerFsm, SessionState};
pub use policy::{Action, Match, Policy, PrefixFilter, Rule, Verdict};
pub use rib::{Rib, Route, Selected};
pub use router::{BgpRouter, RouterStats};
pub use twin::UpdateTwin;
pub use types::{addr, net, Asn, Community, Ipv4Addr, Ipv4Net, RouterId};
pub use wire::{decode, encode, DecodeError, Message, NotificationMsg, OpenMsg, UpdateMsg};
