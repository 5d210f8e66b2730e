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
//! * **RIBs** ([`rib`]): Adj-RIB-In, Loc-RIB (with best-route flip counters
//!   used by oscillation checkers), Adj-RIB-Out with delta suppression.
//! * **Decision process** ([`decision`]): the §9.1 ranking with decisive-step
//!   reporting.
//! * **Policy engine** ([`policy`]): BIRD-style filters as *interpreted
//!   data* — the property DiCE exploits to cover configuration with concolic
//!   execution — plus a Gao–Rexford policy generator for Internet-like
//!   topologies.
//! * **Configuration** ([`config`]): sessions, originated prefixes and
//!   named policies, built in code and cross-checked by `validate()`.
//! * **The router** ([`router`]): a [`dice_netsim::Node`] wiring it all
//!   together, including seeded-bug switches used by the fault-detection
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod config;
pub mod decision;
pub mod fsm;
pub mod policy;
pub mod rib;
pub mod router;
pub mod types;
pub mod wire;

pub use attrs::{AsPath, AsPathSegment, Origin, PathAttrs, RawAttr, SegmentKind};
pub use config::{BugSwitches, ConfigError, NeighborConfig, RouterConfig};
pub use decision::{prefer, select, DecisionReason};
pub use fsm::{FsmEvent, PeerFsm, SessionState};
pub use policy::{Action, Match, Policy, PrefixFilter, Rule, Verdict};
pub use rib::{AdjRibIn, AdjRibOut, LocRib, Route, Selected};
pub use router::{BgpRouter, RouterStats};
pub use types::{addr, net, Asn, Community, Ipv4Addr, Ipv4Net, RouterId};
pub use wire::{decode, encode, DecodeError, Message, NotificationMsg, OpenMsg, UpdateMsg};
