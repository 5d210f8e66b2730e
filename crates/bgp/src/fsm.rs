//! The per-neighbor BGP session finite-state machine.
//!
//! The simulator's reliable channel plays the role of TCP, so the
//! Connect/Active states collapse into the transport's session-up event:
//! `Idle --(transport up)--> OpenSent --(OPEN ok)--> OpenConfirm
//! --(KEEPALIVE)--> Established`. Every deviation produces an
//! [`FsmEvent`] the router turns into a NOTIFICATION + reset, per RFC 4271.

use serde::{Deserialize, Serialize};

/// Session state (RFC 4271 §8.2.2, transport states folded into `Idle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SessionState {
    /// No transport session; nothing sent.
    #[default]
    Idle,
    /// Transport is up and our OPEN is sent.
    OpenSent,
    /// Peer's OPEN accepted, our KEEPALIVE sent.
    OpenConfirm,
    /// Full routing exchange in progress.
    Established,
}

/// What the FSM tells the router to do after consuming an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmEvent {
    /// No externally visible action.
    None,
    /// Session reached Established: originate and sync the table.
    SessionEstablished,
    /// Protocol violation: send NOTIFICATION with these codes and reset.
    ProtocolError {
        /// NOTIFICATION error code.
        code: u8,
        /// NOTIFICATION error subcode.
        subcode: u8,
        /// Human-readable reason for the trace.
        reason: &'static str,
    },
}

/// Per-neighbor FSM with negotiated timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PeerFsm {
    /// Current state.
    pub state: SessionState,
    /// Hold time agreed with the peer (seconds); 0 disables keepalives.
    pub negotiated_hold: u16,
}

impl PeerFsm {
    /// Transport session came up: we send OPEN and move to OpenSent.
    pub fn on_transport_up(&mut self) {
        self.state = SessionState::OpenSent;
    }

    /// Transport session dropped: back to Idle, forget negotiation.
    pub fn on_transport_down(&mut self) {
        self.state = SessionState::Idle;
        self.negotiated_hold = 0;
    }

    /// Peer's OPEN arrived. `asn_ok` is whether the peer AS matched the
    /// configured expectation.
    pub fn on_open(&mut self, asn_ok: bool, my_hold: u16, their_hold: u16) -> FsmEvent {
        match self.state {
            SessionState::OpenSent => {
                if !asn_ok {
                    return FsmEvent::ProtocolError {
                        code: crate::wire::notif::OPEN_ERROR,
                        subcode: 2, // Bad Peer AS
                        reason: "peer AS does not match configuration",
                    };
                }
                self.negotiated_hold = my_hold.min(their_hold);
                self.state = SessionState::OpenConfirm;
                FsmEvent::None
            }
            _ => FsmEvent::ProtocolError {
                code: crate::wire::notif::FSM_ERROR,
                subcode: 0,
                reason: "OPEN outside OpenSent",
            },
        }
    }

    /// Peer's KEEPALIVE arrived.
    pub fn on_keepalive(&mut self) -> FsmEvent {
        match self.state {
            SessionState::OpenConfirm => {
                self.state = SessionState::Established;
                FsmEvent::SessionEstablished
            }
            SessionState::Established => FsmEvent::None,
            _ => FsmEvent::ProtocolError {
                code: crate::wire::notif::FSM_ERROR,
                subcode: 0,
                reason: "KEEPALIVE before OPEN exchange",
            },
        }
    }

    /// Peer's UPDATE arrived (validity of the body is the router's concern).
    pub fn on_update(&mut self) -> FsmEvent {
        match self.state {
            SessionState::Established => FsmEvent::None,
            _ => FsmEvent::ProtocolError {
                code: crate::wire::notif::FSM_ERROR,
                subcode: 0,
                reason: "UPDATE outside Established",
            },
        }
    }

    /// Keepalive interval derived from the negotiated hold time (hold/3).
    pub fn keepalive_secs(&self) -> u16 {
        self.negotiated_hold / 3
    }

    /// Whether routing messages may flow.
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_to_established() {
        let mut f = PeerFsm::default();
        assert_eq!(f.state, SessionState::Idle);
        f.on_transport_up();
        assert_eq!(f.state, SessionState::OpenSent);
        assert_eq!(f.on_open(true, 90, 30), FsmEvent::None);
        assert_eq!(f.state, SessionState::OpenConfirm);
        assert_eq!(f.negotiated_hold, 30, "hold time is the minimum of both");
        assert_eq!(f.on_keepalive(), FsmEvent::SessionEstablished);
        assert!(f.is_established());
        assert_eq!(f.keepalive_secs(), 10);
    }

    #[test]
    fn bad_peer_as_rejected() {
        let mut f = PeerFsm::default();
        f.on_transport_up();
        match f.on_open(false, 90, 90) {
            FsmEvent::ProtocolError { code, subcode, .. } => {
                assert_eq!((code, subcode), (crate::wire::notif::OPEN_ERROR, 2));
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn update_before_established_is_fsm_error() {
        let mut f = PeerFsm::default();
        f.on_transport_up();
        assert!(matches!(f.on_update(), FsmEvent::ProtocolError { .. }));
    }

    #[test]
    fn keepalive_in_established_is_benign() {
        let mut f = PeerFsm::default();
        f.on_transport_up();
        f.on_open(true, 90, 90);
        f.on_keepalive();
        assert_eq!(f.on_keepalive(), FsmEvent::None);
    }

    #[test]
    fn open_twice_is_fsm_error() {
        let mut f = PeerFsm::default();
        f.on_transport_up();
        f.on_open(true, 90, 90);
        assert!(matches!(
            f.on_open(true, 90, 90),
            FsmEvent::ProtocolError { .. }
        ));
    }

    #[test]
    fn transport_down_resets_negotiation() {
        let mut f = PeerFsm::default();
        f.on_transport_up();
        f.on_open(true, 90, 60);
        f.on_transport_down();
        assert_eq!(f.state, SessionState::Idle);
        assert_eq!(f.negotiated_hold, 0);
    }
}
