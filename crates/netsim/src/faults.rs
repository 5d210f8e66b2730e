//! Per-link channel-fidelity faults: probabilistic drop, duplication,
//! bounded reordering, and two-state Gilbert–Elliott burst loss.
//!
//! The base simulator models TCP-backed sessions, so its channels are
//! reliable and in-order and link loss surfaces only as retransmission
//! *delay* ([`crate::link::LinkParams::delay_for`]). Real federations are
//! not so kind: datagrams vanish, arrive twice, or overtake each other, and
//! loss comes in bursts. [`LinkFaults`] describes that weather per link
//! direction; the simulator samples it once per data frame from a dedicated
//! per-link [`SimRng::split`](crate::rng::SimRng::split) stream (seeded
//! separately from the latency streams), so the same `(topology, seed)`
//! replays the same drops byte-for-byte and toggling the faults knob never
//! perturbs latency sampling.
//!
//! Sampling order is part of the determinism contract and never changes:
//! burst-state transition, burst drop, independent drop, duplication (plus
//! its lag), reordering lag. Chandy–Lamport markers are exempt — the marker
//! protocol is only sound over FIFO channels — and the simulator suspends
//! sampling entirely while a consistent cut is in progress (see
//! [`Simulator::set_unreliable_links`](crate::sim::Simulator::set_unreliable_links)).

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Two-state Gilbert–Elliott burst-loss model.
///
/// The link direction is always in a *good* or *bad* state
/// ([`LinkFaultState`]). Before each frame the state flips with probability
/// `enter` (good → bad) or `exit` (bad → good); while bad, frames drop with
/// probability `drop`. This produces the correlated loss runs that
/// independent per-frame drops cannot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstLoss {
    /// Probability per frame of entering the bad state from the good state.
    pub enter: f64,
    /// Probability per frame of returning to the good state.
    pub exit: f64,
    /// Drop probability per frame while in the bad state.
    pub drop: f64,
}

impl BurstLoss {
    /// A short, harsh burst profile: rare onset, quick recovery, heavy loss
    /// while it lasts.
    pub fn harsh() -> Self {
        BurstLoss {
            enter: 0.01,
            exit: 0.25,
            drop: 0.5,
        }
    }
}

/// Per-link fault model for one channel direction.
///
/// All probabilities are per data frame and clamped to `[0, 1]` by the
/// underlying [`SimRng::chance`] draw, so `0.0` *never* fires and `1.0`
/// *always* does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Independent per-frame drop probability.
    pub drop: f64,
    /// Per-frame duplication probability (the copy arrives within
    /// `reorder_window` after the original).
    pub duplicate: f64,
    /// Probability a frame is held back by an extra reordering lag.
    pub reorder: f64,
    /// Upper bound on the extra lag a reordered (or duplicated) frame can
    /// suffer; no frame is ever delayed beyond its nominal arrival plus
    /// this window (the no-starvation bound).
    pub reorder_window: SimDuration,
    /// Optional Gilbert–Elliott burst-loss overlay, sampled before the
    /// independent drop.
    pub burst: Option<BurstLoss>,
}

impl Default for LinkFaults {
    /// The standard "unreliable but survivable" profile: 5% loss
    /// ([`LinkFaults::lossy`]). This is what
    /// [`Simulator::set_unreliable_links`](crate::sim::Simulator::set_unreliable_links)
    /// turns on when [`Simulator::set_link_faults`](crate::sim::Simulator::set_link_faults)
    /// supplied no other profile.
    fn default() -> Self {
        LinkFaults::lossy(0.05)
    }
}

impl LinkFaults {
    /// A profile parameterized by a single loss rate `p`: drop `p`,
    /// duplicate `p/2`, reorder `p` within a 5 ms window, no burst overlay.
    /// `lossy(0.0)` is a no-op profile.
    pub fn lossy(p: f64) -> Self {
        LinkFaults {
            drop: p,
            duplicate: p / 2.0,
            reorder: p,
            reorder_window: SimDuration::from_millis(5),
            burst: None,
        }
    }

    /// Whether this profile can never affect a frame (sampling it draws
    /// nothing from the RNG stream).
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.burst.is_none()
    }

    /// Sample the model for one data frame, advancing the link's burst
    /// state. The draw order (burst transition, burst drop, independent
    /// drop, duplication + lag, reorder lag) is fixed; a dropped frame
    /// consumes no duplication/reorder draws.
    pub fn sample(&self, state: &mut LinkFaultState, rng: &mut SimRng) -> FaultVerdict {
        let mut v = FaultVerdict::default();
        if let Some(b) = self.burst {
            let flip = if state.bad {
                rng.chance(b.exit)
            } else {
                rng.chance(b.enter)
            };
            if flip {
                state.bad = !state.bad;
            }
            if state.bad && rng.chance(b.drop) {
                v.dropped = true;
            }
        }
        if !v.dropped && rng.chance(self.drop) {
            v.dropped = true;
        }
        if v.dropped {
            return v;
        }
        if rng.chance(self.duplicate) {
            v.duplicated = true;
            v.dup_lag = sample_lag(self.reorder_window, rng);
        }
        if rng.chance(self.reorder) {
            v.extra_delay = Some(sample_lag(self.reorder_window, rng));
        }
        v
    }
}

/// Extra lag in `(0, window]`; zero when the window is empty.
fn sample_lag(window: SimDuration, rng: &mut SimRng) -> SimDuration {
    if window.as_nanos() == 0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_nanos(rng.below(window.as_nanos()) + 1)
}

/// Per-direction link state for the [`BurstLoss`] model. Reset to the good
/// state by [`Simulator::reset_from_shadow`](crate::sim::Simulator::reset_from_shadow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultState {
    /// Whether the link direction is currently in the bad (bursty) state.
    pub bad: bool,
}

/// Outcome of sampling [`LinkFaults`] for one data frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultVerdict {
    /// The frame is discarded; nothing is enqueued.
    pub dropped: bool,
    /// A second copy of the frame is enqueued, `dup_lag` after the
    /// original's nominal arrival.
    pub duplicated: bool,
    /// Extra reordering lag added to the frame's nominal arrival
    /// (bounded by [`LinkFaults::reorder_window`]).
    pub extra_delay: Option<SimDuration>,
    /// Lag of the duplicate copy, when `duplicated` (same bound).
    pub dup_lag: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_five_percent_lossy() {
        let f = LinkFaults::default();
        assert_eq!(f, LinkFaults::lossy(0.05));
        assert!(!f.is_noop());
        assert!(LinkFaults::lossy(0.0).is_noop());
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let f = LinkFaults::lossy(0.3);
        let mut s1 = LinkFaultState::default();
        let mut s2 = LinkFaultState::default();
        let mut r1 = SimRng::seed_from_u64(77);
        let mut r2 = SimRng::seed_from_u64(77);
        for _ in 0..256 {
            assert_eq!(f.sample(&mut s1, &mut r1), f.sample(&mut s2, &mut r2));
        }
        assert_eq!(s1, s2);
    }

    #[test]
    fn drop_extremes_are_exact() {
        let never = LinkFaults {
            drop: 0.0,
            ..LinkFaults::lossy(0.0)
        };
        let always = LinkFaults {
            drop: 1.0,
            ..LinkFaults::lossy(0.0)
        };
        let mut st = LinkFaultState::default();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!never.sample(&mut st, &mut rng).dropped);
            assert!(always.sample(&mut st, &mut rng).dropped);
        }
    }

    #[test]
    fn lags_never_exceed_the_window() {
        let f = LinkFaults {
            drop: 0.0,
            duplicate: 1.0,
            reorder: 1.0,
            reorder_window: SimDuration::from_millis(5),
            burst: None,
        };
        let mut st = LinkFaultState::default();
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = f.sample(&mut st, &mut rng);
            assert!(v.duplicated);
            assert!(v.dup_lag <= f.reorder_window);
            let extra = v.extra_delay.expect("reorder=1.0 must always lag");
            assert!(extra > SimDuration::ZERO && extra <= f.reorder_window);
        }
    }

    #[test]
    fn burst_mode_produces_correlated_runs() {
        let f = LinkFaults {
            burst: Some(BurstLoss {
                enter: 0.05,
                exit: 0.2,
                drop: 1.0,
            }),
            ..LinkFaults::lossy(0.0)
        };
        let mut st = LinkFaultState::default();
        let mut rng = SimRng::seed_from_u64(3);
        let outcomes: Vec<bool> = (0..4000)
            .map(|_| f.sample(&mut st, &mut rng).dropped)
            .collect();
        let drops = outcomes.iter().filter(|&&d| d).count();
        assert!(drops > 200, "burst mode should drop plenty, got {drops}");
        // Correlation: a drop is followed by another drop far more often
        // than the unconditional drop rate (that is what "burst" means).
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let runs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = runs as f64 / pairs as f64;
        let unconditional = drops as f64 / outcomes.len() as f64;
        assert!(
            conditional > unconditional * 1.5,
            "drops should cluster: P(drop|drop)={conditional:.3} vs P(drop)={unconditional:.3}"
        );
    }

    #[test]
    fn serde_round_trip() {
        let f = LinkFaults {
            burst: Some(BurstLoss::harsh()),
            ..LinkFaults::lossy(0.2)
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: LinkFaults = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
