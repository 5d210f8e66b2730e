//! Property-based tests of the channel-fidelity layer: drop probability
//! extremes are exact, reordering lag is bounded by the window (the
//! no-starvation contract), and duplication produces byte-identical
//! copies — end to end through the pooled payload path.

use dice_system::netsim::{
    LinkFaultState, LinkFaults, LinkParams, Node, NodeApi, NodeId, SessionEvent, SimDuration,
    SimRng, SimTime, Simulator, Topology,
};
use proptest::prelude::*;

fn arb_window() -> impl Strategy<Value = SimDuration> {
    (0u64..10).prop_map(SimDuration::from_millis)
}

/// A probability in `[0, 1]` (the vendored proptest has no f64 ranges).
fn arb_prob() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|p| p as f64 / 1000.0)
}

proptest! {
    /// `drop: 0.0` never drops and `drop: 1.0` always drops, for any
    /// combination of the other knobs and any RNG stream. The extremes
    /// are exact, not merely probable: `SimRng::chance` consumes nothing
    /// and returns a constant at 0 and 1.
    #[test]
    fn drop_probability_extremes_are_exact(
        duplicate in arb_prob(),
        reorder in arb_prob(),
        window in arb_window(),
        seed in any::<u64>(),
    ) {
        let never = LinkFaults {
            drop: 0.0,
            duplicate,
            reorder,
            reorder_window: window,
            burst: None,
        };
        let always = LinkFaults { drop: 1.0, ..never };
        let mut st = LinkFaultState::default();
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(!never.sample(&mut st, &mut rng).dropped);
            prop_assert!(always.sample(&mut st, &mut rng).dropped);
        }
    }

    /// No verdict ever lags a frame beyond `reorder_window`, and an empty
    /// window degenerates to zero lag — the sampling-level half of the
    /// no-starvation bound.
    #[test]
    fn sampled_lags_never_exceed_the_window(
        drop in (0u32..500).prop_map(|p| p as f64 / 1000.0),
        duplicate in arb_prob(),
        reorder in arb_prob(),
        window in arb_window(),
        seed in any::<u64>(),
    ) {
        let faults = LinkFaults {
            drop,
            duplicate,
            reorder,
            reorder_window: window,
            burst: None,
        };
        let mut st = LinkFaultState::default();
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..256 {
            let v = faults.sample(&mut st, &mut rng);
            prop_assert!(v.dup_lag <= window);
            prop_assert!(v.extra_delay.unwrap_or(SimDuration::ZERO) <= window);
            if window == SimDuration::ZERO {
                prop_assert_eq!(v.dup_lag, SimDuration::ZERO);
                prop_assert_eq!(v.extra_delay.unwrap_or(SimDuration::ZERO), SimDuration::ZERO);
            }
        }
    }
}

/// Sends one tagged payload per timer tick once the session is up,
/// recording the send time of each. Payloads go through the pooled
/// buffer path (`NodeApi::buf`) exactly like the protocol codecs'
/// `encode_into`.
#[derive(Clone)]
struct Blaster {
    peer: NodeId,
    payloads: Vec<Vec<u8>>,
    period: SimDuration,
    sent_at: Vec<SimTime>,
}

impl Node for Blaster {
    fn on_message(&mut self, _from: NodeId, _data: &[u8], _api: &mut NodeApi<'_>) {}
    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        if peer == self.peer && matches!(ev, SessionEvent::Up) && self.sent_at.is_empty() {
            api.set_timer(self.period, 1);
        }
    }
    fn on_timer(&mut self, _token: u64, api: &mut NodeApi<'_>) {
        if self.sent_at.len() < self.payloads.len() {
            let mut buf = api.buf();
            buf.extend_from_slice(&self.payloads[self.sent_at.len()]);
            api.send(self.peer, buf);
            self.sent_at.push(api.now());
            api.set_timer(self.period, 1);
        }
    }
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
    fn state_size(&self) -> usize {
        self.payloads.iter().map(Vec::len).sum()
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Records every delivered payload with its arrival time.
#[derive(Clone, Default)]
struct Recorder {
    got: Vec<(SimTime, Vec<u8>)>,
}

impl Node for Recorder {
    fn on_message(&mut self, _from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        self.got.push((api.now(), data.to_vec()));
    }
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
    fn state_size(&self) -> usize {
        self.got.iter().map(|(_, v)| v.len() + 8).sum()
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

const LINK_DELAY: SimDuration = SimDuration::from_millis(5);

/// Run a 0 → 1 blaster/recorder pair under `faults`, returning the send
/// times and the recorder's arrivals.
fn blast(
    payloads: Vec<Vec<u8>>,
    faults: LinkFaults,
    seed: u64,
) -> (Vec<SimTime>, Vec<(SimTime, Vec<u8>)>) {
    let topo = Topology::line(2, LinkParams::fixed(LINK_DELAY));
    let mut sim = Simulator::new(topo, seed);
    sim.set_link_faults(faults);
    sim.set_unreliable_links(true);
    let n = payloads.len() as u64;
    sim.set_node(
        NodeId(0),
        Box::new(Blaster {
            peer: NodeId(1),
            payloads,
            period: SimDuration::from_millis(2),
            sent_at: Vec::new(),
        }),
    );
    sim.set_node(NodeId(1), Box::<Recorder>::default());
    sim.start();
    // Generous horizon: session setup plus every send plus the window.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2) + LINK_DELAY * (n + 4));
    let sent_at = sim
        .node(NodeId(0))
        .as_any()
        .downcast_ref::<Blaster>()
        .unwrap()
        .sent_at
        .clone();
    let got = sim
        .node(NodeId(1))
        .as_any()
        .downcast_ref::<Recorder>()
        .unwrap()
        .got
        .clone();
    (sent_at, got)
}

/// Tag each payload with its index so arrivals are attributable even when
/// frames overtake each other.
fn tagged(bodies: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, mut b)| {
            b.insert(0, i as u8);
            b
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end no-starvation: with reordering at full blast and no
    /// loss, every frame still arrives, exactly once, no later than its
    /// send time plus the link delay plus the reorder window.
    #[test]
    fn reordering_never_starves_a_frame(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..12),
        window in arb_window(),
        seed in any::<u64>(),
    ) {
        let payloads = tagged(bodies);
        let faults = LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 1.0,
            reorder_window: window,
            burst: None,
        };
        let (sent_at, got) = blast(payloads.clone(), faults, seed);
        prop_assert_eq!(sent_at.len(), payloads.len(), "all frames sent");
        prop_assert_eq!(got.len(), payloads.len(), "no frame lost or duplicated");
        for (i, payload) in payloads.iter().enumerate() {
            let (at, _) = got
                .iter()
                .find(|(_, bytes)| bytes == payload)
                .expect("every frame arrives");
            let deadline = sent_at[i] + LINK_DELAY + window;
            prop_assert!(
                *at <= deadline,
                "frame {i} arrived at {at:?}, past its no-starvation bound {deadline:?}"
            );
        }
    }

    /// Duplication is a pure copy: with duplication at full blast every
    /// payload arrives exactly twice and both copies are byte-identical
    /// to what the sender encoded into the pooled buffer.
    #[test]
    fn duplication_never_corrupts_payload_bytes(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..12),
        window in arb_window(),
        seed in any::<u64>(),
    ) {
        let payloads = tagged(bodies);
        let faults = LinkFaults {
            drop: 0.0,
            duplicate: 1.0,
            reorder: 0.0,
            reorder_window: window,
            burst: None,
        };
        let (sent_at, got) = blast(payloads.clone(), faults, seed);
        prop_assert_eq!(sent_at.len(), payloads.len(), "all frames sent");
        let mut received: Vec<Vec<u8>> = got.into_iter().map(|(_, bytes)| bytes).collect();
        received.sort();
        let mut expected: Vec<Vec<u8>> = payloads.iter().chain(payloads.iter()).cloned().collect();
        expected.sort();
        prop_assert_eq!(received, expected, "original + copy, bytes intact");
    }
}
