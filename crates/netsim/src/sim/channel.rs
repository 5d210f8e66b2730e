//! Link directions and sessions: how a frame gets onto a channel, across
//! it and off it, and how a session comes up and goes down.
//!
//! The fields of [`Links`] are private to this module, so "a direction that
//! leaves its `Default` state is on the touched list" holds because every
//! write to a direction is in this file, next to the `touch` that lists it.
//!
//! For the same reason this file holds the payload ownership rule: **every
//! way a data frame leaves a channel hands its storage back** to the
//! simulator's [`BufPool`] — delivery, a send on a down session, a drop
//! verdict (`Simulator::recycle`), the `teardown_session` drain and
//! [`Links::reset`] on rebind (`LinkDir::drain`). With `payload_pool` off
//! nothing is recycled: the storage is freed.

use std::collections::VecDeque;

use super::{Ev, Simulator, RECONNECT_DELAY};
use crate::buf::BufPool;
use crate::faults::{FaultVerdict, LinkFaultState};
use crate::node::{DownReason, NodeId, SessionEvent};
use crate::rng::SimRng;
use crate::snapshot::SnapshotId;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::TraceKind;

/// A frame traveling on a channel.
#[derive(Debug, Clone)]
pub(super) enum Frame {
    /// Application payload. `quiet` frames do not reset the quiescence clock.
    Data { bytes: Vec<u8>, quiet: bool },
    /// Chandy–Lamport snapshot marker.
    Marker(SnapshotId),
}

#[derive(Debug)]
struct Flight {
    deliver_at: SimTime,
    frame: Frame,
}

/// One direction of a link: its FIFO channel and its private randomness.
/// Directions live in a flat table, two per topology edge — index
/// `2 * edge` carries `a -> b`, `2 * edge + 1` carries `b -> a`.
///
/// A direction is either in its `Default` state or listed in
/// [`Links::touched`]; a reset re-zeroes the listed ones only.
#[derive(Debug, Default)]
struct LinkDir {
    queue: VecDeque<Flight>,
    last_arrival: SimTime,
    epoch: u64,
    /// Latency/retransmission stream: split number `dir` of
    /// [`Links::latency_parent`], built on first draw
    /// ([`Links::stream`]) — a stream nobody draws from costs
    /// nothing to restart.
    latency_rng: Option<SimRng>,
    /// Channel-fidelity stream — split from a *separate* parent than
    /// `latency_rng` so toggling `unreliable_links` never perturbs latency
    /// sampling (and vice versa).
    fault_rng: Option<SimRng>,
    /// Gilbert–Elliott burst state.
    fault_state: LinkFaultState,
    /// Listed in [`Links::touched`].
    touched: bool,
}

impl LinkDir {
    /// Empty the queue: each data frame hands its storage to `pool` (`None`
    /// with pooling off — freed), each marker goes to `lost`.
    fn drain(&mut self, pool: &mut Option<&mut BufPool>, mut lost: impl FnMut(SnapshotId)) {
        for flight in self.queue.drain(..) {
            match flight.frame {
                Frame::Data { bytes, .. } => {
                    if let Some(pool) = pool {
                        pool.recycle(bytes);
                    }
                }
                Frame::Marker(id) => lost(id),
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SessionState {
    Down,
    Up,
}

/// Every link direction and the randomness behind them.
pub(super) struct Links {
    /// Per-direction link state, indexed `2 * edge + direction`.
    dirs: Vec<LinkDir>,
    /// The directions not in their `Default` state (each once).
    touched: Vec<u32>,
    /// Parents of the per-link latency and channel-fidelity streams: both
    /// are split once per direction, in `dirs` order, with the same labels
    /// — lazily, each link seeking to its own split on first draw.
    latency_parent: SimRng,
    fault_parent: SimRng,
}

impl Links {
    /// Seed salt separating the channel-fidelity RNG parent from the
    /// latency RNG parent (both are split per link direction, in edge
    /// order, with the same labels).
    const FAULT_STREAM_SALT: u64 = 0x5EED_FA17;

    /// `2 * edges` directions in their `Default` state, streams seeded as
    /// [`Links::reset`] seeds them.
    pub(super) fn new(edges: usize, seed: u64) -> Self {
        Links {
            dirs: std::iter::repeat_with(LinkDir::default)
                .take(2 * edges)
                .collect(),
            touched: Vec::new(),
            latency_parent: SimRng::seed_from_u64(seed),
            fault_parent: SimRng::seed_from_u64(seed ^ Self::FAULT_STREAM_SALT),
        }
    }

    /// Empty every channel into `pool` and restart every per-link
    /// randomness stream from `seed`: one latency parent and one (salted)
    /// channel-fidelity parent. Only the directions something was sent on
    /// or torn down are visited; no child stream is built here — a link
    /// seeks its parent to its own split on first draw ([`Links::stream`]),
    /// so every stream is the one an eager pass of two `split`s per edge,
    /// in edge order, yields.
    pub(super) fn reset(&mut self, seed: u64, mut pool: Option<&mut BufPool>) {
        self.latency_parent = SimRng::seed_from_u64(seed);
        self.fault_parent = SimRng::seed_from_u64(seed ^ Self::FAULT_STREAM_SALT);
        for dir in self.touched.drain(..) {
            let link = &mut self.dirs[dir as usize];
            link.drain(&mut pool, |_| {});
            link.last_arrival = SimTime::ZERO;
            link.epoch = 0;
            link.latency_rng = None;
            link.fault_rng = None;
            link.fault_state = LinkFaultState::default();
            link.touched = false;
        }
    }

    /// Direction `dir` is about to leave its `Default` state.
    fn touch(&mut self, dir: usize) {
        let link = &mut self.dirs[dir];
        if !link.touched {
            link.touched = true;
            self.touched.push(dir as u32);
        }
    }

    /// One of direction `dir`'s two streams, built on first use as split
    /// number `dir` of its `parent` under the direction's label — the
    /// child the eager pass (two splits per edge, in edge order) built.
    fn stream<'a>(
        stream: &'a mut Option<SimRng>,
        parent: &'a mut SimRng,
        topo: &Topology,
        dir: usize,
    ) -> &'a mut SimRng {
        let e = &topo.edges()[dir / 2];
        let label = ((e.a.0 as u64) << 32) | e.b.0 as u64;
        let label = if dir.is_multiple_of(2) {
            label
        } else {
            label ^ 0xFFFF_FFFF
        };
        stream.get_or_insert_with(|| parent.nth_split(dir as u64, label))
    }

    /// The data frames queued on each direction that has any, as
    /// `(dir, payloads)` in direction order — a cut's channel state.
    pub(super) fn data_in_flight(&self) -> impl Iterator<Item = (usize, Vec<Vec<u8>>)> + '_ {
        self.dirs.iter().enumerate().filter_map(|(dir, ch)| {
            let msgs: Vec<Vec<u8>> = ch
                .queue
                .iter()
                .filter_map(|f| match &f.frame {
                    Frame::Data { bytes, .. } => Some(bytes.clone()),
                    Frame::Marker(_) => None,
                })
                .collect();
            (!msgs.is_empty()).then_some((dir, msgs))
        })
    }

    /// Every direction's state and the next 8 draws of its two streams
    /// (drawn from copies: the probe must not list a link as touched).
    #[cfg(test)]
    pub(super) fn digest(&self, topo: &Topology) -> Vec<String> {
        let mut out = Vec::new();
        for (dir, link) in self.dirs.iter().enumerate() {
            out.push(format!("link {dir} {link:?}"));
            let draws = [
                (link.latency_rng.clone(), self.latency_parent.clone()),
                (link.fault_rng.clone(), self.fault_parent.clone()),
            ]
            .map(|(mut stream, mut parent)| {
                let rng = Links::stream(&mut stream, &mut parent, topo, dir);
                (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
            });
            out.push(format!("link {dir} draws {draws:?}"));
        }
        out
    }
}

impl Simulator {
    pub(super) fn skey(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// A data frame has left its channel: its storage goes back on the
    /// free list.
    fn recycle(&mut self, bytes: Vec<u8>) {
        if self.knobs.payload_pool {
            self.buf_pool.recycle(bytes);
        }
    }

    /// Index into `links` of the direction `src -> dst`, if adjacent.
    pub(super) fn dir_index(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let e = self.topo.edge_index(src, dst)?;
        Some(self.topo.direction(e, src))
    }

    /// Deliver up to `budget` frames on link direction `dir` that have
    /// matured at the current instant.
    ///
    /// `budget` is the number of delivery events merged into this call by
    /// [`Simulator::step`] (1 with `batch_delivery` off). Frames and
    /// delivery events are 1:1 within an epoch, so delivering one matured
    /// frame per merged event reproduces the unbatched execution exactly —
    /// same frames, same order, same handler invocations — while paying
    /// one dispatch for the whole run.
    ///
    /// The channel is re-fetched and its epoch re-checked every iteration:
    /// a handler may reset the session mid-batch, which clears the queue
    /// and must stop the drain (the remaining merged events would have
    /// been stale no-ops unbatched). Frames stay queued until their turn
    /// so a teardown can still discard them (and snapshots never observe
    /// them).
    pub(super) fn process_deliver(&mut self, dir: usize, epoch: u64, budget: u64) {
        let (src, dst) = self.topo.endpoints(dir);
        let mut delivered: u64 = 0;
        while delivered < budget {
            let ch = &mut self.links.dirs[dir];
            if ch.epoch != epoch {
                break; // stale delivery after a session reset
            }
            match ch.queue.front() {
                Some(front) if front.deliver_at == self.now => {}
                _ => break, // nothing matured (queue cleared by a teardown)
            }
            let flight = ch.queue.pop_front().expect("front vanished");
            match flight.frame {
                Frame::Data { bytes, quiet } => {
                    self.snapshot_observe_data(dir, dst, &bytes);
                    if self.nodes[dst.index()].crashed.is_none() {
                        if !quiet {
                            self.last_activity = self.now;
                        }
                        self.trace.push(
                            self.now,
                            TraceKind::Delivered {
                                src,
                                dst,
                                bytes: bytes.len(),
                            },
                        );
                        self.with_node(dst, |node, api| node.on_message(src, &bytes, api));
                    }
                    self.recycle(bytes);
                }
                Frame::Marker(id) => self.snapshot_on_marker(id, dir, dst),
            }
            delivered += 1;
        }
        if delivered > 0 {
            self.wire.batches += 1;
            if delivered > self.wire.max_batch {
                self.wire.max_batch = delivered;
            }
        }
    }

    pub(super) fn channel_send(&mut self, src: NodeId, dst: NodeId, bytes: Vec<u8>, quiet: bool) {
        match self.dir_index(src, dst) {
            Some(dir) if self.sessions[dir / 2] == SessionState::Up => {
                self.send_frame(dir, Frame::Data { bytes, quiet }, true);
            }
            // Session down: transport rejects the write, data is lost.
            _ => self.recycle(bytes),
        }
    }

    /// Put `frame` on link direction `dir`. `sample_faults` is off only for
    /// frames a cut recorded in flight: those are already in the channel,
    /// so a replay never subjects them to the fault model a second time.
    pub(super) fn send_frame(&mut self, dir: usize, frame: Frame, sample_faults: bool) {
        let (src, dst) = self.topo.endpoints(dir);
        let size = match &frame {
            Frame::Data { bytes, .. } => bytes.len(),
            Frame::Marker(_) => 32,
        };
        let is_data = matches!(&frame, Frame::Data { .. });
        if is_data {
            self.wire.wire_bytes += size as u64;
        }
        let quietness = matches!(&frame, Frame::Data { quiet: true, .. } | Frame::Marker(_));
        self.links.touch(dir);
        let link = &mut self.links.dirs[dir];
        let latency_rng = Links::stream(
            &mut link.latency_rng,
            &mut self.links.latency_parent,
            &self.topo,
            dir,
        );
        let (delay, retries) = self.topo.edges()[dir / 2]
            .params
            .delay_and_retries_for(size, latency_rng);
        self.wire.link_retransmits += retries as u64;
        // Channel-fidelity layer: sample the per-link fault model for data
        // frames. Markers are exempt, and sampling is suspended while a
        // consistent cut is in progress — Chandy–Lamport is only sound over
        // FIFO channels, so the cut window runs at full fidelity. The
        // fault streams are separate from the latency streams, so the
        // knob's off state is byte-identical to the pre-fault simulator.
        let faulty = sample_faults
            && self.knobs.unreliable_links
            && is_data
            && self.cuts.idle()
            && !self.knobs.link_faults.is_noop();
        let verdict = if faulty {
            let fault_rng = Links::stream(
                &mut link.fault_rng,
                &mut self.links.fault_parent,
                &self.topo,
                dir,
            );
            self.knobs
                .link_faults
                .sample(&mut link.fault_state, fault_rng)
        } else {
            FaultVerdict::default()
        };
        if !quietness {
            self.last_activity = self.now;
        }
        self.trace.push(
            self.now,
            TraceKind::Sent {
                src,
                dst,
                bytes: size,
            },
        );
        if verdict.dropped {
            self.wire.frames_dropped += 1;
            if let Frame::Data { bytes, .. } = frame {
                self.recycle(bytes);
            }
            return;
        }
        let dup = verdict.duplicated.then(|| frame.clone());
        let mut arrival = self.now + delay;
        if let Some(extra) = verdict.extra_delay {
            self.wire.frames_reordered += 1;
            arrival += extra;
        }
        self.enqueue_flight(dir, frame, arrival, faulty);
        if let Some(copy) = dup {
            self.wire.frames_duplicated += 1;
            self.enqueue_flight(dir, copy, self.now + delay + verdict.dup_lag, faulty);
        }
    }

    /// Enqueue one frame on link direction `dir` arriving at `arrival` and schedule
    /// its delivery event. With `relaxed` off (the reliable channel model)
    /// arrivals are clamped monotone, so `push_back` keeps the queue sorted
    /// by `deliver_at`; with `relaxed` on (fault layer live) the clamp is
    /// skipped — that is what lets frames overtake each other — and the
    /// frame is instead inserted in `deliver_at` order, stably after equal
    /// instants, preserving `process_deliver`'s front-matured invariant.
    /// `last_arrival` stays the running maximum either way, so an exempt
    /// marker sent later is always clamped behind every data frame already
    /// in flight.
    fn enqueue_flight(&mut self, dir: usize, frame: Frame, arrival: SimTime, relaxed: bool) {
        let ch = &mut self.links.dirs[dir];
        let arrival = if relaxed {
            arrival
        } else {
            arrival.max(ch.last_arrival)
        };
        ch.last_arrival = ch.last_arrival.max(arrival);
        let epoch = ch.epoch;
        let flight = Flight {
            deliver_at: arrival,
            frame,
        };
        if relaxed {
            let pos = ch.queue.partition_point(|f| f.deliver_at <= arrival);
            ch.queue.insert(pos, flight);
        } else {
            ch.queue.push_back(flight);
        }
        let dir = dir as u32;
        self.schedule(arrival, Ev::Deliver { dir, epoch });
    }

    pub(super) fn establish_session(&mut self, a: NodeId, b: NodeId) {
        let key = Self::skey(a, b);
        if self.admin_down.contains(&key) {
            return;
        }
        if self.nodes[a.index()].crashed.is_some() || self.nodes[b.index()].crashed.is_some() {
            return;
        }
        let Some(edge) = self.topo.edge_index(a, b) else {
            return;
        };
        if self.sessions[edge] == SessionState::Up {
            return;
        }
        self.sessions[edge] = SessionState::Up;
        self.trace.push(self.now, TraceKind::SessionUp { a, b });
        self.with_node(a, |node, api| node.on_session(b, SessionEvent::Up, api));
        self.with_node(b, |node, api| node.on_session(a, SessionEvent::Up, api));
    }

    pub(super) fn teardown_session(
        &mut self,
        a: NodeId,
        b: NodeId,
        reason: DownReason,
        reconnect: bool,
    ) {
        let Some(edge) = self.topo.edge_index(a, b) else {
            return;
        };
        if self.sessions[edge] != SessionState::Up {
            return;
        }
        self.sessions[edge] = SessionState::Down;
        self.trace
            .push(self.now, TraceKind::SessionDown { a, b, reason });
        // Drop in-flight data in both directions; bump epochs so queued
        // delivery events become no-ops.
        self.links.touch(2 * edge);
        self.links.touch(2 * edge + 1);
        let mut pool = self.knobs.payload_pool.then_some(&mut self.buf_pool);
        for ch in &mut self.links.dirs[2 * edge..2 * edge + 2] {
            ch.drain(&mut pool, |id| {
                self.cuts
                    .fail(id, format!("marker lost on session reset {a}-{b}"));
            });
            ch.epoch += 1;
            ch.last_arrival = self.now;
        }
        self.cuts.channel_reset(self.topo.direction(edge, a), a, b);
        if self.nodes[a.index()].crashed.is_none() {
            self.with_node(a, |node, api| {
                node.on_session(b, SessionEvent::Down(reason), api)
            });
        }
        if self.nodes[b.index()].crashed.is_none() {
            self.with_node(b, |node, api| {
                node.on_session(a, SessionEvent::Down(reason), api)
            });
        }
        if reconnect {
            let at = self.now + RECONNECT_DELAY;
            self.schedule(at, Ev::SessionUp { a, b });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{two_node_sim, unreliable_two_node};
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn session_reset_drops_in_flight() {
        let mut sim = two_node_sim(3);
        // Let the session come up and a message get in flight.
        sim.run_until(SimTime::from_nanos(2_000_000));
        sim.inject_session_reset(NodeId(0), NodeId(1));
        assert!(!sim.session_up(NodeId(0), NodeId(1)));
        let down_before = sim.trace().stats().sessions_down;
        assert_eq!(down_before, 1);
        // Auto-reconnect (default 5s) brings it back.
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        assert!(sim.session_up(NodeId(0), NodeId(1)));
    }

    /// The next 8 draws of both of direction `dir`'s streams (latency,
    /// channel-fidelity), built if need be — and listed as touched, as any
    /// draw in `send_frame` is.
    fn link_draws(sim: &mut Simulator, dir: usize) -> [Vec<u64>; 2] {
        sim.links.touch(dir);
        let link = &mut sim.links.dirs[dir];
        [
            (&mut link.latency_rng, &mut sim.links.latency_parent),
            (&mut link.fault_rng, &mut sim.links.fault_parent),
        ]
        .map(|(stream, parent)| {
            let rng = Links::stream(stream, parent, &sim.topo, dir);
            (0..8).map(|_| rng.next_u64()).collect()
        })
    }

    #[test]
    fn lazy_link_streams_draw_what_eager_splits_draw() {
        // The stream a link seeks its parent for is the one the old eager
        // pass — two parents, one `split(label)` each per direction, in
        // edge order — built for it, whatever order links first draw in
        // (demo27's 90 directions span a dozen 16-word parent blocks).
        let topo = Topology::demo27();
        for seed in [1u64, 42, 0xD1CE] {
            let mut latency = SimRng::seed_from_u64(seed);
            let mut fault = SimRng::seed_from_u64(seed ^ Links::FAULT_STREAM_SALT);
            let mut eager = Vec::new();
            for e in topo.edges() {
                let label = ((e.a.0 as u64) << 32) | e.b.0 as u64;
                for label in [label, label ^ 0xFFFF_FFFF] {
                    eager.push((latency.split(label), fault.split(label)));
                }
            }
            let draws = |rng: &mut SimRng| -> Vec<u64> { (0..8).map(|_| rng.next_u64()).collect() };

            let mut sim = Simulator::new(topo.clone(), seed);
            // Once as built; once after a reset from a different seed, in
            // reverse edge order; once more, every third direction first.
            for pass in 0..3 {
                let mut order: Vec<usize> = (0..eager.len()).collect();
                if pass > 0 {
                    sim.links.reset(seed ^ 1, None);
                    sim.links.reset(seed, None);
                    assert!(sim.links.touched.is_empty());
                    assert!(sim.links.dirs.iter().all(|l| !l.touched));
                }
                match pass {
                    1 => order.reverse(),
                    2 => order.sort_by_key(|d| (d % 3, *d)),
                    _ => {}
                }
                for dir in order {
                    let (mut lat, mut flt) = eager[dir].clone();
                    let [got_lat, got_flt] = link_draws(&mut sim, dir);
                    assert_eq!(got_lat, draws(&mut lat), "dir {dir}");
                    assert_eq!(got_flt, draws(&mut flt), "dir {dir}");
                }
            }
        }
    }

    #[test]
    fn noop_fault_profile_is_byte_identical_to_reliable() {
        let mut unreliable = unreliable_two_node(11, crate::faults::LinkFaults::lossy(0.0));
        let mut reliable = two_node_sim(11);
        unreliable.run_until(SimTime::from_nanos(10_000_000_000));
        reliable.run_until(SimTime::from_nanos(10_000_000_000));
        assert_eq!(unreliable.trace().stats(), reliable.trace().stats());
        let wire = unreliable.take_wire_stats();
        assert_eq!(wire.frames_dropped, 0);
        assert_eq!(wire.frames_duplicated, 0);
        assert_eq!(wire.frames_reordered, 0);
    }

    #[test]
    fn certain_drop_loses_every_data_frame() {
        let mut sim = unreliable_two_node(
            12,
            crate::faults::LinkFaults {
                drop: 1.0,
                ..crate::faults::LinkFaults::lossy(0.0)
            },
        );
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let stats = sim.trace().stats();
        assert_eq!(stats.msgs_delivered, 0, "every frame dropped");
        assert!(stats.msgs_sent >= 1, "the initiator did send");
        let wire = sim.take_wire_stats();
        assert_eq!(wire.frames_dropped, stats.msgs_sent);
    }

    #[test]
    fn certain_duplication_doubles_deliveries() {
        let mut sim = unreliable_two_node(
            13,
            crate::faults::LinkFaults {
                duplicate: 1.0,
                reorder_window: SimDuration::from_millis(2),
                ..crate::faults::LinkFaults::lossy(0.0)
            },
        );
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        let stats = sim.trace().stats();
        assert_eq!(
            stats.msgs_delivered,
            2 * stats.msgs_sent,
            "every data frame arrives exactly twice"
        );
        let wire = sim.take_wire_stats();
        assert_eq!(wire.frames_duplicated, stats.msgs_sent);
        assert_eq!(wire.frames_dropped, 0);
    }

    #[test]
    fn faulty_runs_replay_byte_identically() {
        let faults = crate::faults::LinkFaults {
            burst: Some(crate::faults::BurstLoss::harsh()),
            ..crate::faults::LinkFaults::lossy(0.2)
        };
        let mut a = unreliable_two_node(42, faults);
        let mut b = unreliable_two_node(42, faults);
        a.run_until(SimTime::from_nanos(30_000_000_000));
        b.run_until(SimTime::from_nanos(30_000_000_000));
        assert_eq!(a.trace().stats(), b.trace().stats());
        assert_eq!(a.take_wire_stats(), b.take_wire_stats());
    }

    #[test]
    fn a_warm_exchange_hits_the_free_list_and_never_misses() {
        let mut sim = two_node_sim(3);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let cold = sim.take_wire_stats();
        // Two frames' storage is out at once: a reply is encoded while the
        // request it answers is still borrowed by the handler.
        assert_eq!((cold.buf_hits, cold.buf_misses), (3, 2));
        sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        let warm = sim.take_wire_stats();
        assert_eq!((warm.buf_hits, warm.buf_misses), (4, 0));
        assert_eq!(sim.buf_pool.free_len(), 2, "both are back");
    }

    #[test]
    fn every_exit_from_a_channel_hands_the_storage_back() {
        // A drop verdict.
        let mut sim = unreliable_two_node(
            12,
            crate::faults::LinkFaults {
                drop: 1.0,
                ..crate::faults::LinkFaults::lossy(0.0)
            },
        );
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert_eq!(sim.take_wire_stats().frames_dropped, 1);
        assert_eq!(sim.buf_pool.free_len(), 1);

        // A send on a down session: the reply to an input that arrives
        // before the session is up.
        let mut sim = two_node_sim(3);
        sim.deliver_direct(NodeId(0), NodeId(1), &[0]);
        assert_eq!(sim.trace().stats().msgs_sent, 0);
        assert_eq!(sim.buf_pool.free_len(), 1);

        let one_frame_in_flight = || {
            let mut sim = two_node_sim(3);
            sim.run_until(SimTime::from_nanos(2_000_000));
            assert_eq!(sim.links.data_in_flight().count(), 1);
            assert_eq!(sim.buf_pool.free_len(), 0);
            sim
        };

        // The teardown drain.
        let mut sim = one_frame_in_flight();
        sim.inject_session_reset(NodeId(0), NodeId(1));
        assert_eq!(sim.links.data_in_flight().count(), 0);
        assert_eq!(sim.buf_pool.free_len(), 1);

        // A rebind: the queued frame comes back, and what is in flight
        // afterwards is the cut's copy of it.
        let mut sim = one_frame_in_flight();
        let shadow = sim.instant_snapshot();
        sim.reset_from_shadow(&shadow, 3);
        assert_eq!(sim.links.data_in_flight().count(), 1);
        assert_eq!(sim.buf_pool.free_len(), 1);
    }

    #[test]
    fn with_the_pool_off_nothing_is_recycled_or_counted() {
        let mut sim = two_node_sim(3);
        sim.set_wire_config(false, true);
        sim.run_until(SimTime::from_nanos(2_000_000));
        sim.inject_session_reset(NodeId(0), NodeId(1));
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        let wire = sim.take_wire_stats();
        assert!(wire.wire_bytes > 1, "the exchange did run");
        assert_eq!((wire.buf_hits, wire.buf_misses), (0, 0));
        assert_eq!(sim.buf_pool.free_len(), 0);
    }
}
