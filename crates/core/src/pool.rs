//! Per-worker clone pools for system-wide validation.
//!
//! Phase 3 used to pay a full [`Simulator::from_shadow`] per validated
//! input: re-cloning the topology, reallocating every channel queue and
//! the event heap, and deep-copying node checkpoints. With
//! copy-on-write snapshots the node copies are already lazy; the pool
//! removes the remaining per-input construction cost by letting each
//! worker keep finished simulators and rebind them to the next input with
//! [`Simulator::reset_from_shadow`] — which reuses every allocation and
//! is state-for-state identical to a fresh clone (netsim unit-tested), so
//! pooling cannot perturb the report. A worker validates one input at a
//! time, so each pool holds at most one idle simulator.
//!
//! Pools are strictly worker-local: a worker creates its pool when a
//! sweep's validation phase starts and returns the counters with its
//! results, so a sweep builds at most one simulator per worker. Hit/miss
//! counters fold into [`CampaignReport::perf`] and are zeroed by
//! [`CampaignReport::normalized`] — which worker's pool serves an input is
//! schedule-dependent even though the input's result is not.
//!
//! [`CampaignReport::perf`]: crate::campaign::CampaignReport::perf
//! [`CampaignReport::normalized`]: crate::campaign::CampaignReport::normalized
//! [`Simulator::from_shadow`]: dice_netsim::Simulator::from_shadow
//! [`Simulator::reset_from_shadow`]: dice_netsim::Simulator::reset_from_shadow

use dice_netsim::{ShadowSnapshot, Simulator, Topology, WireStats};

/// A worker-local pool holding the validation simulator its worker last
/// finished with.
///
/// The simulator checked in must have been built over the same topology
/// as the shadows it is later reset to — guaranteed here because a pool
/// never outlives one executor run, which runs over a single topology.
#[derive(Default)]
pub(crate) struct ClonePool {
    free: Option<Simulator>,
    pub(crate) stats: PoolStats,
}

impl ClonePool {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Check a simulator out, bound to `shadow` with `seed`: the pooled
    /// one reset in place when there is one, a fresh `from_shadow` clone
    /// otherwise. Such a clone keeps no trace ring: the counters every
    /// checker reads stay exact, and the event trail of a fault belongs to
    /// its replay, not to each of the clean clones.
    pub(crate) fn acquire(
        &mut self,
        shadow: &ShadowSnapshot,
        topo: &Topology,
        seed: u64,
    ) -> Simulator {
        match self.free.take() {
            Some(mut sim) => {
                sim.reset_from_shadow(shadow, seed);
                self.stats.hits += 1;
                sim
            }
            None => {
                self.stats.misses += 1;
                Simulator::from_shadow(shadow, topo, seed)
            }
        }
    }

    /// Return a simulator for reuse, draining its wire-path counters
    /// into the pool.
    pub(crate) fn release(&mut self, mut sim: Simulator) {
        self.stats.wire.absorb(sim.take_wire_stats());
        self.free = Some(sim);
    }
}

/// Clone-pool counters: per worker while it runs, summed across workers
/// once the executor has joined them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PoolStats {
    /// Acquisitions served by resetting a pooled simulator.
    pub(crate) hits: u64,
    /// Acquisitions that had to build a fresh simulator.
    pub(crate) misses: u64,
    /// Wire-path counters drained from every released simulator.
    pub(crate) wire: WireStats,
}

impl PoolStats {
    /// Fold a retiring worker's counters into the sum.
    pub(crate) fn absorb(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.wire.absorb(other.wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use dice_netsim::{NodeId, SimDuration, SimTime};

    #[test]
    fn second_acquire_is_a_hit_and_misses_count_validating_workers() {
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let shadow = sim.instant_snapshot();
        let topo = sim.topology().clone();

        // Two workers' pools; only the first validates anything.
        let mut busy = ClonePool::new();
        let idle = ClonePool::new();
        let a = busy.acquire(&shadow, &topo, 1);
        assert_eq!((busy.stats.hits, busy.stats.misses), (0, 1));
        busy.release(a);
        let b = busy.acquire(&shadow, &topo, 2);
        assert_eq!(
            (busy.stats.hits, busy.stats.misses),
            (1, 1),
            "second acquire is a hit"
        );
        busy.release(b);

        let mut total = PoolStats::default();
        total.absorb(busy.stats);
        total.absorb(idle.stats);
        assert_eq!(total.misses, 1, "one miss per worker that validated");
        assert_eq!(total.hits + total.misses, 2, "one acquisition per input");
    }

    #[test]
    fn pooled_reset_matches_fresh_clone_against_a_delta_chain() {
        // A pooled simulator rebound (`reset_from_shadow`) to the newest
        // link of a delta-snapshot chain — taken after a node left
        // (crashed) and rejoined on the live system — must match a fresh
        // `from_shadow` clone state-for-state.
        let mut live = scenarios::healthy_line(4, 11);
        live.run_until(SimTime::from_nanos(12_000_000_000));
        let (snap1, _) = crate::snapshot::take_consistent_snapshot(
            &mut live,
            NodeId(0),
            SimDuration::from_secs(5),
        )
        .expect("first cut");

        // Churn node 3: leave, rejoin, re-converge, then cut again. The
        // second cut extends the delta chain started by the first.
        live.inject_node_crash(NodeId(3));
        live.run_until(live.now() + SimDuration::from_secs(2));
        live.inject_node_restart(NodeId(3));
        live.run_until(live.now() + SimDuration::from_secs(10));
        let (snap2, _) = crate::snapshot::take_consistent_snapshot(
            &mut live,
            NodeId(0),
            SimDuration::from_secs(5),
        )
        .expect("post-churn cut");
        let topo = live.topology().clone();

        let drive = |sim: &mut Simulator| {
            sim.run_until(sim.now() + SimDuration::from_secs(5));
        };
        let mut fresh = Simulator::from_shadow(&snap2, &topo, 7);
        drive(&mut fresh);

        let mut pool = ClonePool::new();
        let warm = pool.acquire(&snap1, &topo, 3);
        pool.release(warm);
        let mut pooled = pool.acquire(&snap2, &topo, 7);
        assert_eq!(
            pool.stats.hits, 1,
            "second acquisition must reuse the clone"
        );
        drive(&mut pooled);

        assert_eq!(fresh.now(), pooled.now());
        assert_eq!(fresh.trace().stats(), pooled.trace().stats());
        for i in 0..4u32 {
            let a = crate::bgp_sut::as_bgp(fresh.node(NodeId(i))).expect("bgp node");
            let b = crate::bgp_sut::as_bgp(pooled.node(NodeId(i))).expect("bgp node");
            assert_eq!(
                a.loc_rib().total_flips(),
                b.loc_rib().total_flips(),
                "node {i} flip history diverges"
            );
            for j in 0..4u32 {
                let p = scenarios::prefix_of(j);
                assert_eq!(
                    a.loc_rib().best(&p).is_some(),
                    b.loc_rib().best(&p).is_some(),
                    "node {i} best route for prefix {j} diverges"
                );
            }
        }
    }
}
