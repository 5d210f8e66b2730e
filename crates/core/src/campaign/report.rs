//! What a campaign reports, and the fold that builds it.

use std::collections::{BTreeMap, BTreeSet};

use dice_netsim::{NodeId, SnapshotStats};
use serde::{Deserialize, Serialize};

#[cfg(doc)]
use super::{Campaign, CampaignConfig};
use crate::check::{FaultClass, FaultReport};
use crate::executor::{RoundDone, RoundTask};
use crate::explorer::{us_to_ms, RoundReport};
use crate::pool::PoolStats;
use crate::snapshot::SnapshotMetrics;

/// Where and when a fault class was first detected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassDetection {
    /// The fault class.
    pub class: FaultClass,
    /// 1-based round ordinal of first detection.
    pub round: u64,
    /// Explorer node of the detecting round.
    pub explorer: NodeId,
    /// Inject peer of the detecting round.
    pub inject_peer: NodeId,
    /// Validated inputs run before detection within that round
    /// (1 = the null input).
    pub input_ordinal: usize,
    /// Campaign wall-clock microseconds elapsed when the detecting
    /// round's last validation unit finished — the paper's online
    /// detection-latency metric at campaign granularity. A sweep validates
    /// only after all of its rounds are explored, so no stamp precedes its
    /// sweep's last exploration.
    pub wall_us_cum: u64,
    /// [`ClassDetection::wall_us_cum`] in milliseconds (kept for report
    /// compatibility).
    pub wall_ms_cum: u64,
}

/// Per-protocol aggregation across a campaign — the heterogeneity
/// breakdown: how much of the sweep each workload (BGP, gossip, ...)
/// consumed and what it found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KindSummary {
    /// Protocol tag ("bgp", "gossip", ...).
    pub kind: String,
    /// Rounds whose explorer spoke this protocol.
    pub rounds: usize,
    /// Branch-coverage union (site, direction) count across those rounds.
    pub coverage: usize,
    /// Distinct deduplicated faults attributed to those rounds.
    pub faults: usize,
    /// Concolic executions spent.
    pub executions: usize,
    /// [`RoundReport::wall_us`] summed over those rounds: a unit's time is
    /// billed to the round — and so the protocol — it validates for.
    pub wall_us: u64,
    /// [`KindSummary::wall_us`] in milliseconds.
    pub wall_ms: u64,
}

/// Per-explorer aggregation across a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplorerSummary {
    /// The explorer node.
    pub explorer: NodeId,
    /// Protocol tag of the node ("bgp", ...).
    pub kind: String,
    /// Rounds run with this node as explorer.
    pub rounds: usize,
    /// Branch-coverage union (site, direction) count across those rounds.
    pub coverage: usize,
    /// Distinct deduplicated faults attributed to those rounds.
    pub faults: usize,
    /// Concolic executions spent.
    pub executions: usize,
}

/// Hot-path performance counters for one campaign run: how much work the
/// clone pool, the copy-on-write snapshots and the solver memo avoided.
/// All of it is either wall-clock- or schedule-dependent bookkeeping
/// (which worker's pool serves an input depends on thread timing), so
/// [`CampaignReport::normalized`] zeroes the whole struct — the
/// determinism contract covers *results*, not cache luck.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Approximate bytes checkpointed across the campaign's consistent
    /// snapshots ([`ShadowSnapshot::approx_bytes`] summed over the one
    /// snapshot taken per explorer per sweep).
    ///
    /// [`ShadowSnapshot::approx_bytes`]: dice_netsim::ShadowSnapshot::approx_bytes
    pub snapshot_bytes: u64,
    /// Validation clones served by resetting a pooled simulator
    /// (`Simulator::reset_from_shadow`) instead of building one.
    pub pool_hits: u64,
    /// Validation clones that had to be built fresh (`from_shadow`).
    pub pool_misses: u64,
    /// Always 0: the concolic refutation cache that counted here is gone
    /// (`dice_concolic::SolverStats::cache_hits`). The field stays until
    /// `benchmark/` stops reading it (ROADMAP item 3, Step A).
    pub solver_cache_hits: u64,
    /// Negation queries that did reach the solver.
    pub solver_queries: u64,
    /// Branch flips skipped before query construction because the target
    /// (site, direction) was already covered.
    pub covered_flips_skipped: u64,
    /// Per-constraint solver-memo hits (variable lists and unary-filter
    /// byte sets reused instead of recomputed — the queries of one path
    /// share their prefix constraints, so this dwarfs `solver_queries`).
    pub unary_memo_hits: u64,
    /// Payload bytes sent over validation-clone channels (every
    /// `Frame::Data` counted at `send_frame`, both modes).
    pub wire_bytes: u64,
    /// Payload-buffer acquisitions served by the netsim
    /// [`BufPool`](dice_netsim::BufPool) free lists.
    pub buf_hits: u64,
    /// Payload-buffer acquisitions that had to allocate fresh (pool
    /// empty, or the wire pool disabled).
    pub buf_misses: u64,
    /// Non-empty delivery batches processed (`batch_delivery` off still
    /// counts each single-frame delivery as a batch of one).
    pub delivered_batches: u64,
    /// Largest number of frames coalesced into one delivery batch.
    pub max_batch_occupancy: u64,
    /// Bytes actually re-captured by the live system's consistent
    /// snapshots (dirty nodes re-cloned). With delta snapshots on this is
    /// the *incremental* footprint — usually far below
    /// [`PerfCounters::snapshot_bytes`], which counts the full shadow.
    pub snapshot_delta_bytes: u64,
    /// Node checkpoints re-cloned by the live system's consistent
    /// snapshots (dirty since the previous cut). With delta snapshots on,
    /// steady-state sweeps re-capture only the nodes that actually
    /// changed.
    pub nodes_recaptured: u64,
    /// Dynamics-schedule actions (partition legs, heals, node churn)
    /// applied to the live system during the campaign.
    pub churn_events: u64,
    /// Data frames dropped by the channel-fidelity layer on validation
    /// clones (zero unless `unreliable_links` is on).
    pub frames_dropped: u64,
    /// Data frames duplicated by the channel-fidelity layer.
    pub frames_duplicated: u64,
    /// Data frames delivered out of FIFO order by the channel-fidelity
    /// layer's bounded reordering window.
    pub frames_reordered: u64,
    /// Link-level retransmissions modeled by the latency layer (loss as
    /// retransmission *delay* on the reliable transport, counted in both
    /// modes).
    pub link_retransmits: u64,
}

impl PerfCounters {
    /// Fraction of validation clones served from the pool.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Where a campaign's host time went, phase by phase, in microseconds.
/// Cuts run on the calling thread; every other phase is summed over the
/// workers that ran it, so with several workers the sum can exceed
/// [`CampaignReport::wall_us`]. Zeroed by [`CampaignReport::normalized`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Consistent cuts of the live system ([`SnapshotMetrics::wall_micros`]).
    pub cut_us: u64,
    /// Concolic exploration of each round's explorer.
    pub explore_us: u64,
    /// Getting each validation clone: a pooled reset (or a fresh build)
    /// and its channel configuration.
    pub acquire_us: u64,
    /// Driving each clone: the input's delivery and the run to quiescence.
    pub drive_us: u64,
    /// The checker battery over each driven clone, and the clone's return
    /// to its pool.
    pub check_us: u64,
}

impl PhaseTimes {
    /// Every phase summed with `other`'s.
    pub(crate) fn add(&mut self, other: PhaseTimes) {
        self.cut_us += other.cut_us;
        self.explore_us += other.explore_us;
        self.acquire_us += other.acquire_us;
        self.drive_us += other.drive_us;
        self.check_us += other.check_us;
    }

    /// All phases together.
    pub(crate) fn total_us(&self) -> u64 {
        self.cut_us + self.explore_us + self.acquire_us + self.drive_us + self.check_us
    }

    /// Whether nothing was measured — true of a normalized report, whose
    /// JSON then leaves the record out and reads as it did before phases
    /// were timed.
    fn is_zero(&self) -> bool {
        *self == PhaseTimes::default()
    }
}

/// Aggregated outcome of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Every per-pair round, in sweep order.
    pub rounds: Vec<RoundReport>,
    /// Deduplicated fault union across all rounds.
    pub faults: Vec<FaultReport>,
    /// Branch-coverage union (site, direction) count across all rounds.
    pub coverage_union: usize,
    /// Per-explorer summaries, in node order.
    pub per_explorer: Vec<ExplorerSummary>,
    /// Per-protocol summaries, in kind order — one row per workload of a
    /// heterogeneous federation.
    pub per_kind: Vec<KindSummary>,
    /// First detection per fault class, in class order.
    pub detection: Vec<ClassDetection>,
    /// Total host wall-clock microseconds. Tracked at microsecond
    /// resolution so fast campaigns do not report a floor-bounded rate.
    pub wall_us: u64,
    /// [`CampaignReport::wall_us`] in milliseconds (kept for report
    /// compatibility).
    pub wall_ms: u64,
    /// Simulated time consumed on the live system (snapshot driving).
    pub sim_nanos: u64,
    /// Total concolic executions across all rounds.
    pub executions_total: usize,
    /// Total inputs validated system-wide across all rounds.
    pub validated_total: usize,
    /// Hot-path counters (clone pool, snapshot footprint, solver memo);
    /// zeroed by [`CampaignReport::normalized`].
    pub perf: PerfCounters,
    /// Host time per phase, summed over the campaign; zeroed by
    /// [`CampaignReport::normalized`].
    #[serde(default, skip_serializing_if = "PhaseTimes::is_zero")]
    pub phases: PhaseTimes,
}

impl CampaignReport {
    /// The set of fault classes detected by the whole campaign.
    pub fn classes(&self) -> BTreeSet<FaultClass> {
        self.faults.iter().map(|f| f.class).collect()
    }

    /// Rounds per wall-clock second, computed from the microsecond
    /// counter ([`CampaignReport::wall_us`]).
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds.len() as f64 * 1_000_000.0 / self.wall_us.max(1) as f64
    }

    /// A copy with every host wall-clock field zeroed — the determinism
    /// key of a campaign. Two runs over snapshots of the same quiescent
    /// system with the same [`CampaignConfig`] (any `pair_workers` value)
    /// serialize to byte-identical JSON after normalization; everything
    /// else in the report is a pure function of the configuration and the
    /// snapshots. Locked in by the scheduler-determinism regression test.
    pub fn normalized(&self) -> CampaignReport {
        let mut r = self.clone();
        r.wall_us = 0;
        r.wall_ms = 0;
        for round in &mut r.rounds {
            round.wall_us = 0;
            round.wall_ms = 0;
            round.snapshot.wall_micros = 0;
        }
        for d in &mut r.detection {
            d.wall_us_cum = 0;
            d.wall_ms_cum = 0;
        }
        for k in &mut r.per_kind {
            k.wall_us = 0;
            k.wall_ms = 0;
        }
        r.perf = PerfCounters::default();
        r.phases = PhaseTimes::default();
        r
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "campaign: {} rounds over {} explorers, {} execs, {} validated, coverage {} (union), {} faults ({} classes), {:.1}ms ({:.1} rounds/s)",
            self.rounds.len(),
            self.per_explorer.len(),
            self.executions_total,
            self.validated_total,
            self.coverage_union,
            self.faults.len(),
            self.classes().len(),
            self.wall_us as f64 / 1_000.0,
            self.rounds_per_sec(),
        )
    }
}

/// What [`Fold`] keeps per explorer.
#[derive(Default)]
struct Accum {
    kind: String,
    rounds: usize,
    coverage: BTreeSet<(u32, bool)>,
    executions: usize,
}

/// What [`Fold`] keeps per protocol kind.
#[derive(Default)]
struct KindAccum {
    rounds: usize,
    coverage: BTreeSet<(u32, bool)>,
    faults: usize,
    executions: usize,
    wall_us: u64,
}

/// The aggregation phase of [`Campaign::run`]: per-round outcomes folded,
/// in round-ordinal order, into a [`CampaignReport`].
#[derive(Default)]
pub(super) struct Fold {
    rounds: Vec<RoundReport>,
    coverage_union: BTreeSet<(u32, bool)>,
    per_explorer: BTreeMap<NodeId, Accum>,
    per_kind: BTreeMap<String, KindAccum>,
    fault_union: Vec<FaultReport>,
    fault_keys: BTreeSet<(FaultClass, NodeId, String)>,
    explorer_fault_counts: BTreeMap<NodeId, usize>,
    detection: BTreeMap<FaultClass, ClassDetection>,
    perf: PerfCounters,
    phases: PhaseTimes,
}

impl Fold {
    /// One consistent cut of the live system: what it cost, the shadow's
    /// footprint and what taking it re-captured.
    pub(super) fn cut(&mut self, snap: &SnapshotMetrics, snap_stats: SnapshotStats) {
        self.phases.cut_us += snap.wall_micros;
        let perf = &mut self.perf;
        perf.snapshot_bytes += snap.bytes as u64;
        perf.snapshot_delta_bytes += snap_stats.delta_bytes;
        perf.nodes_recaptured += snap_stats.nodes_recaptured;
        perf.churn_events += snap_stats.churn_events;
    }

    /// One sweep's clone-pool and wire counters.
    pub(super) fn pool(&mut self, pool_stats: PoolStats) {
        let perf = &mut self.perf;
        perf.pool_hits += pool_stats.hits;
        perf.pool_misses += pool_stats.misses;
        perf.wire_bytes += pool_stats.wire.wire_bytes;
        perf.buf_hits += pool_stats.wire.buf_hits;
        perf.buf_misses += pool_stats.wire.buf_misses;
        perf.delivered_batches += pool_stats.wire.batches;
        perf.max_batch_occupancy = perf.max_batch_occupancy.max(pool_stats.wire.max_batch);
        perf.frames_dropped += pool_stats.wire.frames_dropped;
        perf.frames_duplicated += pool_stats.wire.frames_duplicated;
        perf.frames_reordered += pool_stats.wire.frames_reordered;
        perf.link_retransmits += pool_stats.wire.link_retransmits;
    }

    /// One completed round. Rounds must arrive in ordinal order: first
    /// detection and fault attribution go to the earliest round.
    pub(super) fn round(&mut self, task: &RoundTask, done: RoundDone) {
        let Fold {
            rounds,
            coverage_union,
            per_explorer,
            per_kind,
            fault_union,
            fault_keys,
            explorer_fault_counts,
            detection,
            perf,
            phases,
        } = self;
        phases.add(done.phases);
        let outcome = done.outcome;
        let report = outcome.report;
        let explorer = task.cfg.explorer;

        perf.solver_cache_hits += outcome.exploration.solver.cache_hits;
        perf.solver_queries += outcome.exploration.solver.queries;
        perf.covered_flips_skipped += outcome.exploration.solver.covered_skips;
        perf.unary_memo_hits += outcome.exploration.solver.unary_memo_hits;
        coverage_union.extend(outcome.exploration.coverage.sites());
        let entry = per_explorer.entry(explorer).or_default();
        entry.kind = report.explorer_kind.clone();
        entry.rounds += 1;
        entry.coverage.extend(outcome.exploration.coverage.sites());
        entry.executions += report.executions;

        let kind_entry = per_kind.entry(report.explorer_kind.clone()).or_default();
        kind_entry.rounds += 1;
        kind_entry
            .coverage
            .extend(outcome.exploration.coverage.sites());
        kind_entry.executions += report.executions;
        kind_entry.wall_us += report.wall_us;

        for f in &report.faults {
            detection.entry(f.class).or_insert_with(|| ClassDetection {
                class: f.class,
                round: task.ordinal,
                explorer,
                inject_peer: task.cfg.inject_peer,
                input_ordinal: report
                    .detection_input_ordinal
                    .get(&f.class.to_string())
                    .copied()
                    .unwrap_or(0),
                wall_us_cum: done.completed_wall_us,
                wall_ms_cum: us_to_ms(done.completed_wall_us),
            });
            if fault_keys.insert(f.key()) {
                fault_union.push(f.clone());
                *explorer_fault_counts.entry(explorer).or_default() += 1;
                per_kind
                    .entry(report.explorer_kind.clone())
                    .or_default()
                    .faults += 1;
            }
        }
        rounds.push(report);
    }

    /// The report, given the campaign's wall-clock and simulated duration.
    pub(super) fn finish(self, wall_us: u64, sim_nanos: u64) -> CampaignReport {
        let Fold {
            rounds,
            coverage_union,
            per_explorer,
            per_kind,
            fault_union,
            explorer_fault_counts,
            detection,
            perf,
            phases,
            ..
        } = self;
        let per_explorer = per_explorer
            .into_iter()
            .map(|(explorer, acc)| ExplorerSummary {
                explorer,
                kind: acc.kind,
                rounds: acc.rounds,
                coverage: acc.coverage.len(),
                faults: explorer_fault_counts.get(&explorer).copied().unwrap_or(0),
                executions: acc.executions,
            })
            .collect();
        let per_kind = per_kind
            .into_iter()
            .map(|(kind, acc)| KindSummary {
                kind,
                rounds: acc.rounds,
                coverage: acc.coverage.len(),
                faults: acc.faults,
                executions: acc.executions,
                wall_us: acc.wall_us,
                wall_ms: us_to_ms(acc.wall_us),
            })
            .collect();

        CampaignReport {
            executions_total: rounds.iter().map(|r| r.executions).sum(),
            validated_total: rounds.iter().map(|r| r.validated).sum(),
            rounds,
            faults: fault_union,
            coverage_union: coverage_union.len(),
            per_explorer,
            per_kind,
            detection: detection.into_values().collect(),
            wall_us,
            wall_ms: us_to_ms(wall_us),
            sim_nanos,
            perf,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick;
    use super::super::{Campaign, CampaignConfig};
    use super::*;
    use crate::scenarios;
    use dice_netsim::SimTime;

    #[test]
    fn wall_fields_derive_consistently_and_normalize_to_zero() {
        // Every ms field is `us_to_ms` of its us counter — one shared
        // truncating derivation across rounds, detection, per-kind and the
        // campaign total — and `normalized()` zeroes all of them,
        // including the per-kind workload rows added for gossip.
        let mut sim = scenarios::mixed_bgp_gossip(13, true);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(48)
            .validate_top(6)
            .run(&mut sim)
            .expect("mixed campaign runs");

        assert_eq!(report.wall_ms, crate::explorer::us_to_ms(report.wall_us));
        for r in &report.rounds {
            assert_eq!(r.wall_ms, crate::explorer::us_to_ms(r.wall_us));
        }
        for d in &report.detection {
            assert_eq!(d.wall_ms_cum, crate::explorer::us_to_ms(d.wall_us_cum));
        }
        assert!(!report.per_kind.is_empty());
        for k in &report.per_kind {
            assert_eq!(k.wall_ms, crate::explorer::us_to_ms(k.wall_us));
        }
        // Kind rows partition the rounds and their wall time.
        assert_eq!(
            report.per_kind.iter().map(|k| k.rounds).sum::<usize>(),
            report.rounds.len()
        );
        assert_eq!(
            report.per_kind.iter().map(|k| k.wall_us).sum::<u64>(),
            report.rounds.iter().map(|r| r.wall_us).sum::<u64>()
        );

        let n = report.normalized();
        assert_eq!(n.wall_us, 0);
        assert_eq!(n.wall_ms, 0);
        assert!(n
            .rounds
            .iter()
            .all(|r| r.wall_us == 0 && r.wall_ms == 0 && r.snapshot.wall_micros == 0));
        assert!(n
            .detection
            .iter()
            .all(|d| d.wall_us_cum == 0 && d.wall_ms_cum == 0));
        assert!(n.per_kind.iter().all(|k| k.wall_us == 0 && k.wall_ms == 0));
    }

    #[test]
    fn phases_partition_the_round_walls_and_normalize_away() {
        // Each round's wall is its cut share, its exploration and its own
        // units; the phases are the same times, split the other way.
        let mut sim = scenarios::mixed_bgp_gossip(13, true);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(48)
            .validate_top(6)
            .workers(2)
            .run(&mut sim)
            .expect("mixed campaign runs");
        let p = report.phases;
        assert!(p.cut_us > 0 && p.explore_us > 0 && p.drive_us > 0, "{p:?}");
        assert_eq!(
            p.total_us(),
            report.rounds.iter().map(|r| r.wall_us).sum::<u64>(),
            "{p:?}"
        );
        assert!(serde_json::to_string(&report)
            .unwrap()
            .contains("\"phases\""));

        // A normalized report leaves the zeroed record out of its JSON, and
        // that JSON still reads back.
        let json = serde_json::to_string(&report.normalized()).unwrap();
        assert!(!json.contains("phases"), "{json}");
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.phases, PhaseTimes::default());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn per_kind_summarizes_heterogeneous_workloads() {
        let mut sim = scenarios::mixed_bgp_gossip(17, false);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(16)
            .validate_top(3)
            .run(&mut sim)
            .expect("mixed campaign runs");
        let kinds: Vec<&str> = report.per_kind.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(kinds, vec!["bgp", "gossip"], "kind rows in kind order");
        let bgp = &report.per_kind[0];
        let gossip = &report.per_kind[1];
        // BGP line 0-1 has 2 directed pairs; gossip triangle has 6.
        assert_eq!(bgp.rounds, 2);
        assert_eq!(gossip.rounds, 6);
        assert!(bgp.coverage > 0 && gossip.coverage > 0);
        assert!(bgp.executions > 0 && gossip.executions > 0);
    }

    #[test]
    fn perf_counters_populate_and_normalize_to_zero() {
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(48)
            .validate_top(6)
            .run(&mut sim)
            .expect("runs");
        let perf = &report.perf;
        assert!(perf.snapshot_bytes > 0, "snapshot footprint recorded");
        assert!(
            perf.pool_hits > 0,
            "workers must reuse their pooled clone: {perf:?}"
        );
        assert!(perf.pool_misses > 0, "first acquisition per worker misses");
        assert_eq!(
            (perf.pool_hits + perf.pool_misses) as usize,
            report.validated_total,
            "every validated input is exactly one pool acquisition"
        );
        assert!(perf.solver_queries > 0);
        assert!(
            perf.unary_memo_hits > 0,
            "prefix constraints must hit the solver memo: {perf:?}"
        );
        assert!(perf.pool_hit_rate() > 0.0 && perf.pool_hit_rate() < 1.0);
        assert!(
            perf.wire_bytes > 0,
            "clone traffic must be metered: {perf:?}"
        );
        assert!(
            perf.buf_hits > 0,
            "default wire_pool=on must recycle payload buffers: {perf:?}"
        );
        assert!(
            perf.buf_misses > 0,
            "cold pools allocate fresh at least once"
        );
        assert!(perf.delivered_batches > 0, "deliveries count as batches");
        assert!(
            perf.max_batch_occupancy >= 1,
            "any delivery implies a batch of at least one"
        );
        assert!(
            perf.nodes_recaptured > 0,
            "consistent cuts must capture node checkpoints: {perf:?}"
        );
        assert!(
            perf.snapshot_delta_bytes > 0,
            "captured checkpoints have a byte footprint: {perf:?}"
        );
        assert!(
            perf.snapshot_delta_bytes <= perf.snapshot_bytes,
            "the incremental footprint never exceeds the full shadow: {perf:?}"
        );
        assert_eq!(perf.churn_events, 0, "no schedule configured");
        assert_eq!(perf.frames_dropped, 0, "reliable channels drop nothing");
        assert_eq!(perf.frames_duplicated, 0);
        assert_eq!(perf.frames_reordered, 0);

        let n = report.normalized();
        assert_eq!(n.perf.snapshot_bytes, 0);
        assert_eq!(n.perf.pool_hits, 0);
        assert_eq!(n.perf.pool_misses, 0);
        assert_eq!(n.perf.solver_cache_hits, 0);
        assert_eq!(n.perf.solver_queries, 0);
        assert_eq!(n.perf.covered_flips_skipped, 0);
        assert_eq!(n.perf.unary_memo_hits, 0);
        assert_eq!(n.perf.wire_bytes, 0);
        assert_eq!(n.perf.buf_hits, 0);
        assert_eq!(n.perf.buf_misses, 0);
        assert_eq!(n.perf.delivered_batches, 0);
        assert_eq!(n.perf.max_batch_occupancy, 0);
        assert_eq!(n.perf.snapshot_delta_bytes, 0);
        assert_eq!(n.perf.nodes_recaptured, 0);
        assert_eq!(n.perf.churn_events, 0);
        assert_eq!(n.perf.frames_dropped, 0);
        assert_eq!(n.perf.frames_duplicated, 0);
        assert_eq!(n.perf.frames_reordered, 0);
        assert_eq!(n.perf.link_retransmits, 0);

        // Answering with the reference solver must not change any result
        // field; only the solver-side accounting may move.
        let mut sim2 = scenarios::healthy_line(3, 5);
        sim2.run_until(SimTime::from_nanos(12_000_000_000));
        let uncached = quick(Campaign::new(&sim2))
            .executions(48)
            .validate_top(6)
            .solver_cache(false)
            .run(&mut sim2)
            .expect("runs");
        assert_eq!(uncached.perf.solver_cache_hits, 0);
        assert_eq!(uncached.perf.unary_memo_hits, 0);
        assert_eq!(
            serde_json::to_string(&uncached.normalized()).unwrap(),
            serde_json::to_string(&report.normalized()).unwrap(),
            "the solver in use must not alter the report"
        );
    }

    #[test]
    fn solver_query_counters_are_consistent() {
        // Each round's `solver_queries` counts negation queries answered;
        // the campaign perf block counts the same population as solver
        // calls plus cache hits (the latter read 0 since the refutation
        // cache went). No query may fall into a third bucket.
        let mut sim = scenarios::healthy_line(3, 7);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(48)
            .validate_top(6)
            .run(&mut sim)
            .expect("runs");
        let answered: u64 = report.rounds.iter().map(|r| r.solver_queries).sum();
        assert!(answered > 0, "campaign must answer some negation queries");
        assert_eq!(
            answered,
            report.perf.solver_queries + report.perf.solver_cache_hits,
            "every answered query is a solver call or a cache hit: {:?}",
            report.perf
        );
    }

    #[test]
    fn report_serializes() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .executions(8)
            .validate_top(2)
            .run(&mut sim)
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("coverage_union"));
        assert!(json.contains("per_explorer"));
        // The campaign configuration round-trips through JSON text — the
        // contract a persisted `CampaignConfig` file relies on.
        let cfg = Campaign::new(&sim)
            .explorers([NodeId(1)])
            .pair_workers(3)
            .executions(17)
            .config_ref()
            .clone();
        let cfg_json = serde_json::to_string(&cfg).unwrap();
        assert!(cfg_json.contains("max_peers_per_explorer"));
        let back: CampaignConfig = serde_json::from_str(&cfg_json).unwrap();
        assert_eq!(back.pair_workers, 3);
        assert_eq!(back.explorers, vec![NodeId(1)]);
        assert_eq!(back.template.concolic_executions, 17);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            cfg_json,
            "CampaignConfig -> JSON -> CampaignConfig is the identity"
        );
    }
}
