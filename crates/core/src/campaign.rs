//! Federation-scale orchestration: sweep every eligible `(explorer,
//! inject_peer)` pair instead of hand-picking one.
//!
//! [`DiceRunner`](crate::explorer::DiceRunner) explores one fixed pair per
//! round — fine for a demo, useless for a federation of dozens of domains.
//! A [`Campaign`] discovers the eligible pairs through the
//! [`SutCatalog`] probe chain, snapshots **once per explorer** (one
//! Chandy–Lamport pass amortized over all of that node's peers), runs up
//! to [`Campaign::pair_workers`] whole rounds concurrently on one shared
//! worker pool (round- and validation-level tasks interleave; see the
//! `executor` module), and aggregates the per-pair [`RoundReport`]s in
//! deterministic round-ordinal order into a serializable
//! [`CampaignReport`]: per-class detection latency, branch-coverage union
//! (global and per-explorer), fault union, and wall/sim-time totals.
//!
//! ```
//! use dice_core::{scenarios, Campaign};
//! use dice_netsim::{NodeId, SimDuration, SimTime};
//!
//! let mut live = scenarios::healthy_line(3, 7);
//! live.run_until(SimTime::from_nanos(10_000_000_000));
//! let report = Campaign::new(&live)
//!     .rounds(1)
//!     .workers(2)
//!     .executions(24)
//!     .validate_top(3)
//!     .horizon(SimDuration::from_secs(30))
//!     .run(&mut live)
//!     .unwrap();
//! assert_eq!(report.rounds.len(), 4); // line 0-1-2 has 4 directed pairs
//! assert!(report.faults.is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet};

use dice_concolic::Strategy;
use dice_netsim::{NodeId, SimDuration, Simulator};
use serde::{Deserialize, Serialize};

use crate::check::{FaultClass, FaultReport};
use crate::executor::RoundTask;
use crate::explorer::{us_to_ms, DiceConfig, RoundReport};
use crate::interface::AttestationRegistry;
use crate::snapshot::take_consistent_snapshot;
use crate::sut::SutCatalog;

/// Declarative configuration of a campaign; everything a CI perf job
/// needs to reproduce a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Explorer nodes to sweep. Empty = every explorable node.
    pub explorers: Vec<NodeId>,
    /// Cap on inject peers swept per explorer (0 = all eligible peers).
    pub max_peers_per_explorer: usize,
    /// Full sweeps over the pair set. A campaign always runs at least one
    /// sweep: `0` is treated as `1`.
    pub rounds: usize,
    /// Whole `(explorer, peer)` rounds in flight at once (`0`/`1` =
    /// sequential). The report is identical for any value — only
    /// wall-clock fields change (see [`CampaignReport::normalized`]).
    pub pair_workers: usize,
    /// Per-pair round template; `explorer` / `inject_peer` are overridden
    /// for each swept pair.
    pub template: DiceConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            explorers: Vec::new(),
            max_peers_per_explorer: 0,
            rounds: 1,
            pair_workers: 1,
            template: DiceConfig::new(NodeId(0), NodeId(0)),
        }
    }
}

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
    /// Campaign wall-clock microseconds elapsed when the detecting round
    /// completed — the paper's online detection-latency metric at
    /// campaign granularity.
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
    /// Host wall-clock microseconds summed over those rounds (snapshot
    /// share included where the round paid for it).
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
/// clone pool, the copy-on-write snapshots and the solver cache avoided.
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
    /// Negation queries answered by the concolic refutation cache
    /// without reaching the solver.
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

    /// Fraction of negation queries served by the refutation cache.
    pub fn solver_cache_hit_rate(&self) -> f64 {
        let total = self.solver_cache_hits + self.solver_queries;
        if total == 0 {
            0.0
        } else {
            self.solver_cache_hits as f64 / total as f64
        }
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
    /// Hot-path counters (clone pool, snapshot footprint, solver cache);
    /// zeroed by [`CampaignReport::normalized`].
    pub perf: PerfCounters,
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

/// Builder-style orchestrator sweeping DiCE rounds across a federation.
///
/// Construction discovers the eligible `(explorer, peer)` pairs and
/// builds the shared attestation registry from the live system; the
/// builder methods then narrow the sweep and tune per-round budgets;
/// [`Campaign::run`] executes against the (still running) deployment.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
    catalog: SutCatalog,
    pairs: Vec<(NodeId, NodeId)>,
    registry: AttestationRegistry,
}

impl Campaign {
    /// Discover eligible pairs in `live` using the default (BGP-only)
    /// catalog and derive the attestation registry.
    pub fn new(live: &Simulator) -> Self {
        Self::with_catalog(live, SutCatalog::default())
    }

    /// Like [`Campaign::new`] but over a custom SUT catalog — the entry
    /// point for heterogeneous federations.
    pub fn with_catalog(live: &Simulator, catalog: SutCatalog) -> Self {
        let cfg = CampaignConfig::default();
        let pairs = catalog.eligible_pairs(live);
        let registry = catalog.build_registry(live, cfg.template.seed);
        Campaign {
            cfg,
            catalog,
            pairs,
            registry,
        }
    }

    /// Restrict the sweep to these explorer nodes (default: all).
    pub fn explorers(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.cfg.explorers = nodes.into_iter().collect();
        self
    }

    /// Number of full sweeps over the pair set (default 1; `0` is
    /// treated as `1` — a campaign always runs at least one sweep).
    pub fn rounds(mut self, n: usize) -> Self {
        self.cfg.rounds = n;
        self
    }

    /// Validation workers per round (default 1 = sequential). The
    /// campaign pool is sized `max(pair_workers, workers)` and shared
    /// between round- and validation-level tasks.
    pub fn workers(mut self, k: usize) -> Self {
        self.cfg.template.workers = k;
        self
    }

    /// Whole `(explorer, peer)` rounds in flight at once (default 1 =
    /// sequential sweep). Reports are identical for any value modulo
    /// wall-clock fields — see [`CampaignReport::normalized`].
    pub fn pair_workers(mut self, k: usize) -> Self {
        self.cfg.pair_workers = k;
        self
    }

    /// Concolic search strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.cfg.template.strategy = s;
        self
    }

    /// Concolic execution budget per round.
    pub fn executions(mut self, n: usize) -> Self {
        self.cfg.template.concolic_executions = n;
        self
    }

    /// Maximum inputs validated system-wide per round.
    pub fn validate_top(mut self, n: usize) -> Self {
        self.cfg.template.validate_top = n;
        self
    }

    /// Simulated horizon each validation clone runs for.
    pub fn horizon(mut self, h: SimDuration) -> Self {
        self.cfg.template.horizon = h;
        self
    }

    /// Grammar-generated seeds per round (0 = fixed minimal seed only).
    pub fn grammar_seeds(mut self, n: usize) -> Self {
        self.cfg.template.grammar_seeds = n;
        self
    }

    /// Enable/disable the concolic refutation cache (default on).
    /// Exploration outcomes are identical either way; only solver time
    /// differs.
    pub fn solver_cache(mut self, on: bool) -> Self {
        self.cfg.template.solver_cache = on;
        self
    }

    /// Enable/disable the netsim payload-buffer pool on validation
    /// clones (default on). Reports are byte-identical either way — the
    /// pool only recycles allocations; only the `buf_hits`/`buf_misses`
    /// perf counters (zeroed by `normalized()`) observe the difference.
    pub fn wire_pool(mut self, on: bool) -> Self {
        self.cfg.template.wire_pool = on;
        self
    }

    /// Enable/disable batched same-instant frame delivery on validation
    /// clones (default on). The event schedule is identical in both
    /// modes, so reports are byte-identical; only the batch-occupancy
    /// perf counters observe the difference.
    pub fn batch_delivery(mut self, on: bool) -> Self {
        self.cfg.template.batch_delivery = on;
        self
    }

    /// Enable/disable delta snapshots on the **live** system (default
    /// on): consistent cuts re-capture only nodes dirtied since the
    /// previous cut and share every other checkpoint `Arc` with the prior
    /// shadow. A cached checkpoint of an unmutated node is
    /// state-identical to a fresh clone, so reports are byte-identical
    /// either way; only the `nodes_recaptured` / `snapshot_delta_bytes`
    /// perf counters observe the difference.
    pub fn delta_snapshots(mut self, on: bool) -> Self {
        self.cfg.template.delta_snapshots = on;
        self
    }

    /// Install a deterministic dynamics schedule (partition/heal windows,
    /// node churn). The spec is expanded once from the campaign seed and
    /// applied to the live system at the quiescent point before each
    /// sweep's snapshots — never mid-cut, and never on validation clones.
    /// An empty spec is byte-identical to no schedule at all.
    pub fn schedule(mut self, spec: dice_netsim::ScheduleSpec) -> Self {
        self.cfg.template.schedule = Some(spec);
        self
    }

    /// Subject validation clones to the per-link channel-fidelity layer
    /// (default off): probabilistic drop, duplication, bounded reordering
    /// and burst loss per the configured [`link_faults`] profile. Never
    /// applied to the live system — only the isolated clones replay under
    /// fire. Fault sampling flows from per-link splits of a dedicated
    /// seeded stream, so reports stay byte-identical per seed across
    /// `pair_workers` values.
    ///
    /// [`link_faults`]: Campaign::link_faults
    pub fn unreliable_links(mut self, on: bool) -> Self {
        self.cfg.template.unreliable_links = on;
        self
    }

    /// Set the fault profile used when [`unreliable_links`] is on
    /// (default: the netsim 5% lossy profile).
    ///
    /// [`unreliable_links`]: Campaign::unreliable_links
    pub fn link_faults(mut self, faults: dice_netsim::LinkFaults) -> Self {
        self.cfg.template.link_faults = Some(faults);
        self
    }

    /// Master seed for grammar and clone simulators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.template.seed = seed;
        self
    }

    /// Cap on inject peers swept per explorer (0 = all).
    pub fn max_peers_per_explorer(mut self, n: usize) -> Self {
        self.cfg.max_peers_per_explorer = n;
        self
    }

    /// Replace the whole declarative configuration (e.g. loaded from
    /// JSON by an experiment binary).
    pub fn config(mut self, cfg: CampaignConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The current declarative configuration.
    pub fn config_ref(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Every eligible `(explorer, inject_peer)` pair discovered at
    /// construction, before explorer filtering.
    pub fn eligible_pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// The pairs the sweep will actually visit after explorer filtering
    /// and the per-explorer peer cap, grouped by explorer in node order.
    pub fn sweep_plan(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut grouped: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &(explorer, peer) in &self.pairs {
            if !self.cfg.explorers.is_empty() && !self.cfg.explorers.contains(&explorer) {
                continue;
            }
            let peers = grouped.entry(explorer).or_default();
            if self.cfg.max_peers_per_explorer == 0 || peers.len() < self.cfg.max_peers_per_explorer
            {
                peers.push(peer);
            }
        }
        grouped.into_iter().collect()
    }

    /// Execute the campaign, three phases per sweep (so at most one
    /// sweep's snapshots are held in memory at a time):
    ///
    /// 1. **Snapshot** (sequential, on the live system): one consistent
    ///    Chandy–Lamport snapshot per explorer, shared behind `Arc` by
    ///    all of that explorer's peer rounds. Rounds never touch the
    ///    live system, so pre-taking a sweep's snapshots is
    ///    byte-identical to interleaving them with rounds.
    /// 2. **Rounds** (parallel): up to `pair_workers` whole `(explorer,
    ///    peer)` rounds in flight on one shared pool of
    ///    `max(pair_workers, workers)` threads; each round's validation
    ///    fan-out is stealable by any idle worker (see the `executor`
    ///    module).
    /// 3. **Aggregation** (sequential, in round-ordinal order): fold the
    ///    per-round outcomes into the [`CampaignReport`]. Because every
    ///    stage is a pure function of `(snapshot, config)` and the fold
    ///    runs in ordinal order, the report is identical for any
    ///    `pair_workers` value modulo wall-clock fields
    ///    ([`CampaignReport::normalized`]).
    ///
    /// Snapshot cost accounting: the Chandy–Lamport pass is shared by all
    /// of an explorer's peer rounds, so its cost (wall and simulated
    /// time, and round-wall inclusion) is attributed to the *first* round
    /// that used it; subsequent rounds reusing the snapshot report zero
    /// snapshot cost. Summing `rounds[i].snapshot` over a campaign
    /// therefore counts each snapshot exactly once.
    pub fn run(&self, live: &mut Simulator) -> Result<CampaignReport, String> {
        // dice-lint: allow(determinism-zone): campaign wall-clock accounting; zeroed by normalized()
        let wall = std::time::Instant::now();
        let sim_start = live.now();
        let topo = live.topology().clone();
        let plan = self.sweep_plan();
        if plan.is_empty() {
            return Err("campaign has no eligible (explorer, peer) pairs".into());
        }
        let checkers = crate::check::default_checkers(self.cfg.template.oscillation_threshold);
        let pair_workers = self.cfg.pair_workers.max(1);
        let pool_workers = pair_workers.max(self.cfg.template.workers.max(1));

        // Delta snapshots on the live system: scope the counters to this
        // campaign by draining whatever a previous run left behind.
        live.set_delta_snapshots(self.cfg.template.delta_snapshots);
        let _ = live.take_snapshot_stats();
        // Expand the dynamics schedule once, deterministically from the
        // campaign seed and the live clock at campaign start. Actions are
        // applied at the quiescent point before each sweep's snapshots
        // (never mid-cut: an in-band fault firing during a Chandy–Lamport
        // pass would abort the snapshot).
        let mut schedule = match &self.cfg.template.schedule {
            Some(spec) if !spec.is_empty() => {
                let mut rng =
                    dice_netsim::SimRng::seed_from_u64(self.cfg.template.seed).split(0x5C4ED);
                spec.expand(&topo, live.now(), &mut rng)
            }
            _ => dice_netsim::Schedule::default(),
        };

        #[derive(Default)]
        struct Accum {
            kind: String,
            rounds: usize,
            coverage: BTreeSet<(u32, bool)>,
            executions: usize,
        }
        #[derive(Default)]
        struct KindAccum {
            rounds: usize,
            coverage: BTreeSet<(u32, bool)>,
            faults: usize,
            executions: usize,
            wall_us: u64,
        }

        let mut rounds: Vec<RoundReport> = Vec::new();
        let mut coverage_union: BTreeSet<(u32, bool)> = BTreeSet::new();
        let mut per_explorer: BTreeMap<NodeId, Accum> = BTreeMap::new();
        let mut per_kind: BTreeMap<String, KindAccum> = BTreeMap::new();
        let mut fault_union: Vec<FaultReport> = Vec::new();
        let mut fault_keys = BTreeSet::new();
        let mut explorer_fault_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut detection: BTreeMap<FaultClass, ClassDetection> = BTreeMap::new();
        let mut perf = PerfCounters::default();
        let mut round_no = 0u64;

        // One sweep at a time, so only the current sweep's snapshots are
        // alive: memory stays bounded by the explorer count, not by
        // `rounds × explorers`. Rounds never touch the live system, so
        // the snapshot schedule (and every snapshot's content) is the
        // same as if all sweeps were snapshotted up front.
        for _sweep in 0..self.cfg.rounds.max(1) {
            // Dynamics due by now (partitions opening/healing, churn)
            // fire between sweeps, while no cut is in flight.
            schedule.apply_due(live);
            // Phase 1: snapshots, sequential against the live system.
            let mut tasks: Vec<RoundTask> = Vec::new();
            for (explorer, peers) in &plan {
                let (shadow, snap_metrics) =
                    take_consistent_snapshot(live, *explorer, self.cfg.template.snapshot_deadline)?;
                perf.snapshot_bytes += snap_metrics.bytes as u64;
                let snap_stats = live.take_snapshot_stats();
                perf.snapshot_delta_bytes += snap_stats.delta_bytes;
                perf.nodes_recaptured += snap_stats.nodes_recaptured;
                perf.churn_events += snap_stats.churn_events;
                let shadow = shadow.into_shared();
                // The flip baseline is a function of the shared snapshot;
                // compute it once per explorer.
                let baseline =
                    std::sync::Arc::new(crate::check::flips_baseline(&self.catalog, &shadow));
                for (k, peer) in peers.iter().enumerate() {
                    round_no += 1;
                    // The first peer round carries the snapshot cost;
                    // reuse rounds report zero (see method docs).
                    let (round_metrics, snap_wall_us) = if k == 0 {
                        (snap_metrics, snap_metrics.wall_micros)
                    } else {
                        (
                            crate::snapshot::SnapshotMetrics {
                                sim_duration_nanos: 0,
                                wall_micros: 0,
                                nodes: 0,
                                in_flight: 0,
                                bytes: 0,
                            },
                            0,
                        )
                    };
                    let mut cfg = self.cfg.template.clone();
                    cfg.explorer = *explorer;
                    cfg.inject_peer = *peer;
                    tasks.push(RoundTask {
                        ordinal: round_no,
                        cfg,
                        shadow: std::sync::Arc::clone(&shadow),
                        baseline: std::sync::Arc::clone(&baseline),
                        snap_metrics: round_metrics,
                        snap_wall_us,
                    });
                }
            }

            // Phase 2: this sweep's rounds, parallel over the shared pool.
            let (done, pool_stats) = crate::executor::run_rounds(
                &tasks,
                pair_workers,
                pool_workers,
                &topo,
                &self.catalog,
                &self.registry,
                &checkers,
                wall,
            );
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

            // Phase 3: deterministic aggregation in round-ordinal order.
            for (task, done) in tasks.iter().zip(done) {
                let done = done?;
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
        }

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

        let wall_us = wall.elapsed().as_micros() as u64;
        Ok(CampaignReport {
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
            sim_nanos: (live.now() - sim_start).as_nanos(),
            perf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use dice_netsim::SimTime;

    fn quick(campaign: Campaign) -> Campaign {
        campaign
            .executions(24)
            .validate_top(4)
            .horizon(SimDuration::from_secs(30))
    }

    #[test]
    fn campaign_sweeps_all_pairs_of_a_line() {
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim)).run(&mut sim).expect("runs");
        assert_eq!(report.rounds.len(), 4, "0-1-2 line has 4 directed pairs");
        assert_eq!(report.per_explorer.len(), 3);
        assert!(report.faults.is_empty(), "healthy: {:?}", report.faults);
        assert!(report.coverage_union > 0);
        assert!(report.executions_total >= report.rounds.len());
        // Middle node got both peers, ends one each.
        let middle = report
            .per_explorer
            .iter()
            .find(|e| e.explorer == NodeId(1))
            .unwrap();
        assert_eq!(middle.rounds, 2);
    }

    #[test]
    fn campaign_finds_seeded_bug_and_reports_latency() {
        let mut sim = scenarios::buggy_parser_scenario(7);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let report = quick(Campaign::new(&sim))
            .explorers([NodeId(1)])
            .executions(160)
            .validate_top(16)
            .workers(2)
            .run(&mut sim)
            .expect("runs");
        assert!(report.classes().contains(&FaultClass::ProgrammingError));
        let det = report
            .detection
            .iter()
            .find(|d| d.class == FaultClass::ProgrammingError)
            .expect("detection latency recorded");
        assert!(det.round >= 1);
        assert!(det.input_ordinal >= 1);
        assert_eq!(det.explorer, NodeId(1));
    }

    #[test]
    fn unreliable_links_keep_detection_and_meter_faults() {
        // Validation clones replay under 5% loss: the seeded bug class
        // must still be detected (the injected input bypasses the
        // channel layer; only the surrounding dynamics degrade), the
        // fault counters must populate, and the normalized report must
        // stay byte-identical across pair_workers per seed.
        let run = |pair_workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(7);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            quick(Campaign::new(&sim))
                .explorers([NodeId(1)])
                .executions(160)
                .validate_top(16)
                .pair_workers(pair_workers)
                .unreliable_links(true)
                .link_faults(dice_netsim::LinkFaults::lossy(0.05))
                .run(&mut sim)
                .expect("lossy campaign runs")
        };
        let report = run(1);
        assert!(
            report.classes().contains(&FaultClass::ProgrammingError),
            "seeded bug must survive 5% loss: {:?}",
            report.classes()
        );
        assert!(
            report.perf.frames_dropped > 0,
            "5% loss must drop frames: {:?}",
            report.perf
        );
        let n = report.normalized();
        assert_eq!(n.perf.frames_dropped, 0, "fault counters normalize away");
        assert_eq!(
            serde_json::to_string(&run(3).normalized()).unwrap(),
            serde_json::to_string(&n).unwrap(),
            "fault sampling must be schedule-independent"
        );
    }

    #[test]
    fn explorer_filter_and_peer_cap_shape_the_plan() {
        let sim = scenarios::healthy_line(4, 5);
        let c = Campaign::new(&sim)
            .explorers([NodeId(1), NodeId(2)])
            .max_peers_per_explorer(1);
        let plan = c.sweep_plan();
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|(_, peers)| peers.len() == 1));
        assert_eq!(c.eligible_pairs().len(), 6, "discovery is unfiltered");
    }

    #[test]
    fn multi_sweep_counts_rounds() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let report = quick(Campaign::new(&sim))
            .rounds(2)
            .executions(8)
            .validate_top(2)
            .run(&mut sim)
            .expect("runs");
        assert_eq!(report.rounds.len(), 4, "2 pairs x 2 sweeps");
        assert!(report.wall_ms > 0 || report.rounds_per_sec() > 0.0);
        assert!(report.sim_nanos > 0, "snapshots consume simulated time");
    }

    #[test]
    fn pair_workers_do_not_change_the_report() {
        // Identical fresh systems, different round-level parallelism: the
        // normalized reports must serialize byte-identically.
        let run = |pair_workers: usize| {
            let mut sim = scenarios::buggy_parser_scenario(5);
            sim.run_until(SimTime::from_nanos(10_000_000_000));
            let report = quick(Campaign::new(&sim))
                .executions(48)
                .validate_top(6)
                .workers(2)
                .pair_workers(pair_workers)
                .run(&mut sim)
                .expect("campaign runs");
            serde_json::to_string(&report.normalized()).unwrap()
        };
        let sequential = run(1);
        assert_eq!(run(3), sequential);
        assert!(sequential.contains("\"wall_us\":0"), "wall fields zeroed");
    }

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

        // Disabling the refutation cache must not change any result
        // field; only the solver-query accounting may move.
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
            "refutation cache must not alter the report"
        );
    }

    #[test]
    fn delta_snapshots_shrink_recapture_without_changing_reports() {
        // Multi-sweep campaign on a quiescent system: with delta
        // snapshots on, later sweeps serve unmutated nodes from the
        // checkpoint cache instead of re-cloning them, and the report is
        // byte-identical to the full-recapture run.
        let run = |delta: bool| {
            let mut sim = scenarios::healthy_line(3, 5);
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            quick(Campaign::new(&sim))
                .rounds(3)
                .executions(8)
                .validate_top(2)
                .delta_snapshots(delta)
                .run(&mut sim)
                .expect("runs")
        };
        let on = run(true);
        let off = run(false);
        assert!(
            on.perf.nodes_recaptured < off.perf.nodes_recaptured,
            "delta cuts must re-capture fewer nodes: {} vs {}",
            on.perf.nodes_recaptured,
            off.perf.nodes_recaptured
        );
        assert!(on.perf.snapshot_delta_bytes < off.perf.snapshot_delta_bytes);
        assert_eq!(
            serde_json::to_string(&on.normalized()).unwrap(),
            serde_json::to_string(&off.normalized()).unwrap(),
            "delta snapshots must not alter the report"
        );
    }

    #[test]
    fn internet_scale_steady_state_recaptures_far_fewer_nodes_than_the_system() {
        // The T1 acceptance criterion, at test-suite size: on a quiescent
        // internet-like topology the first cut captures everything cold,
        // and every later cut re-captures only nodes actually dirtied —
        // far fewer than the node count (`nodes_recaptured` ≪ n).
        use dice_netsim::{InternetParams, SimRng, Topology};
        let n = 120usize;
        let params = InternetParams {
            peering_prob: 8.0 / n as f64,
            ..InternetParams::default()
        };
        let mut rng = SimRng::seed_from_u64(0xD1CE);
        let topo = Topology::internet_like(n, &params, &mut rng);
        let mut sim = scenarios::build_system_with_originators(&topo, 4, 17);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(600_000_000_000),
        );
        let cuts = 3u64;
        let report = quick(Campaign::new(&sim))
            .explorers([NodeId(0)])
            .max_peers_per_explorer(1)
            .rounds(cuts as usize)
            .executions(8)
            .validate_top(2)
            .run(&mut sim)
            .expect("internet campaign runs");
        let total = report.perf.nodes_recaptured;
        assert!(
            total >= n as u64,
            "first cut must capture the whole system: {total}"
        );
        let steady = (total - n as u64) / (cuts - 1);
        assert!(
            steady * 8 < n as u64,
            "steady-state recapture must be ≪ {n} nodes/cut, got {steady}"
        );
    }

    #[test]
    fn dynamics_schedule_is_deterministic_and_counted() {
        // A churn schedule (node leaves, later rejoins) applied at the
        // quiescent points between sweeps: the victim is drawn from
        // `SimRng`, so two identical runs replay the same dynamics and
        // produce byte-identical normalized reports.
        use dice_netsim::ScheduleSpec;
        let run = || {
            let mut sim = scenarios::healthy_line(4, 9);
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            let spec = ScheduleSpec {
                churn: 1,
                churn_len: SimDuration::from_millis(1),
                window: SimDuration::ZERO,
                protect_first: 2, // never churn the swept pair (0, 1)
                ..ScheduleSpec::default()
            };
            quick(Campaign::new(&sim))
                .explorers([NodeId(0)])
                .max_peers_per_explorer(1)
                .rounds(2)
                .executions(8)
                .validate_top(2)
                .schedule(spec)
                .run(&mut sim)
                .expect("campaign survives churn")
        };
        let a = run();
        assert_eq!(
            a.perf.churn_events, 2,
            "crash before sweep 1, restart before sweep 2: {:?}",
            a.perf
        );
        let b = run();
        assert_eq!(b.perf.churn_events, a.perf.churn_events);
        assert_eq!(
            serde_json::to_string(&a.normalized()).unwrap(),
            serde_json::to_string(&b.normalized()).unwrap(),
            "schedules replay deterministically from the campaign seed"
        );
    }

    #[test]
    fn solver_query_counters_are_consistent() {
        // The refutation-cache report ties three counters together: each
        // round's `solver_queries` counts negation queries *answered*
        // (solver calls + cache hits), while the campaign perf block
        // splits the same population by who answered. A "0% hit rate over
        // N solves" report is only trustworthy if no query can fall into
        // a third bucket — lock the identity in.
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
    fn empty_plan_is_an_error() {
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let err = Campaign::new(&sim)
            .explorers([NodeId(99)])
            .run(&mut sim)
            .unwrap_err();
        assert!(err.contains("no eligible"));
    }

    #[test]
    fn config_json_with_a_retired_knob_still_loads_and_runs() {
        // Configs persisted while the clone-pool knob existed carry it in
        // the round template; the retired field is ignored and both
        // drivers run the loaded configuration.
        let mut sim = scenarios::healthy_line(2, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let cfg = quick(Campaign::new(&sim))
            .executions(8)
            .validate_top(2)
            .config_ref()
            .clone();
        let json = serde_json::to_string(&cfg).unwrap();
        let old = json.replace(",\"solver_cache\":", ",\"pool_size\":0,\"solver_cache\":");
        assert_ne!(json, old, "the retired field was spliced in");
        let back: CampaignConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let mut round_cfg = back.template.clone();
        round_cfg.explorer = NodeId(1);
        let round = crate::explorer::DiceRunner::from_sim(round_cfg, &sim)
            .run_round(&mut sim)
            .expect("loaded DiceConfig runs");
        assert!(round.validated > 0);
        let report = Campaign::new(&sim)
            .config(back)
            .run(&mut sim)
            .expect("loaded CampaignConfig runs");
        assert_eq!(report.rounds.len(), 2);
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
