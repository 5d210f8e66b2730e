//! The declarative configuration of a campaign and the builder methods
//! that edit it.

use std::collections::BTreeMap;

use dice_concolic::{SolverBudget, Strategy};
use dice_netsim::{NodeId, SimDuration};
use serde::{Deserialize, Serialize};

use super::Campaign;
#[cfg(doc)]
use super::{CampaignReport, REGISTRY_SEED};

/// The round template of a campaign: the budgets and knobs every round
/// of every sweep reads ([`CampaignConfig::template`]).
///
/// Serializes (and, with a full serde backend, deserializes) so experiment
/// binaries and CI perf jobs can persist and load configurations as JSON.
/// Deserialization is hand-written (below) so fields added after the
/// format was first persisted (`solver_cache`, `wire_pool`, ...) default
/// instead of erroring when absent, and fields since retired are ignored —
/// config files written by earlier builds keep loading.
#[derive(Debug, Clone, Serialize)]
pub struct DiceConfig {
    /// The node whose actions are explored. A campaign does not read it:
    /// its sweep plan names each round's pair ([`Campaign::sweep_plan`]).
    pub explorer: NodeId,
    /// The neighbor whose inputs are impersonated; not read either.
    pub inject_peer: NodeId,
    /// Concolic execution budget (phase 2).
    pub concolic_executions: usize,
    /// Maximum inputs validated system-wide (phase 3).
    pub validate_top: usize,
    /// Simulated horizon each clone runs for.
    pub horizon: SimDuration,
    /// Idle window that counts as quiescent.
    pub quiet_window: SimDuration,
    /// Simulated deadline for snapshot establishment.
    pub snapshot_deadline: SimDuration,
    /// Concolic search strategy.
    pub strategy: Strategy,
    /// Grammar-generated seed count. `0` disables the grammar layer
    /// entirely: exploration starts from one fixed minimal seed.
    pub grammar_seeds: usize,
    /// Per-query solver budget.
    pub solver_budget: SolverBudget,
    /// Best-route flips beyond baseline that count as oscillation.
    pub oscillation_threshold: u64,
    /// The sweep's thread count (1 = sequential): each thread explores
    /// sessions, then validates candidates (see [`Campaign::workers`]).
    pub workers: usize,
    /// Master seed for grammar and clone simulators. A campaign's
    /// attestation registry is salted once, at construction, with
    /// [`REGISTRY_SEED`](super::REGISTRY_SEED) — not with this seed.
    pub seed: u64,
    /// Retired and ignored, like the four below it: negation queries are
    /// always answered by the one-pass `PathSolver`. Each of the four once
    /// switched an outcome-neutral mechanism off, and every value gave the
    /// same report by contract, as the retired `pool_size` field does. They
    /// are still serialized, still `true` in [`DiceConfig::new`] and still
    /// loaded, because `benchmark/src/pipeline.rs` reads them; the engine
    /// reads none of them.
    pub solver_cache: bool,
    /// Retired and ignored: validation clones always recycle payload
    /// buffers through the netsim [`BufPool`](dice_netsim::BufPool).
    pub wire_pool: bool,
    /// Retired and ignored: validation clones always deliver a run of
    /// same-instant frames on one channel as one batch.
    pub batch_delivery: bool,
    /// Retired and ignored: consistent cuts always serve a node untouched
    /// since the previous cut by the checkpoint its simulator slot still
    /// shares.
    pub delta_snapshots: bool,
    /// Deterministic dynamics schedule (partition/heal windows, node
    /// churn) applied to the **live** system at the quiescent point
    /// before each sweep's snapshots. `None` (the default) and an empty
    /// spec are byte-identical to no schedule at all.
    pub schedule: Option<dice_netsim::ScheduleSpec>,
    /// Subject validation clones to the per-link channel-fidelity layer
    /// (probabilistic drop/duplication/reordering/burst loss per
    /// [`DiceConfig::link_faults`]). Off by default: clones then replay
    /// over the reliable channels the snapshot was taken on.
    pub unreliable_links: bool,
    /// Fault profile applied when [`DiceConfig::unreliable_links`] is on.
    /// `None` uses the netsim default ([`dice_netsim::LinkFaults`]'s 5%
    /// lossy profile).
    pub link_faults: Option<dice_netsim::LinkFaults>,
}

impl Deserialize for DiceConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            Deserialize::from_value(v.field(name)).map_err(|e| e.at(&format!("DiceConfig.{name}")))
        }
        /// Later-added field: absent (`Null`) reads as its default.
        fn field_or<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::DeError> {
            match v.field(name) {
                serde::Value::Null => Ok(default),
                present => Deserialize::from_value(present)
                    .map_err(|e| e.at(&format!("DiceConfig.{name}"))),
            }
        }
        Ok(DiceConfig {
            explorer: field(v, "explorer")?,
            inject_peer: field(v, "inject_peer")?,
            concolic_executions: field(v, "concolic_executions")?,
            validate_top: field(v, "validate_top")?,
            horizon: field(v, "horizon")?,
            quiet_window: field(v, "quiet_window")?,
            snapshot_deadline: field(v, "snapshot_deadline")?,
            strategy: field(v, "strategy")?,
            grammar_seeds: field(v, "grammar_seeds")?,
            solver_budget: field(v, "solver_budget")?,
            oscillation_threshold: field(v, "oscillation_threshold")?,
            workers: field(v, "workers")?,
            seed: field(v, "seed")?,
            solver_cache: field_or(v, "solver_cache", true)?,
            wire_pool: field_or(v, "wire_pool", true)?,
            batch_delivery: field_or(v, "batch_delivery", true)?,
            delta_snapshots: field_or(v, "delta_snapshots", true)?,
            schedule: field_or(v, "schedule", None)?,
            unreliable_links: field_or(v, "unreliable_links", false)?,
            link_faults: field_or(v, "link_faults", None)?,
        })
    }
}

/// The single derivation of every millisecond wall-clock report field
/// (`wall_ms`, `wall_ms_cum`, ...) from its microsecond counter:
/// truncating division, so a derived field is never larger than its
/// source implies. All report builders must go through this helper —
/// mixing rounding modes across fields would break the byte-identity
/// contract of [`super::CampaignReport::normalized`] checks
/// that compare reports across code paths.
pub(crate) fn us_to_ms(us: u64) -> u64 {
    us / 1_000
}

impl DiceConfig {
    /// Sensible defaults for exploring `explorer` via `inject_peer`.
    pub fn new(explorer: NodeId, inject_peer: NodeId) -> Self {
        DiceConfig {
            explorer,
            inject_peer,
            concolic_executions: 192,
            validate_top: 48,
            horizon: SimDuration::from_secs(60),
            quiet_window: SimDuration::from_secs(5),
            snapshot_deadline: SimDuration::from_secs(10),
            strategy: Strategy::Generational,
            grammar_seeds: 8,
            solver_budget: SolverBudget::default(),
            oscillation_threshold: 20,
            workers: 1,
            seed: 0xD1CE,
            solver_cache: true,
            wire_pool: true,
            batch_delivery: true,
            delta_snapshots: true,
            schedule: None,
            unreliable_links: false,
            link_faults: None,
        }
    }
}

/// The most threads a campaign starts for a sweep (the template's
/// [`workers`](DiceConfig::workers)); [`Campaign::run`] refuses a
/// configuration above it before it takes a cut. A constant, not the
/// host's core count, so a configuration runs, or is refused, alike on
/// every host.
pub const MAX_WORKERS: usize = 256;

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
    /// Per-pair round template; its `explorer` / `inject_peer` are not
    /// read.
    pub template: DiceConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            explorers: Vec::new(),
            max_peers_per_explorer: 0,
            rounds: 1,
            template: DiceConfig::new(NodeId(0), NodeId(0)),
        }
    }
}

impl Campaign {
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

    /// The sweep's thread count (default 1 = sequential; `0` counts as
    /// `1`; at most [`MAX_WORKERS`]): each thread explores whole
    /// exploration sessions and then validates the sweep's candidates. Reports
    /// are identical for any value modulo wall-clock fields — see
    /// [`CampaignReport::normalized`].
    pub fn workers(mut self, k: usize) -> Self {
        self.cfg.template.workers = k;
        self
    }

    /// Retired and ignored: every thread of a sweep explores and then
    /// validates, and [`Campaign::workers`] counts them. Every value gave
    /// the same report by contract, and a persisted config's
    /// `pair_workers` field loads and is ignored alike; the builder stays
    /// only while `benchmark/src/workloads.rs` calls it.
    pub fn pair_workers(self, _k: usize) -> Self {
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
    /// worker counts.
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

    /// Master seed for grammar and clone simulators. The attestation
    /// registry was salted at construction with [`REGISTRY_SEED`] and is
    /// not re-salted by the campaign seed.
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
    /// JSON by an experiment binary). A fixed `(explorer, peer)` pair is
    /// a configuration too: `explorers: vec![explorer]` with
    /// `max_peers_per_explorer: 1` sweeps the explorer's first eligible
    /// peer ([`Campaign::sweep_plan`] says which). The attestation
    /// registry stays the one built at construction, salted with
    /// [`REGISTRY_SEED`], whatever seed `cfg` carries.
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::quick;
    use super::*;
    use crate::scenarios;
    use dice_netsim::SimTime;

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
    fn config_json_with_a_retired_knob_still_loads_and_runs() {
        // Configs persisted while the clone-pool knob existed carry it in
        // the round template; the retired field is ignored and the loaded
        // configuration runs, as a whole and narrowed to one pair.
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

        let pair = Campaign::new(&sim).config(CampaignConfig {
            explorers: vec![NodeId(1)],
            max_peers_per_explorer: 1,
            template: back.template.clone(),
            ..CampaignConfig::default()
        });
        assert_eq!(pair.sweep_plan(), [(NodeId(1), vec![NodeId(0)])]);
        let round = pair.run(&mut sim).expect("loaded DiceConfig runs");
        assert!(round.rounds[0].validated > 0);
        let report = Campaign::new(&sim)
            .config(back)
            .run(&mut sim)
            .expect("loaded CampaignConfig runs");
        assert_eq!(report.rounds.len(), 2);

        // The four retired performance knobs, all off, as configs written
        // while they selected code paths could carry them: the config
        // loads, runs, and reports what the default config reports.
        let off = [
            "solver_cache",
            "wire_pool",
            "batch_delivery",
            "delta_snapshots",
        ]
        .iter()
        .fold(json.clone(), |j, knob| {
            j.replace(&format!("\"{knob}\":true"), &format!("\"{knob}\":false"))
        });
        assert_eq!(
            off.matches(":false").count(),
            json.matches(":false").count() + 4
        );
        let off: CampaignConfig = serde_json::from_str(&off).unwrap();
        let run = |cfg: CampaignConfig| {
            let mut sim = scenarios::healthy_line(2, 5);
            sim.run_until(SimTime::from_nanos(12_000_000_000));
            let report = Campaign::new(&sim).config(cfg).run(&mut sim);
            serde_json::to_string(&report.expect("runs").normalized()).unwrap()
        };
        let reference = run(cfg);
        assert_eq!(run(off), reference, "the retired knobs select nothing");

        // The retired exploring-thread count, within and above the
        // ceiling it once had: it loads, is ignored, and runs as the
        // default.
        for n in [4, MAX_WORKERS + 1] {
            let old = json.replacen(
                ",\"template\":",
                &format!(",\"pair_workers\":{n},\"template\":"),
                1,
            );
            assert_ne!(json, old, "the retired field was spliced in");
            let back: CampaignConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            assert_eq!(run(back), reference, "pair_workers {n} selects nothing");
        }
    }

    #[test]
    fn config_json_without_new_perf_knobs_still_loads() {
        // Config files persisted before the perf knobs existed must keep
        // deserializing, with the new knobs at their defaults.
        let cfg = DiceConfig::new(NodeId(1), NodeId(0));
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json
            .replace(",\"solver_cache\":true", "")
            .replace(",\"wire_pool\":true", "")
            .replace(",\"batch_delivery\":true", "")
            .replace(",\"delta_snapshots\":true", "")
            .replace(",\"schedule\":null", "")
            .replace(",\"unreliable_links\":false", "")
            .replace(",\"link_faults\":null", "");
        assert_ne!(json, stripped, "all knobs were present and removed");
        let back: DiceConfig = serde_json::from_str(&stripped).unwrap();
        assert!(back.solver_cache, "absent solver_cache defaults to on");
        assert!(back.wire_pool, "absent wire_pool defaults to on");
        assert!(back.batch_delivery, "absent batch_delivery defaults to on");
        assert!(
            back.delta_snapshots,
            "absent delta_snapshots defaults to on"
        );
        assert!(back.schedule.is_none(), "absent schedule defaults to none");
        assert!(
            !back.unreliable_links,
            "absent unreliable_links defaults to off"
        );
        assert!(back.link_faults.is_none(), "absent link_faults defaults");
        assert_eq!(back.explorer, cfg.explorer);
        assert_eq!(back.concolic_executions, cfg.concolic_executions);
        // And the full round-trip still holds when the knobs are present.
        let full: DiceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), json);
    }
}
