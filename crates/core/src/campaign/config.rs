//! The declarative configuration of a campaign and the builder methods
//! that edit it.

use std::collections::BTreeMap;

use dice_concolic::Strategy;
use dice_netsim::{NodeId, SimDuration};
use serde::{Deserialize, Serialize};

use super::Campaign;
#[cfg(doc)]
use super::CampaignReport;
use crate::explorer::DiceConfig;

/// The most threads a campaign starts for either worker count
/// ([`CampaignConfig::pair_workers`], the template's
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
    /// Whole `(explorer, peer)` rounds explored at once, one thread each
    /// (`0`/`1` = sequential; at most [`MAX_WORKERS`]). The report is
    /// identical for any value — only wall-clock fields change (see
    /// [`CampaignReport::normalized`]).
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

    /// Validation workers (default 1 = sequential; at most
    /// [`MAX_WORKERS`]): the threads that validate a sweep's candidates
    /// once its rounds are explored. A sweep spawns `max(pair_workers,
    /// workers)` threads.
    pub fn workers(mut self, k: usize) -> Self {
        self.cfg.template.workers = k;
        self
    }

    /// Whole `(explorer, peer)` rounds explored at once, one thread each
    /// (default 1 = sequential sweep; at most [`MAX_WORKERS`]). Reports
    /// are identical for any value modulo wall-clock fields — see
    /// [`CampaignReport::normalized`].
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

    /// Answer negation queries with the one-pass `PathSolver` (default)
    /// or, when off, the from-scratch reference solver. Exploration
    /// outcomes are identical either way; only solver time differs.
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
    /// JSON by an experiment binary). A fixed `(explorer, peer)` pair is
    /// a configuration too: `explorers: vec![explorer]` with
    /// `max_peers_per_explorer: 1` sweeps the explorer's first eligible
    /// peer ([`Campaign::sweep_plan`] says which).
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
    }
}
