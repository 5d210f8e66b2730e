//! The four workloads: which system is deployed, which campaign sweeps it,
//! and how every input is derived from the one `--seed`.
//!
//! A *sweep* is one `Campaign::run` call — the benchmark's operation. The
//! three `*_sweep` workloads deploy one system and sweep it again and again
//! (each sweep a fresh campaign seed on the same, still running, system);
//! `nemesis_detect` deploys a fresh federation for every operation, because
//! a second `Campaign::run` on one live system drops the first call's
//! pending schedule legs (see README, "Known engine limitation").

use std::time::Instant;

use dice_core::{scenarios, Campaign};
use dice_netsim::{
    InternetParams, LinkFaults, NodeId, ScheduleSpec, SimDuration, SimRng, SimTime, Simulator,
    Topology,
};

/// Validation workers and rounds in flight of every timed campaign. Fixed,
/// not taken from the host, so two hosts measure the same program; the
/// benchmark refuses to start on fewer cores.
pub const PARALLELISM: usize = 2;

/// The seeded-defect needles `exp_faults` matches fault details against.
pub const BGP_DEFECT: &str = "unknown-attribute length overflow";
/// See [`BGP_DEFECT`].
pub const GOSSIP_DEFECT: &str = "digest count overflow";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure-1 federation, swept from five explorers.
    Demo27Sweep,
    /// A 1000-AS internet-like federation, swept from one tier-1 explorer.
    Internet1kSweep,
    /// A 16-node gossip full mesh, swept from every node.
    Gossip16Sweep,
    /// Fresh nemesis federations (both seeded defects, lossy links,
    /// partition + churn), one verdict campaign each.
    NemesisDetect,
}

impl Workload {
    /// Every workload, in the order a set interleaves them.
    pub const ALL: [Workload; 4] = [
        Workload::Demo27Sweep,
        Workload::Internet1kSweep,
        Workload::Gossip16Sweep,
        Workload::NemesisDetect,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// output file names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Demo27Sweep => "demo27_sweep",
            Workload::Internet1kSweep => "internet1k_sweep",
            Workload::Gossip16Sweep => "gossip16_sweep",
            Workload::NemesisDetect => "nemesis_detect",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line; `BENCHMARK.json`
    /// carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Demo27Sweep => {
                "Paper Figure-1 federation and the repo's C1a trajectory; the one workload where concolic exploration and netsim validation both carry real weight."
            }
            Workload::Internet1kSweep => {
                "1000-AS scale wall: cost follows federation size, not the input; concolic is idle (an explore/solver change must read flat) and set-up and memory are non-trivial."
            }
            Workload::Gossip16Sweep => {
                "Second protocol behind the SUT seam: thousands of millisecond rounds on a dense mesh, where per-round and per-clone fixed cost dominates."
            }
            Workload::NemesisDetect => {
                "Time and effort to a verdict on both seeded defects under loss, partition and churn; netsim is nearly idle (a netsim change must read flat)."
            }
        }
    }

    /// Sweeps of a fixed-work run (`--sweeps` unset, `--seconds` unset):
    /// each sized to about half a minute on the 2-core reference host.
    pub fn default_sweeps(self) -> usize {
        match self {
            Workload::Demo27Sweep => 250,
            Workload::Internet1kSweep => 100,
            Workload::Gossip16Sweep => 350,
            Workload::NemesisDetect => 1500,
        }
    }

    /// Rounds every sweep must return (checked per sweep).
    pub fn rounds_per_sweep(self) -> usize {
        match self {
            Workload::Demo27Sweep => 9,
            Workload::Internet1kSweep => 2,
            Workload::Gossip16Sweep => 64,
            Workload::NemesisDetect => 3,
        }
    }

    /// Whether every operation deploys its own system.
    pub fn fresh_system_per_sweep(self) -> bool {
        self == Workload::NemesisDetect
    }

    /// Fault-detail needles of the defects seeded into the system; empty
    /// for the healthy workloads, which must report no fault at all.
    pub fn seeded_defects(self) -> &'static [&'static str] {
        match self {
            Workload::NemesisDetect => &[BGP_DEFECT, GOSSIP_DEFECT],
            _ => &[],
        }
    }
}

/// Every seed the benchmark hands out, derived from the one `--seed`. The
/// engine only ever sees these derived values.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(pub u64);

impl Seeds {
    const SYSTEM: u64 = u64::MAX - 1;
    const WARMUP: u64 = u64::MAX - 2;

    fn derive(self, label: u64) -> u64 {
        SimRng::seed_from_u64(self.0).split(label).next_u64()
    }

    /// Simulator seed of the deployed system (`*_sweep` workloads).
    pub fn system(self) -> u64 {
        self.derive(Self::SYSTEM)
    }

    /// Campaign seed of the untimed warm-up sweep.
    pub fn warmup(self) -> u64 {
        self.derive(Self::WARMUP)
    }

    /// Campaign seed of sweep `i` (and, on `nemesis_detect`, the seed of
    /// operation `i`'s federation).
    pub fn sweep(self, i: usize) -> u64 {
        self.derive(i as u64)
    }
}

/// Wall time of the set-up phases of one deployed system.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology generation.
    pub topology_build_s: f64,
    /// Node install, session establishment and convergence.
    pub converge_s: f64,
    /// Messages the system delivered while converging.
    pub converge_msgs: u64,
    /// `Campaign::new` plus the builder calls.
    pub campaign_new_s: f64,
}

impl SetupTimes {
    /// Everything timed so far.
    pub fn total_s(&self) -> f64 {
        self.topology_build_s + self.converge_s + self.campaign_new_s
    }
}

/// A deployed system and the campaign that sweeps it (seed not yet set).
pub struct Deployment {
    /// The live system.
    pub live: Simulator,
    /// The campaign template; apply a sweep seed with
    /// `campaign.clone().seed(s)`.
    pub campaign: Campaign,
    /// What deploying cost.
    pub setup: SetupTimes,
}

/// The 1000-AS graph exactly as `exp_topo` builds it, generator seed
/// included: lateral peering thinned as 8/n so degree stays flat across
/// sizes. The graph is the same for every `--seed` — a sweep costs 270–540
/// ms depending on which 1000-AS graph is drawn, and a run-to-run spread of
/// 40 % would bury every bound.
fn internet1k() -> Topology {
    let n = 1000usize;
    let params = InternetParams {
        peering_prob: 8.0 / n as f64,
        ..InternetParams::default()
    };
    let mut rng = SimRng::seed_from_u64(0xD1CE_0000 + n as u64);
    Topology::internet_like(n, &params, &mut rng)
}

/// The dynamics overlay of `exp_faults`: one partition window and one churn
/// cycle, both legs due before the first sweep, the swept pair protected.
fn nemesis_schedule() -> ScheduleSpec {
    ScheduleSpec {
        partitions: 1,
        partition_len: SimDuration::from_millis(50),
        churn: 1,
        churn_len: SimDuration::from_millis(50),
        start: SimDuration::ZERO,
        window: SimDuration::ZERO,
        protect_first: 3,
    }
}

impl Workload {
    /// Deploy the workload's system and prepare its campaign at the given
    /// parallelism (`workers = pair_workers = parallelism`). `op` selects
    /// the federation on `nemesis_detect` and is ignored elsewhere.
    pub fn deploy(self, seeds: Seeds, op: usize, parallelism: usize) -> Deployment {
        let mut setup = SetupTimes::default();

        // Topology generation is timed apart from everything after it
        // (node install, session establishment, convergence).
        let mut generate = |make: fn() -> Topology| {
            let t = Instant::now();
            let topo = make();
            setup.topology_build_s = t.elapsed().as_secs_f64();
            topo
        };
        let t = Instant::now();
        let mut live = match self {
            Workload::Demo27Sweep => {
                scenarios::build_system(&generate(Topology::demo27), seeds.system())
            }
            // Four originators, as `exp_topo`: n originators would mean n²
            // RIB entries and convergence dwarfing the campaign.
            Workload::Internet1kSweep => {
                scenarios::build_system_with_originators(&generate(internet1k), 4, seeds.system())
            }
            Workload::Gossip16Sweep => scenarios::gossip_mesh(16, seeds.system()),
            Workload::NemesisDetect => scenarios::nemesis_federation(seeds.sweep(op)),
        };
        let quiesce = |live: &mut Simulator, within_s: u64| {
            live.run_until_quiet(
                SimDuration::from_secs(5),
                SimTime::from_nanos(within_s * 1_000_000_000),
            );
        };
        match self {
            Workload::Demo27Sweep => quiesce(&mut live, 300),
            Workload::Internet1kSweep => quiesce(&mut live, 600),
            Workload::Gossip16Sweep => quiesce(&mut live, 120),
            // As `exp_faults`: a fixed 12 s, no wait for quiescence.
            Workload::NemesisDetect => live.run_until(SimTime::from_nanos(12_000_000_000)),
        }
        setup.converge_s = t.elapsed().as_secs_f64() - setup.topology_build_s;
        setup.converge_msgs = live.trace().stats().msgs_delivered;

        let t = Instant::now();
        let campaign = Campaign::new(&live)
            .rounds(1)
            .horizon(SimDuration::from_secs(30))
            .workers(parallelism)
            .pair_workers(parallelism);
        let campaign = match self {
            Workload::Demo27Sweep => campaign
                .explorers([0, 3, 5, 11, 12].map(NodeId))
                .max_peers_per_explorer(2)
                .executions(64)
                .validate_top(8),
            Workload::Internet1kSweep => campaign
                .explorers([NodeId(0)])
                .max_peers_per_explorer(2)
                .executions(16)
                .validate_top(4),
            Workload::Gossip16Sweep => campaign
                .max_peers_per_explorer(4)
                .executions(64)
                .validate_top(8),
            Workload::NemesisDetect => campaign
                .explorers([NodeId(1), NodeId(2)])
                .executions(160)
                .validate_top(16)
                .schedule(nemesis_schedule())
                .unreliable_links(true)
                .link_faults(LinkFaults::lossy(0.05)),
        };
        setup.campaign_new_s = t.elapsed().as_secs_f64();

        Deployment {
            live,
            campaign,
            setup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_contract_clean() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w
                .name()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w:?}");
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn seeds_are_distinct_per_label_and_per_root() {
        let a = Seeds(1);
        let b = Seeds(2);
        let all = [
            a.system(),
            a.warmup(),
            a.sweep(0),
            a.sweep(1),
            b.system(),
            b.warmup(),
            b.sweep(0),
            b.sweep(1),
        ];
        let distinct: std::collections::BTreeSet<u64> = all.into_iter().collect();
        assert_eq!(distinct.len(), all.len());
        assert_eq!(a.sweep(7), Seeds(1).sweep(7), "same seed, same inputs");
    }

    #[test]
    fn small_workloads_plan_the_documented_round_counts() {
        for w in [
            Workload::Demo27Sweep,
            Workload::Gossip16Sweep,
            Workload::NemesisDetect,
        ] {
            let d = w.deploy(Seeds(1), 0, 1);
            let planned: usize = d.campaign.sweep_plan().iter().map(|(_, p)| p.len()).sum();
            assert_eq!(planned, w.rounds_per_sweep(), "{w:?}");
        }
    }
}
