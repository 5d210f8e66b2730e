//! What the end-to-end run and the traced run share: the stream of
//! `(live system, seeded campaign)` operations of a workload, and the
//! correctness checks applied to every sweep's report.

use std::time::Instant;

use dice_core::{Campaign, CampaignReport, RoundReport};
use dice_netsim::Simulator;

use crate::workloads::{Deployment, Seeds, SetupTimes, Workload};

/// Sweeps whose normalized report must serialise byte-identically at
/// parallelism 1 and [`crate::workloads::PARALLELISM`].
pub const DETERMINISM_SWEEPS: usize = 3;

/// Cost of bringing one system to the point where a timed sweep can start.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// The deployment phases.
    pub times: SetupTimes,
    /// The untimed warm-up sweep (zero where every operation deploys its
    /// own system: there is nothing to warm that the operation would keep).
    pub warmup_s: f64,
}

impl SetupSample {
    /// Set-up wall time in seconds.
    pub fn total_s(&self) -> f64 {
        self.times.total_s() + self.warmup_s
    }
}

/// One operation, ready to run: `campaign.run(live)`.
pub struct Sweep<'a> {
    /// The system to sweep.
    pub live: &'a mut Simulator,
    /// The campaign, seeded for this sweep.
    pub campaign: Campaign,
    /// What deploying `live` cost, if it was deployed for this sweep.
    pub deployed: Option<SetupSample>,
}

/// Yields sweep `0, 1, 2, …` of a workload, deploying systems as the
/// workload demands.
pub struct SweepSource {
    workload: Workload,
    seeds: Seeds,
    parallelism: usize,
    deployment: Option<Deployment>,
}

impl SweepSource {
    /// A source over `workload` whose campaigns run at `parallelism`.
    pub fn new(workload: Workload, seeds: Seeds, parallelism: usize) -> Self {
        SweepSource {
            workload,
            seeds,
            parallelism,
            deployment: None,
        }
    }

    fn deploy(&mut self, op: usize) -> Result<SetupSample, String> {
        let mut d = self.workload.deploy(self.seeds, op, self.parallelism);
        let mut warmup_s = 0.0;
        if !self.workload.fresh_system_per_sweep() {
            // The first cut of a system captures every node cold and the
            // first clones size every pool; users sweep a system that has
            // been swept before, so neither belongs in a timed sweep.
            let t = Instant::now();
            d.campaign
                .clone()
                .seed(self.seeds.warmup())
                .run(&mut d.live)
                .map_err(|e| format!("warm-up sweep failed: {e}"))?;
            warmup_s = t.elapsed().as_secs_f64();
        }
        let sample = SetupSample {
            times: d.setup,
            warmup_s,
        };
        self.deployment = Some(d);
        Ok(sample)
    }

    /// Sweep `i`. Call with `i = 0, 1, 2, …` in order: on a long-lived
    /// system sweep `i`'s snapshot depends on the `i` cuts before it.
    pub fn sweep(&mut self, i: usize) -> Result<Sweep<'_>, String> {
        let mut deployed = None;
        if self.deployment.is_none() || self.workload.fresh_system_per_sweep() {
            deployed = Some(self.deploy(i)?);
        }
        let seed = self.seeds.sweep(i);
        let d = self
            .deployment
            .as_mut()
            .expect("deployed by the branch above");
        Ok(Sweep {
            live: &mut d.live,
            campaign: d.campaign.clone().seed(seed),
            deployed,
        })
    }
}

/// What the correctness checks look at — the part of a sweep's outcome
/// both the engine's [`CampaignReport`] and the traced pipeline produce.
#[derive(Debug, Clone, Copy)]
pub struct SweepFacts<'a> {
    /// The sweep's rounds, in sweep order.
    pub rounds: &'a [RoundReport],
    /// Dynamics-schedule actions applied to the live system.
    pub churn_events: u64,
    /// Node checkpoints the sweep's cuts re-captured.
    pub nodes_recaptured: u64,
    /// Frames the channel-fidelity layer dropped, duplicated or reordered
    /// on validation clones.
    pub frames_perturbed: u64,
}

impl<'a> SweepFacts<'a> {
    /// The facts of an engine report.
    pub fn of(report: &'a CampaignReport) -> Self {
        let perf = &report.perf;
        SweepFacts {
            rounds: &report.rounds,
            churn_events: perf.churn_events,
            nodes_recaptured: perf.nodes_recaptured,
            frames_perturbed: perf.frames_dropped + perf.frames_duplicated + perf.frames_reordered,
        }
    }
}

/// Validated inputs spent until the first fault whose detail contains
/// `needle`, walking rounds in sweep order (`exp_faults`' effort metric).
pub fn detection_effort(rounds: &[RoundReport], needle: &str) -> Option<usize> {
    let mut spent = 0usize;
    for r in rounds {
        if let Some(f) = r.faults.iter().find(|f| f.detail.contains(needle)) {
            let ordinal = r
                .detection_input_ordinal
                .get(&f.class.to_string())
                .copied()
                .unwrap_or(r.validated);
            return Some(spent + ordinal);
        }
        spent += r.validated;
    }
    None
}

/// The correctness checks every sweep must pass; returns one line per
/// violated check (empty = the sweep is correct).
pub fn check_sweep(workload: Workload, nodes: usize, facts: SweepFacts<'_>) -> Vec<String> {
    let mut failures = Vec::new();
    if facts.rounds.len() != workload.rounds_per_sweep() {
        failures.push(format!(
            "planned {} rounds, sweep returned {}",
            workload.rounds_per_sweep(),
            facts.rounds.len()
        ));
    }
    let mut faults = facts.rounds.iter().flat_map(|r| &r.faults);
    let defects = workload.seeded_defects();
    if defects.is_empty() {
        if let Some(f) = faults.next() {
            failures.push(format!("healthy system reported a fault: {}", f.detail));
        }
        if facts.frames_perturbed != 0 {
            failures.push(format!(
                "reliable channels perturbed {} frame(s)",
                facts.frames_perturbed
            ));
        }
    } else {
        // Every reported fault must be one of the seeded defects: finding
        // something that was never planted is a wrong verdict.
        if let Some(f) = faults.find(|f| !defects.iter().any(|d| f.detail.contains(d))) {
            failures.push(format!("fault that was never seeded: {}", f.detail));
        }
        // The stimulus must be real, or the verdict proves nothing: the
        // schedule fired, and its partition and crash legs visibly shrank
        // what the first cut could reach.
        if facts.churn_events < 1 {
            failures.push("dynamics schedule never fired (churn_events = 0)".into());
        }
        let cut = facts.rounds.first().map_or(0, |r| r.snapshot.nodes);
        if cut >= nodes {
            failures.push(format!(
                "partition and churn removed nothing: the first cut spans {cut} of {nodes} nodes"
            ));
        }
        if facts.nodes_recaptured < cut as u64 {
            failures.push(format!(
                "{} nodes recaptured by a first cut of {cut}",
                facts.nodes_recaptured
            ));
        }
    }
    failures
}

/// The byte string two runs of one sweep must agree on.
pub fn normalized_json(report: &CampaignReport) -> String {
    serde_json::to_string(&report.normalized()).expect("campaign reports serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BGP_DEFECT, GOSSIP_DEFECT};

    fn nemesis_report(op: usize) -> (usize, CampaignReport) {
        let mut source = SweepSource::new(Workload::NemesisDetect, Seeds(1), 1);
        let sweep = source.sweep(op).expect("deploys");
        let nodes = sweep.live.topology().len();
        (
            nodes,
            sweep.campaign.run(sweep.live).expect("campaign runs"),
        )
    }

    #[test]
    fn nemesis_sweep_passes_its_checks_and_finds_the_gossip_defect() {
        let (nodes, report) = nemesis_report(0);
        assert_eq!(
            check_sweep(Workload::NemesisDetect, nodes, SweepFacts::of(&report)),
            Vec::<String>::new()
        );
        let gossip = detection_effort(&report.rounds, GOSSIP_DEFECT).expect("gossip defect found");
        // The gossip explorer runs after the BGP round, so its effort
        // includes every input that round validated.
        assert!(gossip > report.rounds[0].validated, "{gossip}");
        if let Some(bgp) = detection_effort(&report.rounds, BGP_DEFECT) {
            assert!(bgp <= report.rounds[0].validated);
        }
        assert_eq!(detection_effort(&report.rounds, "no such defect"), None);
    }

    #[test]
    fn checks_can_fail() {
        let (nodes, report) = nemesis_report(0);
        // Judged as a healthy workload the same report is wrong twice over.
        let as_healthy = check_sweep(Workload::Internet1kSweep, nodes, SweepFacts::of(&report));
        assert!(as_healthy.iter().any(|f| f.contains("planned 2 rounds")));
        assert!(as_healthy.iter().any(|f| f.contains("healthy system")));
        assert!(as_healthy.iter().any(|f| f.contains("reliable channels")));
        // A schedule that never fired leaves the cut spanning the system.
        let mut quiet = report.clone();
        quiet.perf.churn_events = 0;
        quiet.rounds[0].snapshot.nodes = nodes;
        let failures = check_sweep(Workload::NemesisDetect, nodes, SweepFacts::of(&quiet));
        assert_eq!(failures.len(), 3, "{failures:?}");
    }

    #[test]
    fn long_lived_source_deploys_once_and_fresh_source_every_time() {
        let mut mesh = SweepSource::new(Workload::Gossip16Sweep, Seeds(3), 1);
        let first = mesh.sweep(0).expect("deploys").deployed;
        assert!(first.expect("first sweep deploys").warmup_s > 0.0);
        assert!(mesh.sweep(1).expect("reuses").deployed.is_none());

        let mut nemesis = SweepSource::new(Workload::NemesisDetect, Seeds(3), 1);
        for i in 0..2 {
            let deployed = nemesis.sweep(i).expect("deploys").deployed;
            assert_eq!(deployed.expect("every sweep deploys").warmup_s, 0.0);
        }
    }
}
