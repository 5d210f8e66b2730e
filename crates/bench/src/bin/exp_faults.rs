//! **N1 — nemesis campaign: detection under channel loss and dynamics.**
//!
//! The paper's online-testing claim has to hold on *unreliable* federations:
//! drops, duplicates and reordering on every link, composed with the
//! partition/churn dynamics schedule. This binary sweeps the per-link loss
//! rate over a [`scenarios::nemesis_federation`] — the mixed BGP + gossip
//! system with **both** seeded defect classes armed (the BGP
//! unknown-attribute length overflow on router 1 and the gossip
//! digest-count overflow on node 2) — and asserts that every loss point
//! still detects both bug classes, emitting the detection-latency-vs-loss
//! curve.
//!
//! Detection effort is measured in *validated inputs until first
//! detection* (cumulative across rounds in sweep order, plus the
//! detecting round's input ordinal) — a deterministic, wall-clock-free
//! latency metric. Acceptance: at 5% loss each bug class is found within
//! twice its lossless effort.
//!
//! Flags:
//!
//! * `--smoke` — the {0, 5%} points only, with a wall-clock ceiling (CI
//!   regression gate for the channel-fidelity path).
//! * `--json PATH` — archive the rows, and each loss point's
//!   `CampaignReport`, as JSON (`BENCH_faults.json` is the committed
//!   trajectory file).

use dice_bench::{maybe_write_json, Table};
use dice_core::{scenarios, Campaign, CampaignReport};
use dice_netsim::{LinkFaults, NodeId, ScheduleSpec, SimDuration, SimTime};
use serde_json::json;

/// The seeded-defect needles this bench must find at every loss point.
const BGP_BUG: &str = "unknown-attribute length overflow";
const GOSSIP_BUG: &str = "digest count overflow";

fn parse_smoke() -> bool {
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                // Handled by maybe_write_json; skip its path argument.
                args.next();
            }
            other => panic!("unknown flag {other:?}; supported: --smoke, --json <path>"),
        }
    }
    smoke
}

/// The nemesis dynamics overlay: one partition window and one churn cycle
/// scattered over the campaign, with the two buggy nodes (and the BGP
/// edge) protected so the *target* of exploration never leaves the system.
fn nemesis_schedule() -> ScheduleSpec {
    ScheduleSpec {
        partitions: 1,
        partition_len: SimDuration::from_millis(50),
        churn: 1,
        churn_len: SimDuration::from_millis(50),
        start: SimDuration::ZERO,
        // Zero window: both legs fire before the first sweep, so every
        // loss point explores a federation that just partitioned and
        // churned (the campaign drives the live system only briefly).
        window: SimDuration::ZERO,
        protect_first: 3,
    }
}

/// Validated inputs spent until the first fault matching `needle`,
/// walking rounds in sweep order. `None` when the campaign missed it.
fn detection_effort(report: &CampaignReport, needle: &str) -> Option<usize> {
    let mut cum = 0usize;
    for r in &report.rounds {
        if let Some(f) = r.faults.iter().find(|f| f.detail.contains(needle)) {
            let ordinal = r
                .detection_input_ordinal
                .get(&f.class.to_string())
                .copied()
                .unwrap_or(r.validated);
            return Some(cum + ordinal);
        }
        cum += r.validated;
    }
    None
}

struct LossPoint {
    loss: f64,
    report: CampaignReport,
    bgp_effort: usize,
    gossip_effort: usize,
}

fn measure(loss: f64) -> LossPoint {
    let mut live = scenarios::nemesis_federation(29);
    live.run_until(SimTime::from_nanos(12_000_000_000));
    let mut campaign = Campaign::new(&live)
        .explorers([NodeId(1), NodeId(2)])
        .rounds(2)
        .executions(160)
        .validate_top(16)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .pair_workers(2)
        .schedule(nemesis_schedule());
    if loss > 0.0 {
        campaign = campaign
            .unreliable_links(true)
            .link_faults(LinkFaults::lossy(loss));
    }
    let report = campaign.run(&mut live).expect("nemesis campaign runs");

    let bgp_effort = detection_effort(&report, BGP_BUG)
        .unwrap_or_else(|| panic!("BGP defect missed at loss {loss}: {:?}", report.faults));
    let gossip_effort = detection_effort(&report, GOSSIP_BUG)
        .unwrap_or_else(|| panic!("gossip defect missed at loss {loss}: {:?}", report.faults));

    assert!(
        report.perf.churn_events >= 1,
        "the nemesis overlay must fire at loss {loss}: {:?}",
        report.perf
    );

    let perturbed =
        report.perf.frames_dropped + report.perf.frames_duplicated + report.perf.frames_reordered;
    if loss > 0.0 {
        assert!(
            perturbed > 0,
            "lossy clones must meter channel faults at loss {loss}: {:?}",
            report.perf
        );
    } else {
        assert_eq!(
            perturbed, 0,
            "reliable campaign must not perturb any frame: {:?}",
            report.perf
        );
    }

    LossPoint {
        loss,
        report,
        bgp_effort,
        gossip_effort,
    }
}

fn main() {
    let smoke = parse_smoke();
    let sweep: &[f64] = if smoke {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.20]
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "bench bin measures host wall time"
    )]
    let wall = std::time::Instant::now();

    let mut t1 = Table::new(
        "N1 — detection effort vs link loss (nemesis federation, both seeded defects, \
         partition + churn overlay)",
        &[
            "loss_pct",
            "bgp_effort_inputs",
            "gossip_effort_inputs",
            "frames_dropped",
            "frames_duplicated",
            "frames_reordered",
            "faults",
            "sim_ms",
        ],
    );

    let points: Vec<LossPoint> = sweep.iter().map(|&loss| measure(loss)).collect();
    for p in &points {
        t1.row(json!([
            p.loss * 100.0,
            p.bgp_effort,
            p.gossip_effort,
            p.report.perf.frames_dropped,
            p.report.perf.frames_duplicated,
            p.report.perf.frames_reordered,
            p.report.faults.len(),
            p.report.sim_nanos as f64 / 1e6,
        ]));
    }
    t1.print();

    // Acceptance: at 5% loss both bug classes are found within twice the
    // lossless detection effort — loss perturbs the surrounding dynamics
    // but the retry/timeout machinery keeps exploration on budget.
    let lossless = &points[0];
    let at_5 = points
        .iter()
        .find(|p| (p.loss - 0.05).abs() < 1e-9)
        .expect("sweep includes the 5% point");
    assert!(
        at_5.bgp_effort <= 2 * lossless.bgp_effort,
        "BGP detection effort at 5% loss ({}) exceeds 2x lossless ({})",
        at_5.bgp_effort,
        lossless.bgp_effort
    );
    assert!(
        at_5.gossip_effort <= 2 * lossless.gossip_effort,
        "gossip detection effort at 5% loss ({}) exceeds 2x lossless ({})",
        at_5.gossip_effort,
        lossless.gossip_effort
    );

    // CI regression gate: the two-point smoke must stay well inside a
    // CI-minute.
    let wall_s = wall.elapsed().as_secs_f64();
    eprintln!("total wall {wall_s:.1}s");
    if smoke {
        assert!(
            wall_s < 120.0,
            "nemesis smoke took {wall_s:.1}s, over the 120s ceiling"
        );
    }

    let campaigns: Vec<(String, &CampaignReport)> = points
        .iter()
        .map(|p| (format!("loss-{:.0}pct", p.loss * 100.0), &p.report))
        .collect();
    maybe_write_json(&[&t1], &campaigns);
}
