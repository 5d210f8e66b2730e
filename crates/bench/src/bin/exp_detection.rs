//! **T1 — Fault detection across the three classes** (paper §1/§3:
//! "quickly detects faults that can occur due to programming errors,
//! policy conflicts, and operator mistakes").
//!
//! For each seeded scenario, runs one DiCE round and reports the budget
//! spent until first detection — the programming-error class once per
//! protocol behind the SUT seam (the BGP parser defect, the gossip
//! digest-count defect) — plus a random-mutation baseline for that class
//! (the one requiring input synthesis). Exits non-zero if any seeded fault
//! goes undetected.

use dice_bench::{maybe_write_json, Table};
use dice_concolic::{random_fuzz, RunStatus};
use dice_core::{
    mark_update, scenarios, Campaign, CampaignConfig, DiceConfig, DomainProgram, FaultClass,
    RoundReport, UpdateGrammar,
};
use dice_netsim::{NodeId, SimDuration, SimTime, Simulator};
use serde_json::json;

/// A campaign over the one pair `cfg` names, with its registry built from
/// `live` as it is now.
fn pair_campaign(live: &Simulator, cfg: DiceConfig) -> Campaign {
    let (explorer, peer) = (cfg.explorer, cfg.inject_peer);
    let campaign = Campaign::new(live).config(CampaignConfig {
        explorers: vec![explorer],
        max_peers_per_explorer: 1,
        template: cfg,
        ..CampaignConfig::default()
    });
    assert_eq!(campaign.sweep_plan(), [(explorer, vec![peer])]);
    campaign
}

/// One sweep of a single-pair campaign: its one round.
fn round(campaign: &Campaign, live: &mut Simulator) -> RoundReport {
    campaign.run(live).expect("round").rounds.remove(0)
}

/// Append `report`'s row and insist that it detected `want`.
fn detection_row(table: &mut Table, label: &str, want: FaultClass, report: &RoundReport) {
    let detected = report.classes().contains(&want);
    table.row(json!([
        label,
        detected,
        report.executions,
        report.distinct_paths,
        report.detection_input_ordinal.get(&want.to_string()),
        report.snapshot.sim_duration_nanos as f64 / 1e6,
        report.wall_ms,
    ]));
    assert!(
        detected,
        "{label}: seeded fault not detected: {:?}",
        report.faults
    );
}

fn main() {
    let mut table = Table::new(
        "T1 — time/budget to first detection per fault class",
        &[
            "fault_class",
            "detected",
            "concolic_execs",
            "distinct_paths",
            "inputs_validated_until_detection",
            "snapshot_sim_ms",
            "round_wall_ms",
        ],
    );
    let config = |executions: usize, validate_top: usize| {
        let mut cfg = DiceConfig::new(NodeId(1), NodeId(0));
        cfg.concolic_executions = executions;
        cfg.validate_top = validate_top;
        cfg.workers = 4;
        cfg
    };

    // Class 1: programming error (seeded parser defect on node 1).
    {
        let mut live = scenarios::buggy_parser_scenario(101);
        live.run_until(SimTime::from_nanos(10_000_000_000));
        let report = round(&pair_campaign(&live, config(192, 24)), &mut live);
        let class = FaultClass::ProgrammingError;
        detection_row(&mut table, "programming error", class, &report);
    }

    // Class 1 again, behind the other protocol: the seeded digest-count
    // defect on gossip node 1 — the concolic layer flips a rumor seed's
    // opcode into the anti-entropy digest arm and drives the count byte
    // past the missing bounds check.
    {
        let mut live = scenarios::buggy_gossip_scenario(4, 23);
        live.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(120_000_000_000),
        );
        let report = round(&pair_campaign(&live, config(128, 8)), &mut live);
        let class = FaultClass::ProgrammingError;
        detection_row(&mut table, "programming error (gossip)", class, &report);
    }

    // Class 2: policy conflict (bad gadget).
    {
        let mut live = scenarios::bad_gadget_scenario(102);
        live.run_until(SimTime::from_nanos(20_000_000_000));
        let mut cfg = config(32, 6);
        cfg.horizon = SimDuration::from_secs(120);
        let report = round(&pair_campaign(&live, cfg), &mut live);
        let class = FaultClass::PolicyConflict;
        detection_row(&mut table, "policy conflict", class, &report);
    }

    // Class 3: operator mistake (prefix hijack).
    {
        let mut live = scenarios::hijack_scenario(103);
        live.run_until(SimTime::from_nanos(10_000_000_000));
        // Registry is created while healthy; the mistake happens afterwards.
        let campaign = pair_campaign(&live, config(48, 8));
        scenarios::apply_hijack(&mut live);
        live.run_until(SimTime::from_nanos(25_000_000_000));
        let report = round(&campaign, &mut live);
        let class = FaultClass::OperatorMistake;
        detection_row(&mut table, "operator mistake", class, &report);
    }

    table.print();

    // Baseline: random mutation against the programming-error handler.
    let mut baseline = Table::new(
        "T1b — programming-error class: concolic vs random-mutation baseline",
        &["method", "executions", "crash_found", "first_crash_exec"],
    );
    {
        let live = scenarios::buggy_parser_scenario(104);
        let twin = live
            .node(NodeId(1))
            .as_any()
            .downcast_ref::<dice_bgp::BgpRouter>()
            .and_then(|r| r.update_twin(NodeId(0)))
            .map(DomainProgram)
            .unwrap();
        let mut grammar = UpdateGrammar::new(scenarios::asn_of(0), 7);
        let seeds = vec![grammar.generate(), grammar.generate_large_unknown()];

        let mut handler = twin.clone();
        let concolic = dice_concolic::explore(
            &mut handler,
            &seeds,
            &mark_update,
            &dice_concolic::ExploreConfig {
                max_executions: 256,
                ..Default::default()
            },
        );
        baseline.row(json!([
            "concolic (generational)",
            concolic.executions.len(),
            concolic.first_crash().is_some(),
            concolic.first_crash(),
        ]));

        let mut handler2 = twin;
        let random = random_fuzz(&mut handler2, &seeds, &mark_update, 256, 4242);
        let crashed = random
            .executions
            .iter()
            .position(|e| matches!(e.status, RunStatus::Crash(_)));
        baseline.row(json!([
            "random mutation",
            random.executions.len(),
            crashed.is_some(),
            crashed,
        ]));
    }
    baseline.print();

    maybe_write_json(&[&table, &baseline], &[]);
}
