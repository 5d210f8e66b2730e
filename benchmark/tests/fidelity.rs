//! Trace fidelity: the traced public-API pipeline must be the program the
//! engine runs, or the per-layer numbers time something else (the
//! `exp_workflow` problem ROADMAP item 1 names).
//!
//! For the first sweep of every workload, on two identically seeded
//! deployments, every round of [`traced_sweep`] equals the corresponding
//! `RoundReport` of `Campaign::run` at `pair_workers = workers = 1` —
//! field by field for the counts the issue lists, then byte for byte over
//! the whole serialised report with the host wall-clock fields zeroed.
//! (`Campaign::run` rather than `DiceRunner::run_round`: only the campaign
//! applies the dynamics schedule `nemesis_detect` depends on, and it is
//! the entry point the end-to-end numbers time.)

use dice_benchmark::pipeline::{
    campaign_registry, normalized_rounds_json, traced_sweep, twin_replay, LayerCounts, TracedSweep,
};
use dice_benchmark::spans::{self, Recorder};
use dice_benchmark::sweep::{check_sweep, SweepFacts, SweepSource};
use dice_benchmark::workloads::{Seeds, Workload};
use dice_core::{CampaignReport, SutCatalog};

const SEED: u64 = 11;

fn engine_sweep(workload: Workload, seeds: Seeds) -> CampaignReport {
    let mut source = SweepSource::new(workload, seeds, 1);
    let sweep = source.sweep(0).expect("deploys");
    sweep.campaign.run(sweep.live).expect("engine sweep runs")
}

fn traced(workload: Workload, seeds: Seeds) -> (TracedSweep, Recorder, LayerCounts, usize) {
    let mut source = SweepSource::new(workload, seeds, 1);
    let sweep = source.sweep(0).expect("deploys");
    let (live, campaign) = (sweep.live, sweep.campaign);
    let catalog = SutCatalog::default();
    let registry = campaign_registry(&catalog, live);
    let mut rec = Recorder::timing();
    let mut counts = LayerCounts::default();
    let sweep = traced_sweep(&mut rec, &mut counts, live, &campaign, &catalog, &registry)
        .expect("traced sweep runs");
    for job in &sweep.replay {
        twin_replay(&mut rec, &catalog, job).expect("twin replays");
    }
    let nodes = live.topology().len();
    (sweep, rec, counts, nodes)
}

fn assert_faithful(workload: Workload) {
    let seeds = Seeds(SEED);
    let engine = engine_sweep(workload, seeds);
    let (sweep, rec, counts, nodes) = traced(workload, seeds);

    assert_eq!(sweep.rounds.len(), engine.rounds.len(), "{workload:?}");
    for (t, e) in sweep.rounds.iter().zip(&engine.rounds) {
        let at = format!("{workload:?} round {}", e.round);
        assert_eq!(
            (t.round, t.explorer, t.inject_peer),
            (e.round, e.explorer, e.inject_peer),
            "{at}"
        );
        assert_eq!(t.executions, e.executions, "{at}: executions");
        assert_eq!(t.distinct_paths, e.distinct_paths, "{at}: distinct_paths");
        assert_eq!(
            t.branch_coverage, e.branch_coverage,
            "{at}: branch_coverage"
        );
        assert_eq!(t.validated, e.validated, "{at}: validated");
        assert_eq!(t.verdicts_total, e.verdicts_total, "{at}: verdicts_total");
        let keys =
            |r: &dice_core::RoundReport| r.faults.iter().map(|f| f.key()).collect::<Vec<_>>();
        assert_eq!(keys(t), keys(e), "{at}: fault keys");
    }
    assert_eq!(
        normalized_rounds_json(&sweep.rounds),
        normalized_rounds_json(&engine.normalized().rounds),
        "{workload:?}: serialised rounds"
    );
    assert_eq!(
        sweep.coverage_union, engine.coverage_union,
        "{workload:?}: coverage union"
    );

    // The facts the correctness checks read agree too, and pass.
    let (t, e) = (sweep.facts(), SweepFacts::of(&engine));
    assert_eq!(
        (t.churn_events, t.nodes_recaptured, t.frames_perturbed),
        (e.churn_events, e.nodes_recaptured, e.frames_perturbed),
        "{workload:?}: sweep facts"
    );
    assert_eq!(
        check_sweep(workload, nodes, t),
        Vec::<String>::new(),
        "{workload:?}"
    );

    // Counts read at the span boundaries match the engine's own counters.
    let perf = &engine.perf;
    assert_eq!(counts.rounds as usize, engine.rounds.len());
    assert_eq!(counts.executions as usize, engine.executions_total);
    assert_eq!(counts.validated as usize, engine.validated_total);
    assert_eq!(counts.solver.queries, perf.solver_queries);
    assert_eq!(counts.solver.unary_memo_hits, perf.unary_memo_hits);
    assert_eq!(counts.wire.wire_bytes, perf.wire_bytes);
    assert_eq!(counts.wire.frames_dropped, perf.frames_dropped);
    assert_eq!(counts.snapshot_bytes, perf.snapshot_bytes);
    assert_eq!(counts.delta_bytes, perf.snapshot_delta_bytes);

    // And the spans have the documented shape: one `round` per round, its
    // phases accounting for nearly all of it.
    let totals = spans::totals(rec.spans());
    assert_eq!(totals["round"].count as usize, engine.rounds.len());
    assert_eq!(totals["validate"].count as usize, engine.validated_total);
    assert_eq!(
        totals["concolic.twin_replay"].count as usize,
        engine.rounds.len()
    );
    assert_eq!(totals["core.snapshot.cut"].count, counts.cuts);
    let unaccounted = totals["round"].self_ns + totals["validate"].self_ns;
    assert!(
        unaccounted * 10 <= totals["round"].total_ns,
        "{workload:?}: phases must cover ≥ 90% of round wall, {unaccounted} of {} ns are outside them",
        totals["round"].total_ns
    );
}

#[test]
fn demo27_sweep_is_traced_faithfully() {
    assert_faithful(Workload::Demo27Sweep);
}

#[test]
fn internet1k_sweep_is_traced_faithfully() {
    assert_faithful(Workload::Internet1kSweep);
}

#[test]
fn gossip16_sweep_is_traced_faithfully() {
    assert_faithful(Workload::Gossip16Sweep);
}

#[test]
fn nemesis_detect_is_traced_faithfully() {
    assert_faithful(Workload::NemesisDetect);
}

#[test]
fn the_comparison_can_fail() {
    // Another `--seed` is another program input: if the byte comparison
    // above still held, it would be comparing nothing.
    let engine = engine_sweep(Workload::NemesisDetect, Seeds(SEED));
    let (sweep, ..) = traced(Workload::NemesisDetect, Seeds(SEED + 1));
    assert_ne!(
        normalized_rounds_json(&sweep.rounds),
        normalized_rounds_json(&engine.normalized().rounds)
    );
}
