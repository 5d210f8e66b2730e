//! **C1 — Campaign throughput and detection**: DiCE sweeping a federation
//! end-to-end, the headline number every scale PR moves.
//!
//! Campaigns:
//!
//! 1. The 27-router Figure 1 demo (healthy): rounds/s, coverage union,
//!    per-explorer coverage — the cost of *continuously* testing a
//!    federation. Runs at the parallel engine's default (`pair_workers=4`).
//! 2. The seeded-bug line (faulty): per-class detection latency at
//!    campaign granularity.
//! 3. **Workers sweep** (C1d): the same demo27 campaign at `pair_workers`
//!    ∈ {1, 2, 4}, recording the scaling curve and cross-checking that
//!    the normalized report is byte-identical at every point.
//! 4. **Solver-cache sweep** (S2): the same campaign with the concolic
//!    refutation cache off vs. on, again byte-identical by construction
//!    (only UNSAT answers are cached), with the saved solver queries
//!    reported.
//!
//! Flags:
//!
//! * `--config <file.json>` — load the demo-campaign [`CampaignConfig`]
//!   from JSON instead of the built-in default (exercises the vendored
//!   serde deserialization path).
//! * `--smoke` — tiny budgets for CI: fewer executions/validations, sweep
//!   {1, 2} only. Keeps the perf trajectory file cheap to regenerate.
//! * `--repeat N` — rerun the C1a campaign `N` times on fresh identical
//!   systems and append a `rounds/s min/median/max of N` row to its table
//!   (C1e records the count next to host cores and the commit).
//! * `--json PATH` — archive the raw rows as JSON.
//!
//! Prints Markdown tables; the JSON output is committed as
//! `BENCH_campaign.json` by CI to start the perf trajectory.

use dice_bench::{
    detection_rows, host_rows, maybe_write_json, parse_repeat, spread_rows, summarize_campaign,
    Table,
};
use dice_core::{scenarios, Campaign, CampaignConfig, CampaignReport};
use dice_netsim::{NodeId, SimDuration, SimTime, Simulator};

struct Options {
    config: Option<String>,
    smoke: bool,
}

fn parse_options() -> Options {
    let mut opts = Options {
        config: None,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--config" => {
                opts.config = Some(args.next().unwrap_or_else(|| {
                    panic!("--config requires a path to a CampaignConfig JSON file")
                }));
            }
            "--smoke" => opts.smoke = true,
            "--json" | "--repeat" => {
                // Handled by maybe_write_json / parse_repeat; skip the
                // value argument.
                args.next();
            }
            other => panic!(
                "unknown flag {other:?}; supported: --config <file.json>, --smoke, \
                 --repeat <n>, --json <path>"
            ),
        }
    }
    opts
}

/// The Figure 1 demo federation, quiesced and ready to snapshot.
fn demo27_live() -> Simulator {
    let mut live = scenarios::demo27_system(11);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    live
}

/// The built-in demo-campaign configuration (overridable via `--config`).
/// Pure data — no simulator needed to assemble it.
fn default_demo_config(smoke: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        explorers: vec![NodeId(0), NodeId(3), NodeId(5), NodeId(11), NodeId(12)],
        max_peers_per_explorer: 2,
        pair_workers: if smoke { 2 } else { 4 },
        ..CampaignConfig::default()
    };
    cfg.template.concolic_executions = if smoke { 24 } else { 64 };
    cfg.template.validate_top = if smoke { 4 } else { 8 };
    cfg.template.horizon = SimDuration::from_secs(30);
    cfg.template.workers = 4;
    cfg
}

fn run_demo(cfg: &CampaignConfig) -> CampaignReport {
    let mut live = demo27_live();
    Campaign::new(&live)
        .config(cfg.clone())
        .run(&mut live)
        .expect("demo campaign runs")
}

fn main() {
    let opts = parse_options();
    let demo_cfg = match &opts.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read --config {path}: {e}"));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("cannot parse --config {path}: {e}"))
        }
        None => default_demo_config(opts.smoke),
    };

    // C1a: continuous testing cost on the healthy Figure 1 federation,
    // at the configured round-level parallelism. `--repeat N` reruns it on
    // fresh identical systems; the median damps scheduler noise.
    let repeat = parse_repeat();
    let demo = run_demo(&demo_cfg);
    let mut samples = vec![demo.rounds_per_sec()];
    for _ in 1..repeat {
        samples.push(run_demo(&demo_cfg).rounds_per_sec());
    }

    let mut t1 = Table::new(
        "C1a — campaign over the 27-router demo (healthy)",
        &["campaign", "metric", "value"],
    );
    let demo_label = format!("demo27 (pair_workers={})", demo_cfg.pair_workers.max(1));
    summarize_campaign(&mut t1, &demo_label, &demo);
    spread_rows(&mut t1, &demo_label, &samples);
    t1.print();

    let mut t2 = Table::new(
        "C1b — per-explorer coverage (demo27)",
        &["explorer", "kind", "rounds", "coverage", "executions"],
    );
    for e in &demo.per_explorer {
        t2.row(vec![
            e.explorer.to_string(),
            e.kind.clone(),
            e.rounds.to_string(),
            e.coverage.to_string(),
            e.executions.to_string(),
        ]);
    }
    t2.print();

    // C1c: detection latency on a faulty deployment. Budgets stay at the
    // full size even under --smoke: below ~160 executions the concolic
    // search does not reach the seeded parser bug and the latency rows
    // would be empty.
    let mut buggy = scenarios::buggy_parser_scenario(7);
    buggy.run_until(SimTime::from_nanos(10_000_000_000));
    let faulty = Campaign::new(&buggy)
        .executions(160)
        .validate_top(16)
        .workers(4)
        .pair_workers(2)
        .run(&mut buggy)
        .expect("buggy campaign runs");

    let mut t3 = Table::new(
        "C1c — campaign detection latency (seeded parser bug)",
        &["campaign", "metric", "value"],
    );
    summarize_campaign(&mut t3, "buggy-line", &faulty);
    detection_rows(&mut t3, "buggy-line", &faulty);
    t3.print();

    // C1d: the scaling curve — same campaign, fresh identical live system
    // per point, pair_workers swept. The normalized report must be
    // byte-identical at every point (the determinism contract). Round
    // work is CPU-bound, so the wall-clock speedup is bounded by the
    // host's available parallelism — recorded in the first row so the
    // committed perf trajectory stays interpretable across machines.
    let sweep: &[usize] = if opts.smoke { &[1, 2] } else { &[1, 2, 4] };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t4 = Table::new(
        "C1d — pair_workers scaling (demo27, identical budgets)",
        &[
            "pair_workers",
            "wall",
            "rounds/s",
            "speedup vs 1",
            "report identical",
        ],
    );
    t4.row(vec![
        "(host cores)".into(),
        "-".into(),
        "-".into(),
        format!("max {host_cores}x"),
        "-".into(),
    ]);
    let mut base_rps = 0.0;
    let mut base_normalized = String::new();
    for &k in sweep {
        let mut cfg = demo_cfg.clone();
        cfg.pair_workers = k;
        // The C1a campaign already ran exactly this configuration when k
        // matches its pair_workers; reuse its report instead of paying
        // for a duplicate run.
        let report = if k == demo_cfg.pair_workers.max(1) {
            demo.clone()
        } else {
            run_demo(&cfg)
        };
        let normalized = serde_json::to_string(&report.normalized()).expect("serializable");
        let rps = report.rounds_per_sec();
        if k == 1 {
            base_rps = rps;
            base_normalized = normalized.clone();
        }
        t4.row(vec![
            k.to_string(),
            format!("{:.1}ms", report.wall_us as f64 / 1e3),
            format!("{rps:.2}"),
            format!("{:.2}x", rps / base_rps.max(f64::MIN_POSITIVE)),
            if normalized == base_normalized {
                "yes".into()
            } else {
                "NO — DETERMINISM VIOLATION".into()
            },
        ]);
    }
    t4.print();

    let demo_normalized = serde_json::to_string(&demo.normalized()).expect("serializable");

    // S2: solver cache. Off vs. on; byte-identical by construction
    // (refutations only), the saved per-constraint work is the win.
    // Both knob values are forced explicitly so a `--config` that disables
    // the cache still yields a real off-vs-on comparison; the C1a report
    // is only reused when its configuration already matches the variant.
    //
    // Expect "0 refuted-cache hits" on this corpus: the cache keys on
    // structural constraint-chain hashes, and the per-seed input-length
    // constant folds into every chain, so grammar seeds of different
    // lengths never share a prefix chain to hit on. The win shows up in
    // the memo-hits column instead (see EXPERIMENTS.md S2 for the full
    // diagnosis; `dice-concolic::explore` documents the mechanism).
    let mut nocache_cfg = demo_cfg.clone();
    nocache_cfg.template.solver_cache = false;
    let nocache = if demo_cfg.template.solver_cache {
        run_demo(&nocache_cfg)
    } else {
        demo.clone()
    };
    let mut cache_cfg = demo_cfg.clone();
    cache_cfg.template.solver_cache = true;
    let cached = if demo_cfg.template.solver_cache {
        demo.clone()
    } else {
        run_demo(&cache_cfg)
    };
    let mut t5 = Table::new(
        "S2 — concolic refutation cache (demo27, identical budgets)",
        &["variant", "wall", "rounds/s", "solver", "report identical"],
    );
    let solver_cell = |r: &CampaignReport| {
        format!(
            "{} solves, {} refuted-cache hits, {} memo hits, {} covered flips skipped",
            r.perf.solver_queries,
            r.perf.solver_cache_hits,
            r.perf.unary_memo_hits,
            r.perf.covered_flips_skipped
        )
    };
    for (name, report) in [("cache off", &nocache), ("cache on", &cached)] {
        let normalized = serde_json::to_string(&report.normalized()).expect("serializable");
        t5.row(vec![
            name.into(),
            format!("{:.1}ms", report.wall_us as f64 / 1e3),
            format!("{:.2}", report.rounds_per_sec()),
            solver_cell(report),
            if normalized == demo_normalized {
                "yes".into()
            } else {
                "NO — DETERMINISM VIOLATION".into()
            },
        ]);
    }
    t5.print();

    // What makes the committed file comparable across machines and commits.
    let mut t6 = Table::new("C1e — harness", &["metric", "value"]);
    host_rows(&mut t6, repeat);
    t6.print();

    maybe_write_json(&[&t1, &t2, &t3, &t4, &t5, &t6]);
}
