//! **T1 — topology-size scale curves**: campaign throughput and snapshot
//! cost on internet-like topologies from 100 to 5000 nodes — the curve over
//! federation size that `benchmark/`'s single `internet1k_sweep` point does
//! not draw.
//!
//! For each size `n` the binary generates a seeded [`Topology::
//! internet_like`] graph (tier-1 clique, preferential-attachment
//! provider edges, lateral peering thinned as `8/n` so degree stays
//! constant-ish across sizes), builds the full Gao–Rexford BGP system
//! with a bounded originator set (4 prefixes — `n` originators would mean
//! `n²` RIB entries and convergence that dwarfs the campaign being
//! measured), converges it, and runs one small 3-cut campaign: phase-1
//! checkpoints re-capture only the nodes dirtied since the previous
//! Chandy–Lamport cut, untouched slots share their `Arc` with the prior
//! shadow, and the binary asserts the steady-state recapture rate stays
//! ≪ `n` — the acceptance criterion for delta snapshots at scale.
//!
//! Flags:
//!
//! * `--smoke` — the 1k-node point only, with a wall-clock ceiling (CI
//!   regression gate for the scale path).
//! * `--repeat N` — measure every size `N` times on fresh identical
//!   systems; the T1 timings are then medians, with min and max beside
//!   the rounds/s.
//! * `--json PATH` — archive the rows, and each size's `CampaignReport`,
//!   as JSON (`BENCH_topology.json` is the committed trajectory file).

use dice_bench::{
    internet_topology, maybe_write_json, min_median_max, parse_repeat, Table, INTERNET_ORIGINATORS,
};
use dice_core::{scenarios, Campaign, CampaignReport};
use dice_netsim::{NodeId, SimDuration, SimTime, Simulator};
use serde_json::json;

fn parse_smoke() -> bool {
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json" | "--repeat" => {
                // Handled by maybe_write_json / parse_repeat; skip the value.
                args.next();
            }
            other => {
                panic!("unknown flag {other:?}; supported: --smoke, --repeat <n>, --json <path>")
            }
        }
    }
    smoke
}

struct SizePoint {
    n: usize,
    edges: usize,
    build_ms: f64,
    converge_ms: f64,
    report: CampaignReport,
}

fn campaign(live: &mut Simulator) -> CampaignReport {
    Campaign::new(live)
        .explorers([NodeId(0)])
        .max_peers_per_explorer(2)
        .rounds(3)
        .executions(16)
        .validate_top(4)
        .horizon(SimDuration::from_secs(30))
        .workers(2)
        .pair_workers(2)
        .run(live)
        .expect("topology campaign runs")
}

fn measure(n: usize) -> SizePoint {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench bin measures host wall time"
    )]
    let t0 = std::time::Instant::now();
    let topo = internet_topology(n);
    let edges = topo.edges().len();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    #[expect(
        clippy::disallowed_methods,
        reason = "bench bin measures host wall time"
    )]
    let t1 = std::time::Instant::now();
    let mut live = scenarios::build_system_with_originators(&topo, INTERNET_ORIGINATORS, 17);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(600_000_000_000),
    );
    let converge_ms = t1.elapsed().as_secs_f64() * 1e3;

    let report = campaign(&mut live);

    // Acceptance: with one explorer and `rounds(3)` the campaign takes 3
    // cuts; the first captures all `n` nodes cold, so the steady-state
    // recapture rate is what the remaining cuts averaged. "≪ n" here
    // means under n/8 per cut — on a quiescent federation the real
    // number is near zero (only nodes touched by snapshot bookkeeping).
    let cuts = 3u64;
    let total = report.perf.nodes_recaptured;
    assert!(
        total >= n as u64,
        "first cut must capture the whole {n}-node system, got {total}"
    );
    let steady = (total - n as u64) / (cuts - 1);
    assert!(
        steady * 8 < n as u64,
        "steady-state recapture {steady}/cut is not ≪ {n} nodes"
    );

    SizePoint {
        n,
        edges,
        build_ms,
        converge_ms,
        report,
    }
}

fn median(samples: impl Iterator<Item = f64>) -> f64 {
    min_median_max(&samples.collect::<Vec<_>>()).1
}

fn main() {
    let smoke = parse_smoke();
    let repeat = parse_repeat();
    let sizes: &[usize] = if smoke { &[1000] } else { &[100, 1000, 5000] };

    #[expect(
        clippy::disallowed_methods,
        reason = "bench bin measures host wall time"
    )]
    let wall = std::time::Instant::now();

    let mut t1 = Table::new(
        "T1 — scale curves on internet-like topologies (3 cuts, 4 originated prefixes)",
        &[
            "nodes",
            "edges",
            "build_ms",
            "converge_ms",
            "rounds_per_s",
            "rounds_per_s_min",
            "rounds_per_s_max",
            "snapshot_bytes",
            "delta_bytes",
            "nodes_recaptured",
        ],
    );

    // Every repeat of a size is the same deterministic run: counts come
    // from the first, timings are medians over all of them.
    let runs: Vec<Vec<SizePoint>> = sizes
        .iter()
        .map(|&n| (0..repeat).map(|_| measure(n)).collect())
        .collect();
    for reps in &runs {
        let p = &reps[0];
        let rates: Vec<f64> = reps.iter().map(|r| r.report.rounds_per_sec()).collect();
        let (min, rounds_per_s, max) = min_median_max(&rates);
        t1.row(json!([
            p.n,
            p.edges,
            median(reps.iter().map(|r| r.build_ms)),
            median(reps.iter().map(|r| r.converge_ms)),
            rounds_per_s,
            min,
            max,
            p.report.perf.snapshot_bytes,
            p.report.perf.snapshot_delta_bytes,
            p.report.perf.nodes_recaptured,
        ]));
        assert!(
            p.report.faults.is_empty(),
            "healthy internet-{} campaign must stay clean: {:?}",
            p.n,
            p.report.faults
        );
    }
    t1.print();

    // CI regression gate for the scale path: the 1k-node smoke takes
    // 1.3–1.6 s on the 2-core reference host (3.5–4.2 s before cuts and
    // clones stopped scaling with federation size), so 5 s is 3x headroom.
    let wall_s = wall.elapsed().as_secs_f64();
    eprintln!("total wall {wall_s:.1}s");
    if smoke {
        assert!(
            wall_s < 5.0,
            "1k-node smoke took {wall_s:.1}s, over the 5s ceiling"
        );
    }

    let campaigns: Vec<(String, &CampaignReport)> = runs
        .iter()
        .map(|reps| (format!("internet-{}", reps[0].n), &reps[0].report))
        .collect();
    maybe_write_json(&[&t1], &campaigns);
}
