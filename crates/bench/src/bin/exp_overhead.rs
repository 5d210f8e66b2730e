//! **T2 — Checkpoint, snapshot and instrumentation overhead** (paper
//! §2/§3: "lightweight node checkpoints", "low overhead").
//!
//! Five tables:
//! 1. T2a — checkpoint size & clone time vs Loc-RIB size (single node);
//! 2. T2b — consistent-snapshot latency (simulated & wall) vs node count;
//! 3. T2c — clone-instantiation + validation throughput;
//! 4. T2d — consistent vs instant snapshot wall cost;
//! 5. T2e — the instrumentation tax (paper §3: "low overhead"): one UPDATE
//!    through the plain wire decode, the router's handler twin with no
//!    byte symbolic (DiCE idle) and with the marked bytes symbolic (DiCE
//!    exploring), each the median of `--repeat N` samples with min and
//!    max. It asserts the constraints each twin run records ([`RECORDED`]),
//!    so the comparison is what it claims to be.

use dice_bench::{maybe_write_json, min_median_max, parse_repeat, Table};
use dice_bgp::{Asn, BgpRouter, RouterConfig, RouterId};
use dice_concolic::{BranchRec, ConcolicCtx, ConcolicProgram, SymInput};
use dice_core::snapshot::take_consistent_snapshot;
use dice_core::{mark_update, scenarios, DomainProgram, UpdateGrammar};
use dice_netsim::{Node, NodeId, SimDuration, SimTime, Simulator, Topology};
use serde_json::json;
use std::hint::black_box;

/// Constraints the concrete and the symbolic twin run record on T2e's
/// UPDATE, and how many of them read an input byte: both record the
/// route-preference oracle (a pseudo-byte past the input); only the
/// symbolic run records the branches its path takes on marked bytes.
const RECORDED: [(usize, usize); 2] = [(1, 0), (40, 39)];

/// `(min, median, max)` host nanoseconds per call of `f`, each sample the
/// mean over a fixed count of calls.
fn ns_per_call<T>(repeat: usize, mut f: impl FnMut() -> T) -> (f64, f64, f64) {
    const CALLS: u32 = 2_000;
    let samples: Vec<f64> = (0..repeat)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "benchmark binary reports wall time by design"
            )]
            let start = std::time::Instant::now();
            for _ in 0..CALLS {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    min_median_max(&samples)
}

/// T2e: one grammar UPDATE through the plain decode and through the
/// router's twin with no byte / the marked bytes symbolic.
fn instrumentation_tax(repeat: usize) -> Table {
    let cfg = RouterConfig::minimal(Asn(65001), RouterId(1)).with_neighbor(
        NodeId(2),
        Asn(65002),
        "all",
        "all",
    );
    let bytes = UpdateGrammar::new(Asn(65002), 9).generate();
    let mut twin = DomainProgram(
        BgpRouter::new(cfg)
            .update_twin(NodeId(2))
            .expect("neighbour 2 is configured"),
    );
    let mut t = Table::new(
        "T2e — instrumentation tax on one UPDATE (median of --repeat, min, max)",
        &[
            "run",
            "constraints_recorded",
            "over_input_bytes",
            "ns_per_update",
            "ns_min",
            "ns_max",
        ],
    );
    dice_bgp::decode(&bytes).expect("a grammar UPDATE decodes");
    let (min, median, max) = ns_per_call(repeat, || dice_bgp::decode(&bytes));
    t.row(json!(["wire decode", 0, 0, median, min, max]));
    let inputs = [
        ("twin, concrete", SymInput::all_concrete(bytes.clone())),
        (
            "twin, symbolic",
            SymInput::with_mask(bytes.clone(), mark_update(&bytes)),
        ),
    ];
    for ((run, input), expected) in inputs.into_iter().zip(RECORDED) {
        let mut ctx = ConcolicCtx::new(input.clone());
        twin.run(&mut ctx);
        let reads_input = |rec: &&BranchRec| {
            let vars = ctx.arena().vars(rec.constraint);
            vars.iter().any(|&v| (v as usize) < bytes.len())
        };
        let over_input = ctx.path().iter().filter(reads_input).count();
        assert_eq!((ctx.path().len(), over_input), expected, "{run}");
        let (min, median, max) =
            ns_per_call(repeat, || twin.run(&mut ConcolicCtx::new(input.clone())));
        t.row(json!([run, expected.0, over_input, median, min, max]));
    }
    t
}

/// A router with `routes` originated prefixes (to inflate the RIB).
fn fat_router(routes: u32) -> BgpRouter {
    let mut cfg = RouterConfig::minimal(dice_bgp::Asn(65001), RouterId(1));
    for i in 0..routes {
        cfg = cfg.with_network(dice_bgp::Ipv4Net::new(0x0A00_0000 | (i << 8), 24));
    }
    BgpRouter::new(cfg)
}

fn main() {
    // Sweep 1: checkpoint cost vs RIB size.
    let mut t1 = Table::new(
        "T2a — node checkpoint cost vs RIB size",
        &["routes", "state_bytes", "clone_ns_avg_of_100"],
    );
    for routes in [10u32, 100, 500, 1000, 4000] {
        let mut sim = Simulator::new(Topology::with_nodes(1), 1);
        sim.set_node(NodeId(0), Box::new(fat_router(routes)));
        sim.start();
        sim.run_until(SimTime::from_nanos(1_000_000));
        let node = sim.node(NodeId(0));
        let bytes = node.state_size();
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark binary reports wall time by design"
        )]
        let start = std::time::Instant::now();
        let mut clones: Vec<Box<dyn Node>> = Vec::with_capacity(100);
        for _ in 0..100 {
            clones.push(node.clone_node());
        }
        let avg = start.elapsed().as_nanos() as u64 / 100;
        drop(clones);
        t1.row(json!([routes, bytes, avg]));
    }
    t1.print();

    // Sweep 2: consistent snapshot latency vs node count.
    let mut t2 = Table::new(
        "T2b — consistent snapshot latency vs system size",
        &[
            "nodes",
            "topology",
            "sim_latency_ms",
            "wall_us",
            "in_flight_msgs",
            "bytes",
        ],
    );
    let line_sizes = [5usize, 10, 20, 40];
    for &n in &line_sizes {
        let mut sim = scenarios::healthy_line(n, 42);
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        let (shadow, m) = take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::from_secs(30))
            .expect("snapshot");
        t2.row(json!([
            n,
            "line",
            m.sim_duration_nanos as f64 / 1e6,
            m.wall_micros,
            m.in_flight,
            shadow.approx_bytes(),
        ]));
    }
    {
        let mut sim = scenarios::demo27_system(42);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        );
        let (shadow, m) = take_consistent_snapshot(&mut sim, NodeId(5), SimDuration::from_secs(30))
            .expect("snapshot");
        t2.row(json!([
            27,
            "demo27 (Internet-like)",
            m.sim_duration_nanos as f64 / 1e6,
            m.wall_micros,
            m.in_flight,
            shadow.approx_bytes(),
        ]));
    }
    t2.print();

    // Sweep 3: clone + validate throughput (the per-input cost of phase 3).
    let mut t3 = Table::new(
        "T2c — per-input validation cost (clone + inject + run + check)",
        &["system", "clones", "total_wall_us", "per_clone_us"],
    );
    for (name, mut sim) in [
        ("line-5", scenarios::healthy_line(5, 9)),
        ("demo27", scenarios::demo27_system(9)),
    ] {
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        );
        let shadow = sim.instant_snapshot();
        let topo = sim.topology().clone();
        let n_clones = 32;
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark binary reports wall time by design"
        )]
        let start = std::time::Instant::now();
        for i in 0..n_clones {
            let mut clone = Simulator::from_shadow(&shadow, &topo, i);
            let end = shadow.base_time() + SimDuration::from_secs(30);
            clone.run_until_quiet(SimDuration::from_secs(2), end);
        }
        let total = start.elapsed().as_micros() as u64;
        t3.row(json!([
            name,
            n_clones,
            total,
            total as f64 / n_clones as f64
        ]));
    }
    t3.print();

    // Sweep 4: instant (uncoordinated) snapshot for scale comparison.
    let mut t4 = Table::new(
        "T2d — consistent (Chandy–Lamport) vs instant snapshot wall cost",
        &["system", "cl_wall_us", "instant_wall_us"],
    );
    for (name, mut sim) in [
        ("line-10", scenarios::healthy_line(10, 5)),
        ("demo27", scenarios::demo27_system(5)),
    ] {
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        );
        let (_, cl) = take_consistent_snapshot(&mut sim, NodeId(0), SimDuration::from_secs(30))
            .expect("snapshot");
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark binary reports wall time by design"
        )]
        let start = std::time::Instant::now();
        let _shadow = sim.instant_snapshot();
        let inst_us = start.elapsed().as_micros() as u64;
        t4.row(json!([name, cl.wall_micros, inst_us]));
    }
    t4.print();

    let t5 = instrumentation_tax(parse_repeat());
    t5.print();

    maybe_write_json(&[&t1, &t2, &t3, &t4, &t5], &[]);
}
