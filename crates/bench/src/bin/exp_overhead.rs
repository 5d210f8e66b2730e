//! **T2 — Checkpoint and snapshot overhead** (paper §2/§3: "lightweight
//! node checkpoints", "low overhead").
//!
//! Three sweeps:
//! 1. checkpoint size & clone time vs Loc-RIB size (single node);
//! 2. consistent-snapshot latency (simulated & wall) vs node count;
//! 3. clone-instantiation + validation throughput.

use dice_bench::{maybe_write_json, Table};
use dice_bgp::{BgpRouter, RouterConfig, RouterId};
use dice_core::scenarios;
use dice_core::snapshot::{take_consistent_snapshot, take_instant_snapshot};
use dice_netsim::{Node, NodeId, SimDuration, SimTime, Simulator, Topology};
use serde_json::json;

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
        let (shadow, _) = take_instant_snapshot(&mut sim);
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
        let (_, inst) = take_instant_snapshot(&mut sim);
        t4.row(json!([name, cl.wall_micros, inst.wall_micros]));
    }
    t4.print();

    maybe_write_json(&[&t1, &t2, &t3, &t4], &[]);
}
