//! T4a/T2 micro-bench: checkpoint cloning and snapshot instantiation cost
//! ("lightweight node checkpoints").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dice_bgp::{Asn, BgpRouter, Ipv4Net, RouterConfig, RouterId};
use dice_core::scenarios;
use dice_core::snapshot::{take_consistent_snapshot, take_instant_snapshot};
use dice_netsim::{NodeId, SimDuration, SimTime, Simulator, Topology};
use std::hint::black_box;

fn fat_router(routes: u32) -> BgpRouter {
    let mut cfg = RouterConfig::minimal(Asn(65001), RouterId(1));
    for i in 0..routes {
        cfg = cfg.with_network(Ipv4Net::new(0x0A00_0000 | (i << 8), 24));
    }
    BgpRouter::new(cfg)
}

fn bench_checkpoint_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_clone");
    for routes in [16u32, 256, 1024] {
        let mut sim = Simulator::new(Topology::with_nodes(1), 1);
        sim.set_node(NodeId(0), Box::new(fat_router(routes)));
        sim.start();
        sim.run_until(SimTime::from_nanos(1_000_000));
        group.bench_with_input(BenchmarkId::from_parameter(routes), &routes, |b, _| {
            let node = sim.node(NodeId(0));
            b.iter(|| black_box(node.clone_node()));
        });
    }
    group.finish();
}

fn bench_shadow_instantiate(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_instantiate");
    for n in [5usize, 27] {
        let mut sim = if n == 27 {
            scenarios::demo27_system(2)
        } else {
            scenarios::healthy_line(n, 2)
        };
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        );
        let (shadow, _) = take_instant_snapshot(&mut sim);
        let topo = sim.topology().clone();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Simulator::from_shadow(&shadow, &topo, 3)));
        });
    }
    group.finish();
}

/// Wall cost of one Chandy–Lamport cut of a quiescent system: O(E)
/// markers through the event loop plus O(degree) bookkeeping per node
/// (checkpoints come from the delta cache after the first cut).
fn bench_consistent_cut(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistent_cut");
    for n in [27usize, 1000] {
        let mut live = if n == 27 {
            let mut sim = scenarios::demo27_system(2);
            sim.run_until_quiet(
                SimDuration::from_secs(5),
                SimTime::from_nanos(300_000_000_000),
            );
            sim
        } else {
            dice_bench::converged_internet(n)
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let cut =
                    take_consistent_snapshot(&mut live, NodeId(0), SimDuration::from_secs(60));
                black_box(cut.expect("quiescent cut completes").1)
            });
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_checkpoint_clone, bench_shadow_instantiate, bench_consistent_cut
}
criterion_main!(benches);
