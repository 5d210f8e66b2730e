//! C2 micro-bench: the per-input clone cost validation actually pays —
//! building a simulator from a shadow snapshot (`Simulator::from_shadow`)
//! versus rebinding a pooled one in place (`Simulator::reset_from_shadow`).
//!
//! Two views:
//!
//! * `clone_construct` — pure construction/rebind cost, the overhead the
//!   pool exists to remove. Copy-on-write snapshots already make both
//!   paths node-copy-free; the fresh path still pays the topology clone
//!   and every channel/heap/trace allocation, the reset path reuses them.
//! * `clone_validate` — construction plus a validation-shaped drive
//!   (deliver one input, run 50 simulated ms), showing the same delta in
//!   proportion to the work one validated input performs end-to-end.
//! * `clone_1k` — the same costs on `exp_topo`'s 1000-AS federation, where
//!   they set the round time: deep-copying every router (what a flooded
//!   validation materialises), and a reset of a clean versus a flooded
//!   pooled simulator (a thousand owned routers and full queues to drop)
//!   onto a *different* snapshot — every slot and session rebound.
//! * `reset_same_shadow` — the pool's steady state, many inputs validated
//!   against one cut: the reset onto the snapshot the simulator is already
//!   bound to, after a drive that touched nothing (`clean`), one node
//!   (`one_node`: materialised, no traffic) or the federation (`flood`), on the
//!   16-mesh, demo27 and the 1000-AS federation. It costs what the drive
//!   touched; `clone_construct`/`clone_validate`'s `pooled_reset` rows take
//!   this path too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dice_bgp::{encode, AsPath, Ipv4Addr, Ipv4Net, Message, PathAttrs, UpdateMsg};
use dice_core::scenarios;
use dice_core::snapshot::take_instant_snapshot;
use dice_netsim::{NodeId, SimDuration, SimTime, Simulator};
use std::hint::black_box;

fn snapshot_of(n: usize) -> (dice_netsim::ShadowSnapshot, dice_netsim::Topology) {
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
    (shadow, topo)
}

/// The validation-shaped workload: deliver one input, run briefly.
fn drive(clone: &mut Simulator) {
    clone.deliver_direct(NodeId(1), NodeId(0), &[0u8; 19]);
    let end = clone.now() + SimDuration::from_millis(50);
    clone.run_until(end);
}

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("clone_construct");
    for n in [5usize, 27] {
        let (shadow, topo) = snapshot_of(n);
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, _| {
            b.iter(|| black_box(Simulator::from_shadow(&shadow, &topo, 3)));
        });
        let mut pooled = Simulator::from_shadow(&shadow, &topo, 3);
        group.bench_with_input(BenchmarkId::new("pooled_reset", n), &n, |b, _| {
            b.iter(|| {
                pooled.reset_from_shadow(&shadow, 3);
                black_box(pooled.now())
            });
        });
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("clone_validate");
    for n in [5usize, 27] {
        let (shadow, topo) = snapshot_of(n);
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, _| {
            b.iter(|| {
                let mut clone = Simulator::from_shadow(&shadow, &topo, 3);
                drive(&mut clone);
                black_box(clone.trace().stats())
            });
        });
        let mut pooled = Simulator::from_shadow(&shadow, &topo, 3);
        group.bench_with_input(BenchmarkId::new("pooled_reset", n), &n, |b, _| {
            b.iter(|| {
                pooled.reset_from_shadow(&shadow, 3);
                drive(&mut pooled);
                black_box(pooled.trace().stats())
            });
        });
    }
    group.finish();
}

/// An UPDATE node 0 accepts from its first neighbor and re-advertises: a
/// fresh prefix that floods the whole federation.
fn flood_input(topo: &dice_netsim::Topology) -> (NodeId, Vec<u8>) {
    let peer = topo.neighbors(NodeId(0))[0];
    let attrs = PathAttrs {
        as_path: AsPath::sequence([scenarios::asn_of(peer.0).0]),
        next_hop: Ipv4Addr(0x0A00_0001 + peer.0),
        ..Default::default()
    };
    let update = Message::Update(UpdateMsg {
        withdrawn: vec![],
        attrs: Some(attrs),
        nlri: vec![Ipv4Net::new(0xC633_6400, 24)],
    });
    (peer, encode(&update))
}

/// Host wall time of one reset onto `cut`, the drive before it excluded.
fn timed_reset(sim: &mut Simulator, cut: &dice_netsim::ShadowSnapshot) -> std::time::Duration {
    #[expect(clippy::disallowed_methods, reason = "bench measures host wall time")]
    let start = std::time::Instant::now();
    sim.reset_from_shadow(cut, 3);
    start.elapsed()
}

fn bench_scale_1k(c: &mut Criterion) {
    let n = 1000usize;
    let mut live = dice_bench::converged_internet(n);
    let (shadow, _) = take_instant_snapshot(&mut live);
    let topo = live.topology().clone();
    let (peer, input) = flood_input(&topo);
    let flood = |sim: &mut Simulator| {
        sim.deliver_direct(peer, NodeId(0), &input);
        let end = sim.now() + SimDuration::from_secs(30);
        sim.run_until_quiet(SimDuration::from_secs(5), end);
    };

    let mut group = c.benchmark_group("clone_1k");
    group.bench_with_input(BenchmarkId::new("clone_node_all", n), &n, |b, _| {
        b.iter(|| {
            for node in shadow.nodes().values() {
                black_box(node.clone_node());
            }
        });
    });
    // Two snapshots of one content (a clone has its own id), taken in
    // turn: every reset here is onto a different snapshot.
    let cuts = [shadow.clone(), shadow.clone()];
    let mut turn = 0usize;
    let mut next = || {
        turn += 1;
        &cuts[turn % 2]
    };
    let mut pooled = Simulator::from_shadow(&shadow, &topo, 3);
    group.bench_with_input(BenchmarkId::new("reset_clean", n), &n, |b, _| {
        b.iter(|| {
            pooled.reset_from_shadow(next(), 3);
            black_box(pooled.now())
        });
    });
    flood(&mut pooled);
    let touched = pooled.trace().stats().msgs_delivered;
    assert!(touched > n as u64, "the input must flood: {touched} msgs");
    group.bench_with_input(BenchmarkId::new("reset_after_flood", n), &n, |b, _| {
        b.iter_custom(|iters| {
            let mut timed = std::time::Duration::ZERO;
            for _ in 0..iters {
                flood(&mut pooled);
                timed += timed_reset(&mut pooled, next());
            }
            timed
        });
    });
    group.finish();
}

fn bench_same_shadow(c: &mut Criterion) {
    let mut group = c.benchmark_group("reset_same_shadow");
    for name in ["gossip16", "demo27", "internet1k"] {
        let bound = dice_bench::bound_clone(name);
        let mut pooled = Simulator::from_shadow(&bound.shadow, &bound.topo, 3);
        for case in ["clean", "one_node", "flood"] {
            let drive = |sim: &mut Simulator| {
                match case {
                    "one_node" => sim.invoke_node(bound.explorer, |_, _| {}),
                    "flood" => sim.deliver_direct(bound.peer, bound.explorer, &bound.valid_input),
                    _ => {}
                }
                let end = sim.now() + SimDuration::from_secs(30);
                sim.run_until_quiet(SimDuration::from_secs(5), end);
            };
            pooled.reset_from_shadow(&bound.shadow, 3);
            drive(&mut pooled);
            let delivered = pooled.trace().stats().msgs_delivered as usize;
            assert_eq!(
                delivered > bound.topo.len() / 2,
                case == "flood",
                "{name}/{case} delivered {delivered}"
            );
            group.bench_function(BenchmarkId::new(case, name), |b| {
                b.iter_custom(|iters| {
                    let mut timed = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        drive(&mut pooled);
                        timed += timed_reset(&mut pooled, &bound.shadow);
                    }
                    timed
                });
            });
        }
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
    targets = bench_construct, bench_validate, bench_scale_1k, bench_same_shadow
}
criterion_main!(benches);
