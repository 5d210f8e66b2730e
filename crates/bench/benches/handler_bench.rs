//! T4b micro-bench: the instrumentation tax (paper §3: "low overhead",
//! "ease of integration").
//!
//! Compares, for the same UPDATE message:
//! * plain wire decode (the baseline cost every router pays),
//! * the instrumented twin with **no** symbolic marking (integration
//!   overhead when DiCE is idle),
//! * the instrumented twin with full symbolic marking (cost while
//!   exploring).
//!
//! `twin_exec/*` is one execution as an exploration session runs it — the
//! twin over a fully marked message, through the session's expression
//! arena: *cold*, the session's first (an empty arena, everything interned
//! anew), and *warm*, every later one (the same arena, not cleared, so the
//! nodes are found rather than added — what the engine pays a few hundred
//! times a round). Each prints its heap allocations under the counting
//! allocator and the nodes it added.
//!
//! `explore_session/*` is a whole exploration session around the same twin
//! and message (its one seed, the `nemesis_detect` budget of 160
//! executions): the executions plus what the session does around them —
//! flips, child inputs and their dedup keys, the worklist, the coverage
//! ledger. It prints the executions run and the heap allocations per
//! execution.
//!
//! `update_fanout/*` is the speaker's side of the same message: a
//! Gao–Rexford hub with 8 / 64 / 512 established neighbours (customers,
//! peers and providers interleaved by node id, one policy name per
//! neighbour as the scenario builders generate them) takes one customer
//! UPDATE that changes its best route — a fan-out to every other
//! neighbour — and one provider UPDATE that does not. Each case also
//! prints its heap allocations per UPDATE under a counting allocator.

use core::any::Any;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dice_bench::twin_cases;
use dice_bgp::policy::gao_rexford;
use dice_bgp::{
    encode, AsPath, Asn, BgpRouter, Ipv4Addr, Ipv4Net, Message, OpenMsg, PathAttrs, Policy,
    RouterConfig, RouterId, UpdateMsg,
};
use dice_concolic::{
    explore, BranchRec, ConcolicCtx, ConcolicProgram, ExploreConfig, ExprArena, SymInput,
};
use dice_core::{mark_update, DomainProgram, UpdateGrammar};
use dice_netsim::{
    LinkParams, NeighborRole, Node, NodeApi, NodeId, Relationship, SessionEvent, SimDuration,
    SimTime, Simulator, Topology,
};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: dice_bench::CountingAlloc = dice_bench::CountingAlloc;

fn setup() -> (RouterConfig, Vec<u8>) {
    let cfg = RouterConfig::minimal(Asn(65001), RouterId(1)).with_neighbor(
        NodeId(2),
        Asn(65002),
        "all",
        "all",
    );
    let mut g = UpdateGrammar::new(Asn(65002), 9);
    (cfg, g.generate())
}

fn bench_update_paths(c: &mut Criterion) {
    let (cfg, bytes) = setup();
    let mut group = c.benchmark_group("update_processing");

    group.bench_function("wire_decode_only", |b| {
        b.iter(|| black_box(dice_bgp::decode(black_box(&bytes))).unwrap());
    });

    group.bench_function("twin_concrete", |b| {
        let mut handler =
            DomainProgram(BgpRouter::new(cfg.clone()).update_twin(NodeId(2)).unwrap());
        b.iter(|| {
            let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.clone()));
            black_box(handler.run(&mut ctx))
        });
    });

    group.bench_function("twin_symbolic", |b| {
        let mut handler =
            DomainProgram(BgpRouter::new(cfg.clone()).update_twin(NodeId(2)).unwrap());
        let mask = mark_update(&bytes);
        b.iter(|| {
            let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask.clone()));
            black_box(handler.run(&mut ctx))
        });
    });

    group.finish();
}

fn bench_twin_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("twin_exec");
    for (name, mut program, bytes, marker) in twin_cases() {
        let mask = marker(&bytes);
        // Input and mask are the session's to build either way; what is
        // counted and timed is the run and handing arena and path back.
        let mut exec = |arena: ExprArena, path: Vec<BranchRec>| {
            let input = SymInput::with_mask(bytes.clone(), mask.clone());
            let (allocs, nodes) = (dice_bench::allocations(), arena.len());
            let mut ctx = ConcolicCtx::continuing(input, Default::default(), arena, path);
            black_box(program.run(&mut ctx));
            let (_, _, arena, path) = ctx.into_parts();
            let cost = (dice_bench::allocations() - allocs, arena.len() - nodes);
            (arena, path, cost)
        };
        let (arena, path, cold) = exec(ExprArena::new(), Vec::new());
        let (mut arena, mut path, warm) = exec(arena, path);
        for (temp, (allocs, nodes)) in [("cold", cold), ("warm", warm)] {
            println!("twin_exec/{name}/{temp} allocs_per_exec {allocs} nodes_added {nodes}");
        }
        group.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| exec(ExprArena::new(), Vec::new()).2);
        });
        group.bench_function(format!("{name}/warm"), |b| {
            b.iter(|| {
                (arena, path, _) = exec(std::mem::take(&mut arena), std::mem::take(&mut path));
            });
        });
    }
    group.finish();
}

fn bench_explore_session(c: &mut Criterion) {
    // One whole session per case, the `twin_exec` message its one seed,
    // under the `nemesis_detect` workload's budget: the twin's executions
    // plus everything around them — flips, children, dedup, worklist,
    // coverage.
    let config = ExploreConfig {
        max_executions: 160,
        ..Default::default()
    };
    let mut group = c.benchmark_group("explore_session");
    for (name, mut program, bytes, marker) in twin_cases() {
        let seeds = [bytes];
        let allocs = dice_bench::allocations();
        let executions = explore(program.as_mut(), &seeds, &marker, &config)
            .executions
            .len();
        let allocs = dice_bench::allocations() - allocs;
        println!(
            "explore_session/{name} executions {executions} allocs_per_exec {:.1}",
            allocs as f64 / executions as f64
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                explore(program.as_mut(), &seeds, &marker, &config)
                    .executions
                    .len()
            });
        });
    }
    group.finish();
}

/// A neighbour that completes the session handshake and then only
/// listens, so that what the bench times is the hub.
#[derive(Clone)]
struct Listener {
    asn: Asn,
}

impl Node for Listener {
    fn on_session(&mut self, peer: NodeId, ev: SessionEvent, api: &mut NodeApi<'_>) {
        if ev == SessionEvent::Up {
            let open = Message::Open(OpenMsg {
                version: 4,
                asn: self.asn,
                hold_time: 0,
                router_id: RouterId(self.asn.0 as u32),
                opt_params: vec![],
            });
            api.send(peer, encode(&open));
        }
    }
    fn on_message(&mut self, from: NodeId, data: &[u8], api: &mut NodeApi<'_>) {
        // The type octet follows the 16-octet marker and the length;
        // nothing but an OPEN (type 1) is even decoded.
        if data.get(18) == Some(&1) {
            api.send(from, encode(&Message::Keepalive));
        }
    }
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const HUB: NodeId = NodeId(0);

fn role_of(neighbor: u32) -> NeighborRole {
    match neighbor % 3 {
        1 => NeighborRole::Customer,
        2 => NeighborRole::Peer,
        _ => NeighborRole::Provider,
    }
}

/// A star of `n` listeners around a Gao–Rexford hub, every session
/// established.
fn hub_with(n: u32) -> Simulator {
    let own = Asn(65000);
    let mut hub = RouterConfig::minimal(own, RouterId(0x0A00_0000));
    hub.hold_time = 0;
    let mut topo = Topology::with_nodes(n as usize + 1);
    for m in 1..=n {
        let (import, export) = (format!("imp-{m}"), format!("exp-{m}"));
        hub = hub
            .with_policy(Policy {
                name: import.clone(),
                ..gao_rexford::import_policy(own, role_of(m))
            })
            .with_policy(Policy {
                name: export.clone(),
                ..gao_rexford::export_policy(own, role_of(m))
            })
            .with_neighbor(NodeId(m), Asn(65000 + m as u16), import, export);
        let link = LinkParams::fixed(SimDuration::from_millis(1));
        topo.add_edge(HUB, NodeId(m), link, Relationship::Unlabeled);
    }
    let mut sim = Simulator::new(topo, 11);
    sim.set_node(HUB, Box::new(BgpRouter::new(hub)));
    for m in 1..=n {
        let asn = Asn(65000 + m as u16);
        sim.set_node(NodeId(m), Box::new(Listener { asn }));
    }
    sim.start();
    sim.run_until(SimTime::from_nanos(5_000_000_000));
    sim
}

/// Two UPDATEs from `from` for one prefix that differ in their AS path, so
/// that delivering them in turn replaces `from`'s route every time.
fn alternating_updates(from: u32) -> [Vec<u8>; 2] {
    [64001u16, 64002].map(|origin| {
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(PathAttrs {
                as_path: AsPath::sequence([65000 + from as u16, origin]),
                next_hop: Ipv4Addr(0x0A00_0000 + from),
                ..Default::default()
            }),
            nlri: vec![Ipv4Net::new(0x0A09_0000, 16)],
        }))
    })
}

fn bench_update_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_fanout");
    for n in [8u32, 64, 512] {
        let mut sim = hub_with(n);
        // Node 1 is a customer, node 3 a provider. Once the customer's
        // route is in, the provider's never wins (LOCAL_PREF 200 vs 50).
        let cases = [
            ("customer_best_changes", 1, n as u64 - 1),
            ("provider_best_same", 3, 0),
        ];
        for (name, from, sent_per_update) in cases {
            let updates = alternating_updates(from);
            let mut turn = 0usize;
            let mut deliver = |sim: &mut Simulator| {
                turn += 1;
                sim.deliver_direct(NodeId(from), HUB, &updates[turn % 2]);
                // Drain what the hub sent, so queues stay flat.
                let until = sim.now() + SimDuration::from_millis(5);
                sim.run_until(until);
            };
            deliver(&mut sim);
            let router = |sim: &Simulator| {
                let hub = sim.node(HUB).as_any().downcast_ref::<BgpRouter>();
                hub.expect("the hub is a BgpRouter").stats()
            };
            let (before, allocs) = (router(&sim), dice_bench::allocations());
            const ROUNDS: u64 = 64;
            for _ in 0..ROUNDS {
                deliver(&mut sim);
            }
            let allocs = dice_bench::allocations() - allocs;
            let after = router(&sim);
            assert_eq!(after.updates_rx - before.updates_rx, ROUNDS);
            assert_eq!(
                after.updates_tx - before.updates_tx,
                ROUNDS * sent_per_update,
                "{name}/{n}: the case must (not) fan out"
            );
            println!(
                "update_fanout/{name}/{n} allocs_per_update {:.1}",
                allocs as f64 / ROUNDS as f64
            );
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| deliver(black_box(&mut sim)));
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
    targets = bench_update_paths, bench_twin_exec, bench_explore_session, bench_update_fanout
}
criterion_main!(benches);
