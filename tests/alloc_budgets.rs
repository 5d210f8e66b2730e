//! Allocation budgets, counted rather than pattern-matched: the per-thread
//! counting allocator (`dice_bench::CountingAlloc`) sees every allocation a
//! call makes, its callees' included, so a budget holds however the code
//! under it is split into functions. Each budget warms its path once,
//! counts one call and asserts at most the count pinned when it was
//! written, with no slack: the counts are exact, and equal in debug and
//! release builds. A faster path lowers its pin; a new hot path adds a
//! budget here.
//!
//! | budget | the counted call | pinned | hot-path fns it runs |
//! |---|---|---|---|
//! | `buf_pool_exchange` | a warm `BufPool` acquire + recycle | 0 | `BufPool::{acquire, recycle}` |
//! | `encode_into_a_warm_buffer` | `encode_into` of a BGP UPDATE / a gossip digest | 0 / 0 | `dice_bgp::wire::encode_into`, `dice_gossip::wire::encode_into` |
//! | `same_cut_reset` | `reset_from_shadow` after an injected and after a null drive, gossip16 and demo27 | 0 | `Simulator::{reset_from_shadow, rebind_touched, bind_node}`, `Links::reset`, `Cuts::{reset, seed}` |
//! | `repeat_cut` | `instant_snapshot` of a quiesced system already cut once, gossip16 / demo27 | 9 / 10 | `checkpoint_node` |
//! | `passing_battery` | `run_checkers` over a null-drive clone, warm baseline, gossip16 and demo27 | 1 (the reserved report) | `run_checkers`, `check_into` of `CrashChecker`, `OscillationChecker`, `OriginAuthorityChecker`, `ConvergenceChecker` |
//! | `pooled_unit` | reset → `deliver_direct` → `run_until_quiet` → `run_checkers`, gossip16 / demo27 | 602 / 986 | `process_deliver`, `NodeApi::buf`, `recompute_and_propagate`, `export_to`, `Policy::apply` |
//! | `warm_twin_execution` | one twin run through `ConcolicCtx::continuing` on a warm arena, BGP / gossip | 5 / 2 | `ExprArena::intern` |
//! | `explore_session` | one `explore` of 160 executions, BGP / gossip | 1,035 / 3,694 | `Search::{dfs, narrow, admits, admits_cmp, offset_of}`, `ExprArena::{sweep, intern}`, `UnaryMemo::lookup`, `Worklist::{push, pick}` |
//! | `one_worker_campaign` | `Campaign::run` at one worker, one gossip16 round | 1,622 | `validate_unit`, `validate_one`, `ClonePool::{acquire, release}` (at one worker they run on the calling thread) |
//! | `gossip_copy_shares_its_tables` | `clone_node` of a 16-mesh gossip node | 19 | `GossipNode::clone_node` |
//! | `bgp_router_copy_stays_at_its_pinned_count` | `clone_node` of a demo27 router | 22 | `BgpRouter::clone_node` |
//!
//! The pooled budgets run on `dice_bench::bound_clone`'s cuts of the two
//! systems, with the plan seed that propagates furthest as the input.
//! Each budget names what breaks it. Break it once to see it go red:
//!
//! * `buf_pool_exchange`: make `BufPool::acquire` ignore its free list,
//!   and an exchange allocates once.
//! * `encode_into_a_warm_buffer`: encode the BGP path attributes into a
//!   scratch `Vec` and append that, and an UPDATE allocates 4 times.
//! * `same_cut_reset`: make `rebind_touched` clone the touched list instead
//!   of taking it, and the gossip16 reset after an injected drive
//!   allocates once.
//! * `repeat_cut`: make `checkpoint_node` serve a clean node as
//!   `Arc::from(cached.clone_node())`, and a gossip16 cut allocates 329
//!   times.
//! * `passing_battery`: make `CrashChecker` name its pass
//!   `self.name().to_string()`, and a gossip16 battery allocates 17 times.
//! * `pooled_unit`: make `export_to` copy the exported bag per accepting
//!   peer instead of sharing its `Arc`, and a demo27 unit allocates 1,157
//!   times.
//! * `warm_twin_execution`: make `ConcolicCtx::continuing` start from
//!   `ExprArena::new()`, and a warm BGP execution allocates 21 times.
//! * `explore_session`: make `Worklist::push` clone the child's bytes, and
//!   a BGP session allocates 1,452 times.
//! * `one_worker_campaign`: make `ClonePool::release` drop the simulator,
//!   and the campaign allocates 1,731 times.
//! * `gossip_copy_shares_its_tables`: make `clone_node` deep-copy the
//!   store, the dedup memory and every per-peer infection set, and a copy
//!   of a 16-mesh node allocates 153 times (187 when every table was
//!   owned).
//! * `bgp_router_copy_stays_at_its_pinned_count`: make `clone_node` copy
//!   the router's resolved config (`BgpRouter::shared`) instead of sharing
//!   its `Arc`, and a copy allocates 120 times.

use dice_bench::{allocations, bound_clone, twin_cases, wire_workload, BoundClone, CountingAlloc};
use dice_system::concolic::{explore, ConcolicCtx, ExploreConfig, ExprArena, SymInput};
use dice_system::dice::gossip_sut::as_gossip;
use dice_system::dice::{
    default_checkers, flips_baseline, run_checkers, scenarios, AttestationRegistry, Campaign,
    CheckBaseline, CheckContext, CheckReport, Checker, SutCatalog,
};
use dice_system::netsim::{
    BufPool, NodeId, QuietOutcome, SimConfig, SimDuration, SimTime, Simulator,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The two systems the pooled budgets run on: `benchmark/`'s gossip16 and
/// demo27 sweeps, cut by `dice_bench::bound_clone`.
const SYSTEMS: [&str; 2] = ["gossip16", "demo27"];

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

fn within(what: &str, spent: u64, budget: u64) {
    assert!(
        spent <= budget,
        "{what} allocated {spent} times (budget {budget})"
    );
}

fn quiesced(mut live: Simulator, within_s: u64) -> Simulator {
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(within_s * 1_000_000_000),
    );
    live
}

/// A converged live system of each kind.
fn live(name: &str) -> Simulator {
    match name {
        "gossip16" => quiesced(scenarios::gossip_mesh(16, 7), 120),
        _ => quiesced(scenarios::demo27_system(7), 300),
    }
}

/// A validation clone of `b`'s cut, built as the clone pool builds one.
fn pooled_clone(b: &BoundClone) -> Simulator {
    let config = SimConfig {
        trace_capacity: 0,
        ..SimConfig::default()
    };
    Simulator::from_shadow_with_config(&b.shadow, &b.topo, 3, config)
}

/// One validation drive: `input` (if any) injected at the explorer, then
/// run to quiescence within the 30 s horizon.
fn drive(sim: &mut Simulator, b: &BoundClone, input: Option<&[u8]>) -> QuietOutcome {
    if let Some(bytes) = input {
        sim.deliver_direct(b.peer, b.explorer, bytes);
    }
    let end = b.shadow.base_time() + SimDuration::from_secs(30);
    sim.run_until_quiet(SimDuration::from_secs(5), end)
}

/// The default battery over a driven clone of `b`'s cut.
struct Battery {
    catalog: SutCatalog,
    registry: AttestationRegistry,
    baseline: CheckBaseline,
    checkers: Vec<Box<dyn Checker>>,
}

impl Battery {
    fn new(b: &BoundClone) -> Self {
        let catalog = SutCatalog::default();
        let registry = catalog.build_registry(&Simulator::from_shadow(&b.shadow, &b.topo, 1), 7);
        let baseline = flips_baseline(&catalog, &b.shadow);
        Battery {
            catalog,
            registry,
            baseline,
            checkers: default_checkers(20),
        }
    }

    fn run(&self, sim: &Simulator, quiet: QuietOutcome, injected: bool) -> CheckReport {
        run_checkers(
            &self.checkers,
            &CheckContext {
                sim,
                catalog: &self.catalog,
                registry: &self.registry,
                baseline_flips: &self.baseline,
                quiet,
                injected,
            },
        )
    }
}

#[test]
fn buf_pool_exchange() {
    let mut pool = BufPool::new();
    let mut exchange = || {
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[0; 64]);
        pool.recycle(buf);
    };
    exchange();
    let ((), spent) = counted(exchange);
    within("a warm buffer exchange", spent, 0);
}

#[test]
fn encode_into_a_warm_buffer() {
    let update = wire_workload::bgp_update();
    let digest = wire_workload::gossip_digest();
    let mut buf = Vec::new();
    dice_system::bgp::wire::encode_into(&update, &mut buf);
    dice_system::gossip::wire::encode_into(&digest, &mut buf);
    let ((), spent) = counted(|| dice_system::bgp::wire::encode_into(&update, &mut buf));
    within("a BGP UPDATE encode_into", spent, 0);
    let ((), spent) = counted(|| dice_system::gossip::wire::encode_into(&digest, &mut buf));
    within("a gossip digest encode_into", spent, 0);
}

#[test]
fn same_cut_reset() {
    for name in SYSTEMS {
        let b = bound_clone(name);
        let mut sim = pooled_clone(&b);
        for (case, input) in [("injected", Some(&b.valid_input[..])), ("null", None)] {
            for warm in [true, false] {
                drive(&mut sim, &b, input);
                let ((), spent) = counted(|| sim.reset_from_shadow(&b.shadow, 3));
                if !warm {
                    within(&format!("{name}: a reset after a {case} drive"), spent, 0);
                }
            }
        }
    }
}

#[test]
fn repeat_cut() {
    for (name, budget) in [("gossip16", 9), ("demo27", 10)] {
        let mut live = live(name);
        let _ = live.instant_snapshot();
        let (cut, spent) = counted(|| live.instant_snapshot());
        assert_eq!(cut.node_count(), live.topology().len());
        within(&format!("{name}: a repeat cut"), spent, budget);
    }
}

#[test]
fn passing_battery() {
    for name in SYSTEMS {
        let b = bound_clone(name);
        let battery = Battery::new(&b);
        let mut sim = pooled_clone(&b);
        let quiet = drive(&mut sim, &b, None);
        let _ = battery.run(&sim, quiet, false);
        let (report, spent) = counted(|| battery.run(&sim, quiet, false));
        assert!(report.faults.is_empty(), "{name}: {:?}", report.faults);
        within(&format!("{name}: a passing battery"), spent, 1);
    }
}

#[test]
fn pooled_unit() {
    for (name, budget) in [("gossip16", 602), ("demo27", 986)] {
        let b = bound_clone(name);
        let battery = Battery::new(&b);
        let mut sim = pooled_clone(&b);
        let mut unit = || {
            sim.reset_from_shadow(&b.shadow, 3);
            let quiet = drive(&mut sim, &b, Some(&b.valid_input));
            battery.run(&sim, quiet, true)
        };
        let _ = unit();
        let (report, spent) = counted(unit);
        assert!(report.faults.is_empty(), "{name}: {:?}", report.faults);
        within(&format!("{name}: a pooled validation unit"), spent, budget);
    }
}

#[test]
fn warm_twin_execution() {
    for ((name, mut program, bytes, marker), budget) in twin_cases().into_iter().zip([5, 2]) {
        let mask = marker(&bytes);
        let mut exec = |arena, path| {
            let input = SymInput::with_mask(bytes.clone(), mask.clone());
            counted(|| {
                let mut ctx = ConcolicCtx::continuing(input, Default::default(), arena, path);
                program.run(&mut ctx);
                let (_, _, arena, path) = ctx.into_parts();
                (arena, path)
            })
        };
        let ((arena, path), _) = exec(ExprArena::new(), Vec::new());
        let (_, spent) = exec(arena, path);
        within(&format!("{name}: a warm twin execution"), spent, budget);
    }
}

#[test]
fn explore_session() {
    let config = ExploreConfig {
        max_executions: 160,
        ..Default::default()
    };
    for ((name, mut program, bytes, marker), budget) in twin_cases().into_iter().zip([1_035, 3_694])
    {
        let seeds = [bytes];
        let mut session = || explore(program.as_mut(), &seeds, &marker, &config);
        let _ = session();
        let (report, spent) = counted(session);
        assert_eq!(report.executions.len(), 160, "{name}");
        within(&format!("{name}: an exploration session"), spent, budget);
    }
}

#[test]
fn one_worker_campaign() {
    let campaign = |live: &Simulator| {
        Campaign::new(live)
            .explorers([NodeId(0)])
            .max_peers_per_explorer(1)
            .executions(32)
            .validate_top(4)
            .workers(1)
            .pair_workers(1)
    };
    let mut warm = live("gossip16");
    campaign(&warm).run(&mut warm).expect("campaign runs");
    let mut live = live("gossip16");
    let campaign = campaign(&live);
    let (report, spent) = counted(|| campaign.run(&mut live).expect("campaign runs"));
    assert!(report.rounds.iter().all(|r| r.validated > 0));
    within("a one-worker gossip16 campaign", spent, 1_622);
}

/// The most allocations one `clone_node` (the copy a validation clone
/// makes of a node it touches) takes over the nodes of `live`.
fn max_clone_allocs(live: &Simulator) -> u64 {
    live.topology()
        .node_ids()
        .map(|id| counted(|| live.node(id).clone_node()).1)
        .max()
        .expect("the system has nodes")
}

#[test]
fn gossip_copy_shares_its_tables() {
    // 16 topics, 32 rumors, 15 peers per node: sharing the store, the
    // dedup memory and the per-peer infection sets leaves the box and the
    // small per-topic and per-peer maps.
    let live = live("gossip16");
    let g = as_gossip(live.node(NodeId(0))).expect("a gossip node");
    assert_eq!(g.seen_count(), 32, "the mesh converged");
    within("a gossip node copy", max_clone_allocs(&live), 19);
}

#[test]
fn bgp_router_copy_stays_at_its_pinned_count() {
    // Per-prefix `Arc` rows and shared config: a converged demo27 router
    // copies its row maps and session tables, not its routes.
    within(
        "a demo27 router copy",
        max_clone_allocs(&live("demo27")),
        22,
    );
}
