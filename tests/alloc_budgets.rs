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
//! | `gossip_frame` | `decode` of a valid rumor / a valid digest / a rejected frame | 1 / 1 / 0 (the owned payload or entries) | `dice_gossip::wire::{validate, decode}` |
//! | `policy_apply` | `Policy::apply` of a Gao–Rexford import to a borrowed / an owned bag, a valley-free export reject, a verdict-less tag rule before an accept | 3 / 0 / 0 / 3 (the copy of a borrowed bag: its AS_PATH, segment and community storage) | `Policy::{apply, decide}`, `Match::test`, `Fired::actions`, `Action::apply` |
//! | `bgp_update_decode` | `decode` of a full UPDATE (AS_PATH, communities, a transitive unknown) / a withdraw-only UPDATE / one rejected at its NEXT_HOP | 8 / 1 / 3 (the owned withdrawn, AS_PATH, community, unknown-attribute and NLRI storage) | `dice_bgp::wire::{validate_update, decode}` |
//! | `same_cut_reset` | `reset_from_shadow` after an injected and after a null drive, gossip16 and demo27 | 0 | `Simulator::{reset_from_shadow, rebind_touched, bind_node}`, `Links::reset`, `Cuts::{reset, seed}` |
//! | `repeat_cut` | `instant_snapshot` of a quiesced system already cut once, gossip16 / demo27 | 9 / 10 | `checkpoint_node` |
//! | `consistent_cut` | `take_consistent_snapshot` of a quiesced system already cut once, gossip16 / demo27 | 19 / 20 | `start_snapshot`, `SnapshotState::{new, into_shadow}`, `send_markers`, `snapshot_on_marker` |
//! | `passing_battery` | `run_checkers` over a null-drive clone, warm baseline, gossip16 and demo27 | 1 (the reserved report) | `run_checkers`, `check_into` of `CrashChecker`, `OscillationChecker`, `OriginAuthorityChecker`, `ConvergenceChecker` |
//! | `pooled_unit` | reset → `deliver_direct` → `run_until_quiet` → `run_checkers`, gossip16 / demo27 | 602 / 657 | `process_deliver`, `NodeApi::buf`, `recompute_and_propagate`, `export_to`, `Policy::apply` |
//! | `first_write` | `deliver_direct` of the input into a warm pooled demo27 clone: the explorer's copy and its first UPDATE | 47 | `BgpRouter::clone_node`, `handle_update`, `Rib::{insert, install, advertise}` |
//! | `bgp_plan` | `exploration_plan` of a demo27 router, grammar seeds 0 / 8 | 8 / 84 (the boxed twin and the seed corpus) | `BgpRouter::update_twin`, `UpdateGrammar::{generate, batch}`, `encode` |
//! | `warm_twin_execution` | one twin run through `ConcolicCtx::continuing` on a warm arena, BGP / gossip | 4 / 0 | `ExprArena::intern` |
//! | `explore_session` | one `explore` of 160 executions, BGP / gossip | 881 / 3,389 | `Search::{dfs, narrow, admits, admits_cmp, offset_of}`, `ExprArena::{sweep, intern, eval3_memo}`, `UnaryMemo::lookup`, `Worklist::{push, pick}` |
//! | `warm_session` | a second `ExploreState::explore` of the same 160 executions on one state, BGP / gossip | 808 / 3,324 (no node interned, no constraint swept) | as `explore_session`, over a warm arena and warm memos |
//! | `one_worker_campaign` | `Campaign::run` at one worker, one gossip16 round | 1,457 | `validate_unit`, `validate_one`, `ClonePool::{acquire, release}` (at one worker they run on the calling thread) |
//! | `gossip_copy_shares_its_tables` | `clone_node` of a 16-mesh gossip node | 19 | `GossipNode::clone_node` |
//! | `bgp_router_copy_stays_at_its_pinned_count` | `clone_node` of a demo27 router | 2 | `BgpRouter::clone_node` |
//!
//! The pooled budgets run on `dice_bench::bound_clone`'s cuts of the two
//! systems, with the plan seed that propagates furthest as the input.
//! Each budget names what breaks it. Break it once to see it go red:
//!
//! * `buf_pool_exchange`: make `BufPool::acquire` ignore its free list,
//!   and an exchange allocates once.
//! * `encode_into_a_warm_buffer`: encode the BGP path attributes into a
//!   scratch `Vec` and append that, and an UPDATE allocates 4 times.
//! * `gossip_frame`: make `decode` validate a copy of the bytes
//!   (`Concrete(&bytes.to_vec())`), and a valid rumor allocates twice.
//! * `policy_apply`: make `Policy::apply` copy a borrowed bag before it
//!   decides (`attrs.into().into_owned()`), and the valley-free export
//!   reject allocates 3 times.
//! * `bgp_update_decode`: make `validate_update` keep the codes it has
//!   seen in a `Vec<u8>` instead of its 256-bit set, and a full UPDATE
//!   allocates 9 times (as the decoder it replaced did).
//! * `same_cut_reset`: make `rebind_touched` clone the touched list instead
//!   of taking it, and the gossip16 reset after an injected drive
//!   allocates once.
//! * `repeat_cut`: make `checkpoint_node` serve a clean node as
//!   `Arc::from(cached.clone_node())`, and a gossip16 cut allocates 329
//!   times.
//! * `consistent_cut`: make `send_markers` collect the fan-out into a
//!   fresh `Vec` instead of the `Cuts` scratch buffer, and a gossip16 cut
//!   allocates 35 times (173 with the ordered-set bookkeeping the
//!   direction-indexed `SnapshotState` replaced; demo27 94).
//! * `passing_battery`: make `CrashChecker` name its pass
//!   `self.name().to_string()`, and a gossip16 battery allocates 17 times.
//! * `pooled_unit`: make `export_to` copy the exported bag per accepting
//!   peer instead of sharing its `Arc`, and a demo27 unit allocates 828
//!   times.
//! * `first_write`: make `Rib::edit` deep-copy every entry when it copies
//!   a shared spine, and the copy plus its first UPDATE allocates 127
//!   times (the router copy alone stays at 2: a saving made only at copy
//!   time cannot pass this budget).
//! * `bgp_plan`: make `BgpRouter::update_twin` copy the router's resolved
//!   config (`Arc::new(Resolved::clone(&self.shared))`) instead of sharing
//!   its `Arc`, and a plan with no grammar seed allocates 101 times (85
//!   when the plan deep-copied the `RouterConfig` alone).
//! * `warm_twin_execution`: make `ConcolicCtx::continuing` start from
//!   `ExprArena::new()`, and a warm BGP execution allocates 20 times.
//! * `explore_session`: make `Worklist::push` clone the child's bytes, and
//!   a BGP session allocates 1,298 times.
//! * `warm_session`: make `ExploreState::explore` start every session with
//!   a fresh `PathSolver` (cold memos over the warm arena), and a warm BGP
//!   session allocates 870 times.
//! * `one_worker_campaign`: make `ClonePool::release` drop the simulator,
//!   and the campaign allocates 1,639 times.
//! * `gossip_copy_shares_its_tables`: make `clone_node` deep-copy the
//!   store, the dedup memory and every per-peer infection set, and a copy
//!   of a 16-mesh node allocates 153 times (187 when every table was
//!   owned).
//! * `bgp_router_copy_stays_at_its_pinned_count`: make `clone_node` copy
//!   the router's resolved config (`BgpRouter::shared`) instead of sharing
//!   its `Arc`, and a copy allocates 104 times.

use dice_bench::{allocations, bound_clone, twin_cases, wire_workload, BoundClone, CountingAlloc};
use dice_system::concolic::{
    explore, ConcolicCtx, ExploreConfig, ExploreState, ExprArena, SymInput,
};
use dice_system::dice::bgp_sut::as_bgp;
use dice_system::dice::gossip_sut::as_gossip;
use dice_system::dice::{
    default_checkers, flips_baseline, run_checkers, scenarios, take_consistent_snapshot,
    AttestationRegistry, Campaign, CheckBaseline, CheckContext, CheckReport, Checker,
    ExplorableNode, SutCatalog,
};
use dice_system::netsim::{BufPool, NodeId, QuietOutcome, SimDuration, SimTime, Simulator};

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
    Simulator::from_shadow(&b.shadow, &b.topo, 3)
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
fn gossip_frame() {
    let rumor = dice_system::gossip::encode(&wire_workload::gossip_rumor());
    let digest = dice_system::gossip::encode(&wire_workload::gossip_digest());
    let mut rejected = digest.clone();
    rejected.push(0);
    for (what, bytes, budget) in [
        ("a valid rumor", &rumor, 1),
        ("a valid digest", &digest, 1),
        ("a rejected frame", &rejected, 0),
    ] {
        let (frame, spent) = counted(|| dice_system::gossip::decode(bytes));
        assert_eq!(frame.is_ok(), what != "a rejected frame", "{what}");
        within(&format!("decoding {what}"), spent, budget);
    }
}

#[test]
fn bgp_update_decode() {
    use dice_system::bgp::attrs::flags;
    use dice_system::bgp::{decode, encode, net, Message, RawAttr, UpdateMsg};
    let mut full = wire_workload::bgp_update();
    if let Message::Update(u) = &mut full {
        let attrs = u.attrs.as_mut().expect("an announcement");
        attrs.unknown.push(RawAttr {
            flags: flags::OPTIONAL | flags::TRANSITIVE | flags::PARTIAL,
            code: 0xE5,
            value: vec![0xAB; 12],
        });
    }
    let full = encode(&full);
    let withdraw = encode(&Message::Update(UpdateMsg {
        withdrawn: vec![net("192.0.2.0/24"), net("198.51.100.0/24")],
        attrs: None,
        nlri: vec![],
    }));
    // The same UPDATE with its NEXT_HOP zeroed: rejected inside the
    // attribute block, after the AS_PATH was read.
    let mut rejected = full.clone();
    let at = rejected
        .windows(3)
        .position(|w| w == [flags::TRANSITIVE, 3, 4])
        .expect("a NEXT_HOP attribute")
        + 3;
    rejected[at..at + 4].fill(0);
    for (what, bytes, budget) in [
        ("a full UPDATE", &full, 8),
        ("a withdraw-only UPDATE", &withdraw, 1),
        ("a rejected UPDATE", &rejected, 3),
    ] {
        let (msg, spent) = counted(|| decode(bytes));
        assert_eq!(msg.is_ok(), what != "a rejected UPDATE", "{what}: {msg:?}");
        within(&format!("decoding {what}"), spent, budget);
    }
}

#[test]
fn policy_apply() {
    use dice_system::bgp::policy::gao_rexford::{export_policy, import_policy};
    use dice_system::bgp::{net, Action, AsPath, Asn, Community, Match, PathAttrs, Policy, Rule};
    use dice_system::netsim::NeighborRole;
    let own = Asn(65001);
    let prefix = net("10.0.0.0/8");
    let bag = PathAttrs {
        as_path: AsPath::sequence([65002, 65003]),
        communities: [Community::from_pair(65002, 1)].into(),
        ..PathAttrs::default()
    };
    let import = import_policy(own, NeighborRole::Peer);
    let imported = import.apply(&prefix, &bag, own).expect("accepted");
    let export = export_policy(own, NeighborRole::Provider);
    let c = Community::from_pair(own.0, 9);
    let tag = Policy {
        name: "tag".into(),
        rules: vec![
            Rule {
                matches: vec![Match::Any],
                actions: vec![Action::AddCommunity(c)],
                verdict: None,
            },
            Rule::accept(vec![Match::HasCommunity(c)]),
        ],
        default: dice_system::bgp::Verdict::Reject,
    };
    let owned = bag.clone();
    for (what, (accepted, spent), budget) in [
        (
            "a Gao-Rexford import of a borrowed bag",
            counted(|| import.apply(&prefix, &bag, own).is_some()),
            3,
        ),
        (
            "a Gao-Rexford import of an owned bag",
            counted(|| import.apply(&prefix, owned, own).is_some()),
            0,
        ),
        (
            "a valley-free export reject",
            counted(|| export.apply(&prefix, &*imported, own).is_some()),
            0,
        ),
        (
            "a verdict-less tag before an accept",
            counted(|| tag.apply(&prefix, &bag, own).is_some()),
            3,
        ),
    ] {
        assert_eq!(accepted, what != "a valley-free export reject", "{what}");
        within(what, spent, budget);
    }
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
fn consistent_cut() {
    for (name, budget) in [("gossip16", 19), ("demo27", 20)] {
        let mut live = live(name);
        let mut cut = || take_consistent_snapshot(&mut live, NodeId(0), SimDuration::from_secs(10));
        let _ = cut();
        let (cut, spent) = counted(cut);
        let (shadow, _) = cut.expect("a quiesced system's cut completes");
        assert_eq!(shadow.node_count(), live.topology().len());
        within(&format!("{name}: a consistent cut"), spent, budget);
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
    for (name, budget) in [("gossip16", 602), ("demo27", 657)] {
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
fn first_write() {
    // The RIB a copy shares is copied on first write: its spine and the
    // entries the UPDATE names, not every entry.
    let b = bound_clone("demo27");
    let mut sim = pooled_clone(&b);
    for _ in 0..2 {
        sim.reset_from_shadow(&b.shadow, 3);
        drive(&mut sim, &b, Some(&b.valid_input));
    }
    sim.reset_from_shadow(&b.shadow, 3);
    let ((), spent) = counted(|| sim.deliver_direct(b.peer, b.explorer, &b.valid_input));
    within("demo27: a copy and its first UPDATE", spent, 47);
}

#[test]
fn bgp_plan() {
    // The twin shares the router's resolved config: a plan allocates its
    // boxed twin and its seeds, nothing per neighbour or policy.
    let live = live("demo27");
    let router = as_bgp(live.node(NodeId(0))).expect("a router");
    let peer = router.injection_peers()[0];
    for (grammar_seeds, budget) in [(0, 8), (8, 84)] {
        let plan = || router.exploration_plan(peer, grammar_seeds, 7);
        let _ = plan();
        let (_, spent) = counted(plan);
        within(
            &format!("demo27: a plan with {grammar_seeds} grammar seeds"),
            spent,
            budget,
        );
    }
}

#[test]
fn warm_twin_execution() {
    for ((name, mut program, bytes, marker), budget) in twin_cases().into_iter().zip([4, 0]) {
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
    for ((name, mut program, bytes, marker), budget) in twin_cases().into_iter().zip([881, 3_389]) {
        let seeds = [bytes];
        let mut session = || explore(program.as_mut(), &seeds, &marker, &config);
        let _ = session();
        let (report, spent) = counted(session);
        assert_eq!(report.executions.len(), 160, "{name}");
        within(&format!("{name}: an exploration session"), spent, budget);
    }
}

#[test]
fn warm_session() {
    let config = ExploreConfig {
        max_executions: 160,
        ..Default::default()
    };
    for ((name, mut program, bytes, marker), budget) in twin_cases().into_iter().zip([808, 3_324]) {
        let seeds = [bytes];
        let mut state = ExploreState::new();
        let mut session = || state.explore(program.as_mut(), &seeds, &marker, &config);
        let _ = session();
        let (report, spent) = counted(session);
        assert_eq!(report.executions.len(), 160, "{name}");
        assert_eq!(report.nodes_interned, 0, "{name}: the state is warm");
        within(
            &format!("{name}: a warm exploration session"),
            spent,
            budget,
        );
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
    within("a one-worker gossip16 campaign", spent, 1_457);
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
    // A shared RIB and a shared config: a converged demo27 router copy is
    // the box and the flat session table.
    within("a demo27 router copy", max_clone_allocs(&live("demo27")), 2);
}
