//! Allocation budgets, counted rather than pattern-matched: the per-thread
//! counting allocator (`dice_bench::CountingAlloc`) sees every allocation a
//! call makes, its callees' included, so a budget holds however the code
//! under it is split into functions. Each budget warms its path once,
//! counts one call and asserts that it spends exactly the count pinned
//! when it was written: the counts are exact, and equal in debug and
//! release builds, so a pin that no longer matches fails whichever way the
//! count moved. A faster path lowers its pin; a new hot path adds a budget
//! here.
//!
//! | budget | the counted call | pinned | hot-path fns it runs |
//! |---|---|---|---|
//! | `buf_pool_exchange` | a warm `BufPool` acquire + recycle | 0 | `BufPool::{acquire, recycle}` |
//! | `encode_into_a_warm_buffer` | `encode_into` of a BGP UPDATE / a gossip digest | 0 / 0 | `dice_bgp::wire::encode_into`, `dice_gossip::wire::encode_into` |
//! | `gossip_frame` | `decode` of a valid rumor / a valid digest / a rejected frame | 1 / 1 / 0 (the owned payload or entries) | `dice_gossip::wire::{validate, decode}` |
//! | `policy_apply` | `Policy::apply` of a Gao–Rexford import to a borrowed / an owned bag, a valley-free export reject, a verdict-less tag rule before an accept | 1 / 0 / 0 / 1 (the copy of a borrowed bag: its AS_PATH words; the communities stay inline) | `Policy::{apply, decide}`, `Match::test`, `Fired::actions`, `Action::apply`, `Communities::insert` |
//! | `bgp_update_decode` | `decode` of a full UPDATE (AS_PATH, communities, a transitive unknown) / a withdraw-only UPDATE / one rejected at its NEXT_HOP | 5 / 1 / 1 (the owned withdrawn list, AS_PATH words, unknown attribute and its value, and NLRI list) | `dice_bgp::wire::{validate_update, decode_incoming, decode}`, `AsPath::from_wire`, `UpdateView::into_msg` |
//! | `same_cut_reset` | `reset_from_shadow` after an injected and after a null drive, gossip16 and demo27 | 0 | `Simulator::{reset_from_shadow, rebind_touched, bind_node}`, `Links::reset`, `Cuts::reset` |
//! | `repeat_cut` | `instant_snapshot` of a quiesced system already cut once, gossip16 / demo27 | 9 / 10 | `checkpoint_node`, `NodeState::checkpoint` |
//! | `live_convergence` | `run_until_quiet` of a started `scenarios::demo27_system`, from start to quiescence | 7,013 | `process_deliver`, `with_node`, `apply_effects`, `BgpRouter::{on_start, on_session, on_message}`, `recompute_and_propagate` |
//! | `consistent_cut` | `take_consistent_snapshot` of a quiesced system already cut once, gossip16 / demo27 | 19 / 20 | `start_snapshot`, `SnapshotState::{new, into_shadow}`, `send_markers`, `snapshot_on_marker` |
//! | `passing_battery` | `run_checkers` over a null-drive clone, warm baseline, gossip16 and demo27 | 1 (the reserved report) | `run_checkers`, `check_into` of `CrashChecker`, `OscillationChecker`, `OriginAuthorityChecker`, `ConvergenceChecker` |
//! | `pooled_unit` | reset → `deliver_direct` → `run_until_quiet` → `run_checkers`, gossip16 / demo27 | 602 / 387 | `process_deliver`, `NodeApi::buf`, `recompute_and_propagate`, `export_to`, `Policy::{apply, export}` |
//! | `first_write` | `deliver_direct` of the input into a warm pooled demo27 clone: the explorer's copy and its first UPDATE | 29 | `BgpRouter::clone_node`, `handle_update`, `Rib::{insert, install, advertise}`, `Roomy::clone` |
//! | `row_after_a_copy` | `Rib::insert` of a fifth peer's row for a prefix, into a copy of a table that holds four | 4 (the spine and the entry, an `Arc` and a vector each; the row fits) | `Rib::{insert, edit}`, `Roomy::clone` |
//! | `rebound_hold_timer` | `deliver_direct` of a KEEPALIVE to a router a freshly rebound pooled demo27 clone already copied: its HOLD re-arm | 0 | `Simulator::{bind_node, apply_effects}`, `TimerGens::{clear, bump}` |
//! | `bgp_plan` | `exploration_plan` of a demo27 router, grammar seeds 0 / 8 | 8 / 77 (the boxed twin and the seed corpus) | `BgpRouter::update_twin`, `UpdateGrammar::{generate, batch}`, `encode` |
//! | `warm_twin_execution` | one twin run through `ConcolicCtx::continuing` on a warm arena, BGP / gossip | 4 / 0 | `ExprArena::intern` |
//! | `explore_session` | one `explore` of 160 executions, BGP / gossip | 881 / 3,389 | `Search::{dfs, narrow, admits, admits_cmp, offset_of}`, `ExprArena::{sweep, intern, eval3_memo}`, `UnaryMemo::lookup`, `Worklist::{push, pick}` |
//! | `warm_session` | a second `ExploreState::explore` of the same 160 executions on one state, BGP / gossip | 808 / 3,324 (no node interned, no constraint swept) | as `explore_session`, over a warm arena and warm memos |
//! | `one_worker_campaign` | `Campaign::run` at one worker, one gossip16 round | 1,150 (1,457 while a cut deep-copied each owned node: the first cut now moves the 16 gossip nodes behind `Arc`s, 19 allocations each fewer, and the clone's simulator builds no per-node checkpoint-cache vectors, 2 fewer; 1,151 while `run_rounds` collected a sweep's round results into a `Vec` before the fold) | `Sweep::validate_one`, `ClonePool::{acquire, release}` (at one worker they run on the calling thread) |
//! | `one_worker_shared_session` | `Campaign::run` at one worker, gossip16's node 0 over two peers: two rounds, one exploration session | 1,848 (1,850 while `Fold::round` copied the round's kind into a new per-explorer and per-kind `String` every round; it keys both tallies by the session's `&'static str` and converts each row once, in `Fold::finish`) | `Campaign::plan_sweep`, `Sweep::{explore_sessions, explore_stage, check_stage}`, `run_rounds`'s fold, `Fold::{round, finish}` |
//! | `update_fanout` | `deliver_direct` of an UPDATE into a Gao–Rexford hub with 64 established neighbours and the 5 ms drain of what it sent: a customer's that changes the best route (fan-out 63) / a provider's that does not (fan-out 0) | 6 / 2 | `BgpRouter::on_message`, `handle_update`, `recompute_and_propagate`, `export_to`, `Policy::export`, `AsPath::prepended`, `send_update`, `NodeApi::buf` |
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
//!   reject allocates once. Set `INLINE_COMMUNITIES` to 0, so every
//!   community set lives on the heap, and the import of a borrowed bag
//!   allocates 3 times (as it did when the set was a `BTreeSet`).
//! * `bgp_update_decode`: make `validate_update` keep the codes it has
//!   seen in a `Vec<u8>` instead of its 256-bit set, and a full UPDATE
//!   allocates 6 times. Make `AsPath::from_wire` push its words one at a
//!   time into a growing `Vec`, and it allocates 6 times too.
//! * `same_cut_reset`: make `rebind_touched` clone the touched list instead
//!   of taking it, and the gossip16 reset after an injected drive
//!   allocates once.
//! * `repeat_cut`: make `NodeState::checkpoint` serve a shared slot as
//!   `Arc::from(a.clone_node())`, and a gossip16 cut allocates 329 times.
//! * `live_convergence`: give the simulator back an event log — a
//!   `VecDeque` of every counted event, sent and delivered frames, timers
//!   and session changes, up to 64 Ki of them — and let `BgpRouter`
//!   render a `String` per best-route change and session event, and the
//!   convergence allocated 16,841 times where it allocated 12,976 without
//!   (measured before a hop's own allocations were cut, below).
//! * `consistent_cut`: make `send_markers` collect the fan-out into a
//!   fresh `Vec` instead of the `Cuts` scratch buffer, and a gossip16 cut
//!   allocates 35 times (173 with the ordered-set bookkeeping the
//!   direction-indexed `SnapshotState` replaced; demo27 94).
//! * `passing_battery`: make `CrashChecker` name its pass
//!   `self.name().to_string()`, and a gossip16 battery allocates 17 times.
//! * `pooled_unit`: make `export_to` copy the exported bag per accepting
//!   peer instead of sharing its `Arc`, and a demo27 unit allocates 501
//!   times. Make `export_to` keep its memo in a `Vec` on the router,
//!   resized per call and emptied after it, and a demo27 unit allocates
//!   406 times: a router copy carries no capacity, so every copied router
//!   that exports grows one.
//! * `first_write`: make `Rib::edit` deep-copy every entry when it copies
//!   a shared spine, and the copy plus its first UPDATE allocates 109
//!   times (the router copy alone stays at 2: a saving made only at copy
//!   time cannot pass this budget).
//! * `row_after_a_copy`: make `Roomy::clone` copy exactly
//!   (`Roomy(self.0.clone())`), and the row allocates 5 times: the copy
//!   grows again.
//! * `rebound_hold_timer`: make `TimerGens::clear` drop its storage
//!   (`self.0 = Vec::new()`), as the `BTreeMap` it replaced did, and the
//!   re-arm allocates once.
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
//!   and the campaign allocates 1,251 times.
//! * `one_worker_shared_session`: make `Campaign::plan_sweep` give every
//!   round a session of its own (`one_session = false`), and the second
//!   round explores again: the campaign allocates 2,041 times, a whole
//!   session more (the assertion on `explorations` goes red first).
//! * `update_fanout`: make `export_to` advertise a copy of the exported
//!   bag (`Arc::new(PathAttrs::clone(attrs))`) instead of sharing its
//!   `Arc`, and the customer UPDATE allocates 132 times. Make
//!   `Resolved::export` copy the accepted bag and edit it (`apply`,
//!   `into_owned`, `as_path.prepend`, strip) instead of `Policy::export`,
//!   and it allocates 8 times. Make `handle_update` collect the NLRI into
//!   a `Vec` before it imports them, and it allocates 7 times.
//! * `gossip_copy_shares_its_tables`: make `clone_node` deep-copy the
//!   store, the dedup memory and every per-peer infection set, and a copy
//!   of a 16-mesh node allocates 153 times (187 when every table was
//!   owned).
//! * `bgp_router_copy_stays_at_its_pinned_count`: make `clone_node` copy
//!   the router's resolved config (`BgpRouter::shared`) instead of sharing
//!   its `Arc`, and a copy allocates 104 times.

use core::any::Any;
use dice_bench::{allocations, bound_clone, twin_cases, wire_workload, BoundClone, CountingAlloc};
use dice_system::bgp::policy::gao_rexford;
use dice_system::bgp::{
    encode, AsPath, Asn, BgpRouter, Ipv4Addr, Ipv4Net, Message, OpenMsg, PathAttrs, Policy,
    RouterConfig, RouterId, UpdateMsg,
};
use dice_system::concolic::{
    explore, ConcolicCtx, ExploreConfig, ExploreState, ExprArena, SymInput,
};
use dice_system::dice::bgp_sut::as_bgp;
use dice_system::dice::gossip_sut::as_gossip;
use dice_system::dice::{
    default_checkers, flips_baseline, run_checkers, scenarios, take_consistent_snapshot,
    AttestationRegistry, Campaign, CampaignReport, CheckBaseline, CheckContext, CheckReport,
    Checker, ExplorableNode, SutCatalog,
};
use dice_system::netsim::{
    BufPool, LinkParams, NeighborRole, Node, NodeApi, NodeId, QuietOutcome, Relationship,
    SessionEvent, SimDuration, SimTime, Simulator, Topology,
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
    assert_eq!(spent, budget, "{what}: allocations against its pin");
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
        ("a full UPDATE", &full, 5),
        ("a withdraw-only UPDATE", &withdraw, 1),
        ("a rejected UPDATE", &rejected, 1),
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
            1,
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
            1,
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
                // The injected input floods the system; a null drive does not.
                let delivered = sim.trace().stats().msgs_delivered;
                assert_eq!(
                    delivered > b.topo.len() as u64 / 2,
                    input.is_some(),
                    "{name}: a {case} drive delivered {delivered} frames"
                );
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
fn live_convergence() {
    let mut live = scenarios::demo27_system(7);
    let (out, spent) = counted(|| {
        live.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::from_nanos(300_000_000_000),
        )
    });
    assert_eq!(out, QuietOutcome::Quiescent);
    within("demo27 from start to quiescence", spent, 7_013);
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
    for (name, budget) in [("gossip16", 602), ("demo27", 387)] {
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
    within("demo27: a copy and its first UPDATE", spent, 29);
}

#[test]
fn row_after_a_copy() {
    // A copied table keeps room for the row its first write adds: the
    // spine and the entry are copied (an `Arc` and a vector each), and
    // the new peer's row fills the room.
    use dice_system::bgp::{net, Rib, Route};
    let prefix = net("10.0.0.0/8");
    let route = |peer: u32| Route {
        attrs: std::sync::Arc::new(PathAttrs::default()),
        from_peer: Some(peer),
        peer_router_id: peer,
    };
    let mut rib = Rib::default();
    for peer in 1..=4 {
        rib.insert(NodeId(peer), prefix, route(peer));
    }
    let mut copy = rib.clone();
    let row = route(5);
    let ((), spent) = counted(|| copy.insert(NodeId(5), prefix, row));
    assert_eq!(copy.candidates(&prefix).count(), 5);
    within("a row added right after a copy", spent, 4);
}

#[test]
fn rebound_hold_timer() {
    // A rebound slot keeps its timer table's storage: the HOLD timer a
    // KEEPALIVE re-arms on a router the clone already copied finds room.
    let b = bound_clone("demo27");
    let router = as_bgp(&*b.shadow.nodes()[&b.explorer]).expect("a router");
    assert!(
        router.config().hold_time > 0,
        "the session runs a hold timer"
    );
    let keepalive = encode(&Message::Keepalive);
    let mut sim = pooled_clone(&b);
    for _ in 0..2 {
        sim.reset_from_shadow(&b.shadow, 3);
        drive(&mut sim, &b, Some(&b.valid_input));
    }
    sim.reset_from_shadow(&b.shadow, 3);
    sim.invoke_node(b.explorer, |_, _| {});
    let ((), spent) = counted(|| sim.deliver_direct(b.peer, b.explorer, &keepalive));
    within("demo27: a HOLD re-arm on a rebound clone", spent, 0);
}

#[test]
fn bgp_plan() {
    // The twin shares the router's resolved config: a plan allocates its
    // boxed twin and its seeds, nothing per neighbour or policy.
    let live = live("demo27");
    let router = as_bgp(live.node(NodeId(0))).expect("a router");
    let peer = router.injection_peers()[0];
    for (grammar_seeds, budget) in [(0, 8), (8, 77)] {
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

/// The allocations of one `Campaign::run` at one worker over gossip16's
/// node 0 and its first `peers` peers, counted after a warm-up run, and
/// the report.
fn one_worker_gossip16_campaign(peers: usize) -> (CampaignReport, u64) {
    let campaign = |live: &Simulator| {
        Campaign::new(live)
            .explorers([NodeId(0)])
            .max_peers_per_explorer(peers)
            .executions(32)
            .validate_top(4)
            .workers(1)
    };
    let mut warm = live("gossip16");
    campaign(&warm).run(&mut warm).expect("campaign runs");
    let mut live = live("gossip16");
    let campaign = campaign(&live);
    let (report, spent) = counted(|| campaign.run(&mut live).expect("campaign runs"));
    assert_eq!(report.rounds.len(), peers);
    assert!(report.rounds.iter().all(|r| r.validated > 0));
    (report, spent)
}

#[test]
fn one_worker_campaign() {
    let (_, spent) = one_worker_gossip16_campaign(1);
    within("a one-worker gossip16 campaign", spent, 1_150);
}

#[test]
fn one_worker_shared_session() {
    let (report, spent) = one_worker_gossip16_campaign(2);
    assert_eq!(report.perf.explorations, 1, "two rounds, one session");
    within(
        "a one-worker gossip16 campaign over two peers",
        spent,
        1_848,
    );
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

/// A neighbour that completes the session handshake and then only
/// listens: what `update_fanout` counts is the hub.
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
                router_id: RouterId(u32::from(self.asn.0)),
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

/// A star of `n` listeners around a Gao–Rexford hub, every session
/// established: customers, peers and providers interleaved by node id
/// (1 a customer, 2 a peer, 3 a provider, …), one policy name per
/// neighbour as the scenario builders generate them.
fn hub_with(n: u16) -> Simulator {
    let own = Asn(65000);
    let mut hub = RouterConfig::minimal(own, RouterId(0x0A00_0000));
    hub.hold_time = 0;
    let mut topo = Topology::with_nodes(usize::from(n) + 1);
    for m in 1..=n {
        let role = match m % 3 {
            1 => NeighborRole::Customer,
            2 => NeighborRole::Peer,
            _ => NeighborRole::Provider,
        };
        let (import, export) = (format!("imp-{m}"), format!("exp-{m}"));
        hub = hub
            .with_policy(Policy {
                name: import.clone(),
                ..gao_rexford::import_policy(own, role)
            })
            .with_policy(Policy {
                name: export.clone(),
                ..gao_rexford::export_policy(own, role)
            })
            .with_neighbor(NodeId(m.into()), Asn(65000 + m), import, export);
        let link = LinkParams::fixed(SimDuration::from_millis(1));
        topo.add_edge(HUB, NodeId(m.into()), link, Relationship::Unlabeled);
    }
    let mut sim = Simulator::new(topo, 11);
    sim.set_node(HUB, Box::new(BgpRouter::new(hub)));
    for m in 1..=n {
        let asn = Asn(65000 + m);
        sim.set_node(NodeId(m.into()), Box::new(Listener { asn }));
    }
    sim.start();
    sim.run_until(SimTime::from_nanos(5_000_000_000));
    sim
}

#[test]
fn update_fanout() {
    // The speaker's side of an UPDATE at a hub with 64 neighbours: a
    // customer's UPDATE that replaces the best route goes out to the 63
    // others, a provider's that does not win goes to none (LOCAL_PREF 200
    // vs 50 once the customer's route is in). The two UPDATEs of a case
    // differ in their AS path, so each delivery replaces the route.
    let mut sim = hub_with(64);
    for (name, from, fan_out, budget) in [
        ("a customer UPDATE, best route replaced", 1u16, 63, 6),
        ("a provider UPDATE, best route kept", 3, 0, 2),
    ] {
        let updates = [64001u16, 64002].map(|origin| {
            encode(&Message::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: Some(PathAttrs {
                    as_path: AsPath::sequence([65000 + from, origin]),
                    next_hop: Ipv4Addr(0x0A00_0000 + u32::from(from)),
                    ..Default::default()
                }),
                nlri: vec![Ipv4Net::new(0x0A09_0000, 16)],
            }))
        });
        let stats = |sim: &Simulator| {
            let hub = sim.node(HUB).as_any().downcast_ref::<BgpRouter>();
            hub.expect("the hub is a BgpRouter").stats()
        };
        // Deliver, then drain what the hub sent so queues stay flat.
        let deliver = |sim: &mut Simulator, update: &[u8]| {
            sim.deliver_direct(NodeId(from.into()), HUB, update);
            let until = sim.now() + SimDuration::from_millis(5);
            sim.run_until(until);
        };
        for update in &updates {
            deliver(&mut sim, update);
        }
        for update in &updates {
            let before = stats(&sim);
            let ((), spent) = counted(|| deliver(&mut sim, update));
            let after = stats(&sim);
            assert_eq!(after.updates_rx - before.updates_rx, 1, "{name}");
            assert_eq!(after.updates_tx - before.updates_tx, fan_out, "{name}");
            within(name, spent, budget);
        }
    }
}
