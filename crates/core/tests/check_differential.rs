//! Differential test of the checker battery: [`run_checkers`] over a
//! [`CheckBaseline`] — untouched nodes keep their baseline verdict, touched
//! ones are judged against their own baseline vector with the cut's
//! attestation answers in front of SHA-256 — must publish exactly what the
//! pre-baseline battery ([`check_oracle::run_full_battery`], every table of
//! every node on every clone) publishes: `verdicts` in order, `faults`,
//! `at_nanos`.
//!
//! The generator covers BGP lines and meshes, the hijack line, the bad
//! gadget, the gossip mesh and the nemesis federation; null, valid, rejected and crashing
//! inputs; a session reset on the clone; in-flight traffic in the cut; a
//! node outside the snapshot scope; a pooled clone rebound from another
//! cut; `injected` both ways; thresholds 0 / 1 / 20; a second registry;
//! and a baseline read from a *different* cut than the clone's.
//!
//! Each of these was applied once to `check.rs` and fails
//! `incremental_battery_matches_the_full_battery` (the first two also
//! `stale_baseline_skips_only_shared_checkpoints`):
//! skipping a node because its slot is still shared rather than because it
//! shares the *baseline's* `Arc`; skipping at `threshold == 0`; emitting
//! baseline origin outcomes on an injected clone; consulting the origin
//! table under a registry it was not filled from.

use dice_bgp::attrs::flags;
use dice_bgp::{encode, net, AsPath, Ipv4Addr, Message, PathAttrs, RawAttr, UpdateMsg};
use dice_core::check_oracle::{self, FullContext};
use dice_core::{
    default_checkers, flips_baseline, run_checkers, scenarios, AttestationRegistry, CheckContext,
    CheckReport, SutCatalog,
};
use dice_netsim::{LinkParams, NodeId, ShadowSnapshot, SimDuration, SimTime, Simulator, Topology};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum System {
    BgpLine(usize),
    BgpMesh,
    Hijack,
    BuggyParser,
    /// Oscillates forever: the one system that fires at threshold 20.
    BadGadget,
    GossipMesh(usize),
    BuggyGossip,
    Nemesis,
}

fn arb_system() -> impl Strategy<Value = System> {
    prop_oneof![
        (3usize..6).prop_map(System::BgpLine),
        Just(System::BgpMesh),
        Just(System::Hijack),
        Just(System::BuggyParser),
        Just(System::BadGadget),
        (3usize..7).prop_map(System::GossipMesh),
        Just(System::BuggyGossip),
        Just(System::Nemesis),
    ]
}

fn build(system: System, seed: u64) -> Simulator {
    match system {
        System::BgpLine(n) => scenarios::healthy_line(n, seed),
        System::BgpMesh => {
            let lp = LinkParams::fixed(SimDuration::from_millis(5));
            scenarios::build_system(&Topology::full_mesh(4, lp), seed)
        }
        System::Hijack => scenarios::hijack_scenario(seed),
        System::BuggyParser => scenarios::buggy_parser_scenario(seed),
        System::BadGadget => scenarios::bad_gadget_scenario(seed),
        System::GossipMesh(n) => scenarios::gossip_mesh(n, seed),
        System::BuggyGossip => scenarios::buggy_gossip_scenario(4, seed),
        System::Nemesis => scenarios::nemesis_federation(seed),
    }
}

#[derive(Debug, Clone)]
enum Input {
    Null,
    /// A grammar seed of the pair's exploration plan.
    Valid(usize),
    /// Random bytes: rejected by either decoder.
    Garbage(Vec<u8>),
    /// The inputs the two seeded defects crash on.
    BgpCrasher,
    GossipCrasher,
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        Just(Input::Null),
        (0usize..8).prop_map(Input::Valid),
        (0usize..8).prop_map(Input::Valid),
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(Input::Garbage),
        Just(Input::BgpCrasher),
        Just(Input::BgpCrasher),
        Just(Input::GossipCrasher),
        Just(Input::GossipCrasher),
    ]
}

fn bgp_crasher() -> Vec<u8> {
    let mut attrs = PathAttrs {
        as_path: AsPath::sequence([65000]),
        next_hop: Ipv4Addr(0x0A00_0001),
        ..Default::default()
    };
    attrs.unknown.push(RawAttr {
        flags: flags::OPTIONAL | flags::TRANSITIVE,
        code: 0xF5,
        value: vec![0xAA; 0x90],
    });
    encode(&Message::Update(UpdateMsg {
        withdrawn: vec![],
        attrs: Some(attrs),
        nlri: vec![net("99.0.0.0/8")],
    }))
}

/// The bytes of `input` as they would arrive at `explorer` from `peer`.
fn bytes_of(
    input: &Input,
    catalog: &SutCatalog,
    shadow: &ShadowSnapshot,
    explorer: NodeId,
    peer: NodeId,
) -> Option<Vec<u8>> {
    match input {
        Input::Null => None,
        Input::Valid(i) => {
            let node = shadow.nodes().get(&explorer)?;
            let plan = catalog
                .resolve(node.as_ref())?
                .exploration_plan(peer, 4, 7)
                .ok()?;
            Some(plan.seeds[i % plan.seeds.len()].clone())
        }
        Input::Garbage(bytes) => Some(bytes.clone()),
        Input::BgpCrasher => Some(bgp_crasher()),
        Input::GossipCrasher => Some(vec![
            dice_gossip::OP_DIGEST,
            dice_gossip::BUG_COUNT_THRESHOLD,
        ]),
    }
}

/// Everything one generated case varies besides the system and the input.
#[derive(Debug, Clone)]
struct Shape {
    seed: u64,
    pair: usize,
    /// Crash one node before the cuts: outside the snapshot scope.
    outside: bool,
    /// Traffic injected just before the clone's cut: in flight in it.
    in_flight: bool,
    /// The baseline is read from the earlier cut, the clone built from
    /// the later one.
    stale: bool,
    /// A session reset injected on the clone before the drive.
    reset: usize,
    /// The clone is a pooled simulator rebound from the earlier cut.
    pooled: bool,
    /// 20 ms (times out mid-flood) or 2 s.
    short_horizon: bool,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (0u64..1_000, 0usize..64),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (0usize..8, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((seed, pair), (outside, in_flight, stale), (reset, pooled, short_horizon))| Shape {
                seed,
                pair,
                outside,
                in_flight,
                stale,
                reset,
                pooled,
                short_horizon,
            },
        )
}

/// A live system with an earlier and a later cut, and the clone of the
/// later one after its drive.
struct Case {
    catalog: SutCatalog,
    registry: AttestationRegistry,
    early: ShadowSnapshot,
    late: ShadowSnapshot,
    clone: Simulator,
    quiet: dice_netsim::QuietOutcome,
}

fn run_case(system: System, input: &Input, shape: &Shape) -> Case {
    let catalog = SutCatalog::default();
    let mut live = build(system, shape.seed);
    live.run_until(SimTime::from_nanos(10_000_000_000));
    let registry = catalog.build_registry(&live, shape.seed);
    let topo = live.topology().clone();
    let mut pairs = catalog.eligible_pairs(&live);
    // A crasher is aimed at the node built with the defect, if any.
    let buggy = match (system, input) {
        (System::BuggyParser | System::Nemesis, Input::BgpCrasher) => Some(NodeId(1)),
        (System::BuggyGossip, Input::GossipCrasher) => Some(NodeId(1)),
        (System::Nemesis, Input::GossipCrasher) => Some(NodeId(2)),
        _ => None,
    };
    pairs.retain(|&(explorer, _)| buggy.is_none_or(|b| b == explorer));
    let (explorer, peer) = pairs[shape.pair % pairs.len()];
    if shape.outside {
        // Not the explorer: its checkpoint is what plans are built from.
        let victim = topo.node_ids().find(|&n| n != explorer).unwrap();
        live.inject_node_crash(victim);
        live.run_for(SimDuration::from_secs(1));
    }
    if matches!(system, System::Hijack) && !shape.stale {
        // Failing origin verdicts already in the baseline.
        scenarios::apply_hijack(&mut live);
        live.run_for(SimDuration::from_secs(1));
    }
    let early = live.instant_snapshot();

    // The live system moves on between the cuts: new routes and flips at
    // some nodes, none at others (which keep sharing their checkpoint).
    if let Some(bytes) = bytes_of(&Input::Valid(shape.pair), &catalog, &early, explorer, peer) {
        live.deliver_direct(peer, explorer, &bytes);
    }
    if matches!(system, System::Hijack) && shape.stale {
        scenarios::apply_hijack(&mut live);
    }
    live.run_for(SimDuration::from_millis(500));
    if shape.in_flight {
        if let Some(bytes) = bytes_of(&Input::Valid(3), &catalog, &early, explorer, peer) {
            live.deliver_direct(peer, explorer, &bytes);
        }
        live.run_for(SimDuration::from_millis(2));
    }
    let late = live.instant_snapshot();

    let mut clone = if shape.pooled {
        let mut sim = Simulator::from_shadow(&early, &topo, 3);
        sim.deliver_direct(peer, explorer, &[0xFF; 19]);
        sim.run_for(SimDuration::from_millis(30));
        sim.reset_from_shadow(&late, shape.seed ^ 1);
        sim
    } else {
        Simulator::from_shadow(&late, &topo, shape.seed ^ 1)
    };
    if shape.reset > 0 {
        let e = &topo.edges()[shape.reset % topo.edges().len()];
        clone.inject_session_reset(e.a, e.b);
    }
    if let Some(bytes) = bytes_of(input, &catalog, &late, explorer, peer) {
        clone.deliver_direct(peer, explorer, &bytes);
    }
    let horizon = if shape.short_horizon {
        SimDuration::from_millis(20)
    } else {
        SimDuration::from_secs(2)
    };
    let quiet = clone.run_until_quiet(SimDuration::from_millis(200), late.base_time() + horizon);
    Case {
        catalog,
        registry,
        early,
        late,
        clone,
        quiet,
    }
}

fn assert_same(new: &CheckReport, old: &CheckReport, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&new.verdicts, &old.verdicts, "{} verdicts", what);
    prop_assert_eq!(&new.faults, &old.faults, "{} faults", what);
    Ok(())
}

proptest! {
    #[test]
    fn incremental_battery_matches_the_full_battery(
        system in arb_system(),
        input in arb_input(),
        shape in arb_shape(),
    ) {
        let case = run_case(system, &input, &shape);
        let cut = if shape.stale { &case.early } else { &case.late };
        let baseline = flips_baseline(&case.catalog, cut);
        let full_baseline = check_oracle::flips_baseline(&case.catalog, cut);
        // Nothing attested: every route of every node fails.
        let empty = AttestationRegistry::with_seed(shape.seed + 1);

        // The origin table is filled by whichever un-injected check comes
        // first; its answers must not depend on which one that is.
        let mut passes = vec![];
        for threshold in [20u64, 0, 1] {
            for injected in [true, false] {
                passes.push((threshold, injected, &case.registry));
            }
        }
        passes.push((20, false, &empty));
        passes.push((1, false, &case.registry));
        if shape.seed % 2 == 0 {
            passes.reverse();
        }
        for (threshold, injected, registry) in passes {
            let new = run_checkers(
                &default_checkers(threshold),
                &CheckContext {
                    sim: &case.clone,
                    catalog: &case.catalog,
                    registry,
                    baseline_flips: &baseline,
                    quiet: case.quiet,
                    injected,
                },
            );
            let old = check_oracle::run_full_battery(
                threshold,
                &FullContext {
                    sim: &case.clone,
                    catalog: &case.catalog,
                    registry,
                    baseline_flips: &full_baseline,
                    quiet: case.quiet,
                    injected,
                },
            );
            let what = format!("threshold {threshold} injected {injected}");
            assert_same(&new, &old, &what)?;
        }
    }
}

/// The named case behind the `Arc`-identity rule: between two cuts an
/// announcement reaches every router of a line but flips nothing at the
/// gossip side of the federation, so a clone of the later cut judged
/// against the *earlier* baseline must re-judge exactly the routers.
#[test]
fn stale_baseline_skips_only_shared_checkpoints() {
    let shape = Shape {
        seed: 11,
        pair: 0,
        outside: false,
        in_flight: false,
        stale: true,
        reset: 0,
        pooled: false,
        short_horizon: false,
    };
    for system in [System::Nemesis, System::Hijack, System::BgpLine(4)] {
        let case = run_case(system, &Input::Null, &shape);
        let shared = case
            .early
            .nodes()
            .iter()
            .filter(|(id, a)| {
                case.late
                    .nodes()
                    .get(id)
                    .is_some_and(|b| std::sync::Arc::ptr_eq(a, b))
            })
            .count();
        assert!(
            shared < case.early.node_count(),
            "{system:?}: the cuts must differ somewhere"
        );
        let baseline = flips_baseline(&case.catalog, &case.early);
        let full_baseline = check_oracle::flips_baseline(&case.catalog, &case.early);
        for threshold in [0, 1, 20] {
            let new = run_checkers(
                &default_checkers(threshold),
                &CheckContext {
                    sim: &case.clone,
                    catalog: &case.catalog,
                    registry: &case.registry,
                    baseline_flips: &baseline,
                    quiet: case.quiet,
                    injected: false,
                },
            );
            let old = check_oracle::run_full_battery(
                threshold,
                &FullContext {
                    sim: &case.clone,
                    catalog: &case.catalog,
                    registry: &case.registry,
                    baseline_flips: &full_baseline,
                    quiet: case.quiet,
                    injected: false,
                },
            );
            assert_eq!(
                new.verdicts, old.verdicts,
                "{system:?} threshold {threshold}"
            );
            assert_eq!(new.faults, old.faults, "{system:?} threshold {threshold}");
            if threshold == 1 {
                assert!(
                    old.failed() > 0,
                    "{system:?}: flips since the earlier cut must fire at threshold 1"
                );
            }
        }
    }
}
