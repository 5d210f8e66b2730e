//! What an exploration session's one arena rests on, checked over the two
//! real handler twins (BGP UPDATE, gossip frame): the arena is never cleared
//! between executions, so an [`ExprId`] must name one structure — and every
//! structure one id — from the first seed to the last flip. The unary memo
//! and the covered-flip guard both key on it.
//!
//! Each of these was applied once and fails the tests named:
//! restoring the per-execution clear in `ConcolicCtx::continuing` while the
//! memo stays id-keyed (an id then names whatever the current execution
//! interned at that position, and the memo answers with an earlier
//! execution's variables and byte set) —
//! `id_keyed_and_reference_sessions_explore_the_real_twins_identically`
//! diverges at BGP execution 16 and `one_arena_names_each_structure_once`
//! reports "one id, two structures"; so do the three pinned digests of
//! `tests/end_to_end.rs` and all four `normalized_sha256` of `dice-benchmark
//! --smoke`. (The lib's toy `path_solver_and_reference_explore_identically`
//! stays green: its program interns in one order whatever the input.)
//! Folding `rec.site.0` instead of `rec.constraint.0` into the guard's query
//! hash — `guard_keys_on_the_constraint_not_on_its_site` (lib) loses its
//! crash. (`guard_preserves_context_dependent_flips` stays green: there a
//! site has one constraint, and the prefix's directions still tell the two
//! queries apart.)

use std::collections::BTreeMap;

use dice_bgp::{
    net, Asn, BgpRouter, Match, Origin, Policy, PrefixFilter, RouterConfig, RouterId, Rule, Verdict,
};
use dice_concolic::{
    explore, BranchRec, ConcolicCtx, ConcolicProgram, ExplorationReport, ExploreConfig, ExprArena,
    ExprId, RunStatus, SolverStats, SymInput,
};
use dice_core::gossip_sut::{mark_gossip, seed_corpus};
use dice_core::{mark_update, DomainProgram, UpdateGrammar};
use dice_gossip::{GossipConfig, GossipNode};
use dice_netsim::NodeId;
use proptest::prelude::*;

const PEER: Asn = Asn(65002);

/// A twin, its marking policy and grammar-shaped inputs for it.
type Twin = (
    Box<dyn ConcolicProgram>,
    fn(&[u8]) -> Vec<bool>,
    Vec<Vec<u8>>,
);

/// The UPDATE twin behind an import policy with a prefix filter and an
/// origin rule (so policy evaluation records branches), the seeded parser
/// defect on.
fn bgp_twin(seed: u64, n: usize) -> Twin {
    let import = Policy {
        name: "imp".into(),
        rules: vec![
            Rule::reject(vec![Match::PrefixIn(vec![PrefixFilter::or_longer(net(
                "10.0.0.0/8",
            ))])]),
            Rule::reject(vec![Match::OriginIs(Origin::Incomplete)]),
        ],
        default: Verdict::Accept,
    };
    let mut router = RouterConfig::minimal(Asn(65001), RouterId(1))
        .with_neighbor(NodeId(2), PEER, "imp", "all")
        .with_policy(import);
    router.bugs.attr_overflow_crash = true;
    // The plan's corpus: announcements and one message with a large
    // unknown-attribute value region.
    let mut grammar = UpdateGrammar::new(PEER, seed);
    let mut inputs = vec![grammar.generate(), grammar.generate_large_unknown()];
    inputs.extend(grammar.batch(n.saturating_sub(2)));
    (
        Box::new(DomainProgram(
            BgpRouter::new(router).update_twin(NodeId(2)).unwrap(),
        )),
        mark_update,
        inputs,
    )
}

/// The gossip twin, the seeded digest defect on. The corpus leads with a
/// digest, a subscribe and an ack; rumors follow.
fn gossip_twin(seed: u64, n: usize) -> Twin {
    let mut config = GossipConfig::new(61001)
        .with_peer(NodeId(2))
        .subscribe(1)
        .subscribe(2)
        .publish(7);
    config.bugs.digest_count_overflow = true;
    let inputs = seed_corpus(&config, n, seed);
    (
        Box::new(DomainProgram(GossipNode::new(config).frame_twin())),
        mark_gossip,
        inputs,
    )
}

/// One execution in the session's arena, as `explore` runs it.
fn run_in(
    twin: &mut dyn ConcolicProgram,
    marker: fn(&[u8]) -> Vec<bool>,
    bytes: &[u8],
    arena: ExprArena,
    path: Vec<BranchRec>,
) -> (RunStatus, ExprArena, Vec<BranchRec>) {
    let input = SymInput::with_mask(bytes.to_vec(), marker(bytes));
    let mut ctx = ConcolicCtx::continuing(input, BTreeMap::new(), arena, path);
    let status = twin.run(&mut ctx);
    let (_, _, arena, path) = ctx.into_parts();
    (status, arena, path)
}

proptest! {
    /// Two or three inputs of one twin through one arena: every recorded
    /// constraint reads exactly as it does recorded alone in a fresh
    /// arena, two recorded constraints share an id iff they read the same,
    /// and running an input again adds no node and records the same ids.
    #[test]
    fn one_arena_names_each_structure_once(
        seed in any::<u64>(),
        gossip in any::<bool>(),
        count in 2usize..4,
        // A child is its parent with a byte or two changed.
        mutations in prop::collection::vec(prop::option::of((any::<usize>(), any::<u8>())), 3..4),
    ) {
        let (mut twin, marker, mut inputs) = if gossip {
            gossip_twin(seed, 3)
        } else {
            bgp_twin(seed, 3)
        };
        if gossip {
            // Past some of the corpus's fixed-opcode lead, so rumors show up.
            inputs.drain(..(seed % 4) as usize);
        }
        inputs.truncate(count);
        for (bytes, mutation) in inputs.iter_mut().zip(&mutations) {
            // The UPDATE twin reads its 19-byte header concretely.
            let fixed = if gossip { 0 } else { 19 };
            if let (Some((at, val)), true) = (mutation, bytes.len() > fixed) {
                let at = fixed + at % (bytes.len() - fixed);
                bytes[at] = *val;
            }
        }

        let (mut arena, mut path) = (ExprArena::new(), Vec::new());
        let mut id_of: BTreeMap<String, ExprId> = BTreeMap::new();
        let mut render_of: BTreeMap<ExprId, String> = BTreeMap::new();
        let mut recorded: Vec<Vec<BranchRec>> = Vec::new();
        for bytes in &inputs {
            let status;
            (status, arena, path) = run_in(twin.as_mut(), marker, bytes, arena, path);
            let (alone_status, alone, alone_path) =
                run_in(twin.as_mut(), marker, bytes, ExprArena::new(), Vec::new());
            prop_assert_eq!(&status, &alone_status);
            prop_assert_eq!(path.len(), alone_path.len());
            for (rec, alone_rec) in path.iter().zip(&alone_path) {
                prop_assert_eq!((rec.site, rec.taken), (alone_rec.site, alone_rec.taken));
                let render = arena.render(rec.constraint);
                prop_assert_eq!(&render, &alone.render(alone_rec.constraint));
                let id = *id_of.entry(render.clone()).or_insert(rec.constraint);
                prop_assert_eq!(id, rec.constraint, "one structure, two ids: {}", render);
                let known = render_of.entry(rec.constraint).or_insert_with(|| render.clone());
                prop_assert_eq!(&*known, &render, "one id, two structures");
            }
            recorded.push(path.clone());
        }
        prop_assert!(recorded.iter().any(|p| !p.is_empty()), "the twins record branches");

        let nodes = arena.len();
        for (bytes, first) in inputs.iter().zip(&recorded) {
            (_, arena, path) = run_in(twin.as_mut(), marker, bytes, arena, path);
            prop_assert_eq!(arena.len(), nodes, "a re-run interns nothing new");
            let ids = |p: &[BranchRec]| p.iter().map(|r| (r.site, r.constraint, r.taken)).collect::<Vec<_>>();
            prop_assert_eq!(ids(&path), ids(first));
        }
    }
}

fn session(twin: Twin, solver_cache: bool) -> ExplorationReport {
    let (mut program, marker, seeds) = twin;
    let config = ExploreConfig {
        max_executions: 160,
        solver_cache,
        ..Default::default()
    };
    explore(program.as_mut(), &seeds, &marker, &config)
}

#[test]
fn id_keyed_and_reference_sessions_explore_the_real_twins_identically() {
    // `path_solver_and_reference_explore_identically` (lib) over the real
    // twins, long enough that almost every execution runs over a warm
    // arena: the id-keyed memo path and the memo-less reference mode must
    // execute the same inputs in the same order, to the same effect.
    // A gossip frame has few branches: more rumors to flip, or the queue
    // runs dry short of 64.
    type Build = fn(u64, usize) -> Twin;
    for (name, twin, n) in [("bgp", bgp_twin as Build, 3), ("gossip", gossip_twin, 12)] {
        let sliced = session(twin(7, n), true);
        let reference = session(twin(7, n), false);
        assert!(
            sliced.executions.len() >= 64,
            "{name}: {}",
            sliced.executions.len()
        );
        assert_eq!(
            sliced.executions.len(),
            reference.executions.len(),
            "{name}"
        );
        for (i, (a, b)) in sliced
            .executions
            .iter()
            .zip(&reference.executions)
            .enumerate()
        {
            assert_eq!(a.input, b.input, "{name}: execution {i}");
            assert_eq!(a.oracles, b.oracles, "{name}: execution {i}");
            assert_eq!(a.status, b.status, "{name}: execution {i}");
            assert_eq!(
                (a.path_sig, a.path_len),
                (b.path_sig, b.path_len),
                "{name}: {i}"
            );
            assert_eq!(a.new_coverage, b.new_coverage, "{name}: execution {i}");
        }
        assert_eq!(
            sliced.coverage_timeline, reference.coverage_timeline,
            "{name}"
        );
        assert_eq!(sliced.crashes, reference.crashes, "{name}");
        assert!(
            !sliced.crashes.is_empty(),
            "{name}: the seeded defect is found"
        );
        let verdicts = |s: &SolverStats| (s.queries, s.sat, s.unsat, s.unknown, s.covered_skips);
        assert_eq!(
            verdicts(&sliced.solver),
            verdicts(&reference.solver),
            "{name}"
        );
        assert_eq!(reference.solver.unary_memo_hits, 0, "{name}");
        assert!(
            sliced.solver.unary_memo_hits > 0,
            "{name}: {:?}",
            sliced.solver
        );
    }
}
