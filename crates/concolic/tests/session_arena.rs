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
//! execution's variables and byte set) — `one_arena_names_each_structure_once`
//! reports "one id, two structures"; so do the three pinned digests of
//! `tests/end_to_end.rs` and all four `normalized_sha256` of `dice-benchmark
//! --smoke`. `every_flip_of_a_warm_session_matches_the_reference` holds each
//! flip of a warm session to the reference solver, so a memo entry that
//! answers for another structure fails it at the flip that reads it.
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
    explore, negation_query, BranchRec, ConcolicCtx, ConcolicProgram, ExploreConfig, ExprArena,
    ExprId, Flip, PathSolver, RunStatus, SolveResult, Solver, SymInput,
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

#[test]
fn every_flip_of_a_warm_session_matches_the_reference() {
    // The per-flip check of `tests/path_solver.rs`, over the real twins: a
    // 160-execution session's inputs, re-run in order through one arena,
    // each path answered by one `PathSolver` whose memos stay warm across
    // the session, as `explore` answers it. Every flip of every path — the
    // ones the covered-flip guard skips included — must equal the
    // reference `Solver::solve` on the whole negation query, model for
    // model, wherever the reference answers. A gossip frame has few
    // branches: more rumors to flip, or the queue runs dry short of 64.
    type Build = fn(u64, usize) -> Twin;
    for (name, twin, n) in [("bgp", bgp_twin as Build, 3), ("gossip", gossip_twin, 12)] {
        let (mut program, marker, seeds) = twin(7, n);
        let config = ExploreConfig {
            max_executions: 160,
            ..Default::default()
        };
        let session = explore(program.as_mut(), &seeds, &marker, &config);
        assert!(
            session.executions.len() >= 64,
            "{name}: {}",
            session.executions.len()
        );
        assert!(
            !session.crashes.is_empty(),
            "{name}: the seeded defect is found"
        );

        let (mut arena, mut path) = (ExprArena::new(), Vec::new());
        let mut solver = PathSolver::with_budget(config.solver_budget);
        let mut reference = Solver::with_budget(config.solver_budget);
        let mut model = Vec::new();
        let mut compared = 0;
        for (i, e) in session.executions.iter().enumerate() {
            let input = SymInput::with_mask(e.input.clone(), marker(&e.input));
            let mut ctx = ConcolicCtx::continuing(input, e.oracles.clone(), arena, path);
            let status = program.run(&mut ctx);
            assert_eq!(status, e.status, "{name}: execution {i}");
            assert_eq!(ctx.path_signature(), e.path_sig, "{name}: execution {i}");
            let (bytes, oracles);
            (bytes, oracles, arena, path) = ctx.into_parts();
            let seed = |idx: u32| match bytes.bytes.get(idx as usize) {
                Some(&b) => b,
                None => oracles.get(&idx).copied().unwrap_or(0),
            };
            let mut pass = solver.begin(&arena, &path, &seed, bytes.bytes.len() as u32);
            for k in 0..path.len() {
                let answer = match pass.flip(&mut model) {
                    Flip::Sat => SolveResult::Sat(model.iter().copied().collect()),
                    Flip::Unsat => SolveResult::Unsat,
                    Flip::Unknown => SolveResult::Unknown,
                };
                pass.advance();
                let expected = reference.solve(&arena, &negation_query(&path, k), &seed);
                if expected != SolveResult::Unknown {
                    assert_eq!(answer, expected, "{name}: execution {i}, flip {k}");
                    compared += 1;
                }
            }
        }
        assert!(compared >= 400, "{name}: {compared} flips compared");
        assert!(solver.memo_hits() > 0, "{name}: the memos stay cold");
    }
}
