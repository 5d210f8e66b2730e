//! Differential tests of [`PathSolver`]: the reference [`Solver::solve`] on
//! [`negation_query`] is the oracle. Wherever the reference answers, the
//! one-pass solver must give the same verdict and the same model, byte for
//! byte — an exploration that used either would enqueue the same children.
//!
//! The generator's word-shaped branches (arity 4 / 5 / 6) are what the
//! search's narrowing (`solve/search.rs`) works on: every comparison, either
//! polarity, a byte held twice, a mask over the word, an OR of equalities as
//! the BGP twin's loop check builds it. Each of these was applied once to
//! the search and fails the test named:
//! sorting `sys` by candidate sets narrowed ahead of the search
//! (`every_flip_matches_the_reference`: the variable order, hence the first
//! model, moves); reusing one node's narrowing at another node of the same
//! variable, i.e. under other values of the earlier variables (the same);
//! reading `word < k` as `word == k` (the same, from ~150 cases on — run it
//! at `PROPTEST_CASES=2000`). What narrowing may drop is pinned value by
//! value next to it (`narrowing_drops_only_values_without_a_completion`);
//! what it must drop, by the step bounds below.

use std::collections::BTreeMap;

use dice_concolic::{
    negation_query, BinOp, BoolOp, BranchRec, CmpOp, ConcolicCtx, ExprArena, ExprId, Flip,
    PathSolver, SiteId, SolveResult, Solver, SolverBudget, SymBool, SymInput,
};
use proptest::prelude::*;

/// One branch of a generated path over input bytes `0..6`.
#[derive(Debug, Clone)]
struct Branch {
    /// 0 constant, 1 single byte, 2 two bytes, 3 three bytes — 8-bit
    /// arithmetic against the low byte of `k`; 4 / 5 a big-endian u16 / u32
    /// assembled from two / four bytes, optionally masked, against `k`; 6
    /// `false || u16 == k || u16' == k` over two such u16s.
    arity: u8,
    vars: [u8; 4],
    ops: [BinOp; 2],
    cmp: CmpOp,
    k: u32,
    /// Word shapes only: `word & mask` is what gets compared.
    mask: Option<u32>,
    /// Direction recorded when the path is not replayed from the seed.
    taken: bool,
}

fn arb_bin() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ult),
        Just(CmpOp::Ule)
    ]
}

fn arb_branch() -> impl Strategy<Value = Branch> {
    (
        // Unary constraints dominate real parser paths; word fields (a
        // length, an address, an AS number) are what the reference walks
        // value by value — an equality on one admits a single value per
        // byte, a bound an interval of them.
        prop_oneof![
            Just(0u8),
            Just(1),
            Just(1),
            Just(1),
            Just(2),
            Just(2),
            Just(3),
            Just(4),
            Just(5),
            Just(6)
        ],
        (0u8..6, 0u8..6, 0u8..6, 0u8..6),
        (arb_bin(), arb_bin()),
        arb_cmp(),
        (any::<u32>(), prop::option::of(any::<u32>())),
        any::<bool>(),
    )
        .prop_map(
            |(arity, (a, b, c, d), (op1, op2), cmp, (k, mask), taken)| Branch {
                arity,
                vars: [a, b, c, d],
                ops: [op1, op2],
                cmp,
                k,
                mask,
                taken,
            },
        )
}

/// `(bytes[0] << 8·(n-1)) | … | bytes[n-1]` at `8·n` bits, from `zext`,
/// `shl` and `or` (any of the bytes may be the same input byte).
fn be_word(arena: &mut ExprArena, bytes: &[u8]) -> ExprId {
    let bits = 8 * bytes.len() as u8;
    let parts: Vec<ExprId> = bytes
        .iter()
        .map(|&i| {
            let byte = arena.input(i as u32);
            arena.zext(bits, byte)
        })
        .collect();
    let mut word = parts[0];
    for &part in &parts[1..] {
        let eight = arena.constant(bits, 8);
        let shifted = arena.bin(BinOp::Shl, bits, word, eight);
        word = arena.bin(BinOp::Or, bits, shifted, part);
    }
    word
}

fn build(arena: &mut ExprArena, b: &Branch) -> ExprId {
    if b.arity == 6 {
        let k = arena.constant(16, b.k as u64);
        let mut any = arena.constant(1, 0);
        for bytes in b.vars.chunks(2) {
            let word = be_word(arena, bytes);
            let hit = arena.cmp(CmpOp::Eq, word, k);
            any = arena.boolean(BoolOp::Or, any, hit);
        }
        return any;
    }
    if b.arity >= 4 {
        let bytes = &b.vars[..if b.arity == 4 { 2 } else { 4 }];
        let bits = 8 * bytes.len() as u8;
        let mut word = be_word(arena, bytes);
        if let Some(mask) = b.mask {
            let mask = arena.constant(bits, mask as u64);
            word = arena.bin(BinOp::And, bits, word, mask);
        }
        let k = arena.constant(bits, b.k as u64);
        return arena.cmp(b.cmp, word, k);
    }
    let k = arena.constant(8, b.k as u64);
    let lhs = match b.arity {
        0 => arena.constant(8, b.vars[0] as u64 * 40),
        1 => {
            let x = arena.input(b.vars[0] as u32);
            let m = arena.constant(8, b.vars[1] as u64 * 51);
            arena.bin(b.ops[0], 8, x, m)
        }
        2 => {
            let x = arena.input(b.vars[0] as u32);
            let y = arena.input(b.vars[1] as u32);
            arena.bin(b.ops[0], 8, x, y)
        }
        _ => {
            let x = arena.input(b.vars[0] as u32);
            let y = arena.input(b.vars[1] as u32);
            let z = arena.input(b.vars[2] as u32);
            let xy = arena.bin(b.ops[0], 8, x, y);
            arena.bin(b.ops[1], 8, xy, z)
        }
    };
    arena.cmp(b.cmp, lhs, k)
}

/// Record `branches` as a path. With `replay`, directions are the ones the
/// seed input takes (the prefix holds under the seed, as in exploration);
/// without, they are the generated ones (the prefix may contradict the
/// seed, or itself).
fn record(branches: &[Branch], seed: &[u8; 6], replay: bool) -> (ExprArena, Vec<BranchRec>) {
    let mut arena = ExprArena::new();
    let path = record_into(&mut arena, branches, seed, replay);
    (arena, path)
}

/// [`record`] into an arena that already holds other paths, as a session's
/// later executions record theirs.
fn record_into(
    arena: &mut ExprArena,
    branches: &[Branch],
    seed: &[u8; 6],
    replay: bool,
) -> Vec<BranchRec> {
    branches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let constraint = build(arena, b);
            let concrete = arena.eval(constraint, &|idx| Some(seed[idx as usize] as u64));
            BranchRec {
                site: SiteId(i as u32),
                constraint,
                taken: if replay {
                    concrete.is_some_and(|v| v != 0)
                } else {
                    b.taken
                },
            }
        })
        .collect()
}

/// One pass over `path`: flip where `flips` says so (all when it runs
/// out), advance always. Returns each flip's answer in the reference's
/// vocabulary. `executed` is [`PathSolver::begin`]'s: the variables below
/// it took their recorded directions under `seed`.
fn sliced_answers(
    solver: &mut PathSolver,
    arena: &ExprArena,
    (path, executed): (&[BranchRec], u32),
    seed: &dyn Fn(u32) -> u8,
    flips: &[bool],
) -> Vec<Option<SolveResult>> {
    let mut pass = solver.begin(arena, path, seed, executed);
    let mut model = Vec::new();
    (0..path.len())
        .map(|i| {
            let answer =
                flips
                    .get(i)
                    .copied()
                    .unwrap_or(true)
                    .then(|| match pass.flip(&mut model) {
                        Flip::Sat => SolveResult::Sat(model.iter().copied().collect()),
                        Flip::Unsat => SolveResult::Unsat,
                        Flip::Unknown => SolveResult::Unknown,
                    });
            pass.advance();
            answer
        })
        .collect()
}

/// Every flip the pass answered agrees with the reference wherever the
/// reference answers.
fn assert_matches_reference(
    arena: &ExprArena,
    path: &[BranchRec],
    seed: &dyn Fn(u32) -> u8,
    budget: SolverBudget,
    answers: &[Option<SolveResult>],
) -> Result<(), TestCaseError> {
    let mut reference = Solver::with_budget(budget);
    for (i, answer) in answers.iter().enumerate() {
        let Some(answer) = answer else { continue };
        let expected = reference.solve(arena, &negation_query(path, i), seed);
        if expected != SolveResult::Unknown {
            prop_assert_eq!(answer, &expected, "flip {} of {}", i, path.len());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_flip_matches_the_reference(
        branches in prop::collection::vec(arb_branch(), 1..25),
        seed in prop::collection::vec(any::<u8>(), 6..7),
        replay in any::<bool>(),
        flips in prop::collection::vec(any::<bool>(), 0..25),
        tiny_budget in prop::option::of(1u64..600),
    ) {
        let seed: [u8; 6] = seed.try_into().expect("six bytes");
        let (mut arena, path) = record(&branches, &seed, replay);
        let seed_fn = |idx: u32| seed[idx as usize];
        let budget = tiny_budget.map_or_else(SolverBudget::default, |max_steps| SolverBudget { max_steps });

        let mut solver = PathSolver::with_budget(budget);
        // A replayed path is what an execution of the seed records.
        let executed = if replay { 6 } else { 0 };
        let all = sliced_answers(&mut solver, &arena, (&path, executed), &seed_fn, &[]);
        assert_matches_reference(&arena, &path, &seed_fn, budget, &all)?;
        prop_assert_eq!(solver.stats.queries, path.len() as u64);
        let first_pass_hits = solver.memo_hits();

        // A second pass on the same solver (state reset, memo warm) that
        // skips flips the way exploration does — so component models are
        // settled later, and in bigger steps — answers the same.
        let some = sliced_answers(&mut solver, &arena, (&path, executed), &seed_fn, &flips);
        assert_matches_reference(&arena, &path, &seed_fn, budget, &some)?;
        for (a, b) in all.iter().zip(&some) {
            if let (Some(a), Some(b)) = (a, b) {
                if *a != SolveResult::Unknown && *b != SolveResult::Unknown {
                    prop_assert_eq!(a, b);
                }
            }
        }
        prop_assert_eq!(
            solver.memo_hits() - first_pass_hits,
            path.len() as u64,
            "the second pass finds every constraint in the memo, once"
        );

        // A later execution of the session: another seed's path — the same
        // branches from the last back, every other one against a constant
        // one bit off, so it shares constraints with the first and interns
        // new ones among them — recorded into the same arena, answered by
        // the same solver over its warm memo.
        let later_seed = seed.map(|b| b.rotate_left(3) ^ 0x5A);
        let later: Vec<Branch> = branches
            .iter()
            .rev()
            .enumerate()
            .map(|(i, b)| Branch { k: b.k ^ (i as u32 & 1), ..b.clone() })
            .collect();
        let later_path = record_into(&mut arena, &later, &later_seed, replay);
        let later_fn = |idx: u32| later_seed[idx as usize];
        let answers =
            sliced_answers(&mut solver, &arena, (&later_path, executed), &later_fn, &flips);
        assert_matches_reference(&arena, &later_path, &later_fn, budget, &answers)?;
    }
}

fn flip_all(
    arena: &ExprArena,
    path: &[BranchRec],
    seed: &dyn Fn(u32) -> u8,
    budget: SolverBudget,
) -> (Vec<SolveResult>, Vec<SolveResult>) {
    let mut solver = PathSolver::with_budget(budget);
    let sliced = sliced_answers(&mut solver, arena, (path, 0), seed, &[])
        .into_iter()
        .flatten()
        .collect();
    let mut reference = Solver::with_budget(budget);
    let whole = (0..path.len())
        .map(|i| reference.solve(arena, &negation_query(path, i), seed))
        .collect();
    (sliced, whole)
}

#[test]
fn default_true_oracle_without_overlay_stays_in_the_model() {
    // Both handler twins guard a branch with `oracle_bool(true)`. With no
    // overlay entry the seed function reads 0 for the oracle pseudo-byte,
    // yet the path took the `true` direction: the oracle's component is
    // untouched by the byte flip below, and its model (1, not the seed's
    // 0) must still reach the child.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![7, 9]));
    let preferred = ctx.oracle_bool(true);
    assert!(ctx.branch(SiteId(1), preferred));
    let b = ctx.read_u8(0);
    let is_seven = ctx.eq_const(b, 7);
    assert!(ctx.branch(SiteId(2), is_seven));
    let bytes = [7u8, 9];
    let seed = |idx: u32| bytes.get(idx as usize).copied().unwrap_or(0);

    let (sliced, whole) = flip_all(ctx.arena(), ctx.path(), &seed, SolverBudget::default());
    assert_eq!(sliced, whole);
    let SolveResult::Sat(model) = &sliced[1] else {
        panic!("flipping the byte check is satisfiable: {:?}", sliced[1]);
    };
    assert_eq!(model.get(&2), Some(&1), "oracle pseudo-byte 2 keeps `true`");
    assert_ne!(model.get(&0), Some(&7));
}

/// The last branch of `ctx`'s path flipped, by both solvers: the answer
/// (asserted equal) and the steps the reference and the path solver spent.
fn last_flip(ctx: &ConcolicCtx) -> (SolveResult, u64, u64) {
    let bytes = &ctx.input().bytes;
    let seed = |idx: u32| bytes.get(idx as usize).copied().unwrap_or(0);
    let last = ctx.path().len() - 1;
    let mut reference = Solver::new();
    let expected = reference.solve(ctx.arena(), &negation_query(ctx.path(), last), &seed);

    let mut solver = PathSolver::default();
    let mut flips = vec![false; last];
    flips.push(true);
    let executed = (ctx.path(), bytes.len() as u32);
    let answers = sliced_answers(&mut solver, ctx.arena(), executed, &seed, &flips);
    assert_eq!(answers[last].as_ref(), Some(&expected));
    (expected, reference.stats.steps, solver.stats.steps)
}

#[test]
fn word_equality_flip_costs_two_steps_a_byte() {
    // A next-hop check as the BGP twin records it: `nh != 0` taken, then
    // `nh != 0xFFFF_FFFF` taken; flipping the second asks for the one
    // address whose every byte is 255 — the last value of each byte in the
    // search's order. The reference walks there value by value, each wrong
    // one refuted on the spot; the path solver reads, at the first
    // refutation, the one value the equality leaves the byte.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![10, 0, 0, 1]));
    let nh = ctx.read_u32_be(0);
    let zero = ctx.eq_const(nh, 0);
    let nonzero = ctx.bnot(zero);
    assert!(ctx.branch(SiteId(1), nonzero));
    let ones = ctx.eq_const(nh, 0xFFFF_FFFF);
    let not_broadcast = ctx.bnot(ones);
    assert!(ctx.branch(SiteId(2), not_broadcast));

    let (model, reference, narrowed) = last_flip(&ctx);
    assert_eq!(model, SolveResult::Sat((0..4).map(|i| (i, 255)).collect()));
    assert_eq!(reference, 1024, "four bytes, 256 values each");
    assert!(
        narrowed <= 8,
        "the seed value, then 255 — per byte: {narrowed}"
    );
}

#[test]
fn length_bound_flip_costs_three_steps() {
    // `alen <= 300` as `ALEN_FITS` records it; the flip wants 301, which
    // the reference reaches through every smaller low byte. An interval is
    // nothing a single bit expresses: this is the shape the bit probe the
    // narrowing replaced could not shorten.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![1, 7]));
    let alen = ctx.read_u16_be(0);
    let fits = ctx.ule_const(alen, 300);
    assert!(ctx.branch(SiteId(1), fits));

    let (model, reference, narrowed) = last_flip(&ctx);
    assert_eq!(model, SolveResult::Sat([(0, 1), (1, 45)].into()));
    assert_eq!(
        reference,
        1 + 1 + 45,
        "high byte, seed, 0..=45 but the seed"
    );
    assert!(narrowed <= 3, "high byte, seed, 45: {narrowed}");
}

#[test]
fn loop_check_flip_costs_a_step_a_byte_and_two() {
    // `LOOP_CHECK` over a three-AS path: `false || as1 == own || as2 == own
    // || as3 == own`, not taken. The flip holds as soon as the *last* AS is
    // ours — the earlier ones keep their seed values, which decides their
    // arms against, and the one arm left pins its low byte.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![
        0xFD, 0xE9, 0xFD, 0xEA, 0xFD, 0xEB,
    ]));
    let mut has_own = SymBool::concrete(false);
    for at in [0, 2, 4] {
        let asn = ctx.read_u16_be(at);
        let eq = ctx.eq_const(asn, 0xFDF2);
        has_own = ctx.bor(has_own, eq);
    }
    assert!(!ctx.branch(SiteId(70), has_own));

    let (model, reference, narrowed) = last_flip(&ctx);
    let expected = [0xFD, 0xE9, 0xFD, 0xEA, 0xFD, 0xF2];
    assert_eq!(model, SolveResult::Sat((0..6).zip(expected).collect()));
    assert_eq!(
        reference,
        6 + 0xF2,
        "six seed values, then 0..=0xF2 but the seed"
    );
    assert!(narrowed <= 7, "six seed values, then 0xF2: {narrowed}");
}

#[test]
fn topic_exclusion_flip_costs_three_steps() {
    // The gossip twin's subscription check: `false || topic == 0 || … ||
    // topic == 15`, taken; the flip wants a topic outside all sixteen. Each
    // arm removes its one value once the high byte is known and equal.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![0, 3]));
    let topic = ctx.read_u16_be(0);
    let mut subscribed = SymBool::concrete(false);
    for t in 0..16 {
        let eq = ctx.eq_const(topic, t);
        subscribed = ctx.bor(subscribed, eq);
    }
    assert!(ctx.branch(SiteId(1), subscribed));

    let (model, reference, narrowed) = last_flip(&ctx);
    assert_eq!(model, SolveResult::Sat([(0, 0), (1, 16)].into()));
    assert_eq!(
        reference,
        1 + 1 + 16,
        "high byte, seed, 0..=16 but the seed"
    );
    assert!(narrowed <= 3, "high byte, seed, 16: {narrowed}");
}

#[test]
fn failing_constant_constraint_refutes_every_later_flip() {
    // `3 == 4` recorded as taken: nothing after it can be satisfied.
    let mut arena = ExprArena::new();
    let x = arena.input(0);
    let k = arena.constant(8, 5);
    let first = arena.cmp(CmpOp::Ult, x, k);
    let three = arena.constant(8, 3);
    let four = arena.constant(8, 4);
    let never = arena.cmp(CmpOp::Eq, three, four);
    let y = arena.input(1);
    let last = arena.cmp(CmpOp::Eq, y, k);
    let rec = |site, constraint, taken| BranchRec {
        site: SiteId(site),
        constraint,
        taken,
    };
    let path = [
        rec(1, first, true),
        rec(2, never, true),
        rec(3, last, false),
    ];
    let (sliced, whole) = flip_all(&arena, &path, &|_| 0, SolverBudget::default());
    assert_eq!(sliced, whole);
    assert!(matches!(sliced[0], SolveResult::Sat(_)));
    // Flipping the constant itself is satisfiable (3 != 4 holds)...
    assert!(matches!(sliced[1], SolveResult::Sat(_)));
    // ...but every flip that keeps it as taken is refuted.
    assert_eq!(sliced[2], SolveResult::Unsat);
}

#[test]
fn flip_bridging_two_components_solves_them_together() {
    // Prefix: in[0] >= 200 and in[1] < 10, two separate components, plus a
    // bystander in[2] == 3. The flipped constraint in[0] == in[1] spans
    // the first two; its negation (they differ) holds under the seed, the
    // flip itself (they are equal) is refuted by the two ranges.
    let mut arena = ExprArena::new();
    let (x, y, z) = (arena.input(0), arena.input(1), arena.input(2));
    let k200 = arena.constant(8, 200);
    let k10 = arena.constant(8, 10);
    let k3 = arena.constant(8, 3);
    let big = arena.cmp(CmpOp::Ule, k200, x);
    let small = arena.cmp(CmpOp::Ult, y, k10);
    let three = arena.cmp(CmpOp::Eq, z, k3);
    let equal = arena.cmp(CmpOp::Eq, x, y);
    let sum = arena.bin(BinOp::Add, 8, x, y);
    let wraps = arena.cmp(CmpOp::Ult, sum, k10);
    let rec = |site, constraint, taken| BranchRec {
        site: SiteId(site),
        constraint,
        taken,
    };
    let seed_bytes = [250u8, 4, 3];
    let seed = |idx: u32| seed_bytes[idx as usize];
    // 250 + 4 wraps to 254: `wraps` is not taken; flipping it needs a pair
    // from the two ranges that does wrap below 10 (e.g. 250 + 6 = 0).
    let path = [
        rec(1, big, true),
        rec(2, small, true),
        rec(3, three, true),
        rec(4, equal, false),
        rec(5, wraps, false),
    ];
    let (sliced, whole) = flip_all(&arena, &path, &seed, SolverBudget::default());
    assert_eq!(sliced, whole);
    assert_eq!(sliced[3], SolveResult::Unsat, "200.. and ..10 never meet");
    let SolveResult::Sat(model) = &sliced[4] else {
        panic!("a wrapping pair exists: {:?}", sliced[4]);
    };
    let (a, b) = (model[&0], model[&1]);
    assert!(a >= 200 && b < 10 && a != b && a.wrapping_add(b) < 10);
    assert_eq!(model[&2], 3, "the bystander keeps its value");
}

#[test]
fn step_budget_bounds_the_sliced_search_not_the_prefix() {
    // Documented difference: `max_steps` bounds each component search. The
    // reference walks the whole prefix — here twelve pinned bytes it has
    // to step over before it reaches the two-byte relation that needs a
    // real search — and gives up; the sliced search spends its steps on
    // the relation alone and answers. (`concolic.solve.unknown` is 0 on
    // every benchmark workload, so no pinned report depends on this.)
    let mut arena = ExprArena::new();
    let mut path = Vec::new();
    for i in 0..12u32 {
        let x = arena.input(i);
        let k = arena.constant(8, i as u64);
        let c = arena.cmp(CmpOp::Eq, x, k);
        path.push(BranchRec {
            site: SiteId(i),
            constraint: c,
            taken: true,
        });
    }
    let (p, q) = (arena.input(12), arena.input(13));
    let sum = arena.bin(BinOp::Add, 8, p, q);
    let k = arena.constant(8, 40);
    let hit = arena.cmp(CmpOp::Eq, sum, k);
    path.push(BranchRec {
        site: SiteId(99),
        constraint: hit,
        taken: false,
    });
    let seed = |idx: u32| if idx < 12 { idx as u8 } else { 0 };
    let budget = SolverBudget { max_steps: 45 };

    let (sliced, whole) = flip_all(&arena, &path, &seed, budget);
    assert_eq!(whole[12], SolveResult::Unknown, "12 pinned + 41 tried > 45");
    let expected: BTreeMap<u32, u8> = (0..12u32)
        .map(|i| (i, i as u8))
        .chain([(12, 0), (13, 40)])
        .collect();
    assert_eq!(sliced[12], SolveResult::Sat(expected));
    // With room for the prefix the reference finds the same model.
    let (_, roomy) = flip_all(&arena, &path, &seed, SolverBudget { max_steps: 60 });
    assert_eq!(roomy[12], sliced[12]);
    // And where the reference does answer under the tiny budget, the
    // answers agree.
    for (s, w) in sliced.iter().zip(&whole) {
        if *w != SolveResult::Unknown {
            assert_eq!(s, w);
        }
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "arena shrank")]
fn a_solver_refuses_an_arena_that_shrank() {
    // The memos outlive a path, and an exploration state keeps them across
    // sessions: their ids must keep naming the nodes they were taken from.
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![1, 2]));
    let (a, b) = (ctx.read_u8(0), ctx.read_u8(1));
    let lt = ctx.cmp(CmpOp::Ult, a, b);
    ctx.branch(SiteId(1), lt);
    let seed = |idx: u32| [1u8, 2][idx as usize];
    let mut solver = PathSolver::default();
    sliced_answers(&mut solver, ctx.arena(), (ctx.path(), 2), &seed, &[]);
    sliced_answers(&mut solver, &ExprArena::new(), (&[], 0), &seed, &[]);
}
