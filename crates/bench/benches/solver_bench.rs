//! T4c micro-bench: solver cost on the constraint shapes the BGP handler
//! actually produces (single-byte dispatch, 16-bit length bounds,
//! multi-byte prefix masks), plus the budget ablation from DESIGN.md §6.4,
//! plus `path_flips`: every negation query of one real handler-twin path,
//! answered from scratch per flip (the reference) and in one `PathSolver`
//! pass (what `explore` runs); `word_flip`: one flip over a 16- / 32-bit
//! word — an exact value, a bound, an OR of equalities either way — with
//! the search steps each solver spends on it;
//! and `unary_sweep`: the 256-value truth table of the twin path's
//! single-byte constraints, by 256 recursive walks and in one lane pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dice_bench::wire_workload::{bgp_update, gossip_digest};
use dice_bgp::{Asn, BgpRouter, RouterConfig, RouterId};
use dice_concolic::{
    negation_query, BinOp, CmpOp, ConcolicCtx, ConcolicProgram, Constraint, ExprArena, ExprId,
    LaneScratch, PathSolver, SiteId, Solver, SolverBudget, SymBool, SymInput,
};
use dice_core::gossip_sut::mark_gossip;
use dice_core::{mark_update, DomainProgram};
use dice_gossip::{GossipConfig, GossipNode};
use dice_netsim::NodeId;
use std::hint::black_box;

fn byte_eq_system(a: &mut ExprArena) -> Vec<Constraint> {
    // Typical dispatch chain: in[0] != 1..7, in[0] == 0xF5.
    let x = a.input(0);
    let mut cons = Vec::new();
    for k in 1..=7u64 {
        let c = a.constant(8, k);
        let e = a.cmp(CmpOp::Eq, x, c);
        cons.push((e, false));
    }
    let target = a.constant(8, 0xF5);
    let e = a.cmp(CmpOp::Eq, x, target);
    cons.push((e, true));
    cons
}

fn u16_bound_system(a: &mut ExprArena) -> Vec<Constraint> {
    // The seeded-bug shape: (in[0]<<8|in[1]) >= 0x0F00 within a block bound.
    let hi = a.input(0);
    let lo = a.input(1);
    let hi16 = a.zext(16, hi);
    let lo16 = a.zext(16, lo);
    let k8 = a.constant(16, 8);
    let sh = a.bin(BinOp::Shl, 16, hi16, k8);
    let word = a.bin(BinOp::Or, 16, sh, lo16);
    let low = a.constant(16, 0x0F00);
    let high = a.constant(16, 0x0FF0);
    let c1 = a.cmp(CmpOp::Ult, word, low);
    let c2 = a.cmp(CmpOp::Ule, word, high);
    vec![(c1, false), (c2, true)]
}

fn prefix_mask_system(a: &mut ExprArena) -> Vec<Constraint> {
    // NLRI policy shape: (addr & 0xFF000000) == 0x0A000000, len in [8,24].
    let mut addr = a.constant(32, 0);
    for k in 0..4u32 {
        let byte = a.input(k);
        let w = a.zext(32, byte);
        let sh = a.constant(32, (24 - 8 * k) as u64);
        let shifted = a.bin(BinOp::Shl, 32, w, sh);
        addr = a.bin(BinOp::Or, 32, addr, shifted);
    }
    let mask = a.constant(32, 0xFF00_0000);
    let masked = a.bin(BinOp::And, 32, addr, mask);
    let want = a.constant(32, 0x0A00_0000);
    let c1 = a.cmp(CmpOp::Eq, masked, want);
    let len = a.input(4);
    let lo = a.constant(8, 8);
    let hi = a.constant(8, 24);
    let c2 = a.cmp(CmpOp::Ule, lo, len);
    let c3 = a.cmp(CmpOp::Ule, len, hi);
    vec![(c1, true), (c2, true), (c3, true)]
}

type ShapeBuilder = fn(&mut ExprArena) -> Vec<Constraint>;

fn bench_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_shapes");
    let shapes: Vec<(&str, ShapeBuilder)> = vec![
        ("byte_dispatch", byte_eq_system),
        ("u16_length_bound", u16_bound_system),
        ("prefix_mask", prefix_mask_system),
    ];
    for (name, build) in shapes {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut arena = ExprArena::new();
                let cons = build(&mut arena);
                let mut solver = Solver::new();
                black_box(solver.solve(&arena, &cons, &|_| 0))
            });
        });
    }
    group.finish();
}

fn bench_budget_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_budget");
    for budget in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let mut arena = ExprArena::new();
                    let cons = prefix_mask_system(&mut arena);
                    let mut solver = Solver::with_budget(SolverBudget { max_steps: budget });
                    black_box(solver.solve(&arena, &cons, &|_| 0))
                });
            },
        );
    }
    group.finish();
}

/// Run `bytes` through a handler twin once and keep the recorded context
/// (arena + path).
fn record(program: &mut dyn ConcolicProgram, bytes: &[u8], mask: Vec<bool>) -> ConcolicCtx {
    let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.to_vec(), mask));
    black_box(program.run(&mut ctx));
    ctx
}

/// The transit-grade UPDATE of `wire_workload` through the twin that
/// parses it: the neighbor is the UPDATE's first AS so the path runs the
/// full attribute and NLRI loops.
fn update_path() -> ConcolicCtx {
    let update = dice_bgp::wire::encode(&bgp_update());
    let router = RouterConfig::minimal(Asn(65000), RouterId(1)).with_neighbor(
        NodeId(2),
        Asn(65001),
        "all",
        "all",
    );
    record(
        &mut DomainProgram(BgpRouter::new(router).update_twin(NodeId(2)).unwrap()),
        &update,
        mark_update(&update),
    )
}

fn bench_path_flips(c: &mut Criterion) {
    // The UPDATE and the 32-entry digest of `wire_workload`, each through
    // the twin that parses it.
    let digest = dice_gossip::wire::encode(&gossip_digest());
    let paths = [
        ("bgp_update", update_path()),
        (
            "gossip_digest",
            record(
                &mut DomainProgram(GossipNode::new(GossipConfig::new(7).subscribe(3)).frame_twin()),
                &digest,
                mark_gossip(&digest),
            ),
        ),
    ];

    let mut group = c.benchmark_group("path_flips");
    for (name, ctx) in &paths {
        let (arena, path) = (ctx.arena(), ctx.path());
        let bytes = &ctx.input().bytes;
        let seed = |idx: u32| bytes.get(idx as usize).copied().unwrap_or(0);
        eprintln!("path_flips/{name}: {} branches", path.len());

        group.bench_function(format!("{name}/solve_per_flip"), |b| {
            b.iter(|| {
                let mut solver = Solver::new();
                for i in 0..path.len() {
                    black_box(solver.solve(arena, &negation_query(path, i), &seed));
                }
                solver.stats
            });
        });

        // As in `explore`: the solver (and its cross-path memo) outlives
        // the path.
        let mut solver = PathSolver::default();
        let mut model = Vec::new();
        group.bench_function(format!("{name}/path_solver"), |b| {
            b.iter(|| {
                let mut pass = solver.begin(arena, path, &seed, bytes.len() as u32);
                for _ in 0..path.len() {
                    black_box(pass.flip(&mut model));
                    pass.advance();
                }
            });
        });
    }
    group.finish();
}

/// Record `not (word == k)` for each `k` as taken over `bytes` read as one
/// big-endian word: flipping the last branch asks for exactly that word.
fn word_path(bytes: &[u8], differs_from: &[u64]) -> ConcolicCtx {
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(bytes.to_vec()));
    let word = match bytes.len() {
        2 => ctx.read_u16_be(0),
        _ => ctx.read_u32_be(0),
    };
    for (site, &k) in differs_from.iter().enumerate() {
        let hit = ctx.eq_const(word, k);
        let miss = ctx.bnot(hit);
        assert!(ctx.branch(SiteId(site as u32), miss));
    }
    ctx
}

/// Record `false || word(at) == k || …` over big-endian u16s of `bytes`,
/// in the direction `bytes` takes: the twins' membership checks.
fn any_eq_path(bytes: &[u8], words_at: &[usize], ks: &[u64]) -> ConcolicCtx {
    let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(bytes.to_vec()));
    let mut any = SymBool::concrete(false);
    for &at in words_at {
        let word = ctx.read_u16_be(at);
        for &k in ks {
            let eq = ctx.eq_const(word, k);
            any = ctx.bor(any, eq);
        }
    }
    ctx.branch(SiteId(0), any);
    ctx
}

fn bench_word_flips(c: &mut Criterion) {
    // The shapes the reference walks value by value. A length or an
    // address compared for equality admits one value per byte; the
    // broadcast case is the BGP twin's next-hop check (`nh != 0`, then
    // `nh != 0xFFFF_FFFF`), whose flip wants the last value of every byte.
    // `u16_gt` flips a length bound (`alen <= 300`), `or_eq_3` the loop
    // check over a three-AS path (one AS must become ours), `not_in_16`
    // the gossip twin's subscription check (a topic outside all sixteen).
    let mut alen = ConcolicCtx::new(SymInput::all_symbolic(vec![1, 7]));
    let word = alen.read_u16_be(0);
    let fits = alen.ule_const(word, 300);
    assert!(alen.branch(SiteId(0), fits));
    let as_path = [0xFD, 0xE9, 0xFD, 0xEA, 0xFD, 0xEB];
    let topics: Vec<u64> = (0..16).collect();
    let cases = [
        ("u16_eq", word_path(&[0x00, 0x13], &[0xC8E5])),
        ("u32_eq", word_path(&[10, 0, 0, 1], &[0xC0A8_64FE])),
        ("u32_ne_bcast", word_path(&[10, 0, 0, 1], &[0, 0xFFFF_FFFF])),
        ("u16_gt", alen),
        ("or_eq_3", any_eq_path(&as_path, &[0, 2, 4], &[0xFDF2])),
        ("not_in_16", any_eq_path(&[0, 3], &[0], &topics)),
    ];
    let mut group = c.benchmark_group("word_flip");
    for (name, ctx) in &cases {
        let (arena, path) = (ctx.arena(), ctx.path());
        let bytes = &ctx.input().bytes;
        let seed = |idx: u32| bytes.get(idx as usize).copied().unwrap_or(0);
        let last = path.len() - 1;

        let reference =
            |solver: &mut Solver| solver.solve(arena, &negation_query(path, last), &seed);
        let mut model = Vec::new();
        let mut sliced = |solver: &mut PathSolver| {
            let mut pass = solver.begin(arena, path, &seed, bytes.len() as u32);
            for _ in 0..last {
                pass.advance();
            }
            pass.flip(&mut model)
        };
        let (mut whole, mut one_pass) = (Solver::new(), PathSolver::default());
        black_box((reference(&mut whole), sliced(&mut one_pass)));
        println!(
            "word_flip/{name} steps_per_flip reference {} path_solver {}",
            whole.stats.steps, one_pass.stats.steps
        );

        group.bench_function(format!("{name}/reference"), |b| {
            b.iter(|| black_box(reference(&mut whole)));
        });
        group.bench_function(format!("{name}/path_solver"), |b| {
            b.iter(|| black_box(sliced(&mut one_pass)));
        });
    }
    group.finish();
}

fn bench_unary_sweep(c: &mut Criterion) {
    // What a `UnaryMemo` miss computes, over every single-byte constraint
    // of the UPDATE's twin path.
    let ctx = update_path();
    let arena = ctx.arena();
    let mut unary: Vec<ExprId> = ctx
        .path()
        .iter()
        .map(|rec| rec.constraint)
        .filter(|&e| arena.vars(e).len() == 1)
        .collect();
    unary.sort_unstable();
    unary.dedup();
    eprintln!("unary_sweep: {} distinct constraints", unary.len());

    let mut group = c.benchmark_group("unary_sweep");
    group.bench_function("recursive_256", |b| {
        b.iter(|| {
            let mut truthy = 0u32;
            for &e in &unary {
                let v = arena.vars(e)[0];
                for byte in 0..=u8::MAX {
                    let lookup = |idx: u32| (idx == v).then_some(byte as u64);
                    truthy += arena.eval(e, &lookup).is_some_and(|r| r != 0) as u32;
                }
            }
            truthy
        });
    });
    let mut scratch = LaneScratch::default();
    group.bench_function("one_pass", |b| {
        b.iter(|| {
            let mut truthy = 0u32;
            for &e in &unary {
                let (_, lanes) = arena.sweep(e, &mut scratch);
                let lanes = lanes.expect("a single-byte constraint is swept");
                truthy += lanes.iter().filter(|&&lane| lane != 0).count() as u32;
            }
            truthy
        });
    });
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
    targets = bench_shapes, bench_budget_ablation, bench_path_flips, bench_word_flips,
        bench_unary_sweep
}
criterion_main!(benches);
