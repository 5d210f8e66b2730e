//! Session-order differential: one [`ExploreState`] reused across
//! exploration sessions in an arbitrary order — the real BGP and gossip
//! twins of `dice_bench::twin_cases` and the toy programs of the
//! `explore` tests, generational and DFS — gives each session the report
//! a fresh state gives, field for field: the executed inputs and oracle
//! overlays, statuses, path signatures and lengths, new coverage, the
//! coverage timeline and ledger, distinct paths, crash indices, and the
//! solver's queries, verdicts, steps, searches and covered skips. A warm
//! state's arena and memos hold nodes the current session never built,
//! under ids a fresh arena would give to other nodes, so this is the net
//! for anything in a session that reads an [`ExprId`](dice_concolic::ExprId)
//! as more than a name.
//!
//! Break-it-once (each applied in a copy and reverted): an `explore` that
//! starts every session on a fresh arena but keeps the warm solver (its
//! memos then answer for ids that name other nodes) goes red here — in
//! debug builds at `PathSolver::begin`'s shrink assertion, in release at
//! the repeated session that interns its nodes again; so does reporting
//! the solver's counters summed over the state's sessions instead of per
//! session, and an `Eval3Memo::next` that keeps the stamp (values then
//! outlive their assignment, and their session). Skipping the stamp bump
//! in `Search::know` leaves this test green — fresh and warm sessions
//! read the same stale values — and turns `tests/path_solver.rs` and
//! `tests/session_arena.rs` red.
//!
//! A session that unwinds out of a run takes the state's arena with it
//! (the run's context holds it); `ExploreState::explore` then starts the
//! next session on a fresh solver too. Dropping that reset turns
//! `a_state_that_unwound_explores_as_a_fresh_one` red: in debug builds at
//! the shrink assertion, in release at a report that differs.

#[path = "../src/explore/toys.rs"]
#[allow(
    dead_code,
    reason = "the toy module's helpers serve the lib's tests too"
)]
mod toys;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

// What `toys` names at the crate root.
use dice_concolic::{CmpOp, ConcolicCtx, RunStatus, SiteId};

use dice_concolic::{ConcolicProgram, ExplorationReport, ExploreConfig, ExploreState, Strategy};
use proptest::prelude::*;

/// A session to explore: a program, its marker and seeds, and a budget.
struct Case {
    name: &'static str,
    program: Box<dyn ConcolicProgram>,
    marker: fn(&[u8]) -> Vec<bool>,
    seeds: Vec<Vec<u8>>,
    max_executions: usize,
}

/// The twins (one real message each), then the toys.
fn cases() -> Vec<Case> {
    let twins = dice_bench::twin_cases()
        .into_iter()
        .map(|(name, program, bytes, marker)| Case {
            name,
            program,
            marker,
            seeds: vec![bytes],
            max_executions: 64,
        });
    let toys = toys::all()
        .into_iter()
        .map(|(name, program, marker, seeds)| Case {
            name,
            program: Box::new(program),
            marker,
            seeds,
            max_executions: 32,
        });
    twins.chain(toys).collect()
}

/// An execution: input, oracle overlay, status, path signature and
/// length, new coverage.
type Execution = (Vec<u8>, BTreeMap<u32, u8>, RunStatus, u64, usize, usize);

/// Everything a session reports except the warmth counters.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    executions: Vec<Execution>,
    coverage_timeline: Vec<usize>,
    coverage: Vec<(u32, bool)>,
    distinct_paths: usize,
    crashes: Vec<usize>,
    /// queries, sat, unsat, unknown, steps, searches, covered skips.
    solver: [u64; 7],
}

impl From<&ExplorationReport> for Outcome {
    fn from(r: &ExplorationReport) -> Self {
        let s = &r.solver;
        Outcome {
            executions: r
                .executions
                .iter()
                .map(|e| {
                    let (input, oracles) = (e.input.clone(), e.oracles.clone());
                    (
                        input,
                        oracles,
                        e.status.clone(),
                        e.path_sig,
                        e.path_len,
                        e.new_coverage,
                    )
                })
                .collect(),
            coverage_timeline: r.coverage_timeline.clone(),
            coverage: r.coverage.sites().collect(),
            distinct_paths: r.distinct_paths,
            crashes: r.crashes.clone(),
            solver: [
                s.queries,
                s.sat,
                s.unsat,
                s.unknown,
                s.steps,
                s.searches,
                s.covered_skips,
            ],
        }
    }
}

fn config(case: &Case, dfs: bool) -> ExploreConfig {
    ExploreConfig {
        strategy: if dfs {
            Strategy::Dfs
        } else {
            Strategy::Generational
        },
        max_executions: case.max_executions,
        ..Default::default()
    }
}

fn session(state: &mut ExploreState, case: &mut Case, dfs: bool) -> ExplorationReport {
    let cfg = config(case, dfs);
    state.explore(case.program.as_mut(), &case.seeds, &case.marker, &cfg)
}

/// What a fresh state reports for each case, generational then DFS.
fn fresh() -> &'static [[Outcome; 2]] {
    static FRESH: OnceLock<Vec<[Outcome; 2]>> = OnceLock::new();
    FRESH.get_or_init(|| {
        cases()
            .iter_mut()
            .map(|case| {
                [false, true].map(|dfs| (&session(&mut ExploreState::new(), case, dfs)).into())
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn a_reused_state_explores_as_a_fresh_one(
        order in prop::collection::vec((any::<usize>(), any::<bool>()), 1..24),
    ) {
        let fresh = fresh();
        let mut cases = cases();
        let mut state = ExploreState::new();
        let mut explored = vec![[false; 2]; cases.len()];
        for (at, dfs) in order {
            let i = at % cases.len();
            let case = &mut cases[i];
            let report = session(&mut state, case, dfs);
            let outcome = Outcome::from(&report);
            prop_assert_eq!(&outcome, &fresh[i][dfs as usize], "{} dfs={}", case.name, dfs);
            // The state is warm, not silently fresh: a session it has run
            // before finds every node and every memo entry it needs.
            let again = std::mem::replace(&mut explored[i][dfs as usize], true);
            if again {
                prop_assert_eq!(report.nodes_interned, 0, "{} dfs={}", case.name, dfs);
                prop_assert_eq!(report.solver.unary_memo_misses, 0, "{} dfs={}", case.name, dfs);
            }
        }
    }
}

/// A state warmed on every case, then left by a session that panicked in
/// its fifth run, explores every case as a fresh state does. It is warmed
/// in the reverse order, so that an id its memos hold names another node
/// than the same id in a restarted arena.
#[test]
fn a_state_that_unwound_explores_as_a_fresh_one() {
    let fresh = fresh();
    let mut cases = cases();
    let mut state = ExploreState::new();
    for case in cases.iter_mut().rev() {
        session(&mut state, case, false);
    }
    let mut runs = 0;
    let mut panics = |ctx: &mut ConcolicCtx| {
        runs += 1;
        assert!(runs < 5, "the fifth run panics");
        toys::toy_program(ctx)
    };
    let seeds = [vec![0, 0, 0]];
    let cfg = ExploreConfig::default();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        state.explore(&mut panics, &seeds, &toys::all_symbolic, &cfg)
    }));
    assert!(unwound.is_err(), "the session did not unwind");
    for (i, case) in cases.iter_mut().enumerate() {
        let outcome = Outcome::from(&session(&mut state, case, false));
        assert_eq!(outcome, fresh[i][0], "{}", case.name);
    }
}
