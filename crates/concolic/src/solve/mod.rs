//! A byte-domain constraint solver for path conditions.
//!
//! Inputs are bytes, so every variable ranges over `0..=255`. That small
//! domain lets us combine two complete techniques:
//!
//! 1. **Unary filtering** — a constraint touching exactly one variable is
//!    solved *exactly* by evaluating all 256 values; intersecting these sets
//!    per variable prunes most of the space (BGP parsers branch mostly on
//!    single bytes: flags, type codes, lengths).
//! 2. **Bounded backtracking** — remaining multi-variable constraints (e.g.
//!    16-bit length fields spanning two bytes) are settled by depth-first
//!    search over the filtered candidate sets, with a step budget.
//!
//! Every SAT answer returns a model that is re-checkable with
//! [`Solver::check`]; the test suite verifies soundness on random systems.
//!
//! [`Solver::solve`] answers one system from scratch and is the reference.
//! The exploration loop asks a different question — *every* negation query
//! of one executed path — and [`PathSolver`] answers those in one forward
//! pass: the as-taken prefix is kept partitioned into variable-connected
//! components, a flip re-solves only the component(s) its negated
//! constraint touches, and every other component contributes its cached
//! model. The answers are the reference's, model for model (see
//! [`PathSolver`] for the argument).
//!
//! Module map: `byteset` (the 256-bit candidate set), `reference`
//! ([`Solver`] and [`negation_query`] — the oracle the differential tests
//! compare against), `memo` ([`UnaryMemo`]), `path` ([`PathSolver`] /
//! [`PathPass`]) and `search` (the component search `path` runs).

use crate::expr::{ExprArena, ExprId};
use std::collections::BTreeMap;

mod byteset;
mod memo;
mod path;
mod reference;
mod search;

pub use byteset::ByteSet;
pub use memo::UnaryMemo;
pub use path::{PathPass, PathSolver};
pub use reference::{negation_query, Solver};

/// The verdict of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the model assigns every variable that appears in the
    /// constraint system.
    Sat(BTreeMap<u32, u8>),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer.
    Unknown,
}

/// Tuning knobs.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SolverBudget {
    /// Maximum backtracking steps (assignments attempted).
    pub max_steps: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget { max_steps: 500_000 }
    }
}

/// Cumulative statistics across solver invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// solve() calls.
    pub queries: u64,
    /// SAT answers.
    pub sat: u64,
    /// UNSAT answers.
    pub unsat: u64,
    /// Unknown answers (budget exhausted).
    pub unknown: u64,
    /// Total backtracking steps: candidate values *tried*. Values the
    /// [`PathSolver`] search skips because its constraints leave them no
    /// satisfying completion are not steps, so against `max_steps` its
    /// narrowing can only turn an `Unknown` into an answer.
    pub steps: u64,
    /// Backtracking searches run (`dfs` roots): one per query with
    /// multi-variable constraints for [`Solver`], one per component system
    /// (a flip's, or a cached model brought up to date) for [`PathSolver`].
    pub searches: u64,
    /// Always 0: the cross-seed refutation cache that counted here is
    /// gone (its counter read 0 on every committed workload). The engine
    /// never reads it; the field stays only while `benchmark/`
    /// (`pipeline.rs`, `traced.rs`) does.
    pub cache_hits: u64,
    /// Branch flips skipped before query construction because the target
    /// (site, direction) was already covered.
    pub covered_skips: u64,
    /// Per-constraint [`UnaryMemo`] hits inside [`PathSolver`]: variable
    /// lists and unary-filter byte sets reused instead of recomputed. A
    /// path looks each of its constraints up once, so this grows with
    /// executed path length, not with `queries`.
    pub unary_memo_hits: u64,
    /// Per-constraint [`UnaryMemo`] misses: constraints swept for their
    /// variables and unary set. A warm memo turns them into hits; the sum
    /// of the two is the constraints the session's paths recorded.
    pub unary_memo_misses: u64,
}

/// A constraint: an expression that must evaluate truthy (`true`) or falsy
/// (`false`).
pub type Constraint = (ExprId, bool);

/// The verdict of one [`PathPass::flip`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flip {
    /// Satisfiable; the model was written to the caller's buffer.
    Sat,
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer.
    Unknown,
}

/// "No slot / no list node" in the dense tables below.
const NONE: u32 = u32::MAX;

/// Whether zero-variable `e` evaluates to `want`.
fn holds(arena: &ExprArena, e: ExprId, want: bool) -> bool {
    arena.eval(e, &|_| None).is_some_and(|v| (v != 0) == want)
}

/// The seed value when admissible, else the smallest admissible one
/// (callers have ruled the empty set out; it falls back to the seed).
fn pick(set: &ByteSet, seed: u8) -> u8 {
    if set.contains(seed) {
        seed
    } else {
        set.first().unwrap_or(seed)
    }
}
