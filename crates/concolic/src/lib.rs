//! # dice-concolic — an Oasis-like concolic execution engine
//!
//! Concolic (CONCrete + symbOLIC) execution for instrumented Rust programs,
//! built from scratch as the exploration engine for DiCE (the paper uses the
//! Oasis engine; no mainstream Rust equivalent exists).
//!
//! The pieces:
//!
//! * [`expr`] — hash-consed expression DAG over symbolic input bytes with
//!   constant folding and an interpreter.
//! * [`ctx`] — the execution context: [`ctx::SymWord`] values carry a
//!   concrete value plus a symbolic shadow; [`ctx::ConcolicCtx::branch`]
//!   records the path condition while execution proceeds concretely.
//!   Oracle booleans let instrumentation mark *conditions* symbolic (the
//!   paper's route-preference treatment).
//! * [`solve`] — a byte-domain solver: exact unary filtering over the
//!   0..=255 domain plus bounded backtracking for multi-byte constraints;
//!   every SAT model is re-checkable.
//! * [`mod@explore`] — the exploration loop: DFS negation and SAGE-style
//!   generational search, branch-coverage accounting, and a random-mutation
//!   baseline.
//!
//! ## Example: steering through a magic-byte check
//!
//! ```
//! use dice_concolic::{explore, ConcolicCtx, ExploreConfig, RunStatus, SiteId};
//!
//! fn program(ctx: &mut ConcolicCtx) -> RunStatus {
//!     let b = ctx.read_u8(0);
//!     let cond = ctx.eq_const(b, 0xAB);
//!     if ctx.branch(SiteId(1), cond) {
//!         RunStatus::Crash("reached".into())
//!     } else {
//!         RunStatus::Ok
//!     }
//! }
//!
//! let report = explore(
//!     &mut program,
//!     &[vec![0u8]],                 // seed that misses the magic value
//!     &|bytes| vec![true; bytes.len()],
//!     &ExploreConfig::default(),
//! );
//! assert!(report.first_crash().is_some()); // solver produced 0xAB
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod explore;
pub mod expr;
pub mod solve;

pub use ctx::{BranchRec, ConcolicCtx, SiteId, SymBool, SymInput, SymWord};
pub use explore::{
    explore, random_fuzz, ConcolicProgram, Coverage, ExecutionRecord, ExplorationReport,
    ExploreConfig, ExploreState, RunStatus, Strategy,
};
pub use expr::{BinOp, BoolOp, CmpOp, Expr, ExprArena, ExprId, LaneScratch, Lanes, Ternary};
pub use solve::{
    negation_query, ByteSet, Constraint, Flip, PathPass, PathSolver, SolveResult, Solver,
    SolverBudget, SolverStats,
};
