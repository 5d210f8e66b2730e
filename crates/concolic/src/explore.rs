//! Path exploration strategies over a concolic program.
//!
//! Implements the Oasis-style loop: run an input, take its path condition,
//! negate branch constraints, solve, and enqueue the resulting inputs.
//! Two search orders are provided — plain **DFS negation** and SAGE-style
//! **generational search** scored by predicted new branch coverage — plus a
//! **random-mutation** baseline used by the paper-shape experiment
//! "concolic > grammar > random".
//!
//! A session runs on an [`ExploreState`]: the expression arena every
//! execution interns into, and the [`PathSolver`] whose memos are keyed by
//! that arena's ids. [`explore`] builds a fresh one per session; a caller
//! that explores over and over — a campaign worker, one state per sweep —
//! keeps one and calls [`ExploreState::explore`], and its later sessions
//! start warm. The arena is append-only and never restarted while the
//! solver that remembers its ids lives; a state's memory is bounded by
//! how long its owner keeps it.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet};

use serde::{Deserialize, Serialize};

use crate::ctx::{BranchRec, ConcolicCtx, SymInput};
use crate::expr::{ExprArena, MixBuild};
use crate::solve::{Flip, PathSolver, SolverBudget, SolverStats};

/// Outcome of one program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Input processed to completion.
    Ok,
    /// Input rejected by validation (with the stage that rejected it —
    /// a literal in every twin, so no run pays for a `String`).
    Rejected(Cow<'static, str>),
    /// Input crashed the program — a fault candidate.
    Crash(Cow<'static, str>),
}

/// A program under concolic test. Reads its input through the context.
pub trait ConcolicProgram {
    /// Execute once over `ctx`'s input, recording branches into `ctx`.
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus;
}

impl<F: FnMut(&mut ConcolicCtx) -> RunStatus> ConcolicProgram for F {
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        self(ctx)
    }
}

/// Branch-coverage ledger: which (site, direction) pairs have been seen.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    seen: BTreeSet<(u32, bool)>,
}

impl Coverage {
    /// Record a path; returns how many previously unseen (site, direction)
    /// pairs it contributed.
    pub fn add_path(&mut self, path: &[BranchRec]) -> usize {
        let mut new = 0;
        for b in path {
            if self.seen.insert((b.site.0, b.taken)) {
                new += 1;
            }
        }
        new
    }

    /// Whether a (site, direction) pair has been covered.
    pub fn covered(&self, site: u32, taken: bool) -> bool {
        self.seen.contains(&(site, taken))
    }

    /// Total covered (site, direction) pairs.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been covered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Iterate the covered (site, direction) pairs in ascending order.
    /// Lets callers (e.g. DiCE campaign aggregation) union coverage across
    /// independent exploration sessions.
    pub fn sites(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.seen.iter().copied()
    }

    /// Union another ledger into this one; returns how many previously
    /// unseen (site, direction) pairs `other` contributed.
    ///
    /// This is the thread-safe aggregation path for parallel round
    /// engines: each exploration session keeps a private ledger (no
    /// locking on the hot path) and hands it over as a `Coverage` in its
    /// report, and completed sessions fold into a campaign-level union off
    /// the critical path. `Coverage` is `Send + Sync`, so ledgers can move
    /// across or be read from worker threads freely.
    pub fn merge(&mut self, other: &Coverage) -> usize {
        let before = self.seen.len();
        self.seen.extend(other.seen.iter().copied());
        self.seen.len() - before
    }
}

// Parallel campaign engines move ledgers between worker threads and share
// final reports behind `Arc`; keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Coverage>();
    assert_send_sync::<ExplorationReport>();
};

/// Search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Negate deepest-first, LIFO worklist.
    Dfs,
    /// SAGE-style generational search with coverage-guided scoring.
    Generational,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Search order.
    pub strategy: Strategy,
    /// Stop after this many program executions.
    pub max_executions: usize,
    /// Per-query solver budget.
    pub solver_budget: SolverBudget,
    /// Retired and ignored: every negation query of an executed path is
    /// answered in one [`PathSolver`] pass, behind the cross-path
    /// [`UnaryMemo`](crate::solve::UnaryMemo). `false` used to select the
    /// from-scratch reference [`Solver::solve`](crate::Solver::solve), which gave the same
    /// answers by contract (so the field is ignored as `dice-core` ignores a
    /// persisted `pool_size`) and stays as the test oracle
    /// (`tests/session_arena.rs`, `tests/path_solver.rs`). The field stays
    /// only while `benchmark/src/pipeline.rs` sets it.
    pub solver_cache: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            strategy: Strategy::Generational,
            max_executions: 256,
            solver_budget: SolverBudget::default(),
            solver_cache: true,
        }
    }
}

/// One executed input and what happened.
#[derive(Debug, Clone)]
pub struct ExecutionRecord {
    /// The concrete input bytes.
    pub input: Vec<u8>,
    /// Oracle pseudo-byte overrides active for this run.
    pub oracles: BTreeMap<u32, u8>,
    /// Outcome.
    pub status: RunStatus,
    /// Number of recorded (symbolic) branches.
    pub path_len: usize,
    /// Path signature (distinct-path accounting).
    pub path_sig: u64,
    /// Previously unseen (site, direction) pairs this run covered.
    pub new_coverage: usize,
}

/// The result of an exploration session.
#[derive(Debug, Clone, Default)]
pub struct ExplorationReport {
    /// Every execution, in order.
    pub executions: Vec<ExecutionRecord>,
    /// Cumulative covered pairs after each execution (for coverage curves).
    pub coverage_timeline: Vec<usize>,
    /// Distinct path signatures observed.
    pub distinct_paths: usize,
    /// Indices (into `executions`) of crashing runs.
    pub crashes: Vec<usize>,
    /// Aggregate solver statistics.
    pub solver: SolverStats,
    /// The final branch-coverage ledger (set of covered (site, direction)
    /// pairs), for cross-session coverage unions.
    pub coverage: Coverage,
    /// Expression nodes the session added to its arena.
    pub nodes_interned: usize,
}

impl ExplorationReport {
    /// Final branch coverage.
    pub fn final_coverage(&self) -> usize {
        self.coverage_timeline.last().copied().unwrap_or(0)
    }

    /// Index of the first crash, if any.
    pub fn first_crash(&self) -> Option<usize> {
        self.crashes.first().copied()
    }
}

/// An input waiting to run, and the path position below which its flips
/// were its ancestors' to make.
struct WorkItem {
    bytes: Vec<u8>,
    oracles: BTreeMap<u32, u8>,
    bound: usize,
}

/// The session's pending inputs. An item lives at index `seq` — its push
/// ordinal — of `slab` until it is picked. DFS takes the newest live item.
/// Generational search alternates the oldest live item (a cursor over the
/// slab) with the best one (a max-heap on `(score, Reverse(seq))`: highest
/// score, FIFO within a score), the heap skipping entries whose item the
/// cursor took first. Each pick is what a linear scan of the live items
/// picks (`worklist_picks_what_a_scan_picks`), at O(log n) instead of O(n).
struct Worklist {
    strategy: Strategy,
    slab: Vec<Option<WorkItem>>,
    best: BinaryHeap<(i64, Reverse<usize>)>,
    /// Every slot below it is taken.
    oldest: usize,
    live: usize,
    picks: u64,
}

impl Worklist {
    fn new(strategy: Strategy, capacity: usize) -> Self {
        Worklist {
            strategy,
            slab: Vec::with_capacity(capacity),
            best: BinaryHeap::with_capacity(capacity),
            oldest: 0,
            live: 0,
            picks: 0,
        }
    }

    fn push(&mut self, item: WorkItem, score: i64) {
        if self.strategy == Strategy::Generational {
            self.best.push((score, Reverse(self.slab.len())));
        }
        self.slab.push(Some(item));
        self.live += 1;
    }

    fn pick(&mut self) -> Option<WorkItem> {
        if self.live == 0 {
            return None;
        }
        self.live -= 1;
        match self.strategy {
            // Only ever the top is taken: the slab has no holes.
            Strategy::Dfs => self.slab.pop().flatten(),
            Strategy::Generational => {
                self.picks += 1;
                // Anti-starvation: every second pick takes the *oldest*
                // pending item regardless of score. Coverage-guided
                // scoring alone starves deep children whose target
                // polarity was covered on an unrelated (and
                // unsatisfiable-onward) path — exactly the shape of
                // guarded-bug reachability.
                let seq = if self.picks.is_multiple_of(2) {
                    while self.slab.get(self.oldest).is_some_and(Option::is_none) {
                        self.oldest += 1;
                    }
                    self.oldest
                } else {
                    loop {
                        let (_, Reverse(seq)) = self.best.pop()?;
                        if self.slab.get(seq).is_some_and(Option::is_some) {
                            break seq;
                        }
                    }
                };
                self.slab.get_mut(seq)?.take()
            }
        }
    }
}

/// The largest execution budget whose per-execution tables [`explore`]
/// allocates up front; a larger budget grows them as it runs.
const PRESIZE_EXECUTIONS: usize = 1024;

/// The nodes a fresh state's expression arena has room for before it
/// first grows.
const ARENA_NODES: usize = 256;

/// Concolic exploration of `program` from the given seed inputs, on a
/// fresh [`ExploreState`].
///
/// `marker` decides which bytes of an input are symbolic (DiCE's
/// symbolic-marking policy). Seeds play the role of Oasis's test-suite
/// inputs: exploration starts from known-interesting messages rather than
/// from scratch.
pub fn explore(
    program: &mut dyn ConcolicProgram,
    seeds: &[Vec<u8>],
    marker: &dyn Fn(&[u8]) -> Vec<bool>,
    config: &ExploreConfig,
) -> ExplorationReport {
    ExploreState::new().explore(program, seeds, marker, config)
}

/// What an exploring worker keeps from one session to the next: the
/// expression arena and the [`PathSolver`] with its memos (the unary facts
/// of each branch constraint, each shared node's ternary value) and
/// scratch, and the path buffer runs record into.
///
/// A session's executions all run in the one arena, which hash-conses and
/// is never cleared, so an [`ExprId`](crate::ExprId) names one structure
/// from the first seed to the last flip; a state carries that across
/// sessions, so a later session — the same twin on another cut, or a twin
/// of the same protocol — finds most of its nodes, and their memo entries,
/// there already. Nothing a session reports depends on that warmth: the
/// memos hold pure functions of a node's structure, and every solve and
/// every guard decision uses an id only as the name of a structure. Only
/// [`SolverStats::unary_memo_hits`] / `unary_memo_misses` and
/// [`ExplorationReport::nodes_interned`] tell a warm session from a fresh
/// one. The arena only grows: keep a state for a bounded stream of
/// sessions (a campaign keeps one per worker per sweep) and drop it after.
#[derive(Debug)]
pub struct ExploreState {
    arena: ExprArena,
    solver: PathSolver,
    path: Vec<BranchRec>,
}

impl Default for ExploreState {
    fn default() -> Self {
        ExploreState {
            arena: ExprArena::with_capacity(ARENA_NODES),
            solver: PathSolver::default(),
            path: Vec::new(),
        }
    }
}

impl ExploreState {
    /// A fresh state: an empty arena, cold memos.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`explore`] on this state; the report is the one a fresh state
    /// gives, field for field, except the warmth counters named on
    /// [`ExploreState`].
    pub fn explore(
        &mut self,
        program: &mut dyn ConcolicProgram,
        seeds: &[Vec<u8>],
        marker: &dyn Fn(&[u8]) -> Vec<bool>,
        config: &ExploreConfig,
    ) -> ExplorationReport {
        // A run's context holds the arena while the program runs: a
        // session that unwound out of one took it along, and the memos
        // name nodes of an arena that is gone (`tests/session_order.rs`
        // unwinds one).
        if self.arena.is_empty() {
            self.solver = PathSolver::default();
        }
        // One `PathSolver` pass per executed path answers its flips.
        let sliced = &mut self.solver;
        sliced.budget = config.solver_budget;
        sliced.stats = SolverStats::default();
        let (memo_hits, memo_misses) = (sliced.memo_hits(), sliced.memo_misses());
        let nodes = self.arena.len();
        let mut covered_skips = 0u64;
        let mut model: Vec<(u32, u8)> = Vec::new();
        // The session's coverage ledger, hashed: it is only inserted into and
        // probed; the report gets it as an ordered `Coverage` once, at the end.
        let mut covered: HashSet<(u32, bool), MixBuild> = HashSet::default();
        // What grows by one per execution — the report's two vectors, the
        // distinct-path set — or holds at least one entry per execution — the
        // worklist, the input dedup set — starts at the budget's size, up to a
        // bound.
        let room = config.max_executions.min(PRESIZE_EXECUTIONS);
        let mut report = ExplorationReport {
            executions: Vec::with_capacity(room),
            coverage_timeline: Vec::with_capacity(room),
            ..Default::default()
        };
        let mut seen_paths: HashSet<u64, MixBuild> =
            HashSet::with_capacity_and_hasher(room, MixBuild::default());
        // Dedup by *synthesized input*, not by path skeleton: two different
        // inputs can share an identical (site, polarity) branch skeleton while
        // their negated children differ (e.g. same parse shape, different
        // attribute payloads) — skeleton-keyed dedup silently drops one of them.
        let mut attempted: HashSet<u64, MixBuild> =
            HashSet::with_capacity_and_hasher(room, MixBuild::default());
        // Every negation query dispatched to the solver this session, keyed by
        // a hash of its constraint set (any outcome): the constraints' ids in
        // the session arena — there, same structure ⇔ same id — and the
        // directions asked for.
        // The covered-flip guard consults this in addition to the coverage
        // ledger: a flip may only be skipped when its *exact* query — prefix
        // and all — was already tried, so a covered (site, direction) reached
        // under an incompatible prefix can never shadow the one path that
        // actually leads somewhere new.
        let mut dispatched: HashSet<u64, MixBuild> = HashSet::default();
        let mut queue = Worklist::new(config.strategy, room);
        // One arena serves every execution of the session and is never
        // cleared: an execution is a one-flip child of an earlier one and
        // finds most of its expressions interned already. The per-path buffers
        // are emptied per execution, allocations kept. A fresh arena's table
        // starts at the size of a whole gossip session's arena (~160 nodes; a
        // BGP session's grows to ~1.3 k): a short session then never rehashes
        // it.
        let mut sites_seen: HashSet<u32, MixBuild> = HashSet::default();
        let mut children = Children::default();

        for seed in seeds {
            attempted.insert(input_key(seed, &BTreeMap::new()));
            let item = WorkItem {
                bytes: seed.clone(),
                oracles: BTreeMap::new(),
                bound: 0,
            };
            queue.push(item, i64::MAX); // seeds always run first
        }

        while report.executions.len() < config.max_executions {
            let Some(item) = queue.pick() else { break };

            let mask = marker(&item.bytes);
            // The run owns its input and overlay until its flips are done;
            // the execution record below takes them over.
            let input = SymInput::with_mask(item.bytes, mask);
            let mut ctx = ConcolicCtx::continuing(
                input,
                item.oracles,
                std::mem::take(&mut self.arena),
                std::mem::take(&mut self.path),
            );
            let status = program.run(&mut ctx);
            let (bytes, oracles) = (&ctx.input().bytes, ctx.oracle_overlay());

            let sig = ctx.path_signature();
            let new_cov = ctx
                .path()
                .iter()
                .filter(|b| covered.insert((b.site.0, b.taken)))
                .count();
            seen_paths.insert(sig); // distinct-path metric only
            if matches!(status, RunStatus::Crash(_)) {
                report.crashes.push(report.executions.len());
            }
            report.coverage_timeline.push(covered.len());

            // Expand children: negate each branch after the inherited bound.
            // Note: expansion is NOT gated on path novelty — two different
            // inputs can share a branch skeleton yet yield different children;
            // the input-key dedup above suppresses true duplicates.
            let path = ctx.path();
            let seed_fn = |idx: u32| -> u8 {
                match bytes.get(idx as usize) {
                    Some(&b) => b,
                    None => oracles.get(&idx).copied().unwrap_or(0),
                }
            };
            let mut pass = self
                .solver
                .begin(ctx.arena(), path, &seed_fn, bytes.len() as u32);
            // Each negation query hashes in O(1) as a fold over the path
            // prefix; the same branch structure recorded by a different seed
            // (different bytes, same arena) folds the same ids.
            let mut prefix_hash: u64 = 0xD1CE_0000_5EED_0001;
            sites_seen.clear();
            children.clear();
            for (i, rec) in path.iter().enumerate() {
                let rec_id = rec.constraint.0 as u64;
                let query_hash = mix3(prefix_hash, rec_id, !rec.taken as u64);
                // A site's *first* occurrence in this path carries no loop
                // context; later occurrences of the same SiteId (instrumented
                // loops reuse one id per attribute / digest entry) target a
                // different dynamic position, so the coverage ledger — keyed
                // by (site, direction) only — cannot prove their flip
                // redundant.
                let first_occurrence = sites_seen.insert(rec.site.0);
                if i >= item.bound {
                    if first_occurrence
                        && covered.contains(&(rec.site.0, !rec.taken))
                        && dispatched.contains(&query_hash)
                    {
                        // Both polarities of this site are covered AND this
                        // exact negation query (prefix included) was already
                        // dispatched once: re-solving can only reproduce a
                        // known child modulo unconstrained bytes. Skip before
                        // even building the query vector. The dispatch check
                        // is what keeps the guard sound — a covered target
                        // reached under an *incompatible* prefix never
                        // suppresses the one query that could reach it from
                        // here (regression-tested).
                        covered_skips += 1;
                    } else {
                        let outcome = pass.flip(&mut model);
                        // Only *answered* queries count as dispatched: an
                        // Unknown (budget-exhausted) query produced no child,
                        // and a later seed-biased retry of the same structure
                        // might — the guard must not fossilize it.
                        if outcome != Flip::Unknown {
                            dispatched.insert(query_hash);
                        }
                        match outcome {
                            Flip::Sat => {
                                let (oracles, key) = children.build(bytes, oracles, &model);
                                if attempted.insert(key) {
                                    // Covered targets (only reachable here via a
                                    // repeated site occurrence) keep the lower
                                    // priority band.
                                    let target_uncovered =
                                        !covered.contains(&(rec.site.0, !rec.taken));
                                    let score =
                                        if target_uncovered { 1_000 } else { 500 } - i as i64;
                                    let item = WorkItem {
                                        bytes: children.bytes.to_vec(),
                                        oracles: oracles.into_owned(),
                                        bound: i + 1,
                                    };
                                    queue.push(item, score);
                                }
                            }
                            Flip::Unsat | Flip::Unknown => {}
                        }
                    }
                }
                pass.advance();
                prefix_hash = mix3(prefix_hash, rec_id, rec.taken as u64);
            }

            let path_len = path.len();
            let (input, oracles);
            (input, oracles, self.arena, self.path) = ctx.into_parts();
            report.executions.push(ExecutionRecord {
                input: input.bytes,
                oracles,
                status,
                path_len,
                path_sig: sig,
                new_coverage: new_cov,
            });
        }

        report.distinct_paths = seen_paths.len();
        let sliced = &self.solver;
        report.solver = SolverStats {
            covered_skips,
            unary_memo_hits: sliced.memo_hits() - memo_hits,
            unary_memo_misses: sliced.memo_misses() - memo_misses,
            ..sliced.stats
        };
        report.nodes_interned = self.arena.len() - nodes;
        report.coverage = Coverage {
            seen: covered.into_iter().collect(),
        };
        report
    }
}

/// SplitMix64-style mixer folding a path prefix, one constraint id and one
/// direction into the hash of a negation query.
fn mix3(tag: u64, a: u64, b: u64) -> u64 {
    let mut z = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.rotate_left(17))
        .wrapping_add(b.rotate_left(41));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Identity of a concrete input: bytes plus oracle overlay (FNV-1a).
fn input_key(bytes: &[u8], oracles: &BTreeMap<u32, u8>) -> u64 {
    fnv_oracles(fnv_bytes(FNV_BASIS, bytes), oracles)
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_oracles(mut h: u64, oracles: &BTreeMap<u32, u8>) -> u64 {
    for (&k, &v) in oracles {
        h ^= ((k as u64) << 8) | v as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One parent's children, built in turn into one scratch buffer: a child
/// is copied out of it only once its key shows it is new, so a child that
/// `attempted` drops costs no allocation.
#[derive(Default)]
struct Children {
    /// `prefix[k]` is the FNV-1a state after the parent's first `k` bytes,
    /// filled as far as a child has needed. The state depends on those
    /// bytes only, so a child that first differs from its parent at byte
    /// `k` resumes its [`input_key`] there.
    prefix: Vec<u64>,
    /// The child built last.
    bytes: Vec<u8>,
}

impl Children {
    /// Forget the parent.
    fn clear(&mut self) {
        self.prefix.clear();
    }

    /// Build into `self.bytes` the child a solver model makes of `parent`
    /// — a model byte inside the input overwrites it, one past its end
    /// goes to the oracle overlay — and return the child's overlay and its
    /// [`input_key`].
    fn build<'a>(
        &mut self,
        parent: &[u8],
        oracles: &'a BTreeMap<u32, u8>,
        model: &[(u32, u8)],
    ) -> (Cow<'a, BTreeMap<u32, u8>>, u64) {
        self.bytes.clear();
        self.bytes.extend_from_slice(parent);
        let mut oracles = Cow::Borrowed(oracles);
        let mut first_change = parent.len();
        for &(idx, val) in model {
            match self.bytes.get_mut(idx as usize) {
                Some(b) if *b != val => {
                    *b = val;
                    first_change = first_change.min(idx as usize);
                }
                Some(_) => {}
                None => {
                    oracles.to_mut().insert(idx, val);
                }
            }
        }
        let h = self.state_after(parent, first_change);
        let rest = self.bytes.get(first_change..).unwrap_or_default();
        let key = fnv_oracles(fnv_bytes(h, rest), &oracles);
        (oracles, key)
    }

    /// The state after `parent[..k]`, `k` ≤ `parent.len()`.
    fn state_after(&mut self, parent: &[u8], k: usize) -> u64 {
        if self.prefix.is_empty() {
            self.prefix.reserve(parent.len() + 1);
            self.prefix.push(FNV_BASIS);
        }
        let done = self.prefix.len() - 1;
        let mut h = *self.prefix.last().unwrap_or(&FNV_BASIS);
        for &b in parent.get(done..k).unwrap_or_default() {
            h = fnv_bytes(h, &[b]);
            self.prefix.push(h);
        }
        self.prefix.get(k).copied().unwrap_or(h)
    }
}

/// Random-mutation fuzzing baseline: same coverage accounting, no solver.
/// Deterministic in `rng_seed`. With no seeds there is nothing to mutate:
/// it runs nothing and returns an empty report, as [`explore`] does.
pub fn random_fuzz(
    program: &mut dyn ConcolicProgram,
    seeds: &[Vec<u8>],
    marker: &dyn Fn(&[u8]) -> Vec<bool>,
    max_executions: usize,
    rng_seed: u64,
) -> ExplorationReport {
    let mut state = rng_seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coverage = Coverage::default();
    let mut report = ExplorationReport::default();
    let mut seen_paths = BTreeSet::new();
    if seeds.is_empty() {
        return report;
    }

    for (n, base) in seeds.iter().cycle().take(max_executions).enumerate() {
        let mut bytes = base.clone();
        if n >= seeds.len() && !bytes.is_empty() {
            // Mutate 1-4 random bytes.
            let flips = 1 + (rnd() % 4) as usize;
            for _ in 0..flips {
                let i = (rnd() as usize) % bytes.len();
                if let Some(b) = bytes.get_mut(i) {
                    *b = rnd() as u8;
                }
            }
        }
        let mask = marker(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
        let status = program.run(&mut ctx);
        let sig = ctx.path_signature();
        seen_paths.insert(sig);
        let new_cov = coverage.add_path(ctx.path());
        if matches!(status, RunStatus::Crash(_)) {
            report.crashes.push(report.executions.len());
        }
        report.executions.push(ExecutionRecord {
            input: bytes,
            oracles: BTreeMap::new(),
            status,
            path_len: ctx.path().len(),
            path_sig: sig,
            new_coverage: new_cov,
        });
        report.coverage_timeline.push(coverage.len());
    }
    report.distinct_paths = seen_paths.len();
    report.coverage = coverage;
    report
}

#[cfg(test)]
mod toys;

#[cfg(test)]
mod tests {
    use super::toys::{self, *};
    use super::*;

    #[test]
    fn concolic_finds_the_deep_crash() {
        // Seed does not even pass the magic check.
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 64,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        assert!(
            report.first_crash().is_some(),
            "generational search must reach the guarded crash"
        );
        // The crashing input satisfies the chain of constraints.
        let crash = &report.executions[report.first_crash().unwrap()];
        assert_eq!(crash.input[0], 0x42);
        assert_eq!(crash.input[1], 3);
        assert!(crash.input[2] >= 0xF0);
    }

    #[test]
    fn dfs_also_finds_it() {
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            strategy: Strategy::Dfs,
            max_executions: 64,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        assert!(report.first_crash().is_some());
    }

    #[test]
    fn coverage_grows_monotonically() {
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        for w in report.coverage_timeline.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(report.final_coverage() >= 6, "should cover most polarities");
    }

    #[test]
    fn random_fuzz_is_much_weaker() {
        let seeds = vec![vec![0u8, 0, 0]];
        let random = random_fuzz(&mut toy_program, &seeds, &all_symbolic, 64, 1234);
        let cfg = ExploreConfig {
            max_executions: 64,
            ..Default::default()
        };
        let concolic = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        // Random mutation must not beat concolic coverage on this program
        // (magic byte is a 1/256 shot per mutation).
        assert!(concolic.final_coverage() >= random.final_coverage());
        assert!(concolic.first_crash().is_some());
        assert!(
            random.first_crash().is_none(),
            "random should not find the crash in 64 runs"
        );
    }

    #[test]
    fn distinct_paths_counted() {
        let seeds = vec![vec![0x42u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        assert!(report.distinct_paths >= 3);
        assert!(report.distinct_paths <= report.executions.len());
    }

    #[test]
    fn coverage_merge_unions_and_counts_new() {
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 24,
            ..Default::default()
        };
        let a = explore(&mut toy_program, &seeds, &all_symbolic, &cfg).coverage;
        let seeds_magic = vec![vec![0x42u8, 3, 0xF5]];
        let b = explore(&mut toy_program, &seeds_magic, &all_symbolic, &cfg).coverage;

        let mut union = Coverage::default();
        assert_eq!(union.merge(&a), a.len());
        let added = union.merge(&b);
        assert!(added <= b.len());
        assert_eq!(union.merge(&b), 0, "re-merging adds nothing");
        let expect: BTreeSet<(u32, bool)> = a.sites().chain(b.sites()).collect();
        assert_eq!(union.len(), expect.len());
        assert!(expect.iter().all(|&(s, d)| union.covered(s, d)));
    }

    #[test]
    fn oracle_branches_explored() {
        let seeds = vec![vec![0u8; 2]];
        let cfg = ExploreConfig {
            max_executions: 8,
            ..Default::default()
        };
        let report = explore(&mut oracle_prog, &seeds, &all_symbolic, &cfg);
        assert!(
            report.first_crash().is_some(),
            "negating the oracle branch must flip route preference"
        );
        // The crashing run carries an oracle override.
        let crash = &report.executions[report.first_crash().unwrap()];
        assert!(!crash.oracles.is_empty());
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ExploreConfig {
            max_executions: 40,
            ..Default::default()
        };
        for (name, mut program, marker, seeds) in toys::all() {
            let a = explore(&mut program, &seeds, &marker, &cfg);
            let b = explore(&mut program, &seeds, &marker, &cfg);
            assert_eq!(a.executions.len(), b.executions.len(), "{name}");
            assert_eq!(a.final_coverage(), b.final_coverage(), "{name}");
            assert_eq!(a.distinct_paths, b.distinct_paths, "{name}");
            for (x, y) in a.executions.iter().zip(&b.executions) {
                assert_eq!(x.input, y.input, "{name}");
                assert_eq!(x.path_sig, y.path_sig, "{name}");
            }
        }
    }

    #[test]
    fn covered_flips_are_skipped_before_query_construction() {
        // Two independent byte checks and two same-shape seeds: the
        // second-generation children re-encounter negation queries that
        // were already dispatched (identical structural prefix) once every
        // polarity is covered — exactly the redundancy the guard prunes.
        let seeds = vec![vec![0u8, 0], vec![1u8, 1]];
        let cfg = ExploreConfig {
            max_executions: 24,
            ..Default::default()
        };
        let report = explore(&mut two_sites, &seeds, &all_symbolic, &cfg);
        assert!(
            report.solver.covered_skips > 0,
            "redundant re-dispatched flips must be guarded: {:?}",
            report.solver
        );
        // The guard must not cost coverage: all four polarities reached.
        assert_eq!(report.final_coverage(), 4);
    }

    #[test]
    fn guard_preserves_context_dependent_flips() {
        // Review-driven regression ("diamond" shape): site2's taken
        // polarity is first covered under a prefix (b0 < 128) that is
        // incompatible with the crash (needs b0 >= 128 AND b1 == b0). A
        // coverage-only guard would prune the one flip that reaches the
        // crash; the dispatch-identity check must keep it solvable.
        // Seed [0,0] covers (site2, true) under the small-b0 prefix.
        let seeds = vec![vec![0u8, 0]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut diamond, &seeds, &all_symbolic, &cfg);
        let crash = report
            .first_crash()
            .expect("crash behind a context-dependent flip must stay reachable");
        let input = &report.executions[crash].input;
        assert!(input[0] >= 128 && input[1] == input[0], "input {input:?}");
    }

    #[test]
    fn guard_keys_on_the_constraint_not_on_its_site() {
        // The diamond again, but which byte it tests is picked by a
        // concrete selector: two seeds record the same (site, direction)
        // skeleton over *different* constraints. A query hash folded from
        // site ids would take the second seed's flip of site 2 for the
        // first seed's — already dispatched, target covered — and skip the
        // one query that reaches the crash; folded from the constraints'
        // ids it is a query nobody asked yet.
        let seeds = vec![vec![0u8, 0, 0, 0], vec![1u8, 0, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut selected_diamond, &seeds, &selector_concrete, &cfg);
        let crash = report
            .first_crash()
            .expect("the second seed's flip is its own query");
        let input = &report.executions[crash].input;
        assert!(input[2] >= 128 && input[3] == input[2], "input {input:?}");
    }

    #[test]
    fn guard_spares_repeated_site_occurrences() {
        // Instrumented loops reuse one SiteId per iteration (BGP attribute
        // loop, gossip digest entries). Once one run covers both
        // polarities of such a site, the coverage ledger can no longer
        // distinguish iterations — the guard must only prune the site's
        // first occurrence per path, or crashes reachable via later
        // iterations become unreachable.
        // The seed alone covers BOTH polarities of site 40 (one magic
        // byte, two non-magic), so a first-occurrence-only guard is the
        // difference between reaching the crash and never solving again.
        let seeds = vec![vec![7u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut loopy, &seeds, &all_symbolic, &cfg);
        let crash = report
            .first_crash()
            .expect("later-iteration flips must stay solvable");
        assert_eq!(report.executions[crash].input, vec![7, 7, 7]);
    }

    #[test]
    fn guard_keeps_deep_crash_reachable() {
        // The covered-flip guard prunes redundant work but must not stop
        // generational search from chaining uncovered flips to the deep
        // guarded crash.
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 64,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        assert!(report.first_crash().is_some());
    }

    #[test]
    fn respects_execution_budget() {
        let seeds = vec![vec![0u8, 0, 0]];
        let cfg = ExploreConfig {
            max_executions: 5,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &all_symbolic, &cfg);
        assert!(report.executions.len() <= 5);
    }

    #[test]
    fn random_fuzz_with_no_seeds_runs_nothing() {
        // It used to take `seeds[n % 0]` and panic on a division by zero.
        let report = random_fuzz(&mut toy_program, &[], &all_symbolic, 16, 1234);
        assert!(report.executions.is_empty());
        assert_eq!(report.final_coverage(), 0);
        assert!(report.coverage.is_empty());
        let cfg = ExploreConfig {
            max_executions: 16,
            ..Default::default()
        };
        assert!(explore(&mut toy_program, &[], &all_symbolic, &cfg)
            .executions
            .is_empty());
    }

    proptest::proptest! {
        /// The slab + heap worklist picks, push for push, what a linear
        /// scan over the live items in push order picks: the last in DFS;
        /// in generational order, alternately the first and the first of
        /// the highest score. Scores come from a small set, so ties are
        /// the common case.
        ///
        /// Break-it-once: keying the heap `(score, seq)` instead of
        /// `(score, Reverse(seq))` — LIFO within a score — turns this red.
        #[test]
        fn worklist_picks_what_a_scan_picks(
            ops in proptest::collection::vec(proptest::any::<u8>(), 1..96),
            dfs in proptest::any::<bool>(),
        ) {
            use proptest::prop_assert_eq;
            let strategy = if dfs { Strategy::Dfs } else { Strategy::Generational };
            let mut worklist = Worklist::new(strategy, 0);
            // (push ordinal, score) of every live item, in push order.
            let mut scan: Vec<(usize, i64)> = Vec::new();
            let mut picks = 0u64;
            let mut reference = |scan: &mut Vec<(usize, i64)>| -> Option<usize> {
                if scan.is_empty() {
                    return None;
                }
                let at = match strategy {
                    Strategy::Dfs => scan.len() - 1,
                    Strategy::Generational => {
                        picks += 1;
                        if picks.is_multiple_of(2) {
                            0
                        } else {
                            // Strictly greater: the first of a tie stays.
                            (0..scan.len()).fold(0, |b, i| if scan[i].1 > scan[b].1 { i } else { b })
                        }
                    }
                };
                Some(scan.remove(at).0)
            };
            let mut pushed = 0;
            for op in ops.iter().copied().chain(std::iter::repeat_n(0, 96)) {
                if op >= 96 {
                    let score = [i64::MAX, 1_000, 998, 500, 0, -3][op as usize % 6];
                    let item = WorkItem { bytes: Vec::new(), oracles: BTreeMap::new(), bound: pushed };
                    worklist.push(item, score);
                    scan.push((pushed, score));
                    pushed += 1;
                } else {
                    let got = worklist.pick().map(|w| w.bound);
                    prop_assert_eq!(got, reference(&mut scan), "after {} pushes", pushed);
                }
            }
        }
    }

    proptest::proptest! {
        /// A child built in the scratch buffer is the child the model
        /// makes, and its key, resumed from the parent's prefix state, is
        /// the key of the child hashed whole — for children of one parent
        /// taken in any order: model bytes inside the input (some
        /// rewriting the value already there), past its end (oracle-only
        /// changes), over an overlay the parent already carries.
        #[test]
        fn resumed_child_keys_are_whole_input_keys(
            parent in proptest::collection::vec(proptest::any::<u8>(), 0..48),
            overlay in proptest::collection::vec((0u32..8, proptest::any::<u8>()), 0..3),
            models in proptest::collection::vec(
                proptest::collection::vec((0u32..56, proptest::any::<u8>(), proptest::any::<bool>()), 0..5),
                1..6,
            ),
        ) {
            use proptest::prop_assert_eq;
            let end = parent.len() as u32;
            let overlay: BTreeMap<u32, u8> = overlay.into_iter().map(|(k, v)| (end + k, v)).collect();
            let mut children = Children::default();
            for model in &models {
                let model: Vec<(u32, u8)> = model
                    .iter()
                    .map(|&(idx, val, same)| {
                        let kept = parent.get(idx as usize).filter(|_| same);
                        (idx, kept.copied().unwrap_or(val))
                    })
                    .collect();
                let (oracles, key) = children.build(&parent, &overlay, &model);
                let bytes = &children.bytes;
                let (mut want_bytes, mut want_oracles) = (parent.clone(), overlay.clone());
                for &(idx, val) in &model {
                    match want_bytes.get_mut(idx as usize) {
                        Some(b) => *b = val,
                        None => {
                            want_oracles.insert(idx, val);
                        }
                    }
                }
                prop_assert_eq!(bytes, &want_bytes);
                prop_assert_eq!(&*oracles, &want_oracles);
                prop_assert_eq!(key, input_key(bytes, &oracles), "{:?}", model);
            }
        }
    }

    #[test]
    fn partial_symbolic_marking_limits_search() {
        // Only byte 0 symbolic: the crash (needs bytes 1 and 2) is
        // unreachable, but the magic branch is still explored.
        let marker = |bytes: &[u8]| {
            let mut m = vec![false; bytes.len()];
            if !m.is_empty() {
                m[0] = true;
            }
            m
        };
        let seeds = vec![vec![0u8, 3, 0xF5]];
        let cfg = ExploreConfig {
            max_executions: 32,
            ..Default::default()
        };
        let report = explore(&mut toy_program, &seeds, &marker, &cfg);
        assert!(
            report.first_crash().is_some(),
            "bytes 1,2 already set by seed"
        );
        let seeds2 = vec![vec![0u8, 0, 0]];
        let report2 = explore(&mut toy_program, &seeds2, &marker, &cfg);
        assert!(
            report2.first_crash().is_none(),
            "cannot steer concrete bytes"
        );
    }
}
