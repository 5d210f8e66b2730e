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

use crate::ctx::BranchRec;
use crate::expr::{ByteBits, ExprArena, ExprId, LaneScratch, Lanes};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// 256-bit set of candidate byte values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSet {
    words: [u64; 4],
}

impl ByteSet {
    /// The full set (all 256 values).
    pub fn full() -> Self {
        ByteSet {
            words: [u64::MAX; 4],
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        ByteSet { words: [0; 4] }
    }

    /// Membership test.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn contains(&self, v: u8) -> bool {
        self.words[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    /// Insert a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn insert(&mut self, v: u8) {
        self.words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Remove a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn remove(&mut self, v: u8) {
        self.words[(v >> 6) as usize] &= !(1 << (v & 63));
    }

    /// Set intersection.
    // dice-lint: allow(panic-freedom): the 0..4 loop stays inside the fixed [u64; 4] word array
    pub fn intersect(&mut self, other: &ByteSet) {
        for i in 0..4 {
            self.words[i] &= other.words[i];
        }
    }

    /// The values *not* in this set.
    pub fn complement(&self) -> ByteSet {
        ByteSet {
            words: self.words.map(|w| !w),
        }
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no value remains.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate members in ascending order (one `trailing_zeros` per
    /// member, not 256 membership tests).
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.words
            .iter()
            .zip([0u8, 64, 128, 192])
            .flat_map(|(&word, base)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as u8;
                        rest &= rest - 1;
                        base + bit
                    })
                })
            })
    }

    /// The smallest member.
    pub fn first(&self) -> Option<u8> {
        self.iter().next()
    }

    /// The values whose bit `bit` (0..8) is set.
    fn with_bit(bit: u8) -> ByteSet {
        /// Bit `b` of a word's position index, for the six bits a word spans.
        const IN_WORD: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        let words = match IN_WORD.get(bit as usize) {
            Some(&pattern) => [pattern; 4],
            None if bit == 6 => [0, u64::MAX, 0, u64::MAX],
            None => [0, 0, u64::MAX, u64::MAX],
        };
        ByteSet { words }
    }

    /// The byte values whose lane is non-zero.
    fn truthy(lanes: &Lanes) -> ByteSet {
        let mut words = [0u64; 4];
        for (word, chunk) in words.iter_mut().zip(lanes.chunks(64)) {
            for (bit, &lane) in chunk.iter().enumerate() {
                *word |= ((lane != 0) as u64) << bit;
            }
        }
        ByteSet { words }
    }
}

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
    /// [`PathSolver`] search skips because one known bit already refutes
    /// them are not steps, so against `max_steps` its narrowing can only
    /// turn an `Unknown` into an answer.
    pub steps: u64,
    /// Negation queries answered from the refutation cache *without*
    /// reaching [`Solver::solve`] (maintained by the exploration loop,
    /// which keys the cache on the canonical structural hash of the
    /// hash-consed constraint set).
    pub cache_hits: u64,
    /// Branch flips skipped before query construction because the target
    /// (site, direction) was already covered.
    pub covered_skips: u64,
    /// Per-constraint [`UnaryMemo`] hits inside [`PathSolver`]: variable
    /// lists and unary-filter byte sets reused instead of recomputed. A
    /// path looks each of its constraints up once, so this grows with
    /// executed path length, not with `queries`.
    pub unary_memo_hits: u64,
}

impl SolverStats {
    /// Fraction of negation queries served by the refutation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.queries;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The solver. Holds no state besides statistics; borrow an arena per call.
#[derive(Debug, Default)]
pub struct Solver {
    /// Cumulative statistics.
    pub stats: SolverStats,
    /// Budget applied to each query.
    pub budget: SolverBudget,
}

/// Cross-path memo of the per-constraint facts [`PathSolver`] needs: the
/// referenced variable list and — for single-variable constraints — the
/// exact set of byte values under which the expression is truthy (one
/// 256-lane [`ExprArena::sweep`]). Keyed by the *canonical structural
/// hash* of the constraint expression supplied by the caller (see
/// `ExprArena::node_hashes`), so entries are valid across arenas: a child
/// re-records most of its parent's constraints, and different seeds with
/// the same parse shape share them all. Polarity is not part of the key —
/// a single-variable expression evaluates totally over the 256 values, so
/// the set admitting the falsy polarity is the complement. Both memoized
/// facts are pure functions of the expression's structure, so reuse cannot
/// change any solve outcome.
#[derive(Debug, Default)]
pub struct UnaryMemo {
    map: HashMap<u64, MemoEntry>,
    /// Entries served from the memo (vars + unary set count as one hit).
    pub hits: u64,
    /// What a miss computes in.
    scratch: LaneScratch,
}

#[derive(Debug)]
struct MemoEntry {
    vars: Vec<u32>,
    /// Single-variable constraints only: the values that make it truthy.
    truthy: Option<ByteSet>,
}

impl UnaryMemo {
    fn lookup(&mut self, arena: &ExprArena, e: ExprId, key: u64) -> &MemoEntry {
        match self.map.entry(key) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                let (vars, lanes) = arena.sweep(e, &mut self.scratch);
                miss.insert(MemoEntry {
                    vars: vars.to_vec(),
                    truthy: lanes.map(ByteSet::truthy),
                })
            }
        }
    }
}

/// A constraint: an expression that must evaluate truthy (`true`) or falsy
/// (`false`).
pub type Constraint = (ExprId, bool);

/// Build the constraint system "path prefix holds, branch `k` negated" —
/// the concolic negation query.
// dice-lint: allow(panic-freedom): k < path.len() is asserted on entry
pub fn negation_query(path: &[BranchRec], k: usize) -> Vec<Constraint> {
    assert!(k < path.len());
    let mut out: Vec<Constraint> = Vec::with_capacity(k + 1);
    for rec in &path[..k] {
        out.push((rec.constraint, rec.taken));
    }
    let rec = &path[k];
    out.push((rec.constraint, !rec.taken));
    out
}

impl Solver {
    /// A solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with a custom budget.
    pub fn with_budget(budget: SolverBudget) -> Self {
        Solver {
            stats: SolverStats::default(),
            budget,
        }
    }

    /// Check a full model against a constraint system.
    pub fn check(
        arena: &ExprArena,
        constraints: &[Constraint],
        model: &BTreeMap<u32, u8>,
        seed: &dyn Fn(u32) -> u8,
    ) -> bool {
        let lookup = |idx: u32| -> Option<u64> {
            Some(model.get(&idx).copied().unwrap_or_else(|| seed(idx)) as u64)
        };
        constraints.iter().all(|&(e, want)| {
            arena
                .eval(e, &lookup)
                .map(|v| (v != 0) == want)
                .unwrap_or(false)
        })
    }

    /// Solve a conjunction of constraints. `seed` provides default values
    /// for unconstrained bytes (the original input), so models stay close
    /// to the seed input — a concolic-execution requirement.
    // dice-lint: allow(panic-freedom): con_vars is built per-constraint above and shares the constraint index
    pub fn solve(
        &mut self,
        arena: &ExprArena,
        constraints: &[Constraint],
        seed: &dyn Fn(u32) -> u8,
    ) -> SolveResult {
        self.stats.queries += 1;

        // Gather variables and classify constraints.
        let mut var_list: Vec<u32> = Vec::new();
        let mut con_vars: Vec<Vec<u32>> = Vec::with_capacity(constraints.len());
        for &(e, _) in constraints {
            let vars = arena.vars(e);
            for &v in &vars {
                if !var_list.contains(&v) {
                    var_list.push(v);
                }
            }
            con_vars.push(vars);
        }
        var_list.sort_unstable();

        // Zero-variable constraints are decidable right now; one failing
        // constant constraint refutes the whole conjunction.
        for (ci, &(e, want)) in constraints.iter().enumerate() {
            if con_vars[ci].is_empty() && !holds(arena, e, want) {
                self.stats.unsat += 1;
                return SolveResult::Unsat;
            }
        }
        // Trivial system: no symbolic vars at all (and all constants held).
        if var_list.is_empty() {
            self.stats.sat += 1;
            return SolveResult::Sat(BTreeMap::new());
        }

        // Unary filtering: a single-variable constraint's admissible set
        // is exact after a 256-value sweep.
        let mut candidates: BTreeMap<u32, ByteSet> =
            var_list.iter().map(|&v| (v, ByteSet::full())).collect();
        for (ci, &(e, want)) in constraints.iter().enumerate() {
            if con_vars[ci].len() == 1 {
                let v = con_vars[ci][0];
                let mut ok = ByteSet::empty();
                for byte in 0u16..256 {
                    let val = byte as u8;
                    let lookup = |idx: u32| -> Option<u64> {
                        if idx == v {
                            Some(val as u64)
                        } else {
                            None
                        }
                    };
                    if let Some(r) = arena.eval(e, &lookup) {
                        if (r != 0) == want {
                            ok.insert(val);
                        }
                    }
                }
                // Every constrained var was registered above; a missing
                // entry means no candidate set to narrow.
                let Some(set) = candidates.get_mut(&v) else {
                    continue;
                };
                set.intersect(&ok);
                if set.is_empty() {
                    self.stats.unsat += 1;
                    return SolveResult::Unsat;
                }
            }
        }

        // Multi-var constraints for the search phase.
        let multi: Vec<(ExprId, bool, &[u32])> = constraints
            .iter()
            .zip(&con_vars)
            .filter(|(_, vars)| vars.len() > 1)
            .map(|(&(e, want), vars)| (e, want, vars.as_slice()))
            .collect();

        if multi.is_empty() {
            // Unary candidates are exact: pick per-var values, preferring
            // the seed value when it remains admissible.
            let mut model = BTreeMap::new();
            for (&v, set) in &candidates {
                model.insert(v, pick(set, seed(v)));
            }
            self.stats.sat += 1;
            return SolveResult::Sat(model);
        }

        // Order variables: most-constrained (smallest candidate set) first,
        // then by how many multi-constraints mention them.
        let mut order: Vec<u32> = var_list.clone();
        let mentions = |v: u32| {
            multi
                .iter()
                .filter(|(_, _, vars)| vars.contains(&v))
                .count()
        };
        order.sort_by_key(|&v| (candidates[&v].len(), usize::MAX - mentions(v), v));

        let mut assignment: BTreeMap<u32, u8> = BTreeMap::new();
        let mut steps = 0u64;
        let ok = self.search(
            arena,
            &multi,
            &order,
            0,
            &candidates,
            &mut assignment,
            seed,
            &mut steps,
        );
        self.stats.steps += steps;
        match ok {
            Some(true) => {
                self.stats.sat += 1;
                SolveResult::Sat(assignment)
            }
            Some(false) => {
                self.stats.unsat += 1;
                SolveResult::Unsat
            }
            None => {
                self.stats.unknown += 1;
                SolveResult::Unknown
            }
        }
    }

    /// DFS over candidate values. Returns `Some(true)` on success (model in
    /// `assignment`), `Some(false)` when exhaustively refuted, `None` on
    /// budget exhaustion.
    #[allow(clippy::too_many_arguments)]
    // dice-lint: allow(panic-freedom): order and candidates are built over the same var set; depth < order.len() is the recursion guard
    fn search(
        &self,
        arena: &ExprArena,
        multi: &[(ExprId, bool, &[u32])],
        order: &[u32],
        depth: usize,
        candidates: &BTreeMap<u32, ByteSet>,
        assignment: &mut BTreeMap<u32, u8>,
        seed: &dyn Fn(u32) -> u8,
        steps: &mut u64,
    ) -> Option<bool> {
        if depth == order.len() {
            return Some(true);
        }
        let v = order[depth];
        let set = &candidates[&v];
        // Try the seed value first to keep models minimal.
        let sv = seed(v);
        let tries = std::iter::once(sv)
            .filter(|s| set.contains(*s))
            .chain(set.iter().filter(move |&x| x != sv));
        for val in tries {
            *steps += 1;
            if *steps > self.budget.max_steps {
                return None;
            }
            assignment.insert(v, val);
            // Ternary (known-bits) propagation: a constraint involving v is
            // pruned as soon as the assigned bits alone refute it — e.g.
            // `(addr & 0xFF000000) == K` dies on the first byte, without
            // enumerating the masked-out ones.
            let consistent = multi.iter().all(|&(e, want, vars)| {
                if !vars.contains(&v) {
                    return true;
                }
                let lookup = |idx: u32| -> Option<u64> { assignment.get(&idx).map(|&b| b as u64) };
                match arena.eval3(e, &lookup).as_bool() {
                    Some(r) => r == want,
                    None => true, // not yet decidable
                }
            });
            if consistent {
                match self.search(
                    arena,
                    multi,
                    order,
                    depth + 1,
                    candidates,
                    assignment,
                    seed,
                    steps,
                ) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            assignment.remove(&v);
        }
        Some(false)
    }
}

// ----------------------------------------------------------------------
// One pass per path
// ----------------------------------------------------------------------

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

impl SolveResult {
    /// The verdict in [`PathPass::flip`]'s vocabulary, a SAT model moved
    /// into `model`.
    pub(crate) fn into_flip(self, model: &mut Vec<(u32, u8)>) -> Flip {
        match self {
            SolveResult::Sat(m) => {
                model.clear();
                model.extend(m);
                Flip::Sat
            }
            SolveResult::Unsat => Flip::Unsat,
            SolveResult::Unknown => Flip::Unknown,
        }
    }
}

/// "No slot / no list node" in the dense tables below.
const NONE: u32 = u32::MAX;

/// Answers the negation queries of executed paths, one forward pass per
/// path ([`PathSolver::begin`]), with the answers of [`Solver::solve`] on
/// [`negation_query`].
///
/// Per path constraint it fetches the variable list and unary [`ByteSet`]
/// once (through the cross-path [`UnaryMemo`]). The as-taken prefix is
/// kept as variable-connected *components* — union-find over the path's
/// variables; the prefix only grows, so components only merge — each with
/// the running intersection of its unary sets, the list of its
/// multi-variable constraints and, computed on demand and cached until the
/// component next changes, its model. Flip `i` solves only the
/// component(s) the negated constraint touches and takes every other
/// variable's value from its component's cached model.
///
/// **Why the answers are the reference's.** The reference search returns
/// the lexicographically first satisfying assignment under a variable
/// order keyed per variable by `(candidates, mentions, index)` and a value
/// order that tries the seed byte first. Constraints never span
/// components, so the satisfying set is a product over components, the
/// order key of a variable depends on its own component only, and the
/// first element of a product under an interleaved lexicographic order is
/// the tuple of the factors' first elements: solving components apart and
/// concatenating gives the same model, byte for byte. A component whose
/// constraints all hold under the seed values has the seed as its first
/// solution (every variable's first try, never refuted) and is not
/// searched at all. Untouched components are *not* all of that kind — an
/// oracle pseudo-byte executed at its instrumentation default reads 0 from
/// the seed function — so the others are solved for, not assumed. The
/// system is UNSAT iff some component is, so any refuted component answers
/// `Unsat`.
///
/// **Budget.** `budget.max_steps` bounds each component search, where the
/// reference spends it on the whole prefix (most of it re-assigning seed
/// values to bytes the flip never mentions). Every query the reference
/// answers within its budget is answered here, identically; one it
/// abandons as `Unknown` may be answered.
#[derive(Debug, Default)]
pub struct PathSolver {
    /// Cumulative statistics: `queries`/`sat`/`unsat`/`unknown` count
    /// flips, `steps` every search step (of flipped components and of
    /// cached component models alike).
    pub stats: SolverStats,
    /// Budget applied to each component search.
    pub budget: SolverBudget,
    memo: UnaryMemo,
    // State of the current path, reset by `begin` (capacity is kept, so a
    // session allocates these once). Variables are numbered densely, in
    // order of first appearance, as *slots*.
    /// Variable index → slot.
    slot_of: Vec<u32>,
    vars: Vec<VarState>,
    /// Slot → what the search knows of the variable: its value under
    /// trial, one bit of it during a probe; all unknown between searches.
    assign: Vec<ByteBits>,
    /// The as-taken multi-variable constraints, in per-component circular
    /// lists, and their slots (flat).
    multi: Vec<MultiCon>,
    multi_slots: Vec<u32>,
    /// Roots whose cached model went out of date (may hold merged-away or
    /// re-settled entries; both are skipped).
    stale: Vec<u32>,
    /// Slots of the constraint under the cursor.
    cur_slots: Vec<u32>,
    // Scratch of one system solve.
    roots: Vec<u32>,
    sys: Vec<SysVar>,
    sys_multi: Vec<Constraint>,
    /// `(position in sys, index into sys_multi)`: which constraints to
    /// re-check when a variable is assigned.
    watch: Vec<(u32, u32)>,
    /// `(slot, value)` of the system solved last / of the flipped system.
    sol: Vec<(u32, u8)>,
    flip_sol: Vec<(u32, u8)>,
}

/// One path variable.
#[derive(Debug, Clone, Copy)]
struct VarState {
    /// Input-byte (or oracle pseudo-byte) index.
    id: u32,
    seed: u8,
    /// Intersection of the as-taken unary sets on this variable.
    cand: ByteSet,
    /// As-taken multi-variable constraints mentioning it.
    mentions: u32,
    /// Union-find parent (itself for a root).
    parent: u32,
    /// Next member of its component (circular).
    next: u32,
    /// Root only: a node of the component's circular list in `multi`.
    multi_head: u32,
    /// Root only: every member's `model` is the component's first solution
    /// as taken.
    settled: bool,
    /// Root only: every constraint of the component holds under the seed
    /// values. The search tries the seed value of each variable first and
    /// nothing refutes it, so the first solution *is* the seed: such a
    /// component is settled without a search (implies `settled`).
    seed_ok: bool,
    model: u8,
    /// Scratch: position in `sys` during a solve.
    pos: u32,
}

/// An as-taken multi-variable constraint.
#[derive(Debug, Clone, Copy)]
struct MultiCon {
    expr: ExprId,
    want: bool,
    /// `(start, len)` in `multi_slots`.
    slots: (u32, u32),
    /// Next constraint of the same component (circular).
    next: u32,
}

/// A variable of the system being solved.
#[derive(Debug, Clone, Copy)]
struct SysVar {
    slot: u32,
    id: u32,
    seed: u8,
    set: ByteSet,
    mentions: u32,
    /// Its range in `watch`.
    watch: (u32, u32),
}

/// The constraint under the cursor, as recorded.
#[derive(Debug, Clone, Copy)]
struct Con {
    expr: ExprId,
    taken: bool,
    truthy: Option<ByteSet>,
}

impl Con {
    /// Single-variable constraints: the values admitted under `want`.
    fn admits(&self, want: bool) -> Option<ByteSet> {
        self.truthy
            .map(|set| if want { set } else { set.complement() })
    }
}

impl PathSolver {
    /// A path solver with a custom budget.
    pub fn with_budget(budget: SolverBudget) -> Self {
        PathSolver {
            budget,
            ..Default::default()
        }
    }

    /// Constraints served from the cross-path memo so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Start the pass over one executed path. `hashes` are the arena's
    /// canonical structural hashes (`ExprArena::node_hashes`) — the memo
    /// keys — and `seed` the executed input, as for [`Solver::solve`].
    pub fn begin<'a>(
        &'a mut self,
        arena: &'a ExprArena,
        path: &'a [BranchRec],
        hashes: &'a [u64],
        seed: &'a dyn Fn(u32) -> u8,
    ) -> PathPass<'a> {
        for v in &self.vars {
            if let Some(slot) = self.slot_of.get_mut(v.id as usize) {
                *slot = NONE;
            }
        }
        self.vars.clear();
        self.assign.clear();
        self.multi.clear();
        self.multi_slots.clear();
        self.stale.clear();
        PathPass {
            ps: self,
            arena,
            path,
            hashes,
            seed,
            cursor: 0,
            cur: None,
            dead: false,
        }
    }
}

/// A forward pass over one path: a cursor that starts at constraint 0.
/// [`PathPass::flip`] answers the negation query at the cursor,
/// [`PathPass::advance`] takes the cursor's constraint into the prefix and
/// moves on.
pub struct PathPass<'a> {
    ps: &'a mut PathSolver,
    arena: &'a ExprArena,
    path: &'a [BranchRec],
    hashes: &'a [u64],
    seed: &'a dyn Fn(u32) -> u8,
    cursor: usize,
    /// The cursor's constraint, once looked up.
    cur: Option<Con>,
    /// The as-taken prefix is refuted: every later query is `Unsat`.
    dead: bool,
}

impl PathPass<'_> {
    /// Answer "prefix before the cursor as taken, cursor constraint
    /// negated". On [`Flip::Sat`], `model` is replaced by `(variable,
    /// value)` for every variable of constraints `0..=cursor`, which is
    /// what [`Solver::solve`] puts in its model.
    pub fn flip(&mut self, model: &mut Vec<(u32, u8)>) -> Flip {
        self.ps.stats.queries += 1;
        match self.answer() {
            Some(true) => {
                self.ps.stats.sat += 1;
                model.clear();
                model.extend(self.ps.vars.iter().map(|v| (v.id, v.model)));
                for &(slot, val) in &self.ps.flip_sol {
                    if let Some(entry) = model.get_mut(slot as usize) {
                        entry.1 = val;
                    }
                }
                Flip::Sat
            }
            Some(false) => {
                self.ps.stats.unsat += 1;
                Flip::Unsat
            }
            None => {
                self.ps.stats.unknown += 1;
                Flip::Unknown
            }
        }
    }

    /// Take the cursor's constraint, as taken, into the prefix.
    pub fn advance(&mut self) {
        let Some(con) = self.register() else {
            return;
        };
        let ps = &mut *self.ps;
        match *ps.cur_slots.as_slice() {
            [] => self.dead |= !holds(self.arena, con.expr, con.taken),
            [slot] => {
                let root = find(&mut ps.vars, slot);
                let mut seed_admitted = true;
                if let (Some(v), Some(set)) =
                    (ps.vars.get_mut(slot as usize), con.admits(con.taken))
                {
                    v.cand.intersect(&set);
                    self.dead |= v.cand.is_empty();
                    seed_admitted = v.cand.contains(v.seed);
                }
                if let Some(r) = ps.vars.get_mut(root as usize) {
                    r.seed_ok &= seed_admitted;
                    if r.multi_head == NONE {
                        // One variable (the root itself) and no search:
                        // its model is a pick, kept current in place.
                        r.model = pick(&r.cand, r.seed);
                    } else if !r.seed_ok {
                        mark_stale(r, &mut ps.stale, root);
                    }
                }
            }
            _ => {
                let mut root = NONE;
                for &slot in &ps.cur_slots {
                    let r = find(&mut ps.vars, slot);
                    root = if root == NONE {
                        r
                    } else {
                        union(&mut ps.vars, &mut ps.multi, root, r)
                    };
                    if let Some(v) = ps.vars.get_mut(slot as usize) {
                        v.mentions += 1;
                    }
                }
                let node = ps.multi.len() as u32;
                let slots = (ps.multi_slots.len() as u32, ps.cur_slots.len() as u32);
                ps.multi_slots.extend_from_slice(&ps.cur_slots);
                let head = ps.vars.get(root as usize).map_or(NONE, |r| r.multi_head);
                let next = match ps.multi.get_mut(head as usize) {
                    Some(h) => std::mem::replace(&mut h.next, node),
                    None => node,
                };
                ps.multi.push(MultiCon {
                    expr: con.expr,
                    want: con.taken,
                    slots,
                    next,
                });
                let seed_holds = {
                    let (slot_of, vars) = (&ps.slot_of, &ps.vars);
                    let lookup = |idx: u32| -> Option<u64> {
                        let slot = *slot_of.get(idx as usize)?;
                        vars.get(slot as usize).map(|v| v.seed as u64)
                    };
                    let verdict = self.arena.eval3(con.expr, &lookup).as_bool();
                    verdict.is_none_or(|r| r == con.taken)
                };
                if let Some(r) = ps.vars.get_mut(root as usize) {
                    r.multi_head = node;
                    r.seed_ok &= seed_holds;
                    if !r.seed_ok {
                        mark_stale(r, &mut ps.stale, root);
                    }
                }
            }
        }
        self.cur = None;
        self.cursor += 1;
    }

    /// Look the cursor's constraint up (once) and give its variables
    /// slots. `None` past the end of the path.
    fn register(&mut self) -> Option<Con> {
        if self.cur.is_none() {
            let rec = self.path.get(self.cursor)?;
            let key = *self.hashes.get(rec.constraint.0 as usize)?;
            let ps = &mut *self.ps;
            let entry = ps.memo.lookup(self.arena, rec.constraint, key);
            ps.cur_slots.clear();
            for &v in &entry.vars {
                let idx = v as usize;
                if ps.slot_of.len() <= idx {
                    ps.slot_of.resize(idx + 1, NONE);
                }
                let Some(slot) = ps.slot_of.get_mut(idx) else {
                    continue;
                };
                if *slot == NONE {
                    *slot = ps.vars.len() as u32;
                    let seed = (self.seed)(v);
                    // No constraint yet: the variable keeps its seed value.
                    ps.vars.push(VarState {
                        id: v,
                        seed,
                        cand: ByteSet::full(),
                        mentions: 0,
                        parent: *slot,
                        next: *slot,
                        multi_head: NONE,
                        settled: true,
                        seed_ok: true,
                        model: seed,
                        pos: 0,
                    });
                    ps.assign.push(ByteBits::UNKNOWN);
                }
                ps.cur_slots.push(*slot);
            }
            self.cur = Some(Con {
                expr: rec.constraint,
                taken: rec.taken,
                truthy: entry.truthy,
            });
        }
        self.cur
    }

    /// The flip at the cursor: `Some(true)` SAT (touched variables in
    /// `flip_sol`, the rest in their cached `model`), `Some(false)` UNSAT,
    /// `None` budget exhausted.
    fn answer(&mut self) -> Option<bool> {
        let con = self.register()?;
        if self.dead {
            return Some(false);
        }
        let mut roots = std::mem::take(&mut self.ps.roots);
        roots.clear();
        for &slot in &self.ps.cur_slots {
            let r = find(&mut self.ps.vars, slot);
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
        let touched = if self.ps.cur_slots.is_empty() && !holds(self.arena, con.expr, !con.taken) {
            Some(false)
        } else {
            self.solve_system(&roots, Some(con))
        };
        std::mem::swap(&mut self.ps.sol, &mut self.ps.flip_sol);
        if touched == Some(false) {
            self.ps.roots = roots;
            return Some(false);
        }

        // Every other component contributes its model as taken; bring the
        // out-of-date ones up to date.
        let mut unsat = false;
        let mut unknown = touched.is_none();
        let mut keep = 0;
        for k in 0..self.ps.stale.len() {
            let Some(&r) = self.ps.stale.get(k) else {
                break;
            };
            let out_of_date = self
                .ps
                .vars
                .get(r as usize)
                .is_some_and(|v| v.parent == r && !v.settled);
            if !out_of_date {
                continue;
            }
            let retain = roots.contains(&r)
                || match self.settle(r) {
                    Some(true) => false,
                    Some(false) => {
                        unsat = true;
                        false
                    }
                    None => {
                        unknown = true;
                        true
                    }
                };
            if retain {
                if let Some(entry) = self.ps.stale.get_mut(keep) {
                    *entry = r;
                }
                keep += 1;
            }
        }
        self.ps.stale.truncate(keep);
        self.ps.roots = roots;
        // A refuted as-taken component stays refuted as the prefix grows.
        self.dead |= unsat;
        if unsat {
            Some(false)
        } else if unknown {
            None
        } else {
            Some(true)
        }
    }

    /// Bring one component's cached model up to date.
    fn settle(&mut self, root: u32) -> Option<bool> {
        let verdict = self.solve_system(&[root], None);
        if verdict == Some(true) {
            let ps = &mut *self.ps;
            for &(slot, val) in &ps.sol {
                if let Some(v) = ps.vars.get_mut(slot as usize) {
                    v.model = val;
                }
            }
            if let Some(r) = ps.vars.get_mut(root as usize) {
                r.settled = true;
            }
        }
        verdict
    }

    /// Solve the components `roots` as taken — plus, when given, the
    /// cursor's constraint under the polarity it did *not* take (its
    /// variables, `cur_slots`, all lie in `roots`). The first solution in
    /// the reference's order lands in `sol`.
    fn solve_system(&mut self, roots: &[u32], negated: Option<Con>) -> Option<bool> {
        let ps = &mut *self.ps;
        ps.sys.clear();
        ps.sys_multi.clear();
        ps.watch.clear();
        ps.sol.clear();
        for &root in roots {
            let mut slot = root;
            while let Some(v) = ps.vars.get_mut(slot as usize) {
                v.pos = ps.sys.len() as u32;
                ps.sys.push(SysVar {
                    slot,
                    id: v.id,
                    seed: v.seed,
                    set: v.cand,
                    mentions: v.mentions,
                    watch: (0, 0),
                });
                slot = v.next;
                if slot == root {
                    break;
                }
            }
            let head = ps.vars.get(root as usize).map_or(NONE, |r| r.multi_head);
            let mut node = head;
            while let Some(con) = ps.multi.get(node as usize) {
                let mi = ps.sys_multi.len() as u32;
                ps.sys_multi.push((con.expr, con.want));
                let (start, len) = (con.slots.0 as usize, con.slots.1 as usize);
                let slots = ps.multi_slots.get(start..start + len).unwrap_or(&[]);
                ps.watch.extend(slots.iter().map(|&s| (s, mi)));
                node = con.next;
                if node == head {
                    break;
                }
            }
        }
        if let Some(con) = negated {
            let want = !con.taken;
            match *ps.cur_slots.as_slice() {
                [] => {}
                [slot] => {
                    let pos = ps.vars.get(slot as usize).map_or(NONE, |v| v.pos);
                    if let (Some(v), Some(set)) = (ps.sys.get_mut(pos as usize), con.admits(want)) {
                        v.set.intersect(&set);
                    }
                }
                _ => {
                    let mi = ps.sys_multi.len() as u32;
                    ps.sys_multi.push((con.expr, want));
                    for &slot in &ps.cur_slots {
                        ps.watch.push((slot, mi));
                        let pos = ps.vars.get(slot as usize).map_or(NONE, |v| v.pos);
                        if let Some(v) = ps.sys.get_mut(pos as usize) {
                            v.mentions += 1;
                        }
                    }
                }
            }
        }

        if ps.sys.iter().any(|v| v.set.is_empty()) {
            return Some(false);
        }
        if ps.sys_multi.is_empty() {
            // Independent variables with exact candidate sets.
            ps.sol
                .extend(ps.sys.iter().map(|v| (v.slot, pick(&v.set, v.seed))));
            return Some(true);
        }

        // Most-constrained variable first, then most-mentioned — the
        // reference's order. `watch` turns from (slot, constraint) into
        // per-position ranges of constraints to re-check.
        ps.sys
            .sort_unstable_by_key(|v| (v.set.len(), std::cmp::Reverse(v.mentions), v.id));
        for (pos, v) in ps.sys.iter().enumerate() {
            if let Some(state) = ps.vars.get_mut(v.slot as usize) {
                state.pos = pos as u32;
            }
        }
        for w in &mut ps.watch {
            w.0 = ps.vars.get(w.0 as usize).map_or(NONE, |v| v.pos);
        }
        ps.watch.sort_unstable();
        let mut at = 0u32;
        for (pos, v) in ps.sys.iter_mut().enumerate() {
            let lo = at;
            while ps.watch.get(at as usize).is_some_and(|w| w.0 == pos as u32) {
                at += 1;
            }
            v.watch = (lo, at);
        }

        let mut search = Search {
            arena: self.arena,
            slot_of: &ps.slot_of,
            sys: &ps.sys,
            multi: &ps.sys_multi,
            watch: &ps.watch,
            assign: &mut ps.assign,
            steps: 0,
            max_steps: ps.budget.max_steps,
        };
        let verdict = search.dfs(0);
        ps.stats.steps += search.steps;
        for v in &ps.sys {
            if let Some(tried) = ps.assign.get_mut(v.slot as usize) {
                if let (Some(true), Some(val)) = (verdict, tried.value()) {
                    ps.sol.push((v.slot, val));
                }
                *tried = ByteBits::UNKNOWN;
            }
        }
        verdict
    }
}

/// Consecutive on-the-spot refutations of one variable's values after
/// which [`Search::dfs`] probes the variable bit by bit. A constant, not a
/// knob: a probe costs up to 16 evaluations per watched constraint, so it
/// must not fire in searches that are a few dozen values long (gossip's
/// are ~18), and any value well under a byte's 256 serves those that are.
const PROBE_AFTER: u32 = 32;

/// Depth-first search over one system's dense tables; the value order and
/// the known-bits pruning are [`Solver::search`]'s.
struct Search<'a> {
    arena: &'a ExprArena,
    slot_of: &'a [u32],
    sys: &'a [SysVar],
    multi: &'a [Constraint],
    watch: &'a [(u32, u32)],
    assign: &'a mut [ByteBits],
    steps: u64,
    max_steps: u64,
}

impl Search<'_> {
    /// The reference's search, minus the values it is known in advance to
    /// refute on the spot: after [`PROBE_AFTER`] such refutations in a row
    /// the node asks [`Search::probe`] which of its remaining values a
    /// single bit already rules out, and skips those. Only values
    /// `consistent` would reject are skipped, inside the node that would
    /// have tried them, so variable order, value order and the first
    /// solution found are the reference's.
    fn dfs(&mut self, depth: usize) -> Option<bool> {
        let sys = self.sys;
        let Some(var) = sys.get(depth) else {
            return Some(true);
        };
        let seed_first = var.set.contains(var.seed).then_some(var.seed);
        let mut live = ByteSet::full();
        let mut refuted_run = 0;
        for val in seed_first
            .into_iter()
            .chain(var.set.iter().filter(|&x| x != var.seed))
        {
            if !live.contains(val) {
                continue;
            }
            self.steps += 1;
            if self.steps > self.max_steps {
                return None;
            }
            self.know(var, ByteBits::exact(val));
            if self.consistent(var) {
                refuted_run = 0;
                match self.dfs(depth + 1) {
                    Some(false) => {}
                    done => return done,
                }
            } else {
                refuted_run += 1;
                if refuted_run == PROBE_AFTER {
                    refuted_run = 0;
                    live = self.probe(var);
                }
            }
        }
        self.know(var, ByteBits::UNKNOWN);
        Some(false)
    }

    /// The values of `var` that no single bit refutes: with the variables
    /// before it as assigned and those after it unknown, as `dfs` holds
    /// them, know one bit of `var` at one polarity and re-check its
    /// watched constraints. `eval3` is monotone in information, so a
    /// constraint refuted by that bit alone is refuted by every value
    /// carrying it.
    fn probe(&mut self, var: &SysVar) -> ByteSet {
        let mut live = ByteSet::full();
        for bit in 0..8u8 {
            let ones = ByteSet::with_bit(bit);
            for (val, others) in [(0, ones), (1 << bit, ones.complement())] {
                let known = 1 << bit;
                self.know(var, ByteBits { known, val });
                if !self.consistent(var) {
                    live.intersect(&others);
                }
            }
        }
        live
    }

    fn know(&mut self, var: &SysVar, bits: ByteBits) {
        if let Some(known) = self.assign.get_mut(var.slot as usize) {
            *known = bits;
        }
    }

    /// No constraint mentioning `var` is refuted by the bits known so far.
    fn consistent(&self, var: &SysVar) -> bool {
        let lookup = |idx: u32| -> ByteBits {
            let slot = self.slot_of.get(idx as usize).copied().unwrap_or(NONE);
            self.assign
                .get(slot as usize)
                .copied()
                .unwrap_or(ByteBits::UNKNOWN)
        };
        let (lo, hi) = (var.watch.0 as usize, var.watch.1 as usize);
        self.watch
            .get(lo..hi)
            .unwrap_or(&[])
            .iter()
            .all(|&(_, mi)| {
                self.multi.get(mi as usize).is_none_or(|&(e, want)| {
                    self.arena
                        .eval3_bits(e, &lookup)
                        .as_bool()
                        .is_none_or(|r| r == want)
                })
            })
    }
}

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

/// Union-find lookup with path halving.
fn find(vars: &mut [VarState], mut slot: u32) -> u32 {
    while let Some(parent) = vars.get(slot as usize).map(|v| v.parent) {
        if parent == slot {
            break;
        }
        let grand = vars.get(parent as usize).map_or(parent, |v| v.parent);
        if let Some(v) = vars.get_mut(slot as usize) {
            v.parent = grand;
        }
        slot = grand;
    }
    slot
}

/// Merge root `b` into root `a`: splice the circular member lists and the
/// circular constraint lists.
fn union(vars: &mut [VarState], multi: &mut [MultiCon], a: u32, b: u32) -> u32 {
    if a == b {
        return a;
    }
    let (Some(va), Some(vb)) = (vars.get(a as usize).copied(), vars.get(b as usize).copied())
    else {
        return a;
    };
    if let Some(v) = vars.get_mut(b as usize) {
        v.parent = a;
        v.next = va.next;
    }
    if let Some(v) = vars.get_mut(a as usize) {
        v.next = vb.next;
        v.seed_ok &= vb.seed_ok;
        if va.multi_head == NONE {
            v.multi_head = vb.multi_head;
        }
    }
    let next_of = |multi: &[MultiCon], node: u32| multi.get(node as usize).map(|m| m.next);
    if let (Some(na), Some(nb)) = (next_of(multi, va.multi_head), next_of(multi, vb.multi_head)) {
        if let Some(m) = multi.get_mut(va.multi_head as usize) {
            m.next = nb;
        }
        if let Some(m) = multi.get_mut(vb.multi_head as usize) {
            m.next = na;
        }
    }
    a
}

/// Record that root `r`'s cached model no longer covers its constraints.
fn mark_stale(r: &mut VarState, stale: &mut Vec<u32>, root: u32) {
    if r.settled {
        r.settled = false;
        stale.push(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

    fn seed_zero(_: u32) -> u8 {
        0
    }

    #[test]
    fn byteset_basics() {
        let mut s = ByteSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(255);
        s.insert(100);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(255) && s.contains(100));
        s.remove(100);
        assert!(!s.contains(100));
        let all = ByteSet::full();
        assert_eq!(all.len(), 256);
        let mut inter = all;
        inter.intersect(&s);
        assert_eq!(inter.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 255]);
    }

    #[test]
    fn byteset_iter_and_complement_agree_with_membership() {
        let mut s = ByteSet::empty();
        for v in [0u8, 1, 63, 64, 65, 127, 128, 191, 192, 254, 255] {
            s.insert(v);
        }
        let members =
            |set: &ByteSet| -> Vec<u8> { (0..=u8::MAX).filter(|&v| set.contains(v)).collect() };
        assert_eq!(s.iter().collect::<Vec<_>>(), members(&s));
        assert_eq!(s.first(), Some(0));
        let c = s.complement();
        assert_eq!(c.iter().collect::<Vec<_>>(), members(&c));
        assert_eq!(c.len() + s.len(), 256);
        assert!((0..=u8::MAX).all(|v| c.contains(v) != s.contains(v)));
        assert_eq!(c.first(), Some(2));
        assert_eq!(ByteSet::empty().first(), None);
        assert_eq!(ByteSet::full().complement(), ByteSet::empty());
    }

    #[test]
    fn with_bit_agrees_with_membership() {
        for bit in 0..8u8 {
            let ones = ByteSet::with_bit(bit);
            assert!((0..=u8::MAX).all(|v| ones.contains(v) == (v >> bit & 1 == 1)));
        }
    }

    #[test]
    fn negated_unary_set_is_the_complement_of_the_swept_one() {
        // The single-variable constraints of the `solver_bench` shapes
        // (dispatch chain, NLRI length bounds), masked and arithmetic
        // ones, and 16- / 32-bit words over one byte with width-masked
        // arithmetic: the one-pass lane sweep gives what 256 `eval` walks
        // give, and sweeping for the falsy polarity gives exactly the
        // complement of the memoized truthy set.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let mut shapes = Vec::new();
        for k in [1u64, 7, 0xF5] {
            let c = a.constant(8, k);
            shapes.push(a.cmp(CmpOp::Eq, x, c));
        }
        let lo = a.constant(8, 8);
        let hi = a.constant(8, 24);
        shapes.push(a.cmp(CmpOp::Ule, lo, x));
        shapes.push(a.cmp(CmpOp::Ule, x, hi));
        let mask = a.constant(8, 0xF0);
        let masked = a.bin(BinOp::And, 8, x, mask);
        let want = a.constant(8, 0x40);
        shapes.push(a.cmp(CmpOp::Ne, masked, want));
        let doubled = a.bin(BinOp::Add, 8, x, x);
        shapes.push(a.cmp(CmpOp::Ult, doubled, hi));
        let either = a.boolean(crate::expr::BoolOp::Or, shapes[0], shapes[4]);
        shapes.push(either);
        let neither = a.not(either);
        shapes.push(a.boolean(crate::expr::BoolOp::And, neither, shapes[5]));
        // A 16-bit word with a pinned high byte, as a length field whose
        // first byte the parser already compared.
        let x16 = a.zext(16, x);
        let page = a.constant(16, 0x0F00);
        let len = a.bin(BinOp::Or, 16, page, x16);
        let bound = a.constant(16, 0x0F80);
        shapes.push(a.cmp(CmpOp::Ult, len, bound));
        let step = a.constant(16, 0xF0C0);
        let wrapped = a.bin(BinOp::Add, 16, len, step);
        shapes.push(a.cmp(CmpOp::Ule, wrapped, bound));
        let squared = a.bin(BinOp::Mul, 16, x16, x16);
        let low = a.bin(BinOp::Sub, 16, squared, bound);
        shapes.push(a.cmp(CmpOp::Ult, low, page));
        // A 32-bit word the byte occupies twice, shifted out of its width
        // and back.
        let x32 = a.zext(32, x);
        let k24 = a.constant(32, 24);
        let k20 = a.constant(32, 20);
        let k64 = a.constant(32, 64);
        let top = a.bin(BinOp::Shl, 32, x32, k24);
        let both = a.bin(BinOp::Xor, 32, top, x32);
        let addr = a.constant(32, 0x0A00_000A);
        shapes.push(a.cmp(CmpOp::Eq, both, addr));
        let back = a.bin(BinOp::Shr, 32, both, k20);
        let nibble = a.constant(32, 0x7F);
        shapes.push(a.cmp(CmpOp::Ule, back, nibble));
        let gone = a.bin(BinOp::Shl, 32, both, k64);
        shapes.push(a.cmp(CmpOp::Ne, gone, addr));
        // The sweep's variable need not be byte 0; a two-byte expression
        // has its variables listed and is not swept.
        let (y, z) = (a.input(5), a.input(6));
        let y32 = a.zext(32, y);
        let scaled = a.bin(BinOp::Mul, 32, y32, addr);
        shapes.push(a.cmp(CmpOp::Ult, scaled, addr));
        let pair = a.cmp(CmpOp::Ult, z, y);
        let scratch = &mut LaneScratch::default();
        assert_eq!(a.sweep(pair, scratch), (&[5u32, 6][..], None));

        for e in shapes {
            let (vars, lanes) = a.sweep(e, scratch);
            let &[v] = vars else {
                panic!("{} is not unary: {vars:?}", a.render(e));
            };
            assert_eq!(vec![v], a.vars(e));
            let lanes = *lanes.expect("a unary constraint is swept");
            for byte in 0..=u8::MAX {
                let lookup = |idx: u32| (idx == v).then_some(byte as u64);
                assert_eq!(Some(lanes[byte as usize]), a.eval(e, &lookup));
            }
            let truthy = ByteSet::truthy(&lanes);
            for want in [true, false] {
                let mut swept = ByteSet::empty();
                for byte in 0..=u8::MAX {
                    let r = a.eval(e, &|_| Some(byte as u64));
                    if r.is_some_and(|r| (r != 0) == want) {
                        swept.insert(byte);
                    }
                }
                let derived = if want { truthy } else { truthy.complement() };
                assert_eq!(derived, swept, "{} want={want}", a.render(e));
            }
        }
    }

    #[test]
    fn solves_single_byte_equality() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 0xF5);
        let c = a.cmp(CmpOp::Eq, x, k);
        let mut s = Solver::new();
        match s.solve(&a, &[(c, true)], &seed_zero) {
            SolveResult::Sat(m) => assert_eq!(m[&0], 0xF5),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negated_equality_avoids_value() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 7);
        let c = a.cmp(CmpOp::Eq, x, k);
        let mut s = Solver::new();
        match s.solve(&a, &[(c, false)], &|_| 7) {
            SolveResult::Sat(m) => assert_ne!(m[&0], 7),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn detects_unsat_single_var() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k5 = a.constant(8, 5);
        let k9 = a.constant(8, 9);
        let c1 = a.cmp(CmpOp::Eq, x, k5);
        let c2 = a.cmp(CmpOp::Eq, x, k9);
        let mut s = Solver::new();
        assert_eq!(
            s.solve(&a, &[(c1, true), (c2, true)], &seed_zero),
            SolveResult::Unsat
        );
    }

    #[test]
    fn solves_u16_length_bound() {
        // (in[0] << 8 | in[1]) >= 0x0F00 — the shape of the seeded-bug
        // trigger constraint.
        let mut a = ExprArena::new();
        let hi = a.input(0);
        let lo = a.input(1);
        let hi16 = a.zext(16, hi);
        let lo16 = a.zext(16, lo);
        let k8 = a.constant(16, 8);
        let sh = a.bin(BinOp::Shl, 16, hi16, k8);
        let word = a.bin(BinOp::Or, 16, sh, lo16);
        let bound = a.constant(16, 0x0F00);
        let lt = a.cmp(CmpOp::Ult, word, bound);
        let mut s = Solver::new();
        match s.solve(&a, &[(lt, false)], &seed_zero) {
            SolveResult::Sat(m) => {
                let w = ((m[&0] as u16) << 8) | m[&1] as u16;
                assert!(w >= 0x0F00, "got {w:#x}");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn model_prefers_seed_values() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 100);
        let c = a.cmp(CmpOp::Ule, x, k); // in[0] <= 100
        let mut s = Solver::new();
        match s.solve(&a, &[(c, true)], &|_| 42) {
            SolveResult::Sat(m) => assert_eq!(m[&0], 42, "seed within range is kept"),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_multivar_exhausts() {
        // in[0] ^ in[1] == 1 AND in[0] == in[1] is unsatisfiable.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let y = a.input(1);
        let xor = a.bin(BinOp::Xor, 8, x, y);
        let one = a.constant(8, 1);
        let c1 = a.cmp(CmpOp::Eq, xor, one);
        let c2 = a.cmp(CmpOp::Eq, x, y);
        let mut s = Solver::new();
        assert_eq!(
            s.solve(&a, &[(c1, true), (c2, true)], &seed_zero),
            SolveResult::Unsat
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A hard 3-var relation with a tiny budget.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let y = a.input(1);
        let z = a.input(2);
        let xy = a.bin(BinOp::Mul, 8, x, y);
        let xyz = a.bin(BinOp::Mul, 8, xy, z);
        let k = a.constant(8, 251);
        let c = a.cmp(CmpOp::Eq, xyz, k);
        let mut s = Solver::with_budget(SolverBudget { max_steps: 10 });
        let r = s.solve(&a, &[(c, true)], &seed_zero);
        assert_eq!(r, SolveResult::Unknown);
        assert_eq!(s.stats.unknown, 1);
    }

    #[test]
    fn sat_models_always_check() {
        // Randomized soundness: any SAT model must satisfy its system.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut a = ExprArena::new();
            let mut cons: Vec<Constraint> = Vec::new();
            for _ in 0..(1 + rnd() % 4) {
                let v0 = a.input((rnd() % 3) as u32);
                let v1 = a.input((rnd() % 3) as u32);
                let k = a.constant(8, rnd() % 256);
                let mix = a.bin(
                    match rnd() % 3 {
                        0 => BinOp::Add,
                        1 => BinOp::Xor,
                        _ => BinOp::And,
                    },
                    8,
                    v0,
                    v1,
                );
                let c = a.cmp(
                    match rnd() % 3 {
                        0 => CmpOp::Eq,
                        1 => CmpOp::Ult,
                        _ => CmpOp::Ule,
                    },
                    mix,
                    k,
                );
                cons.push((c, rnd() % 2 == 0));
            }
            let mut s = Solver::new();
            if let SolveResult::Sat(model) = s.solve(&a, &cons, &seed_zero) {
                assert!(
                    Solver::check(&a, &cons, &model, &seed_zero),
                    "model failed its own constraints"
                );
            }
        }
    }

    #[test]
    fn negation_query_shape() {
        use crate::ctx::{BranchRec, SiteId};
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k1 = a.constant(8, 1);
        let k2 = a.constant(8, 2);
        let c1 = a.cmp(CmpOp::Eq, x, k1);
        let c2 = a.cmp(CmpOp::Ult, x, k2);
        let path = vec![
            BranchRec {
                site: SiteId(1),
                constraint: c1,
                taken: false,
            },
            BranchRec {
                site: SiteId(2),
                constraint: c2,
                taken: true,
            },
        ];
        let q = negation_query(&path, 1);
        assert_eq!(q, vec![(c1, false), (c2, false)]);
        let q0 = negation_query(&path, 0);
        assert_eq!(q0, vec![(c1, true)]);
    }
}
