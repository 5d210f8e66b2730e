//! One forward pass per executed path: [`PathSolver`] and its cursor,
//! [`PathPass`].

use super::memo::UnaryMemo;
use super::search::{Search, SysCon, SysVar};
use super::{holds, pick, ByteSet, Flip, SolverBudget, SolverStats, NONE};
#[cfg(doc)]
use super::{negation_query, Solver};
use crate::ctx::BranchRec;
use crate::expr::{ByteBits, Eval3Memo, ExprArena, ExprId};

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
///
/// **What it remembers, and for how long.** Two memos outlive a path: the
/// [`UnaryMemo`] (each branch constraint's variables and unary set) and a
/// per-node table of ternary values (`ExprArena::eval3_memo`) that a
/// search fills under one assignment — `Search::know`, the one place the
/// assignment changes, starts the next — so a node two others take as an
/// operand (the gossip topic word under 16 equalities) is walked once per
/// assignment, not once per parent. The
/// as-taken check of a constraint over executed bytes only is its
/// recorded direction (see [`PathSolver::begin`]). Both memos name nodes
/// by [`ExprId`], so a solver serves one arena for as long as it lives:
/// the arena may grow between passes, never restart
/// ([`PathSolver::begin`] debug-asserts it). In exploration the solver
/// lives in an [`ExploreState`](crate::ExploreState) with its arena — one
/// session, or every session of a campaign worker's sweep. What either
/// memo holds is a function of a node's structure alone, so a warm solver
/// answers exactly as a fresh one.
#[derive(Debug, Default)]
pub struct PathSolver {
    /// Cumulative statistics: `queries`/`sat`/`unsat`/`unknown` count
    /// flips, `steps` every search step (of flipped components and of
    /// cached component models alike).
    pub stats: SolverStats,
    /// Budget applied to each component search.
    pub budget: SolverBudget,
    memo: UnaryMemo,
    /// Each shared node's ternary value under the assignment at hand — a
    /// search's, or the seed's where `advance` checks a constraint.
    eval3: Eval3Memo,
    /// The arena's length at the last `begin`: both memos are keyed by
    /// [`ExprId`], so it may only grow.
    arena_len: usize,
    // State of the current path, reset by `begin` (capacity is kept, so a
    // session allocates these once). Variables are numbered densely, in
    // order of first appearance, as *slots*.
    /// Variable index → slot.
    slot_of: Vec<u32>,
    vars: Vec<VarState>,
    /// Slot → what the search knows of the variable: its value under
    /// trial; all unknown between searches.
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
    sys_multi: Vec<SysCon>,
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
    con: SysCon,
    /// `(start, len)` in `multi_slots`.
    slots: (u32, u32),
    /// Next constraint of the same component (circular).
    next: u32,
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

    /// Constraints the cross-path memo had to sweep so far.
    pub fn memo_misses(&self) -> u64 {
        self.memo.misses
    }

    /// Start the pass over one executed path; `seed` is the executed
    /// input, as for [`Solver::solve`]. Variables below `executed` are the
    /// bytes the path was executed on: a constraint over them alone took
    /// its recorded direction under their `seed` values, so its as-taken
    /// check is not evaluated (release builds) — pass 0 for a path whose
    /// directions were not recorded by running `seed`. The memos are keyed
    /// by [`ExprId`]: every pass of one solver must be over the same
    /// arena, which may have grown since the last pass but never
    /// restarted.
    pub fn begin<'a>(
        &'a mut self,
        arena: &'a ExprArena,
        path: &'a [BranchRec],
        seed: &'a dyn Fn(u32) -> u8,
        executed: u32,
    ) -> PathPass<'a> {
        debug_assert!(
            arena.len() >= self.arena_len,
            "a path solver's arena shrank ({} → {} nodes): its memos name nodes by id",
            self.arena_len,
            arena.len()
        );
        self.arena_len = arena.len();
        self.eval3.reset(arena);
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
            seed,
            executed,
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
    seed: &'a dyn Fn(u32) -> u8,
    /// Variables below it are executed input bytes (see [`PathSolver::begin`]).
    executed: u32,
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
                    con: SysCon {
                        expr: con.expr,
                        want: con.taken,
                    },
                    slots,
                    next,
                });
                let seed_holds = {
                    let (slot_of, vars, memo) = (&ps.slot_of, &ps.vars, &ps.eval3);
                    let seed = |idx: u32| -> ByteBits {
                        let slot = slot_of.get(idx as usize).copied().unwrap_or(NONE);
                        vars.get(slot as usize)
                            .map_or(ByteBits::UNKNOWN, |v| ByteBits::exact(v.seed))
                    };
                    let holds = || {
                        memo.next();
                        let verdict = self.arena.eval3_memo(con.expr, &seed, memo).as_bool();
                        verdict.is_none_or(|r| r == con.taken)
                    };
                    // Over executed bytes only, the execution evaluated
                    // it on exactly the seed values: the recorded
                    // direction is the verdict. An oracle pseudo-byte's
                    // seed may not be what the execution read.
                    let executed = ps.cur_slots.iter().all(|&slot| {
                        vars.get(slot as usize)
                            .is_some_and(|v| v.id < self.executed)
                    });
                    if executed {
                        debug_assert!(
                            holds(),
                            "the seed takes {} the other way",
                            self.arena.render(con.expr)
                        );
                        true
                    } else {
                        holds()
                    }
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
            let ps = &mut *self.ps;
            let (vars, truthy) = ps.memo.lookup(self.arena, rec.constraint);
            ps.cur_slots.clear();
            for &v in vars {
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
                truthy,
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
                ps.sys_multi.push(con.con);
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
                    ps.sys_multi.push(SysCon {
                        expr: con.expr,
                        want,
                    });
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

        ps.eval3.next();
        let mut search = Search {
            arena: self.arena,
            memo: &ps.eval3,
            slot_of: &ps.slot_of,
            sys: &ps.sys,
            multi: &ps.sys_multi,
            watch: &ps.watch,
            assign: &mut ps.assign,
            steps: 0,
            max_steps: ps.budget.max_steps,
        };
        let verdict = search.dfs(0);
        ps.stats.searches += 1;
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
