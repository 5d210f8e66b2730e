//! The reference solver: one whole constraint system per call, answered
//! from scratch. [`Solver::solve`] on [`negation_query`] defines the
//! answers [`PathSolver`](super::PathSolver) must reproduce: it is the
//! oracle of the differential tests, and exploration never runs it.

use super::{holds, pick, ByteSet, Constraint, SolveResult, SolverBudget, SolverStats};
use crate::ctx::BranchRec;
use crate::expr::{ExprArena, ExprId};
use std::collections::BTreeMap;

/// The solver. Holds no state besides statistics; borrow an arena per call.
#[derive(Debug, Default)]
pub struct Solver {
    /// Cumulative statistics.
    pub stats: SolverStats,
    /// Budget applied to each query.
    pub budget: SolverBudget,
}

/// Build the constraint system "path prefix holds, branch `k` negated" —
/// the concolic negation query.
#[expect(
    clippy::indexing_slicing,
    reason = "k < path.len() is asserted on entry"
)]
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
    #[expect(
        clippy::indexing_slicing,
        reason = "con_vars is built per-constraint above and shares the constraint index"
    )]
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
        order.sort_by_key(|&v| {
            let size = candidates.get(&v).map_or(0, ByteSet::len);
            (size, usize::MAX - mentions(v), v)
        });

        let mut assignment: BTreeMap<u32, u8> = BTreeMap::new();
        let mut steps = 0u64;
        self.stats.searches += 1;
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
    #[expect(
        clippy::too_many_arguments,
        reason = "one recursion frame of the reference search: bundling its state would only rename the arguments"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "order and candidates are built over the same var set; depth < order.len() is the recursion guard"
    )]
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
        let set = candidates.get(&v)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

    fn seed_zero(_: u32) -> u8 {
        0
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
