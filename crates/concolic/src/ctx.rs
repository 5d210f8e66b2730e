//! The concolic execution context: concrete values shadowed by symbolic
//! expressions, and the path condition recorded at every branch.
//!
//! Instrumented code reads input bytes through [`ConcolicCtx::read_u8`] &c.,
//! computes on [`SymWord`]s via the ctx combinators, and funnels every
//! conditional through [`ConcolicCtx::branch`], which records the constraint
//! and returns the concrete outcome so execution proceeds concretely —
//! CONCrete + symbOLIC.

use crate::expr::{BinOp, BoolOp, CmpOp, ExprArena, ExprId};

/// A word value: always has a concrete value; optionally a symbolic
/// expression when it depends on symbolic input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymWord {
    /// Concrete value (masked to `bits`).
    pub val: u64,
    /// Width in bits.
    pub bits: u8,
    /// Symbolic shadow, if input-dependent.
    pub expr: Option<ExprId>,
}

impl SymWord {
    /// A pure concrete word.
    pub fn concrete(bits: u8, val: u64) -> Self {
        SymWord {
            val: val & mask(bits),
            bits,
            expr: None,
        }
    }

    /// Whether the word depends on symbolic input.
    pub fn is_symbolic(&self) -> bool {
        self.expr.is_some()
    }
}

/// A boolean value with optional symbolic shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymBool {
    /// Concrete truth value.
    pub val: bool,
    /// Symbolic shadow, if input-dependent.
    pub expr: Option<ExprId>,
}

impl SymBool {
    /// A pure concrete boolean.
    pub fn concrete(val: bool) -> Self {
        SymBool { val, expr: None }
    }
}

fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Identity of a branch site in the instrumented program. Stable across
/// runs — use constants in the instrumented code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// One recorded branch: the constraint expression and the direction taken.
#[derive(Debug, Clone, Copy)]
pub struct BranchRec {
    /// Which branch site.
    pub site: SiteId,
    /// Constraint as written in the code (true = condition held).
    pub constraint: ExprId,
    /// Direction concretely taken.
    pub taken: bool,
}

/// The program input with a symbolic-marking mask.
#[derive(Debug, Clone, Default)]
pub struct SymInput {
    /// Concrete bytes.
    pub bytes: Vec<u8>,
    /// Which byte positions are symbolic.
    pub symbolic: Vec<bool>,
}

impl SymInput {
    /// All bytes symbolic.
    pub fn all_symbolic(bytes: Vec<u8>) -> Self {
        let symbolic = vec![true; bytes.len()];
        SymInput { bytes, symbolic }
    }

    /// No bytes symbolic (pure concrete run).
    pub fn all_concrete(bytes: Vec<u8>) -> Self {
        let symbolic = vec![false; bytes.len()];
        SymInput { bytes, symbolic }
    }

    /// Bytes with an explicit mask (lengths must agree).
    pub fn with_mask(bytes: Vec<u8>, symbolic: Vec<bool>) -> Self {
        assert_eq!(bytes.len(), symbolic.len(), "mask length mismatch");
        SymInput { bytes, symbolic }
    }

    /// Mark the inclusive byte range `start..=end` as symbolic, as far as
    /// the input reaches: an `end` past the last byte marks up to the last
    /// byte, and a range that starts past it, an inverted one, or any range
    /// over an empty input marks nothing.
    pub fn mark_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.symbolic.len().saturating_sub(1));
        if let Some(range) = self.symbolic.get_mut(start..=end) {
            range.fill(true);
        }
    }
}

/// The concolic execution context for one run.
#[derive(Debug)]
pub struct ConcolicCtx {
    arena: ExprArena,
    input: SymInput,
    path: Vec<BranchRec>,
    /// Extra "oracle" symbolic booleans introduced by the instrumentation
    /// (e.g. the route-preference condition). They live past the end of the
    /// real input bytes: oracle k is pseudo-byte `input.len() + k`.
    oracles: u32,
    /// Explorer-chosen values for oracle pseudo-bytes; absent entries use
    /// the instrumentation's default.
    oracle_overlay: std::collections::BTreeMap<u32, u8>,
}

impl ConcolicCtx {
    /// Start a run over the given input.
    pub fn new(input: SymInput) -> Self {
        Self::with_oracles(input, std::collections::BTreeMap::new())
    }

    /// Start a run with explorer-provided oracle values (pseudo-byte index
    /// → value); solver models for oracle variables are fed back this way.
    pub fn with_oracles(
        input: SymInput,
        oracle_overlay: std::collections::BTreeMap<u32, u8>,
    ) -> Self {
        Self::continuing(input, oracle_overlay, ExprArena::new(), Vec::new())
    }

    /// [`ConcolicCtx::with_oracles`] as the next run of an exploration
    /// session: `arena` holds every expression the session's earlier runs
    /// interned and *continues* — this run finds most of its nodes already
    /// there and adds only what is new, so within a session one structure
    /// has one [`ExprId`] — and `path` is a used path vector (emptied
    /// here, its allocation kept). [`ConcolicCtx::into_parts`] hands both
    /// back.
    pub fn continuing(
        input: SymInput,
        oracle_overlay: std::collections::BTreeMap<u32, u8>,
        arena: ExprArena,
        mut path: Vec<BranchRec>,
    ) -> Self {
        path.clear();
        ConcolicCtx {
            arena,
            input,
            path,
            oracles: 0,
            oracle_overlay,
        }
    }

    /// Take the run apart: the input and oracle overlay it was started
    /// with, its arena and its path vector.
    pub fn into_parts(
        self,
    ) -> (
        SymInput,
        std::collections::BTreeMap<u32, u8>,
        ExprArena,
        Vec<BranchRec>,
    ) {
        (self.input, self.oracle_overlay, self.arena, self.path)
    }

    /// The explorer-chosen oracle values this run was started with.
    pub fn oracle_overlay(&self) -> &std::collections::BTreeMap<u32, u8> {
        &self.oracle_overlay
    }

    /// The input being executed.
    pub fn input(&self) -> &SymInput {
        &self.input
    }

    /// The expression arena (for the solver).
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The recorded path condition, in execution order.
    pub fn path(&self) -> &[BranchRec] {
        &self.path
    }

    /// Number of oracle variables introduced so far.
    pub fn oracle_count(&self) -> u32 {
        self.oracles
    }

    /// A compact signature of the executed path (site/direction sequence).
    pub fn path_signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &self.path {
            h ^= (b.site.0 as u64) << 1 | b.taken as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    // ------------------------------------------------------------------
    // Reading input
    // ------------------------------------------------------------------

    /// Whether the input has a byte at `idx`.
    pub fn in_bounds(&self, idx: usize) -> bool {
        idx < self.input.bytes.len()
    }

    /// Read byte `idx`; symbolic if marked. Panics when out of bounds —
    /// instrumented code must bounds-check with [`ConcolicCtx::branch`]
    /// first, exactly like the real parser.
    #[expect(
        clippy::indexing_slicing,
        reason = "out-of-bounds reads are the documented bug signal; instrumented parsers bounds-check via branch() first"
    )]
    pub fn read_u8(&mut self, idx: usize) -> SymWord {
        let b = self.input.bytes[idx];
        if self.input.symbolic[idx] {
            let e = self.arena.input(idx as u32);
            SymWord {
                val: b as u64,
                bits: 8,
                expr: Some(e),
            }
        } else {
            SymWord::concrete(8, b as u64)
        }
    }

    /// Read a big-endian u16 at `idx`.
    pub fn read_u16_be(&mut self, idx: usize) -> SymWord {
        let hi = self.read_u8(idx);
        let lo = self.read_u8(idx + 1);
        let hi16 = self.zext(16, hi);
        let lo16 = self.zext(16, lo);
        let sh = self.shl_const(hi16, 8);
        self.bin(BinOp::Or, sh, lo16)
    }

    /// Read a big-endian u32 at `idx`.
    pub fn read_u32_be(&mut self, idx: usize) -> SymWord {
        let hi = self.read_u16_be(idx);
        let lo = self.read_u16_be(idx + 2);
        let hi32 = self.zext(32, hi);
        let lo32 = self.zext(32, lo);
        let sh = self.shl_const(hi32, 16);
        self.bin(BinOp::Or, sh, lo32)
    }

    /// Introduce a fresh symbolic oracle boolean. The concrete value is the
    /// explorer's overlay entry when present, otherwise `default`. Used to
    /// mark *conditions* (not data) symbolic — the paper's treatment of the
    /// route-preference outcome.
    pub fn oracle_bool(&mut self, default: bool) -> SymBool {
        let idx = self.input.bytes.len() as u32 + self.oracles;
        self.oracles += 1;
        let concrete = match self.oracle_overlay.get(&idx) {
            Some(&b) => b & 1 == 1,
            None => default,
        };
        let byte = self.arena.input(idx);
        let one = self.arena.constant(8, 1);
        let band = self.arena.bin(BinOp::And, 8, byte, one);
        let k = self.arena.constant(8, 1);
        let e = self.arena.cmp(CmpOp::Eq, band, k);
        SymBool {
            val: concrete,
            expr: Some(e),
        }
    }

    // ------------------------------------------------------------------
    // Word combinators
    // ------------------------------------------------------------------

    /// A concrete literal.
    pub fn lit(&mut self, bits: u8, val: u64) -> SymWord {
        SymWord::concrete(bits, val)
    }

    /// Zero-extend to `bits`.
    pub fn zext(&mut self, bits: u8, a: SymWord) -> SymWord {
        debug_assert!(bits >= a.bits);
        SymWord {
            val: a.val,
            bits,
            expr: a.expr.map(|e| self.arena.zext(bits, e)),
        }
    }

    /// Binary operation; operands must have equal width.
    pub fn bin(&mut self, op: BinOp, a: SymWord, b: SymWord) -> SymWord {
        debug_assert_eq!(a.bits, b.bits, "width mismatch in {op:?}");
        let bits = a.bits;
        let val = match op {
            BinOp::Add => a.val.wrapping_add(b.val),
            BinOp::Sub => a.val.wrapping_sub(b.val),
            BinOp::Mul => a.val.wrapping_mul(b.val),
            BinOp::And => a.val & b.val,
            BinOp::Or => a.val | b.val,
            BinOp::Xor => a.val ^ b.val,
            BinOp::Shl => {
                if b.val >= 64 {
                    0
                } else {
                    a.val << b.val
                }
            }
            BinOp::Shr => {
                if b.val >= 64 {
                    0
                } else {
                    a.val >> b.val
                }
            }
        } & mask(bits);
        let expr = match (a.expr, b.expr) {
            (None, None) => None,
            _ => {
                let ea = self.expr_of(a);
                let eb = self.expr_of(b);
                Some(self.arena.bin(op, bits, ea, eb))
            }
        };
        SymWord { val, bits, expr }
    }

    /// Shift left by a constant.
    pub fn shl_const(&mut self, a: SymWord, k: u8) -> SymWord {
        let kw = SymWord::concrete(a.bits, k as u64);
        self.bin(BinOp::Shl, a, kw)
    }

    /// Bitwise-and with a constant.
    pub fn and_const(&mut self, a: SymWord, k: u64) -> SymWord {
        let kw = SymWord::concrete(a.bits, k);
        self.bin(BinOp::And, a, kw)
    }

    /// Add a constant.
    pub fn add_const(&mut self, a: SymWord, k: u64) -> SymWord {
        let kw = SymWord::concrete(a.bits, k);
        self.bin(BinOp::Add, a, kw)
    }

    fn expr_of(&mut self, w: SymWord) -> ExprId {
        match w.expr {
            Some(e) => e,
            None => self.arena.constant(w.bits, w.val),
        }
    }

    // ------------------------------------------------------------------
    // Comparisons and booleans
    // ------------------------------------------------------------------

    /// Compare two words.
    pub fn cmp(&mut self, op: CmpOp, a: SymWord, b: SymWord) -> SymBool {
        let val = match op {
            CmpOp::Eq => a.val == b.val,
            CmpOp::Ne => a.val != b.val,
            CmpOp::Ult => a.val < b.val,
            CmpOp::Ule => a.val <= b.val,
        };
        let expr = match (a.expr, b.expr) {
            (None, None) => None,
            _ => {
                let ea = self.expr_of(a);
                let eb = self.expr_of(b);
                Some(self.arena.cmp(op, ea, eb))
            }
        };
        SymBool { val, expr }
    }

    /// `a == k` against a constant.
    pub fn eq_const(&mut self, a: SymWord, k: u64) -> SymBool {
        let kw = SymWord::concrete(a.bits, k);
        self.cmp(CmpOp::Eq, a, kw)
    }

    /// `a <= k` against a constant.
    pub fn ule_const(&mut self, a: SymWord, k: u64) -> SymBool {
        let kw = SymWord::concrete(a.bits, k);
        self.cmp(CmpOp::Ule, a, kw)
    }

    /// `a < k` against a constant.
    pub fn ult_const(&mut self, a: SymWord, k: u64) -> SymBool {
        let kw = SymWord::concrete(a.bits, k);
        self.cmp(CmpOp::Ult, a, kw)
    }

    /// `k <= a` against a constant.
    pub fn uge_const(&mut self, a: SymWord, k: u64) -> SymBool {
        let kw = SymWord::concrete(a.bits, k);
        self.cmp(CmpOp::Ule, kw, a)
    }

    /// Boolean negation.
    pub fn bnot(&mut self, a: SymBool) -> SymBool {
        SymBool {
            val: !a.val,
            expr: a.expr.map(|e| self.arena.not(e)),
        }
    }

    /// Boolean conjunction.
    pub fn band(&mut self, a: SymBool, b: SymBool) -> SymBool {
        let val = a.val && b.val;
        let expr = match (a.expr, b.expr) {
            (None, None) => None,
            _ => {
                let ea = self.bool_expr(a);
                let eb = self.bool_expr(b);
                Some(self.arena.boolean(BoolOp::And, ea, eb))
            }
        };
        SymBool { val, expr }
    }

    /// Boolean disjunction.
    pub fn bor(&mut self, a: SymBool, b: SymBool) -> SymBool {
        let val = a.val || b.val;
        let expr = match (a.expr, b.expr) {
            (None, None) => None,
            _ => {
                let ea = self.bool_expr(a);
                let eb = self.bool_expr(b);
                Some(self.arena.boolean(BoolOp::Or, ea, eb))
            }
        };
        SymBool { val, expr }
    }

    fn bool_expr(&mut self, b: SymBool) -> ExprId {
        match b.expr {
            Some(e) => e,
            None => self.arena.constant(1, b.val as u64),
        }
    }

    // ------------------------------------------------------------------
    // Branching
    // ------------------------------------------------------------------

    /// THE concolic primitive: take the branch concretely, record the
    /// constraint when the condition is symbolic.
    pub fn branch(&mut self, site: SiteId, cond: SymBool) -> bool {
        if let Some(e) = cond.expr {
            self.path.push(BranchRec {
                site,
                constraint: e,
                taken: cond.val,
            });
        }
        cond.val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_reads_stay_concrete() {
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(vec![1, 2, 3, 4]));
        let w = ctx.read_u16_be(0);
        assert_eq!(w.val, 0x0102);
        assert!(!w.is_symbolic());
    }

    #[test]
    fn symbolic_reads_build_exprs() {
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![0x12, 0x34]));
        let w = ctx.read_u16_be(0);
        assert_eq!(w.val, 0x1234);
        assert!(w.is_symbolic());
        // Evaluating the expression with the same bytes reproduces the value.
        let e = w.expr.unwrap();
        let v = ctx
            .arena()
            .eval(e, &|i| Some([0x12u64, 0x34][i as usize]))
            .unwrap();
        assert_eq!(v, 0x1234);
    }

    #[test]
    fn partial_masks_respected() {
        let mut input = SymInput::all_concrete(vec![9, 9, 9]);
        input.mark_range(1, 1);
        let mut ctx = ConcolicCtx::new(input);
        assert!(!ctx.read_u8(0).is_symbolic());
        assert!(ctx.read_u8(1).is_symbolic());
        assert!(!ctx.read_u8(2).is_symbolic());
    }

    #[test]
    fn mark_range_on_an_empty_or_short_input_marks_what_exists() {
        let mut empty = SymInput::all_concrete(vec![]);
        empty.mark_range(0, 0);
        empty.mark_range(0, 7);
        assert!(empty.symbolic.is_empty());

        let mut short = SymInput::all_concrete(vec![9, 9, 9]);
        short.mark_range(3, 5); // starts past the end
        short.mark_range(2, 1); // inverted
        assert_eq!(short.symbolic, [false, false, false]);
        short.mark_range(1, 100); // clamped to the last byte
        assert_eq!(short.symbolic, [false, true, true]);
        short.mark_range(0, 0);
        assert_eq!(short.symbolic, [true, true, true]);
    }

    #[test]
    fn branch_records_only_symbolic() {
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(vec![5, 7], vec![true, false]));
        let s = ctx.read_u8(0);
        let c = ctx.read_u8(1);
        let cond_s = ctx.eq_const(s, 5);
        let cond_c = ctx.eq_const(c, 7);
        assert!(ctx.branch(SiteId(1), cond_s));
        assert!(ctx.branch(SiteId(2), cond_c));
        assert_eq!(ctx.path().len(), 1, "concrete branches are not recorded");
        assert_eq!(ctx.path()[0].site, SiteId(1));
        assert!(ctx.path()[0].taken);
    }

    #[test]
    fn branch_direction_matches_concrete() {
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![10]));
        let w = ctx.read_u8(0);
        let cond = ctx.ult_const(w, 5);
        assert!(!ctx.branch(SiteId(3), cond));
        assert!(!ctx.path()[0].taken);
    }

    #[test]
    fn arithmetic_concrete_matches_symbolic_eval() {
        let bytes = vec![200u8, 100];
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(bytes.clone()));
        let a = ctx.read_u8(0);
        let b = ctx.read_u8(1);
        let sum = ctx.bin(BinOp::Add, a, b);
        assert_eq!(sum.val, 44, "8-bit modular add");
        let v = ctx
            .arena()
            .eval(sum.expr.unwrap(), &|i| Some(bytes[i as usize] as u64))
            .unwrap();
        assert_eq!(v, sum.val);
    }

    #[test]
    fn oracle_bools_extend_input_space() {
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(vec![0; 4]));
        let o = ctx.oracle_bool(true);
        assert!(o.expr.is_some());
        assert_eq!(ctx.oracle_count(), 1);
        ctx.branch(SiteId(9), o);
        assert_eq!(ctx.path().len(), 1);
        // Oracle var index is past the input bytes.
        let vars = ctx.arena().vars(ctx.path()[0].constraint);
        assert_eq!(vars, vec![4]);
    }

    #[test]
    fn path_signature_distinguishes_directions() {
        let sig = |taken: bool| {
            let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![if taken { 1 } else { 0 }]));
            let w = ctx.read_u8(0);
            let c = ctx.eq_const(w, 1);
            ctx.branch(SiteId(1), c);
            ctx.path_signature()
        };
        assert_ne!(sig(true), sig(false));
    }

    #[test]
    fn boolean_combinators_track_both_sides() {
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![3, 8]));
        let a = ctx.read_u8(0);
        let b = ctx.read_u8(1);
        let ca = ctx.eq_const(a, 3);
        let cb = ctx.ult_const(b, 5);
        let both = ctx.band(ca, cb);
        assert!(!both.val);
        let either = ctx.bor(ca, cb);
        assert!(either.val);
        assert!(both.expr.is_some() && either.expr.is_some());
    }
}
