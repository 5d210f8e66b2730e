//! Hash-consed symbolic expressions over input bytes.
//!
//! Expressions form a DAG stored in an arena; nodes are deduplicated so the
//! same sub-expression is represented once. Word values carry an explicit
//! bit width (8/16/32/64) and all arithmetic is modular in that width, which
//! matches how the instrumented parsers compute on the wire bytes.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of an expression in its arena — and, because the arena
/// hash-conses and only ever grows, the expression's name there: two
/// expressions have the same id iff they have the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

/// Binary word operators (modular in the node's width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are the operators they name")]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Word comparison operators (unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are the operators they name")]
pub enum CmpOp {
    Eq,
    Ne,
    Ult,
    Ule,
}

/// Boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are the operators they name")]
pub enum BoolOp {
    And,
    Or,
}

/// An expression node. Word nodes produce `bits`-wide unsigned values;
/// comparison and boolean nodes produce truth values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant word.
    Const {
        /// Width in bits (8..=64).
        bits: u8,
        /// Value, already masked to `bits`.
        val: u64,
    },
    /// The `idx`-th symbolic input byte (8 bits wide).
    Input {
        /// Byte position in the program input.
        idx: u32,
    },
    /// Binary word operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Result width.
        bits: u8,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// Zero-extend a narrower word.
    ZExt {
        /// Target width.
        bits: u8,
        /// Operand.
        a: ExprId,
    },
    /// Comparison producing a boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// Boolean negation.
    Not(ExprId),
    /// Boolean connective.
    Bool {
        /// Connective.
        op: BoolOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
}

fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The interner's hasher: one rotate-xor-multiply per word of the packed
/// [`Expr`] key instead of SipHash over its bytes. The keys are minted by
/// the instrumented twin from inputs the explorer itself synthesized, so
/// there is no adversary to defend the table against, and interning is
/// most of what a twin execution does.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

/// [`MixHasher`] for a `HashMap` / `HashSet` whose keys are already mixed
/// 64-bit hashes or small ids the session minted itself.
pub(crate) type MixBuild = BuildHasherDefault<MixHasher>;

impl MixHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        // The product's strong bits are its high ones; the table indexes
        // with the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// Hash-consing arena of expressions.
#[derive(Debug, Default, Clone)]
pub struct ExprArena {
    nodes: Vec<Expr>,
    /// [`pack`]ed node → its id. A tuple, so that it hashes as two
    /// `write_u64` calls; a `[u64; 2]` would hash as 16 separate bytes.
    cache: HashMap<(u64, u64), ExprId, MixBuild>,
}

/// A node as two words, injective over [`Expr`]: tag, operator, width and
/// the first operand (or input index) in the first, the second operand or
/// the constant's value in the second.
fn pack(e: Expr) -> (u64, u64) {
    let word = |tag: u64, op: u8, bits: u8, a: u32| {
        (tag << 56) | ((op as u64) << 48) | ((bits as u64) << 40) | a as u64
    };
    match e {
        Expr::Const { bits, val } => (word(0, 0, bits, 0), val),
        Expr::Input { idx } => (word(1, 0, 0, idx), 0),
        Expr::Bin { op, bits, a, b } => (word(2, op as u8, bits, a.0), b.0 as u64),
        Expr::ZExt { bits, a } => (word(3, 0, bits, a.0), 0),
        Expr::Cmp { op, a, b } => (word(4, op as u8, 0, a.0), b.0 as u64),
        Expr::Not(a) => (word(5, 0, 0, a.0), 0),
        Expr::Bool { op, a, b } => (word(6, op as u8, 0, a.0), b.0 as u64),
    }
}

/// What is known of one input byte: bit `i` of `val` is meaningful iff bit
/// `i` of `known` is set (and zero otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ByteBits {
    pub(crate) known: u8,
    pub(crate) val: u8,
}

impl ByteBits {
    /// Nothing known.
    pub(crate) const UNKNOWN: ByteBits = ByteBits { known: 0, val: 0 };

    /// Every bit known.
    pub(crate) fn exact(val: u8) -> Self {
        ByteBits { known: 0xFF, val }
    }

    /// The byte's value, once every bit is known.
    pub(crate) fn value(self) -> Option<u8> {
        (self.known == 0xFF).then_some(self.val)
    }
}

/// The value of one node under each of the 256 values of a byte.
pub type Lanes = [u64; 256];

/// "Not reached" in [`LaneScratch::lane_of`].
const NO_LANE: u32 = u32::MAX;

/// Scratch of [`ExprArena::sweep`], owned by the session: it grows to the
/// largest arena (`lane_of`) and the largest constraint DAG (`lanes`) seen
/// and is reused by every later sweep.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// Node id → its index in `order` and `lanes`; [`NO_LANE`] for
    /// unreached nodes and between sweeps.
    lane_of: Vec<u32>,
    /// The reached nodes, ascending — operands before their users.
    order: Vec<u32>,
    stack: Vec<u32>,
    lanes: Vec<Lanes>,
    vars: Vec<u32>,
}

impl ExprArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `nodes` nodes before its first rehash.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        ExprArena {
            nodes: Vec::with_capacity(nodes),
            cache: HashMap::with_capacity_and_hasher(nodes, MixBuild::default()),
        }
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Intern a node: one probe of its packed key, hit or miss.
    pub fn intern(&mut self, e: Expr) -> ExprId {
        let nodes = &mut self.nodes;
        *self.cache.entry(pack(e)).or_insert_with(|| {
            nodes.push(e);
            ExprId(nodes.len() as u32 - 1)
        })
    }

    /// Fetch a node.
    // dice-lint: allow(panic-freedom): ExprIds are minted only by this arena, so they index in bounds
    pub fn get(&self, id: ExprId) -> Expr {
        self.nodes[id.0 as usize]
    }

    /// Intern a constant.
    pub fn constant(&mut self, bits: u8, val: u64) -> ExprId {
        self.intern(Expr::Const {
            bits,
            val: val & mask(bits),
        })
    }

    /// Intern an input byte reference.
    pub fn input(&mut self, idx: u32) -> ExprId {
        self.intern(Expr::Input { idx })
    }

    /// Build a binary op with constant folding.
    pub fn bin(&mut self, op: BinOp, bits: u8, a: ExprId, b: ExprId) -> ExprId {
        if let (Expr::Const { val: va, .. }, Expr::Const { val: vb, .. }) =
            (self.get(a), self.get(b))
        {
            let v = eval_bin(op, bits, va, vb);
            return self.constant(bits, v);
        }
        self.intern(Expr::Bin { op, bits, a, b })
    }

    /// Build a zero-extension with folding.
    pub fn zext(&mut self, bits: u8, a: ExprId) -> ExprId {
        if let Expr::Const { val, .. } = self.get(a) {
            return self.constant(bits, val);
        }
        self.intern(Expr::ZExt { bits, a })
    }

    /// Build a comparison with folding.
    pub fn cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Expr::Const { val: va, .. }, Expr::Const { val: vb, .. }) =
            (self.get(a), self.get(b))
        {
            let t = eval_cmp(op, va, vb);
            return self.constant(1, t as u64);
        }
        self.intern(Expr::Cmp { op, a, b })
    }

    /// Build a boolean negation, collapsing double negation.
    pub fn not(&mut self, a: ExprId) -> ExprId {
        match self.get(a) {
            Expr::Not(inner) => inner,
            Expr::Const { val, .. } => self.constant(1, (val == 0) as u64),
            _ => self.intern(Expr::Not(a)),
        }
    }

    /// Build a boolean connective with folding.
    pub fn boolean(&mut self, op: BoolOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Expr::Const { val: va, .. }, Expr::Const { val: vb, .. }) =
            (self.get(a), self.get(b))
        {
            let t = match op {
                BoolOp::And => va != 0 && vb != 0,
                BoolOp::Or => va != 0 || vb != 0,
            };
            return self.constant(1, t as u64);
        }
        self.intern(Expr::Bool { op, a, b })
    }

    /// Evaluate `id` under an assignment of input bytes. Returns `None`
    /// when a referenced input byte is unassigned.
    pub fn eval(&self, id: ExprId, lookup: &dyn Fn(u32) -> Option<u64>) -> Option<u64> {
        match self.get(id) {
            Expr::Const { val, .. } => Some(val),
            Expr::Input { idx } => lookup(idx),
            Expr::Bin { op, bits, a, b } => {
                let va = self.eval(a, lookup)?;
                let vb = self.eval(b, lookup)?;
                Some(eval_bin(op, bits, va, vb))
            }
            Expr::ZExt { a, .. } => self.eval(a, lookup),
            Expr::Cmp { op, a, b } => {
                let va = self.eval(a, lookup)?;
                let vb = self.eval(b, lookup)?;
                Some(eval_cmp(op, va, vb) as u64)
            }
            Expr::Not(a) => Some((self.eval(a, lookup)? == 0) as u64),
            Expr::Bool { op, a, b } => {
                // Short-circuit so partially-assigned inputs still decide
                // when one side is conclusive.
                let va = self.eval(a, lookup);
                let vb = self.eval(b, lookup);
                match (op, va, vb) {
                    (BoolOp::And, Some(0), _) | (BoolOp::And, _, Some(0)) => Some(0),
                    (BoolOp::Or, Some(x), _) if x != 0 => Some(1),
                    (BoolOp::Or, _, Some(x)) if x != 0 => Some(1),
                    (_, Some(x), Some(y)) => Some(match op {
                        BoolOp::And => ((x != 0) && (y != 0)) as u64,
                        BoolOp::Or => ((x != 0) || (y != 0)) as u64,
                    }),
                    _ => None,
                }
            }
        }
    }

    /// Ternary (known-bits) evaluation under a *partial* assignment:
    /// returns a word whose `known` mask says which result bits are already
    /// determined. This lets the solver refute constraints like
    /// `(addr & 0xFF000000) == K` as soon as the single relevant byte is
    /// assigned, instead of enumerating the irrelevant ones.
    pub fn eval3(&self, id: ExprId, lookup: &dyn Fn(u32) -> Option<u64>) -> Ternary {
        self.eval3_bits(id, &|idx| {
            lookup(idx).map_or(ByteBits::UNKNOWN, |v| ByteBits::exact(v as u8))
        })
    }

    /// [`ExprArena::eval3`] with bit-granular knowledge of the input bytes.
    /// It is *monotone in information*: whatever it decides under one
    /// assignment it decides identically under every assignment that knows
    /// the same bits and more (property-tested below) — which is what lets
    /// the solver's search read a constraint with one byte unknown and
    /// hold the verdict against all 256 of its values.
    pub(crate) fn eval3_bits<F: Fn(u32) -> ByteBits>(&self, id: ExprId, lookup: &F) -> Ternary {
        self.eval3_node(id, lookup, &|a| self.eval3_bits(a, lookup))
    }

    /// [`ExprArena::eval3_bits`] with each shared node evaluated once per
    /// assignment: a node two or more nodes take as an operand — the
    /// gossip topic word under its 16 equalities — is answered from
    /// `memo`, which holds what this assignment made of it, once it has
    /// been walked. Leaves and nodes with one parent are recomputed: they
    /// cost less than a memo entry. The caller starts a new assignment
    /// ([`Eval3Memo::reset`] / [`Eval3Memo::next`]) whenever `lookup`
    /// would answer differently.
    pub(crate) fn eval3_memo<F: Fn(u32) -> ByteBits>(
        &self,
        id: ExprId,
        lookup: &F,
        memo: &Eval3Memo,
    ) -> Ternary {
        let walk = |a| self.eval3_memo(a, lookup, memo);
        let Some(slot) = memo.slots.get(id.0 as usize).filter(|s| s.parents >= 2) else {
            return self.eval3_node(id, lookup, &walk);
        };
        let stamp = memo.stamp.get();
        if slot.stamp.get() == stamp {
            return slot.value.get();
        }
        let value = self.eval3_node(id, lookup, &walk);
        slot.stamp.set(stamp);
        slot.value.set(value);
        value
    }

    /// One node of [`ExprArena::eval3_bits`], its operands evaluated by
    /// `operand`.
    fn eval3_node<F: Fn(u32) -> ByteBits, G: Fn(ExprId) -> Ternary>(
        &self,
        id: ExprId,
        lookup: &F,
        operand: &G,
    ) -> Ternary {
        match self.get(id) {
            Expr::Const { bits, val } => Ternary {
                known: mask(bits),
                val,
                bits,
            },
            Expr::Input { idx } => {
                let byte = lookup(idx);
                Ternary {
                    known: byte.known as u64,
                    val: (byte.val & byte.known) as u64,
                    bits: 8,
                }
            }
            Expr::ZExt { bits, a } => {
                let inner = operand(a);
                // Upper bits become known zeros.
                Ternary {
                    known: inner.known | (mask(bits) & !mask(inner.bits)),
                    val: inner.val,
                    bits,
                }
            }
            Expr::Bin { op, bits, a, b } => {
                let x = operand(a);
                let y = operand(b);
                let m = mask(bits);
                match op {
                    BinOp::And => {
                        let known = (x.known & y.known) | (x.known & !x.val) | (y.known & !y.val);
                        Ternary {
                            known: known & m,
                            val: x.val & y.val & known & m,
                            bits,
                        }
                    }
                    BinOp::Or => {
                        let known = (x.known & y.known) | (x.known & x.val) | (y.known & y.val);
                        Ternary {
                            known: known & m,
                            val: (x.val | y.val) & known & m,
                            bits,
                        }
                    }
                    BinOp::Xor => {
                        let known = x.known & y.known & m;
                        Ternary {
                            known,
                            val: (x.val ^ y.val) & known,
                            bits,
                        }
                    }
                    BinOp::Shl | BinOp::Shr => {
                        if y.known == mask(y.bits) {
                            let sh = y.val;
                            if sh >= 64 {
                                return Ternary {
                                    known: m,
                                    val: 0,
                                    bits,
                                };
                            }
                            let (known, val) = if op == BinOp::Shl {
                                // Low bits become known zeros.
                                (((x.known << sh) | mask(sh as u8)) & m, (x.val << sh) & m)
                            } else {
                                // High bits become known zeros within width.
                                (((x.known >> sh) | (m & !(m >> sh))) & m, (x.val >> sh) & m)
                            };
                            Ternary {
                                known,
                                val: val & known,
                                bits,
                            }
                        } else {
                            Ternary {
                                known: 0,
                                val: 0,
                                bits,
                            }
                        }
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        // Exact only under full knowledge (carries spread).
                        if x.known == mask(x.bits) && y.known == mask(y.bits) {
                            let v = eval_bin(op, bits, x.val, y.val);
                            Ternary {
                                known: m,
                                val: v,
                                bits,
                            }
                        } else {
                            Ternary {
                                known: 0,
                                val: 0,
                                bits,
                            }
                        }
                    }
                }
            }
            Expr::Cmp { op, a, b } => {
                let x = operand(a);
                let y = operand(b);

                match op {
                    CmpOp::Eq => match ternary_eq(&x, &y) {
                        Some(true) => Ternary::known_bool(true),
                        Some(false) => Ternary::known_bool(false),
                        None => Ternary::unknown_bool(),
                    },
                    CmpOp::Ne => match ternary_eq(&x, &y) {
                        Some(true) => Ternary::known_bool(false),
                        Some(false) => Ternary::known_bool(true),
                        None => Ternary::unknown_bool(),
                    },
                    CmpOp::Ult => match ternary_cmp_lt(&x, &y, false) {
                        Some(v) => Ternary::known_bool(v),
                        None => Ternary::unknown_bool(),
                    },
                    CmpOp::Ule => match ternary_cmp_lt(&x, &y, true) {
                        Some(v) => Ternary::known_bool(v),
                        None => Ternary::unknown_bool(),
                    },
                }
            }
            Expr::Not(a) => match operand(a).as_bool() {
                Some(truthy) => Ternary::known_bool(!truthy),
                None => Ternary::unknown_bool(),
            },
            Expr::Bool { op, a, b } => {
                let x = operand(a);
                let y = operand(b);
                let xv = x.as_bool();
                let yv = y.as_bool();
                match op {
                    BoolOp::And => match (xv, yv) {
                        (Some(false), _) | (_, Some(false)) => Ternary::known_bool(false),
                        (Some(true), Some(true)) => Ternary::known_bool(true),
                        _ => Ternary::unknown_bool(),
                    },
                    BoolOp::Or => match (xv, yv) {
                        (Some(true), _) | (_, Some(true)) => Ternary::known_bool(true),
                        (Some(false), Some(false)) => Ternary::known_bool(false),
                        _ => Ternary::unknown_bool(),
                    },
                }
            }
        }
    }

    /// One pass over the nodes `e` reaches: the input bytes it mentions
    /// (ascending) and, when that is exactly one byte, `e`'s value under
    /// each of the byte's 256 values — what 256 [`ExprArena::eval`] walks
    /// plus a [`ExprArena::vars`] walk compute. Nodes only reference
    /// earlier ids, so ascending id order is topological and every node is
    /// computed once, all 256 lanes at a time, from operands already done.
    pub fn sweep<'s>(
        &self,
        e: ExprId,
        scratch: &'s mut LaneScratch,
    ) -> (&'s [u32], Option<&'s Lanes>) {
        let LaneScratch {
            lane_of,
            order,
            stack,
            lanes,
            vars,
        } = scratch;
        cover(lane_of, self.nodes.len(), NO_LANE);
        order.clear();
        vars.clear();
        stack.push(e.0);
        while let Some(id) = stack.pop() {
            match lane_of.get_mut(id as usize) {
                Some(seen) if *seen == NO_LANE => *seen = 0,
                _ => continue,
            }
            order.push(id);
            match self.get(ExprId(id)) {
                Expr::Const { .. } => {}
                // Hash-consing keeps one node per input byte: no duplicates.
                Expr::Input { idx } => vars.push(idx),
                Expr::Bin { a, b, .. } | Expr::Cmp { a, b, .. } | Expr::Bool { a, b, .. } => {
                    stack.push(a.0);
                    stack.push(b.0);
                }
                Expr::ZExt { a, .. } | Expr::Not(a) => stack.push(a.0),
            }
        }
        order.sort_unstable();
        vars.sort_unstable();

        let unary = vars.len() == 1;
        if unary {
            if lanes.len() < order.len() {
                lanes.resize(order.len(), [0; 256]);
            }
            for (lane, &id) in order.iter().enumerate() {
                if let Some(slot) = lane_of.get_mut(id as usize) {
                    *slot = lane as u32;
                }
                let (done, rest) = lanes.split_at_mut(lane);
                let Some(out) = rest.first_mut() else { break };
                let of = |x: ExprId| -> &Lanes {
                    let lane = lane_of.get(x.0 as usize).copied().unwrap_or(NO_LANE);
                    done.get(lane as usize).unwrap_or(&[0; 256])
                };
                match self.get(ExprId(id)) {
                    Expr::Const { val, .. } => out.fill(val),
                    Expr::Input { .. } => {
                        for (byte, o) in out.iter_mut().enumerate() {
                            *o = byte as u64;
                        }
                    }
                    Expr::Bin { op, bits, a, b } => zip_bin(op, bits, out, of(a), of(b)),
                    Expr::ZExt { a, .. } => *out = *of(a),
                    Expr::Cmp { op, a, b } => zip_cmp(op, out, of(a), of(b)),
                    Expr::Not(a) => zip(out, of(a), of(a), |x, _| (x == 0) as u64),
                    Expr::Bool { op, a, b } => match op {
                        BoolOp::And => zip(out, of(a), of(b), |x, y| (x != 0 && y != 0) as u64),
                        BoolOp::Or => zip(out, of(a), of(b), |x, y| (x != 0 || y != 0) as u64),
                    },
                }
            }
        }
        for &id in order.iter() {
            if let Some(slot) = lane_of.get_mut(id as usize) {
                *slot = NO_LANE;
            }
        }
        // The root has the largest id it reaches: the last lane.
        let root = order.len().checked_sub(1).filter(|_| unary);
        (vars, root.and_then(|lane| lanes.get(lane)))
    }

    /// Collect the distinct input-byte indices referenced by `id`.
    pub fn vars(&self, id: ExprId) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_vars(id, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, id: ExprId, out: &mut Vec<u32>) {
        match self.get(id) {
            Expr::Const { .. } => {}
            Expr::Input { idx } => out.push(idx),
            Expr::Bin { a, b, .. } | Expr::Cmp { a, b, .. } | Expr::Bool { a, b, .. } => {
                self.collect_vars(a, out);
                self.collect_vars(b, out);
            }
            Expr::ZExt { a, .. } | Expr::Not(a) => self.collect_vars(a, out),
        }
    }

    /// Pretty-print an expression (for diagnostics and reports).
    pub fn render(&self, id: ExprId) -> String {
        match self.get(id) {
            Expr::Const { val, bits } => format!("{val}:{bits}"),
            Expr::Input { idx } => format!("in[{idx}]"),
            Expr::Bin { op, a, b, .. } => {
                let s = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                };
                format!("({} {} {})", self.render(a), s, self.render(b))
            }
            Expr::ZExt { a, bits } => format!("zext{}({})", bits, self.render(a)),
            Expr::Cmp { op, a, b } => {
                let s = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Ult => "<",
                    CmpOp::Ule => "<=",
                };
                format!("({} {} {})", self.render(a), s, self.render(b))
            }
            Expr::Not(a) => format!("!{}", self.render(a)),
            Expr::Bool { op, a, b } => {
                let s = match op {
                    BoolOp::And => "&&",
                    BoolOp::Or => "||",
                };
                format!("({} {} {})", self.render(a), s, self.render(b))
            }
        }
    }
}

/// What [`ExprArena::eval3_memo`] knows of one arena: per node id, how
/// many nodes take it as an operand and, for a node two or more do (a
/// leaf never counts: recomputing it is cheaper), its value under the
/// current assignment — valid while its stamp is the current one.
/// Starting a new assignment is one increment. The table follows the arena
/// as it grows ([`Eval3Memo::reset`] counts each new node's operands once)
/// and never shrinks, so it serves an append-only arena for as long as
/// that lives. Cells, so that a search can fill it through the shared
/// borrows its walks hold.
#[derive(Debug, Default)]
pub(crate) struct Eval3Memo {
    /// The current assignment; never 0 once reset (0 marks an empty slot).
    stamp: Cell<u32>,
    slots: Vec<MemoSlot>,
    /// Nodes whose operands are counted.
    counted: usize,
}

#[derive(Debug, Clone)]
struct MemoSlot {
    stamp: Cell<u32>,
    /// Non-leaf nodes taking this one as an operand (saturating; an operand
    /// taken twice counts twice).
    parents: u8,
    value: Cell<Ternary>,
}

impl Eval3Memo {
    /// Follow `arena` to its current length and start a new assignment.
    pub(crate) fn reset(&mut self, arena: &ExprArena) {
        let empty = MemoSlot {
            stamp: Cell::new(0),
            parents: 0,
            value: Cell::new(Ternary::unknown_bool()),
        };
        cover(&mut self.slots, arena.len(), empty);
        for node in arena.nodes.get(self.counted..).unwrap_or_default() {
            let (a, b) = match *node {
                Expr::Bin { a, b, .. } | Expr::Cmp { a, b, .. } | Expr::Bool { a, b, .. } => {
                    (Some(a), Some(b))
                }
                Expr::ZExt { a, .. } | Expr::Not(a) => (Some(a), None),
                Expr::Const { .. } | Expr::Input { .. } => (None, None),
            };
            for op in [a, b].into_iter().flatten() {
                let leaf = matches!(arena.get(op), Expr::Const { .. } | Expr::Input { .. });
                if let (false, Some(slot)) = (leaf, self.slots.get_mut(op.0 as usize)) {
                    slot.parents = slot.parents.saturating_add(1);
                }
            }
        }
        self.counted = arena.len();
        self.next();
    }

    /// Start a new assignment: every value memoized so far is stale.
    pub(crate) fn next(&self) {
        let stamp = self.stamp.get().wrapping_add(1);
        if stamp == 0 {
            // Wrapped: no slot may keep a stamp the counter will reissue.
            for slot in &self.slots {
                slot.stamp.set(0);
            }
            self.stamp.set(1);
        } else {
            self.stamp.set(stamp);
        }
    }
}

/// Make `table`, indexed by node id, cover the first `nodes` ids — with
/// room for the arena to double before it has to grow again: the per-node
/// tables of a session, and of a state that outlives sessions, follow an
/// arena that keeps growing.
pub(crate) fn cover<T: Clone>(table: &mut Vec<T>, nodes: usize, fill: T) {
    if table.len() < nodes {
        table.resize(2 * nodes, fill);
    }
}

/// A partially known word: bit `i` is determined iff `known` bit `i` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ternary {
    /// Which bits are determined.
    pub known: u64,
    /// Values of the determined bits (zero elsewhere).
    pub val: u64,
    /// Word width.
    pub bits: u8,
}

impl Ternary {
    fn known_bool(v: bool) -> Ternary {
        Ternary {
            known: 1,
            val: v as u64,
            bits: 1,
        }
    }
    fn unknown_bool() -> Ternary {
        Ternary {
            known: 0,
            val: 0,
            bits: 1,
        }
    }
    /// Truthiness — non-zero-ness, as [`ExprArena::eval`] reads an operand
    /// of `Not` / `Bool` — if determined.
    pub fn as_bool(&self) -> Option<bool> {
        if self.val & self.known != 0 {
            // A word with any known-one bit is definitely truthy.
            Some(true)
        } else if self.known == mask(self.bits) {
            Some(false)
        } else {
            None
        }
    }
    /// Smallest value consistent with the known bits.
    pub fn min(&self) -> u64 {
        self.val & self.known
    }
    /// Largest value consistent with the known bits.
    pub fn max(&self) -> u64 {
        (self.val & self.known) | (mask(self.bits) & !self.known)
    }
}

/// Definite equality verdict between two partially known words, if any.
fn ternary_eq(a: &Ternary, b: &Ternary) -> Option<bool> {
    let both = a.known & b.known;
    if (a.val ^ b.val) & both != 0 {
        return Some(false); // a determined bit differs
    }
    let w = mask(a.bits.max(b.bits));
    if a.known & w == w && b.known & w == w {
        return Some(true);
    }
    None
}

/// Definite `a < b` (or `a <= b` when `or_eq`) verdict, if any, via bounds.
fn ternary_cmp_lt(a: &Ternary, b: &Ternary, or_eq: bool) -> Option<bool> {
    if or_eq {
        if a.max() <= b.min() {
            return Some(true);
        }
        if a.min() > b.max() {
            return Some(false);
        }
    } else {
        if a.max() < b.min() {
            return Some(true);
        }
        if a.min() >= b.max() {
            return Some(false);
        }
    }
    None
}

/// `out[i] = f(a[i], b[i])` over the 256 lanes.
fn zip(out: &mut Lanes, a: &Lanes, b: &Lanes, f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// [`eval_bin`] over the 256 lanes: one loop per operator, so that each
/// body is straight-line code.
fn zip_bin(op: BinOp, bits: u8, out: &mut Lanes, a: &Lanes, b: &Lanes) {
    macro_rules! per_op {
        ($($op:ident),*) => {
            match op {
                $(BinOp::$op => zip(out, a, b, |x, y| eval_bin(BinOp::$op, bits, x, y)),)*
            }
        };
    }
    per_op!(Add, Sub, Mul, And, Or, Xor, Shl, Shr)
}

/// [`eval_cmp`] over the 256 lanes, as [`zip_bin`].
fn zip_cmp(op: CmpOp, out: &mut Lanes, a: &Lanes, b: &Lanes) {
    macro_rules! per_op {
        ($($op:ident),*) => {
            match op {
                $(CmpOp::$op => zip(out, a, b, |x, y| eval_cmp(CmpOp::$op, x, y) as u64),)*
            }
        };
    }
    per_op!(Eq, Ne, Ult, Ule)
}

#[inline(always)]
fn eval_bin(op: BinOp, bits: u8, a: u64, b: u64) -> u64 {
    let m = mask(bits);
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= 64 {
                0
            } else {
                a << b
            }
        }
        BinOp::Shr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
    };
    v & m
}

#[inline(always)]
fn eval_cmp(op: CmpOp, a: u64, b: u64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Ult => a < b,
        CmpOp::Ule => a <= b,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut a = ExprArena::new();
        let c1 = a.constant(8, 5);
        let c2 = a.constant(8, 5);
        assert_eq!(c1, c2);
        assert_eq!(a.len(), 1);
        let i1 = a.input(3);
        let i2 = a.input(3);
        assert_eq!(i1, i2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn constant_folding() {
        let mut a = ExprArena::new();
        let x = a.constant(8, 200);
        let y = a.constant(8, 100);
        let sum = a.bin(BinOp::Add, 8, x, y);
        assert_eq!(
            a.get(sum),
            Expr::Const { bits: 8, val: 44 },
            "modular add folds"
        );
        let cmp = a.cmp(CmpOp::Ult, y, x);
        assert_eq!(a.get(cmp), Expr::Const { bits: 1, val: 1 });
    }

    #[test]
    fn eval_with_assignment() {
        let mut a = ExprArena::new();
        let i0 = a.input(0);
        let i1 = a.input(1);
        let hi = a.zext(16, i0);
        let lo = a.zext(16, i1);
        let k8 = a.constant(16, 8);
        let shifted = a.bin(BinOp::Shl, 16, hi, k8);
        let word = a.bin(BinOp::Or, 16, shifted, lo);
        let val = a
            .eval(word, &|idx| Some(if idx == 0 { 0x12 } else { 0x34 }))
            .unwrap();
        assert_eq!(val, 0x1234);
    }

    #[test]
    fn eval_partial_assignment_is_none() {
        let mut a = ExprArena::new();
        let i0 = a.input(0);
        let i9 = a.input(9);
        let sum = a.bin(BinOp::Add, 8, i0, i9);
        let r = a.eval(sum, &|idx| if idx == 0 { Some(1) } else { None });
        assert_eq!(r, None);
    }

    #[test]
    fn bool_short_circuit() {
        let mut a = ExprArena::new();
        let i0 = a.input(0);
        let k = a.constant(8, 5);
        let undecidable = a.cmp(CmpOp::Eq, i0, k);
        let fals = a.constant(1, 0);
        let tru = a.constant(1, 1);
        let and = a.boolean(BoolOp::And, undecidable, fals);
        // `x && false` is decidable without knowing x.
        assert_eq!(a.eval(and, &|_| None), Some(0));
        let or = a.boolean(BoolOp::Or, tru, undecidable);
        assert_eq!(a.eval(or, &|_| None), Some(1));
    }

    #[test]
    fn double_negation_collapses() {
        let mut a = ExprArena::new();
        let i0 = a.input(0);
        let k = a.constant(8, 7);
        let c = a.cmp(CmpOp::Eq, i0, k);
        let n = a.not(c);
        let nn = a.not(n);
        assert_eq!(nn, c);
    }

    #[test]
    fn vars_collected() {
        let mut a = ExprArena::new();
        let i2 = a.input(2);
        let i7 = a.input(7);
        let s = a.bin(BinOp::Xor, 8, i2, i7);
        let k = a.constant(8, 1);
        let c = a.cmp(CmpOp::Ne, s, k);
        assert_eq!(a.vars(c), vec![2, 7]);
    }

    #[test]
    fn shift_overflow_is_zero() {
        assert_eq!(eval_bin(BinOp::Shl, 8, 1, 64), 0);
        assert_eq!(eval_bin(BinOp::Shr, 8, 0xFF, 64), 0);
    }

    #[test]
    fn render_is_readable() {
        let mut a = ExprArena::new();
        let i0 = a.input(0);
        let k = a.constant(8, 2);
        let c = a.cmp(CmpOp::Ule, i0, k);
        assert_eq!(a.render(c), "(in[0] <= 2:8)");
    }

    // ---- ternary (known-bits) evaluation -------------------------------

    /// Build `(addr32 & mask) == want` over 4 input bytes.
    fn masked_eq(a: &mut ExprArena, maskv: u64, want: u64) -> ExprId {
        let mut addr = a.constant(32, 0);
        for k in 0..4u32 {
            let byte = a.input(k);
            let w = a.zext(32, byte);
            let sh = a.constant(32, (24 - 8 * k) as u64);
            let shifted = a.bin(BinOp::Shl, 32, w, sh);
            addr = a.bin(BinOp::Or, 32, addr, shifted);
        }
        let m = a.constant(32, maskv);
        let masked = a.bin(BinOp::And, 32, addr, m);
        let k = a.constant(32, want);
        a.cmp(CmpOp::Eq, masked, k)
    }

    #[test]
    fn eval3_refutes_from_single_relevant_byte() {
        let mut a = ExprArena::new();
        let c = masked_eq(&mut a, 0xFF00_0000, 0x0A00_0000);
        // Only byte 0 assigned, wrong value: definitely false.
        let t = a.eval3(c, &|i| if i == 0 { Some(0x0B) } else { None });
        assert_eq!(t.as_bool(), Some(false));
        // Only byte 0 assigned, right value: bytes 1-3 are masked out, so
        // the comparison is already definitely true.
        let t = a.eval3(c, &|i| if i == 0 { Some(0x0A) } else { None });
        assert_eq!(t.as_bool(), Some(true));
    }

    #[test]
    fn eval3_is_undecided_when_relevant_bits_unknown() {
        let mut a = ExprArena::new();
        let c = masked_eq(&mut a, 0xFFFF_0000, 0x0A01_0000);
        // Byte 0 right, byte 1 unknown: undecided.
        let t = a.eval3(c, &|i| if i == 0 { Some(0x0A) } else { None });
        assert_eq!(t.as_bool(), None);
    }

    #[test]
    fn eval3_bounds_decide_comparisons() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let x16 = a.zext(16, x);
        let k8 = a.constant(16, 8);
        let sh = a.bin(BinOp::Shl, 16, x16, k8);
        let big = a.constant(16, 0x0100);
        // (x << 8) >= 0x0100 iff x >= 1; with x unknown the range is
        // [0, 0xFF00], so the comparison is undecided...
        let c = a.cmp(CmpOp::Ule, big, sh);
        assert_eq!(a.eval3(c, &|_| None).as_bool(), None);
        // ...and decided once x is known.
        assert_eq!(a.eval3(c, &|_| Some(2)).as_bool(), Some(true));
        assert_eq!(a.eval3(c, &|_| Some(0)).as_bool(), Some(false));
    }

    #[test]
    fn eval3_agrees_with_eval_on_full_assignments() {
        // Randomized consistency: under a full assignment, eval3 must be
        // fully known and equal to eval.
        let mut state = 0xDEADBEEFu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut a = ExprArena::new();
            let x = a.input(0);
            let y = a.input(1);
            let k = a.constant(8, rnd() % 256);
            let op = match rnd() % 8 {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::And,
                4 => BinOp::Or,
                5 => BinOp::Xor,
                6 => BinOp::Shl,
                _ => BinOp::Shr,
            };
            let mixed = a.bin(op, 8, x, y);
            let c = a.cmp(
                match rnd() % 4 {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Ult,
                    _ => CmpOp::Ule,
                },
                mixed,
                k,
            );
            // `Not` / `Bool` read their operands' non-zero-ness, of a word
            // as of a comparison.
            let negated = a.not(mixed);
            let op = [BoolOp::And, BoolOp::Or][(rnd() % 2) as usize];
            let joined = a.boolean(op, mixed, c);
            let b0 = rnd() % 256;
            let b1 = rnd() % 256;
            let full = |i: u32| Some(if i == 0 { b0 } else { b1 });
            for e in [c, negated, joined] {
                let exact = a.eval(e, &full).unwrap();
                let t = a.eval3(e, &full);
                assert_eq!(
                    t.as_bool(),
                    Some(exact != 0),
                    "eval3 disagrees on full assignment: {}",
                    a.render(e)
                );
            }
        }
    }

    #[test]
    fn eval3_never_wrongly_decides_partial_assignments() {
        // Soundness: if eval3 decides under a partial assignment, every
        // completion must agree.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let y = a.input(1);
        let anded = a.bin(BinOp::And, 8, x, y);
        let k = a.constant(8, 0xF0);
        let c = a.cmp(CmpOp::Eq, anded, k);
        // x = 0x0F makes (x & y) ≤ 0x0F ≠ 0xF0 for every y.
        let t = a.eval3(c, &|i| if i == 0 { Some(0x0F) } else { None });
        assert_eq!(t.as_bool(), Some(false));
        for y_val in 0u64..256 {
            let full = |i: u32| Some(if i == 0 { 0x0F } else { y_val });
            assert_eq!(a.eval(c, &full), Some(0));
        }
    }

    const BIN: [BinOp; 8] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
    const CMP: [CmpOp; 4] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Ult, CmpOp::Ule];

    /// Build well-typed expressions over input bytes 0..3 from a flat
    /// program: each step takes earlier words / booleans (indices wrap) and
    /// appends one. Operands of a binary node are zero-extended to a common
    /// width first, as the instrumentation does; `Not` and the connectives
    /// take words as well as booleans (they read non-zero-ness). Returns
    /// every word and every boolean built.
    pub(crate) fn build_program(a: &mut ExprArena, steps: &[(u8, u8, u8, u64)]) -> Vec<ExprId> {
        let mut words: Vec<(ExprId, u8)> = (0..3).map(|i| (a.input(i), 8)).collect();
        let mut bools: Vec<ExprId> = Vec::new();
        for &(kind, i, j, k) in steps {
            let (x, xb) = words[i as usize % words.len()];
            let (y, yb) = words[j as usize % words.len()];
            let bits = xb.max(yb);
            let widen = |a: &mut ExprArena, w: ExprId, from: u8| {
                if from < bits {
                    a.zext(bits, w)
                } else {
                    w
                }
            };
            match kind % 8 {
                0 => {
                    let (x, y) = (widen(a, x, xb), widen(a, y, yb));
                    words.push((a.bin(BIN[k as usize % 8], bits, x, y), bits));
                }
                1 => {
                    // Constants are width-masked; shift amounts also reach
                    // and pass the width, and 64.
                    let op = BIN[j as usize % 8];
                    let c = match op {
                        BinOp::Shl | BinOp::Shr => [k % 72, 64, 70][k as usize % 3],
                        _ => k,
                    };
                    let c = a.constant(xb, c);
                    words.push((a.bin(op, xb, x, c), xb));
                }
                2 => {
                    let wide = [16, 32, 64][j as usize % 3];
                    if wide > xb {
                        words.push((a.zext(wide, x), wide));
                    }
                }
                3 => {
                    let (x, y) = (widen(a, x, xb), widen(a, y, yb));
                    bools.push(a.cmp(CMP[k as usize % 4], x, y));
                }
                4 => {
                    let c = a.constant(xb, k >> 2);
                    bools.push(a.cmp(CMP[k as usize % 4], x, c));
                }
                kind => {
                    let truthy = |at: u8| {
                        let at = at as usize % (words.len() + bools.len());
                        words
                            .get(at)
                            .map_or_else(|| bools[at - words.len()], |w| w.0)
                    };
                    let (p, q) = (truthy(i), truthy(j));
                    bools.push(match kind {
                        5 => a.not(p),
                        _ => a.boolean([BoolOp::And, BoolOp::Or][kind as usize % 2], p, q),
                    });
                }
            }
        }
        words.into_iter().map(|(w, _)| w).chain(bools).collect()
    }

    proptest::proptest! {
        /// `eval3` is monotone in information: whatever it decides
        /// knowing some bits of the inputs it decides identically knowing
        /// more, and `eval` agrees on every full completion (where `eval3`
        /// always decides). The search's narrowing reads a constraint
        /// with one byte unknown and trusts the verdict for all 256.
        #[test]
        fn eval3_is_monotone_in_bit_granular_information(
            steps in proptest::collection::vec(
                (proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u64>()),
                1..24,
            ),
            known in proptest::collection::vec(proptest::any::<u8>(), 3..4),
            refinements in proptest::collection::vec(
                proptest::collection::vec((proptest::any::<u8>(), proptest::any::<u8>()), 3..4),
                1..8,
            ),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut a = ExprArena::new();
            let nodes = build_program(&mut a, &steps);
            for refinement in &refinements {
                // One completion, and three views of it: the base
                // knowledge, the base plus `more` bits, all bits.
                let views: Vec<[ByteBits; 3]> = known
                    .iter()
                    .zip(refinement)
                    .map(|(&known, &(more, full))| {
                        [known, known | more, 0xFF].map(|known| ByteBits {
                            known,
                            val: full & known,
                        })
                    })
                    .collect();
                for &e in &nodes {
                    let [base, refined, complete] =
                        [0, 1, 2].map(|view| a.eval3_bits(e, &|idx| views[idx as usize][view]));
                    let exact = a.eval(e, &|idx| Some(views[idx as usize][2].val as u64));
                    // Full knowledge decides every bit, as `eval` does.
                    prop_assert_eq!(complete.known, mask(complete.bits), "{}", a.render(e));
                    prop_assert_eq!(Some(complete.val), exact, "{}", a.render(e));
                    // More knowledge keeps every bit already decided and
                    // every verdict on non-zero-ness.
                    for (less, more) in [(base, refined), (refined, complete)] {
                        let what = format!("{} under {views:?}", a.render(e));
                        prop_assert_eq!(less.val & !less.known, 0, "{}", what);
                        prop_assert_eq!(less.known & !more.known, 0, "{}", what);
                        prop_assert_eq!((less.val ^ more.val) & less.known, 0, "{}", what);
                        let kept = less.as_bool().is_none_or(|v| more.as_bool() == Some(v));
                        prop_assert!(kept, "{}", what);
                    }
                }
            }
        }
    }

    /// An arbitrary node (operand ids need not exist: `intern` never reads
    /// them) from a small domain per field, so that nodes which differ in
    /// one field only are common, plus each field's extremes.
    fn node_of((kind, op, bits, a, b): (u8, u8, u8, u8, u8)) -> Expr {
        let bits = [1, 8, 16, 32, 64, 0, u8::MAX][bits as usize % 7];
        let val = [0, 1, 2, 1 << 40, u64::MAX][b as usize % 5];
        let a = ExprId([0, 1, 2, u32::MAX][a as usize % 4]);
        let b = ExprId([0, 1, 2, u32::MAX][b as usize % 4]);
        let bool_op = [BoolOp::And, BoolOp::Or][op as usize % 2];
        match kind % 7 {
            0 => Expr::Const { bits, val },
            1 => Expr::Input { idx: a.0 },
            2 => Expr::Bin {
                op: BIN[op as usize % 8],
                bits,
                a,
                b,
            },
            3 => Expr::ZExt { bits, a },
            4 => Expr::Cmp {
                op: CMP[op as usize % 4],
                a,
                b,
            },
            5 => Expr::Not(a),
            _ => Expr::Bool { op: bool_op, a, b },
        }
    }

    proptest::proptest! {
        /// The interner's key is the node: two nodes pack alike iff they
        /// are equal, and interning a node sequence hands out the ids a
        /// map keyed by the node itself hands out — the same structures,
        /// the same ids, in the same order.
        ///
        /// Break-it-once: dropping `bits` from the packed `Bin` word turns
        /// this red, and only this: the twins zero-extend both operands to
        /// the result width first, so none of their `Bin` nodes differ in
        /// width alone, and the four `normalized_sha256` of
        /// `dice-benchmark --smoke` and the pinned digests stay as they
        /// were. (Dropping it from `Const`, which the twins do build at
        /// several widths, moves the gossip16 and nemesis sha256 too.)
        #[test]
        fn packed_key_is_the_node(
            raw in proptest::collection::vec(
                (proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>()),
                1..64,
            ),
        ) {
            use proptest::prop_assert_eq;
            let nodes: Vec<Expr> = raw.into_iter().map(node_of).collect();
            for &x in &nodes {
                for &y in &nodes {
                    prop_assert_eq!(pack(x) == pack(y), x == y, "{:?} vs {:?}", x, y);
                }
            }
            let mut arena = ExprArena::new();
            let mut reference: HashMap<Expr, ExprId> = HashMap::new();
            for &e in &nodes {
                let next = ExprId(reference.len() as u32);
                let want = *reference.entry(e).or_insert(next);
                let got = arena.intern(e);
                prop_assert_eq!(got, want, "{:?}", e);
                prop_assert_eq!(arena.get(got), e);
            }
            prop_assert_eq!(arena.len(), reference.len());
        }
    }

    #[test]
    fn a_wrapped_memo_stamp_forgets_every_value() {
        // A stamp that wraps must not revive a value memoised under the
        // assignment that held the reissued stamp 2^32 assignments ago.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 7);
        let sum = a.bin(BinOp::Add, 8, x, k);
        // Two parents: `sum` is memoised.
        a.cmp(CmpOp::Eq, sum, k);
        a.cmp(CmpOp::Ult, sum, k);
        let mut memo = Eval3Memo::default();
        memo.reset(&a);
        let (seven, eight) = (|_| ByteBits::exact(7), |_| ByteBits::exact(8));
        assert_eq!(memo.stamp.get(), 1);
        assert_eq!(a.eval3_memo(sum, &seven, &memo).val, 14);
        memo.stamp.set(u32::MAX);
        memo.next();
        assert_eq!(memo.stamp.get(), 1);
        assert_eq!(a.eval3_memo(sum, &eight, &memo).val, 15);
    }

    #[test]
    fn ternary_min_max() {
        let t = Ternary {
            known: 0xF0,
            val: 0xA0,
            bits: 8,
        };
        assert_eq!(t.min(), 0xA0);
        assert_eq!(t.max(), 0xAF);
    }
}
