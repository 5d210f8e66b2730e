//! The depth-first search over one system's dense tables, with in-search
//! word-level domain narrowing.

#[cfg(doc)]
use super::Solver;
use super::{ByteSet, Constraint, NONE};
use crate::expr::{BinOp, BoolOp, ByteBits, CmpOp, Expr, ExprArena, ExprId, Ternary};

/// A variable of the system being solved.
#[derive(Debug, Clone, Copy)]
pub(super) struct SysVar {
    pub(super) slot: u32,
    pub(super) id: u32,
    pub(super) seed: u8,
    pub(super) set: ByteSet,
    pub(super) mentions: u32,
    /// Its range in `watch`.
    pub(super) watch: (u32, u32),
}

/// Depth-first search over one system's dense tables; the value order and
/// the known-bits pruning are [`Solver::search`]'s.
pub(super) struct Search<'a> {
    pub(super) arena: &'a ExprArena,
    pub(super) slot_of: &'a [u32],
    pub(super) sys: &'a [SysVar],
    pub(super) multi: &'a [Constraint],
    pub(super) watch: &'a [(u32, u32)],
    pub(super) assign: &'a mut [ByteBits],
    pub(super) steps: u64,
    pub(super) max_steps: u64,
}

impl Search<'_> {
    /// The reference's search, minus values known in advance to lead
    /// nowhere: the first time a node's value is refuted on the spot, the
    /// node asks [`Search::narrow`] which of its values the watched
    /// constraints leave open at all, and tries only those. A value is
    /// dropped only when no completion of the later variables satisfies
    /// the constraints under it — the reference would refute it, or walk
    /// the subtree under it and find nothing — and only inside the node
    /// that would have tried it, so variable order, value order and the
    /// first solution found are the reference's.
    pub(super) fn dfs(&mut self, depth: usize) -> Option<bool> {
        let sys = self.sys;
        let Some(var) = sys.get(depth) else {
            return Some(true);
        };
        // The seed value first, then ascending.
        let mut rest = var.set;
        let mut next = match rest.contains(var.seed) {
            true => Some(var.seed),
            false => rest.first(),
        };
        let mut narrowed = false;
        while let Some(val) = next {
            rest.remove(val);
            self.steps += 1;
            if self.steps > self.max_steps {
                return None;
            }
            self.know(var, ByteBits::exact(val));
            if self.consistent(var) {
                match self.dfs(depth + 1) {
                    Some(false) => {}
                    done => return done,
                }
            } else if !narrowed {
                narrowed = true;
                self.know(var, ByteBits::UNKNOWN);
                rest.intersect(&self.narrow(var));
            }
            next = rest.first();
        }
        self.know(var, ByteBits::UNKNOWN);
        Some(false)
    }

    fn know(&mut self, var: &SysVar, bits: ByteBits) {
        if let Some(known) = self.assign.get_mut(var.slot as usize) {
            *known = bits;
        }
    }

    /// What the search knows of input byte `idx`.
    fn known(&self, idx: u32) -> ByteBits {
        let slot = self.slot_of.get(idx as usize).copied().unwrap_or(NONE);
        self.assign
            .get(slot as usize)
            .copied()
            .unwrap_or(ByteBits::UNKNOWN)
    }

    fn eval3(&self, e: ExprId) -> Ternary {
        self.arena.eval3_bits(e, &|idx| self.known(idx))
    }

    /// The constraints mentioning `var`.
    fn watched(&self, var: &SysVar) -> impl Iterator<Item = Constraint> + '_ {
        let (lo, hi) = (var.watch.0 as usize, var.watch.1 as usize);
        let watch = self.watch.get(lo..hi).unwrap_or(&[]);
        watch
            .iter()
            .filter_map(|&(_, mi)| self.multi.get(mi as usize).copied())
    }

    /// No constraint mentioning `var` is refuted by the bits known so far.
    fn consistent(&self, var: &SysVar) -> bool {
        self.watched(var)
            .all(|(e, want)| self.eval3(e).as_bool().is_none_or(|r| r == want))
    }

    /// The values of `var` its watched constraints leave open, with the
    /// variables before it as assigned and `var` and those after it
    /// unknown, as `dfs` holds them: one top-down walk per constraint. A
    /// value outside the result satisfies some constraint under *no*
    /// completion of the unknown variables; a value inside it promises
    /// nothing.
    fn narrow(&self, var: &SysVar) -> ByteSet {
        let mut live = ByteSet::full();
        for (e, want) in self.watched(var) {
            live.intersect(&self.admits(e, want, var.id));
        }
        live
    }

    /// The values of byte `idx` under which `e` can still come out `want`
    /// (as non-zero-ness, which is how `Not` and the connectives read
    /// their operands). Both operands of a connective narrow: where each
    /// must come out as wanted a value has to be open in both, where
    /// either may it has to be open in one — so a disjunction narrows
    /// exactly when every other arm is already decided against.
    fn admits(&self, e: ExprId, want: bool, idx: u32) -> ByteSet {
        match self.arena.get(e) {
            Expr::Not(a) => self.admits(a, !want, idx),
            Expr::Bool { op, a, b } => {
                let both = (op == BoolOp::And) == want;
                let mut open = self.admits(a, want, idx);
                // With nothing left to lose / to gain, skip the other operand.
                let settled = match both {
                    true => ByteSet::empty(),
                    false => ByteSet::full(),
                };
                if open != settled {
                    let other = self.admits(b, want, idx);
                    if both {
                        open.intersect(&other);
                    } else {
                        open.union(&other);
                    }
                }
                open
            }
            Expr::Cmp { op, a, b } => {
                let placed = match self.offset_of(a, idx) {
                    Some(at) => Some((at, a, b, true)),
                    None => self.offset_of(b, idx).map(|at| (at, b, a, false)),
                };
                match placed {
                    Some((at, word, other, word_left)) => self.admits_cmp(
                        op,
                        want,
                        at,
                        self.eval3(word),
                        self.eval3(other),
                        word_left,
                    ),
                    None => self.decided(e, want),
                }
            }
            _ => self.decided(e, want),
        }
    }

    /// Every value when `e` is undecided or decided as wanted, none when
    /// it is decided against: what a sub-expression says about a byte it
    /// does not hold in a readable place.
    fn decided(&self, e: ExprId, want: bool) -> ByteSet {
        match self.eval3(e).as_bool() {
            Some(verdict) if verdict != want => ByteSet::empty(),
            _ => ByteSet::full(),
        }
    }

    /// The bit offset of byte `idx` in word `e`, when `e` is the byte
    /// moved there by `ZExt` / `Shl`-by-constant and OR-ed with words that
    /// are known zero over its eight bits (as `read_u16_be` & co. build
    /// them): `e = byte << offset | rest`.
    fn offset_of(&self, e: ExprId, idx: u32) -> Option<u32> {
        match self.arena.get(e) {
            Expr::Input { idx: i } => (i == idx).then_some(0),
            Expr::ZExt { a, .. } => self.offset_of(a, idx),
            Expr::Bin {
                op: BinOp::Shl,
                bits,
                a,
                b,
            } => {
                let Expr::Const { val: by, .. } = self.arena.get(b) else {
                    return None;
                };
                let at = u64::from(self.offset_of(a, idx)?).saturating_add(by);
                (at.saturating_add(8) <= bits as u64).then_some(at as u32)
            }
            Expr::Bin {
                op: BinOp::Or,
                bits,
                a,
                b,
            } => {
                let (at, sibling) = match self.offset_of(a, idx) {
                    Some(at) => (at, b),
                    None => (self.offset_of(b, idx)?, a),
                };
                let window = 0xFF << at;
                let sibling = self.eval3(sibling);
                (at + 8 <= bits as u32 && sibling.known & !sibling.val & window == window)
                    .then_some(at)
            }
            _ => None,
        }
    }

    /// [`Search::admits`] for `word <op> other` (`other <op> word` unless
    /// `word_left`), `word` holding the byte at bit `at` and known only as
    /// far as `word` says (the byte's own bits unknown). The rest of the
    /// word is taken at its known bits, any completion of the others: an
    /// input byte the word holds twice is read as two, which only opens
    /// values.
    fn admits_cmp(
        &self,
        op: CmpOp,
        want: bool,
        at: u32,
        word: Ternary,
        other: Ternary,
        word_left: bool,
    ) -> ByteSet {
        if other.min() != other.max() {
            return ByteSet::full();
        }
        let k = other.val;
        let window = 0xFFu64 << at;
        // The rest of the word: its least and greatest completion, and
        // the bits they differ in (the unknown ones).
        let (least, most) = (word.min() & !window, word.max() & !window);
        let unknown = least ^ most;
        let in_window = |x: u64| (x >> at).min(0xFF) as u8;
        match op {
            CmpOp::Eq | CmpOp::Ne => {
                let rest_equal = (k ^ least) & !window & !unknown == 0;
                let byte = in_window(k & window);
                let byte = ByteSet::range(byte, byte);
                match (op == CmpOp::Eq) == want {
                    // Equal: the constant's byte, if the known rest agrees.
                    true if rest_equal => byte,
                    true => ByteSet::empty(),
                    // Different: only a fully known, equal rest leaves it
                    // to this byte.
                    false if rest_equal && unknown == 0 => byte.complement(),
                    false => ByteSet::full(),
                }
            }
            CmpOp::Ult | CmpOp::Ule => {
                // `word <= bound` or `word >= bound`, strictness folded
                // into the bound.
                let upper = word_left == want;
                let strict = (op == CmpOp::Ult) == want;
                let bound = match (strict, upper) {
                    (false, _) => Some(k),
                    (true, true) => k.checked_sub(1),
                    (true, false) => k.checked_add(1),
                };
                match bound {
                    None => ByteSet::empty(),
                    // least + (v << at) <= bound
                    Some(bound) if upper => match bound.checked_sub(least) {
                        Some(room) => ByteSet::range(0, in_window(room)),
                        None => ByteSet::empty(),
                    },
                    // most + (v << at) >= bound
                    Some(bound) => {
                        let short = bound.saturating_sub(most);
                        let low = (short >> at) + u64::from(short & !(u64::MAX << at) != 0);
                        match u8::try_from(low) {
                            Ok(low) => ByteSet::range(low, 0xFF),
                            Err(_) => ByteSet::empty(),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One comparison of a word assembled from input bytes `0..4` against
    /// a constant.
    #[derive(Debug, Clone)]
    struct WordCmp {
        /// `(input byte, bit offset / 4)` per part: bytes repeat, and
        /// offsets that are not multiples of 8 make parts overlap.
        parts: Vec<(u8, u8)>,
        /// The parts shifted in one after the other (`(word << 8) | part`,
        /// as `read_u32_be` nests them) instead of each by its own offset.
        nested: bool,
        /// `word & mask` is what gets compared.
        mask: Option<u32>,
        op: CmpOp,
        const_left: bool,
        /// The constant: the word under these bytes, off by `nudge - 1`
        /// (so bounds and equalities land on values the word can take) —
        /// or, with `nudge == 3`, any.
        near: Vec<u8>,
        nudge: u8,
        any: u32,
    }

    fn arb_word_cmp() -> impl Strategy<Value = WordCmp> {
        (
            prop::collection::vec((0u8..4, 0u8..7), 1..5),
            any::<bool>(),
            prop::option::of(any::<u32>()),
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Ult),
                Just(CmpOp::Ule)
            ],
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 4..5),
            (0u8..4, any::<u32>()),
        )
            .prop_map(
                |(parts, nested, mask, op, const_left, near, (nudge, any))| WordCmp {
                    parts,
                    nested,
                    // Mostly unmasked: a mask hides the byte's place.
                    mask: mask.filter(|m| m % 4 == 0),
                    op,
                    const_left,
                    near,
                    nudge,
                    any,
                },
            )
    }

    fn build(arena: &mut ExprArena, c: &WordCmp) -> ExprId {
        let bits = match c.parts.len() {
            1 => 8,
            2 => 16,
            _ => 32,
        };
        let mut word = None;
        for &(byte, quad) in &c.parts {
            let byte = arena.input(byte as u32);
            let mut part = arena.zext(bits, byte);
            if !c.nested {
                let by = arena.constant(bits, (4 * quad as u64).min(bits as u64 - 8));
                part = arena.bin(BinOp::Shl, bits, part, by);
            }
            word = Some(match word {
                None => part,
                Some(word) => {
                    let eight = arena.constant(bits, 8);
                    let word = match c.nested {
                        true => arena.bin(BinOp::Shl, bits, word, eight),
                        false => word,
                    };
                    arena.bin(BinOp::Or, bits, word, part)
                }
            });
        }
        let mut word = word.expect("at least one part");
        if let Some(mask) = c.mask {
            let mask = arena.constant(bits, mask as u64);
            word = arena.bin(BinOp::And, bits, word, mask);
        }
        let k = match c.nudge {
            3 => c.any as u64,
            nudge => {
                let at = arena.eval(word, &|idx| Some(c.near[idx as usize] as u64));
                (at.expect("fully assigned") + nudge as u64).wrapping_sub(1)
            }
        };
        let k = arena.constant(bits, k);
        match c.const_left {
            true => arena.cmp(c.op, k, word),
            false => arena.cmp(c.op, word, k),
        }
    }

    /// [`Search::narrow`] for byte `target` under the one constraint `(e,
    /// want)`, the other bytes of `0..4` as `known` says.
    fn narrowed(
        arena: &ExprArena,
        (e, want): Constraint,
        target: u32,
        known: &[Option<u8>],
    ) -> ByteSet {
        let mut assign: Vec<ByteBits> = known
            .iter()
            .map(|k| k.map_or(ByteBits::UNKNOWN, ByteBits::exact))
            .collect();
        assign[target as usize] = ByteBits::UNKNOWN;
        let var = SysVar {
            slot: target,
            id: target,
            seed: 0,
            set: ByteSet::full(),
            mentions: 1,
            watch: (0, 1),
        };
        let search = Search {
            arena,
            slot_of: &[0, 1, 2, 3],
            sys: &[var],
            multi: &[(e, want)],
            watch: &[(0, 0)],
            assign: &mut assign,
            steps: 0,
            max_steps: 0,
        };
        search.narrow(&var)
    }

    proptest! {
        /// What narrowing may drop: a value under which the constraint
        /// comes out as wanted for *no* completion of the unknown bytes —
        /// checked by trying them (all 256 of a single unknown byte; the
        /// extremes and the constant's own bytes of several).
        #[test]
        fn narrowing_drops_only_values_without_a_completion(
            first in arb_word_cmp(),
            second in prop::option::of((arb_word_cmp(), any::<bool>(), any::<bool>())),
            want in any::<bool>(),
            target in 0usize..4,
            known in prop::collection::vec((0u8..4, any::<u8>()), 4..5),
        ) {
            // A byte is unknown, known as the constant has it (the rest
            // of the word then agrees with the constant, and the target
            // decides), or known as anything.
            let known: Vec<Option<u8>> = known
                .iter()
                .zip(&first.near)
                .map(|(&(how, any), &near)| match how {
                    0 => None,
                    3 => Some(any),
                    _ => Some(near),
                })
                .collect();
            // A byte the first comparison holds.
            let target = first.parts[target % first.parts.len()].0 as u32;
            let mut arena = ExprArena::new();
            let mut e = build(&mut arena, &first);
            if let Some((second, negate, and)) = &second {
                if *negate {
                    e = arena.not(e);
                }
                let other = build(&mut arena, second);
                e = arena.boolean(if *and { BoolOp::And } else { BoolOp::Or }, e, other);
            }
            let live = narrowed(&arena, (e, want), target, &known);

            let open: Vec<u32> = (0..4)
                .filter(|&i| i != target && known[i as usize].is_none())
                .collect();
            let tries: Vec<u8> = match open.len() {
                0 | 1 => (0..=u8::MAX).collect(),
                n => [0, 0xFF]
                    .into_iter()
                    .chain(first.near.iter().flat_map(|&b| [b, b.wrapping_sub(1), b.wrapping_add(1)]))
                    .take(if n == 2 { 14 } else { 6 })
                    .collect(),
            };
            for val in (0..=u8::MAX).filter(|&v| !live.contains(v)) {
                for completion in 0..tries.len().pow(open.len() as u32) {
                    let byte = |idx: u32| -> u8 {
                        if idx == target {
                            return val;
                        }
                        match open.iter().position(|&i| i == idx) {
                            Some(nth) => tries[completion / tries.len().pow(nth as u32) % tries.len()],
                            None => known[idx as usize].unwrap_or(0),
                        }
                    };
                    let verdict = arena.eval(e, &|idx| Some(byte(idx) as u64));
                    prop_assert!(
                        verdict.is_some_and(|v| (v != 0) != want),
                        "{} want {want}: in[{target}] = {val} was dropped, yet {:?} satisfies it",
                        arena.render(e),
                        (0..4).map(byte).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
