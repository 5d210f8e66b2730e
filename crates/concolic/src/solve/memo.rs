//! The cross-path memo of per-constraint facts.

#[cfg(doc)]
use super::PathSolver;
use super::{ByteSet, NONE};
use crate::expr::{cover, ExprArena, ExprId, LaneScratch};

/// Cross-path memo of the per-constraint facts [`PathSolver`] needs: the
/// referenced variable list and — for single-variable constraints — the
/// exact set of byte values under which the expression is truthy (one
/// 256-lane [`ExprArena::sweep`]). A table indexed by the constraint's
/// [`ExprId`] in the session's arena: that arena hash-conses and is never
/// cleared, so the id names the structure from the first seed to the last
/// flip — a child re-records most of its parent's constraints, and
/// different seeds with the same parse shape share them all — and a memo
/// serves that one arena for as long as it lives. Polarity is not part of
/// the key — a single-variable expression evaluates totally over the 256
/// values, so the set admitting the falsy polarity is the complement. The
/// memoized facts are pure functions of the expression's structure, so
/// reuse cannot change any solve outcome.
#[derive(Debug, Default)]
pub struct UnaryMemo {
    /// Node id → its entry; [`NONE`] until the node is first looked up.
    /// One word per arena node, the entries themselves only for the
    /// branch constraints among them.
    index: Vec<u32>,
    entries: Vec<MemoEntry>,
    /// The entries' variable lists, end to end.
    vars: Vec<u32>,
    /// Entries served from the memo (vars + unary set count as one hit).
    pub hits: u64,
    /// Entries computed (one sweep each).
    pub misses: u64,
    /// What a miss computes in.
    scratch: LaneScratch,
}

#[derive(Debug)]
struct MemoEntry {
    /// `(start, len)` in [`UnaryMemo::vars`].
    vars: (u32, u32),
    /// Single-variable constraints only: the values that make it truthy.
    truthy: Option<ByteSet>,
}

impl UnaryMemo {
    /// The variables `e` mentions (ascending) and, when that is one, the
    /// values of it under which `e` is truthy.
    pub(super) fn lookup(&mut self, arena: &ExprArena, e: ExprId) -> (&[u32], Option<ByteSet>) {
        let node = e.0 as usize;
        cover(&mut self.index, arena.len().max(node + 1), NONE);
        let mut at = self.index.get(node).copied().unwrap_or(NONE);
        if at == NONE {
            self.misses += 1;
            at = self.entries.len() as u32;
            let (vars, lanes) = arena.sweep(e, &mut self.scratch);
            self.entries.push(MemoEntry {
                vars: (self.vars.len() as u32, vars.len() as u32),
                truthy: lanes.map(ByteSet::truthy),
            });
            self.vars.extend_from_slice(vars);
            if let Some(slot) = self.index.get_mut(node) {
                *slot = at;
            }
        } else {
            self.hits += 1;
        }
        let Some(entry) = self.entries.get(at as usize) else {
            return (&[], None);
        };
        let (start, len) = (entry.vars.0 as usize, entry.vars.1 as usize);
        (
            self.vars.get(start..start + len).unwrap_or(&[]),
            entry.truthy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

    #[test]
    fn negated_unary_set_is_the_complement_of_the_swept_one() {
        // The single-variable constraints of handler-shaped systems
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
        let mut memo = UnaryMemo::default();
        assert_eq!(memo.lookup(&a, pair), (&[5u32, 6][..], None));

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
            // The memo's table answers with the sweep's facts, on the miss
            // and — the arena having grown past the table in between — on
            // the hit.
            assert_eq!(memo.lookup(&a, e), (&[v][..], Some(truthy)));
            let hits = memo.hits;
            a.constant(64, 0xD1CE_0000 + e.0 as u64);
            assert_eq!(memo.lookup(&a, e), (&[v][..], Some(truthy)));
            assert_eq!(memo.hits, hits + 1);
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
}
