//! The cross-path memo of per-constraint facts.

use super::ByteSet;
#[cfg(doc)]
use super::PathSolver;
use crate::expr::{ExprArena, ExprId, LaneScratch, MixBuild};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
    map: HashMap<u64, MemoEntry, MixBuild>,
    /// Entries served from the memo (vars + unary set count as one hit).
    pub hits: u64,
    /// What a miss computes in.
    scratch: LaneScratch,
}

#[derive(Debug)]
pub(super) struct MemoEntry {
    pub(super) vars: Vec<u32>,
    /// Single-variable constraints only: the values that make it truthy.
    pub(super) truthy: Option<ByteSet>,
}

impl UnaryMemo {
    pub(super) fn lookup(&mut self, arena: &ExprArena, e: ExprId, key: u64) -> &MemoEntry {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

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
}
