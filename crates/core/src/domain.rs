//! The concolic instance of [`dice_netsim::Domain`]: a protocol's own
//! frame validator, run on the exploration context, records its branches
//! into the path condition. [`crate::gossip_sut`]'s twin runs
//! `dice_gossip::wire::validate` through it, [`crate::handler`]'s
//! `dice_bgp::wire::validate_update` and the import decision after it
//! (`dice_bgp::policy::screen_path`, `Policy::decide`).

use dice_concolic::{BinOp, CmpOp, ConcolicCtx, SiteId, SymBool, SymWord};
use dice_netsim::Domain;

/// A [`ConcolicCtx`] seen as a value domain. Each operation is the
/// context's own, with the site wrapped in a [`SiteId`]; a constant too
/// wide for the word is compared as the integer it is (never equal, always
/// above), where the context would truncate it to the word's width.
#[derive(Debug)]
pub(crate) struct Concolic<'c>(pub(crate) &'c mut ConcolicCtx);

/// Whether `k` fits in `w`'s width.
fn fits(w: SymWord, k: u64) -> bool {
    w.bits >= 64 || k >> w.bits == 0
}

impl Domain for Concolic<'_> {
    type Word = SymWord;
    type Bool = SymBool;

    fn len(&self) -> usize {
        self.0.input().bytes.len()
    }

    fn read_u8(&mut self, at: usize) -> SymWord {
        self.0.read_u8(at)
    }

    fn read_u16_be(&mut self, at: usize) -> SymWord {
        self.0.read_u16_be(at)
    }

    fn read_u32_be(&mut self, at: usize) -> SymWord {
        self.0.read_u32_be(at)
    }

    fn value(&self, w: SymWord) -> u64 {
        w.val
    }

    fn zext(&mut self, bits: u8, w: SymWord) -> SymWord {
        self.0.zext(bits, w)
    }

    fn and_const(&mut self, w: SymWord, k: u64) -> SymWord {
        self.0.and_const(w, k)
    }

    fn add_const(&mut self, w: SymWord, k: u64) -> SymWord {
        self.0.add_const(w, k)
    }

    fn shl(&mut self, w: SymWord, k: u8) -> SymWord {
        self.0.shl_const(w, k)
    }

    fn shr(&mut self, w: SymWord, k: u8) -> SymWord {
        let k = SymWord::concrete(w.bits, k as u64);
        self.0.bin(BinOp::Shr, w, k)
    }

    fn or(&mut self, a: SymWord, b: SymWord) -> SymWord {
        self.0.bin(BinOp::Or, a, b)
    }

    fn word(&mut self, bits: u8, v: u64) -> SymWord {
        self.0.lit(bits, v)
    }

    fn eq_const(&mut self, w: SymWord, k: u64) -> SymBool {
        if fits(w, k) {
            self.0.eq_const(w, k)
        } else {
            SymBool::concrete(false)
        }
    }

    fn ne_const(&mut self, w: SymWord, k: u64) -> SymBool {
        if fits(w, k) {
            self.0.cmp(CmpOp::Ne, w, SymWord::concrete(w.bits, k))
        } else {
            SymBool::concrete(true)
        }
    }

    fn ule_const(&mut self, w: SymWord, k: u64) -> SymBool {
        if fits(w, k) {
            self.0.ule_const(w, k)
        } else {
            SymBool::concrete(true)
        }
    }

    fn uge_const(&mut self, w: SymWord, k: u64) -> SymBool {
        if fits(w, k) {
            self.0.uge_const(w, k)
        } else {
            SymBool::concrete(false)
        }
    }

    fn bor(&mut self, a: SymBool, b: SymBool) -> SymBool {
        self.0.bor(a, b)
    }

    fn band(&mut self, a: SymBool, b: SymBool) -> SymBool {
        self.0.band(a, b)
    }

    fn bnot(&mut self, a: SymBool) -> SymBool {
        self.0.bnot(a)
    }

    fn lit(&mut self, b: bool) -> SymBool {
        SymBool::concrete(b)
    }

    fn branch(&mut self, site: u32, cond: SymBool) -> bool {
        self.0.branch(SiteId(site), cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_concolic::SymInput;
    use dice_netsim::Concrete;
    use proptest::prelude::*;

    /// A constant near a word width's edges, or anywhere.
    fn constant() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u8>().prop_map(u64::from),
            any::<u16>().prop_map(u64::from),
            any::<u32>().prop_map(u64::from),
            any::<u64>(),
            (0u32..34, 0u64..3).prop_map(|(e, d)| (1u64 << e) + d - 1),
        ]
    }

    proptest! {
        /// Every operation on the bytes equals the concrete value of the
        /// same operation on the concolic context, whatever the mask, and
        /// both branch the concrete way.
        #[test]
        fn concrete_and_concolic_domains_agree(
            bytes in prop::collection::vec(any::<u8>(), 4..24),
            mask_bits in any::<u32>(),
            at in 0usize..32,
            ks in prop::collection::vec(constant(), 1..6),
            site in any::<u32>(),
        ) {
            let mask: Vec<bool> = (0..bytes.len()).map(|i| mask_bits >> i & 1 == 1).collect();
            let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
            let mut s = Concolic(&mut ctx);
            let mut c = Concrete(&bytes);
            prop_assert_eq!(c.len(), s.len());
            prop_assert_eq!(c.is_empty(), s.is_empty());
            let at = at % (bytes.len() - 3);
            let words = [
                (c.read_u8(at), s.read_u8(at)),
                (c.read_u16_be(at), s.read_u16_be(at)),
                (c.read_u32_be(at), s.read_u32_be(at)),
            ];
            for (cw, sw) in words {
                prop_assert_eq!(c.value(cw), s.value(sw));
                // Widened to 64 bits, no sum or shift below leaves the word.
                let (cz, sz) = (c.zext(64, cw), s.zext(64, sw));
                prop_assert_eq!(cz, s.value(sz));
                for &k in &ks {
                    let shift = (k % 32) as u8;
                    let (cl, sl) = (c.word(64, k), s.word(64, k));
                    let computed = [
                        (c.and_const(cw, k), s.and_const(sw, k)),
                        (c.add_const(cz, k >> 32), s.add_const(sz, k >> 32)),
                        (c.shl(cz, shift), s.shl(sz, shift)),
                        (c.shr(cz, shift), s.shr(sz, shift)),
                        (c.or(cz, cl), s.or(sz, sl)),
                        (cl, sl),
                    ];
                    for (cv, sv) in computed {
                        prop_assert_eq!(cv, s.value(sv), "{:#x} and {:#x}", cw, k);
                    }
                    let conds = [
                        (c.eq_const(cw, k), s.eq_const(sw, k)),
                        (c.ne_const(cw, k), s.ne_const(sw, k)),
                        (c.ule_const(cw, k), s.ule_const(sw, k)),
                        (c.uge_const(cw, k), s.uge_const(sw, k)),
                    ];
                    for (cb, sb) in conds {
                        prop_assert_eq!(cb, sb.val, "{:#x} vs {:#x}", cw, k);
                        let (cl, sl) = (c.lit(!cb), s.lit(!cb));
                        prop_assert_eq!(cl, sl.val);
                        prop_assert_eq!(c.bor(cb, cl), s.bor(sb, sl).val);
                        prop_assert_eq!(c.bor(cb, cb), s.bor(sb, sb).val);
                        prop_assert_eq!(c.band(cb, cl), s.band(sb, sl).val);
                        prop_assert_eq!(c.band(cb, cb), s.band(sb, sb).val);
                        prop_assert_eq!(c.bnot(cb), s.bnot(sb).val);
                        prop_assert_eq!(c.branch(site, cb), cb);
                        prop_assert_eq!(s.branch(site, sb), cb);
                    }
                }
            }
        }
    }
}
