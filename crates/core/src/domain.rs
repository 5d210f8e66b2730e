//! The concolic instance of [`dice_netsim::Domain`], and the one adapter
//! from a protocol's [`Twin`] to the concolic engine: the twin's own code
//! (`dice_bgp::UpdateTwin`, `dice_gossip::FrameTwin`), run on the
//! exploration context, records its branches into the path condition.

use dice_concolic::{
    BinOp, CmpOp, ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymBool, SymWord,
};
use dice_netsim::{Domain, Twin, Verdict};

/// A protocol's twin as a concolic program: each run is the twin's on the
/// context's concolic values, its verdict the run's status.
#[derive(Debug, Clone)]
pub struct DomainProgram<T>(pub T);

impl<T: Twin> ConcolicProgram for DomainProgram<T> {
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        match self.0.run(&mut Concolic(ctx)) {
            Ok(()) => RunStatus::Ok,
            Err(Verdict::Reject(stage)) => RunStatus::Rejected(stage.into()),
            Err(Verdict::Crash(why)) => RunStatus::Crash(why.into()),
        }
    }
}

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

    fn free_bool(&mut self, default: bool) -> SymBool {
        self.0.oracle_bool(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip_sut::mark_gossip;
    use crate::sut::ExplorableNode;
    use crate::symmark::mark_update;
    use dice_bgp::policy::{Action, Match, PrefixFilter, Rule};
    use dice_bgp::{net, Asn, BgpRouter, Community, Origin, Policy, RouterConfig, RouterId};
    use dice_concolic::SymInput;
    use dice_gossip::{GossipConfig, GossipNode};
    use dice_netsim::{Concrete, NodeId};
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

    /// A router whose import policy tags, filters by prefix and by origin,
    /// and its UPDATE twin for peer 2; the seeded parser defect on when
    /// `buggy`.
    fn bgp(buggy: bool) -> (BgpRouter, dice_bgp::UpdateTwin) {
        let import = Policy {
            name: "imp".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::AsPathContains(Asn(64512))],
                    actions: vec![Action::AddCommunity(Community::from_pair(65001, 7))],
                    verdict: None,
                },
                Rule::reject(vec![Match::PrefixIn(vec![PrefixFilter::or_longer(net(
                    "10.0.0.0/8",
                ))])]),
                Rule::reject(vec![Match::OriginIs(Origin::Incomplete)]),
            ],
            default: dice_bgp::Verdict::Accept,
        };
        let mut config = RouterConfig::minimal(Asn(65001), RouterId(1))
            .with_neighbor(NodeId(2), Asn(65002), "imp", "all")
            .with_policy(import);
        config.bugs.attr_overflow_crash = buggy;
        let router = BgpRouter::new(config);
        let twin = router.update_twin(NodeId(2)).unwrap();
        (router, twin)
    }

    /// A gossip node with subscriptions and a publication, and its frame
    /// twin; the seeded digest defect on when `buggy`.
    fn gossip(buggy: bool) -> (GossipNode, dice_gossip::FrameTwin) {
        let mut config = GossipConfig::new(61001)
            .with_peer(NodeId(2))
            .subscribe(1)
            .subscribe(2)
            .publish(7);
        config.bugs.digest_count_overflow = buggy;
        let node = GossipNode::new(config);
        let twin = node.frame_twin();
        (node, twin)
    }

    /// The seeds of `node`'s plans for peer 2: the fixed minimal seed and
    /// an eight-seed grammar corpus.
    fn seeds(node: &dyn ExplorableNode, seed: u64) -> Vec<Vec<u8>> {
        [0, 8]
            .into_iter()
            .flat_map(|n| node.exploration_plan(NodeId(2), n, seed).unwrap().seeds)
            .collect()
    }

    /// `twin` on the bytes themselves and, through [`DomainProgram`], on a
    /// context with no byte symbolic and on one marked as exploration
    /// marks it: one verdict, the stage and the crash reason included.
    fn agree<T: Twin + Clone>(
        twin: &T,
        bytes: &[u8],
        marker: fn(&[u8]) -> Vec<bool>,
    ) -> Result<(), TestCaseError> {
        let want = match twin.clone().run(&mut Concrete(bytes)) {
            Ok(()) => RunStatus::Ok,
            Err(Verdict::Reject(stage)) => RunStatus::Rejected(stage.into()),
            Err(Verdict::Crash(why)) => RunStatus::Crash(why.into()),
        };
        let inputs = [
            SymInput::all_concrete(bytes.to_vec()),
            SymInput::with_mask(bytes.to_vec(), marker(bytes)),
        ];
        for input in inputs {
            let got = DomainProgram(twin.clone()).run(&mut ConcolicCtx::new(input));
            prop_assert_eq!(&got, &want, "on {:02x?}", bytes);
        }
        Ok(())
    }

    proptest! {
        /// Each whole twin, clean and buggy, returns one verdict in both
        /// domains: on its plans' seeds, on mutations of them, and on a
        /// seed's first bytes followed by arbitrary ones.
        #[test]
        fn whole_twins_agree_across_domains(
            seed in any::<u64>(),
            buggy in any::<bool>(),
            pick in any::<usize>(),
            mutations in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            keep in 0usize..24,
            tail in prop::option::of(prop::collection::vec(any::<u8>(), 0..48)),
        ) {
            let input = |seeds: Vec<Vec<u8>>| {
                let mut bytes = seeds[pick % seeds.len()].clone();
                if let Some(tail) = &tail {
                    bytes.truncate(keep);
                    bytes.extend_from_slice(tail);
                }
                for &(at, v) in &mutations {
                    if !bytes.is_empty() {
                        let at = at % bytes.len();
                        bytes[at] = v;
                    }
                }
                bytes
            };
            let (router, twin) = bgp(buggy);
            agree(&twin, &input(seeds(&router, seed)), mark_update)?;
            let (node, twin) = gossip(buggy);
            agree(&twin, &input(seeds(&node, seed)), mark_gossip)?;
        }
    }
}
