//! The depth-first search over one system's dense tables, with in-search
//! bit-probe narrowing.

#[cfg(doc)]
use super::Solver;
use super::{ByteSet, Constraint, NONE};
use crate::expr::{ByteBits, ExprArena};

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

/// Consecutive on-the-spot refutations of one variable's values after
/// which [`Search::dfs`] probes the variable bit by bit. A constant, not a
/// knob: a probe costs up to 16 evaluations per watched constraint, so it
/// must not fire in searches that are a few dozen values long (gossip's
/// are ~18), and any value well under a byte's 256 serves those that are.
const PROBE_AFTER: u32 = 32;

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
    /// The reference's search, minus the values it is known in advance to
    /// refute on the spot: after [`PROBE_AFTER`] such refutations in a row
    /// the node asks [`Search::probe`] which of its remaining values a
    /// single bit already rules out, and skips those. Only values
    /// `consistent` would reject are skipped, inside the node that would
    /// have tried them, so variable order, value order and the first
    /// solution found are the reference's.
    pub(super) fn dfs(&mut self, depth: usize) -> Option<bool> {
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
