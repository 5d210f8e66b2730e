//! The instrumented twin of the router's UPDATE path.
//!
//! This is the "source instrumentation" of the paper's BIRD integration,
//! reproduced explicitly: the same pipeline as
//! `dice_bgp::router::BgpRouter::handle_update` (wire validation → import
//! policy → decision preference), but written against concolic values so
//! every data-dependent branch lands in the path condition.
//!
//! Two properties matter and are enforced by tests:
//!
//! 1. **Differential fidelity** — on a fully concrete input, the twin's
//!    verdict agrees with the real decoder + policy engine.
//! 2. **Configuration coverage** — the import policy is *interpreted* over
//!    symbolic values, so constraints mention config-derived constants;
//!    exploration therefore covers code and configuration simultaneously.

use dice_bgp::attrs::code as ac;
use dice_bgp::policy::{Match, Policy, Verdict};
use dice_bgp::wire::HEADER_LEN;
use dice_bgp::{Asn, RouterConfig};
use dice_concolic::{CmpOp, ConcolicCtx, ConcolicProgram, RunStatus, SiteId, SymBool, SymWord};
use dice_netsim::NodeId;

/// Stable branch-site identifiers for the instrumented handler.
pub mod sites {
    #![allow(
        missing_docs,
        reason = "each constant is the branch it names in the twin below"
    )]
    pub const WLEN_FITS: u32 = 10;
    pub const WD_PLEN: u32 = 11;
    pub const WD_FITS: u32 = 12;
    pub const ALEN_FITS: u32 = 13;
    pub const ATTR_HDR_FITS: u32 = 20;
    pub const ATTR_EXT_LEN: u32 = 21;
    pub const ATTR_VAL_FITS: u32 = 22;
    pub const ATTR_WK_FLAGS: u32 = 23;
    pub const ATTR_OPT_FLAG: u32 = 24;
    /// Dispatch sites: `DISPATCH_BASE + type_code` for known codes.
    pub const DISPATCH_BASE: u32 = 30;
    pub const ORIGIN_LEN: u32 = 40;
    pub const ORIGIN_VAL: u32 = 41;
    pub const ASPATH_SEG_KIND: u32 = 42;
    pub const ASPATH_SEG_COUNT: u32 = 43;
    pub const ASPATH_SEG_FITS: u32 = 44;
    pub const NEXTHOP_LEN: u32 = 45;
    pub const NEXTHOP_NONZERO: u32 = 46;
    pub const MED_LEN: u32 = 47;
    pub const LOCALPREF_LEN: u32 = 48;
    pub const ATOMIC_LEN: u32 = 49;
    pub const AGGREGATOR_LEN: u32 = 50;
    pub const COMMUNITY_MOD4: u32 = 51;
    pub const NEXTHOP_NOT_BCAST: u32 = 54;
    pub const ATTR_OPT_TRANS_FLAGS: u32 = 55;
    pub const BUG_CODE_HIGH: u32 = 60;
    pub const BUG_LEN_OVERFLOW: u32 = 61;
    pub const LOOP_CHECK: u32 = 70;
    pub const FIRST_AS: u32 = 71;
    pub const NLRI_PLEN: u32 = 80;
    pub const NLRI_FITS: u32 = 81;
    pub const PREFERENCE_ORACLE: u32 = 90;
    /// Policy rule sites: `POLICY_BASE + rule_index`.
    pub const POLICY_BASE: u32 = 100;
}

/// A symbolic IPv4 prefix parsed from NLRI.
#[derive(Debug, Clone, Copy)]
struct SymPrefix {
    /// 32-bit address (missing NLRI bytes zero-filled).
    addr: SymWord,
    /// Length in bits.
    len: SymWord,
}

/// Symbolic view of the attributes relevant to policy evaluation.
#[derive(Debug, Clone, Default)]
struct SymAttrs {
    origin: Option<SymWord>,
    asns: Vec<SymWord>,
    communities: Vec<SymWord>,
    next_hop: Option<SymWord>,
    have_as_path: bool,
}

/// The instrumented UPDATE handler for one router node.
#[derive(Debug, Clone)]
pub struct SymbolicUpdateHandler {
    config: RouterConfig,
    peer: NodeId,
    /// How often the preference oracle said "this route becomes best".
    pub became_best: u64,
    /// How often an input survived the whole pipeline.
    pub accepted: u64,
}

impl SymbolicUpdateHandler {
    /// Create the twin for the node with `config`, treating inputs as
    /// arriving from `peer`.
    pub fn new(config: RouterConfig, peer: NodeId) -> Self {
        assert!(
            config.neighbor(peer).is_some(),
            "peer {peer} is not configured on this router"
        );
        SymbolicUpdateHandler {
            config,
            peer,
            became_best: 0,
            accepted: 0,
        }
    }

    /// The import policy for the configured peer.
    // dice-lint: allow(panic-freedom): peer and policy ids are validated in new()
    fn import_policy(&self) -> &Policy {
        let n = self.config.neighbor(self.peer).expect("validated in new()");
        &self.config.policies[&n.import]
    }

    // dice-lint: allow(panic-freedom): peer and policy ids are validated in new()
    fn neighbor_asn(&self) -> Asn {
        self.config
            .neighbor(self.peer)
            .expect("validated in new()")
            .asn
    }
}

impl ConcolicProgram for SymbolicUpdateHandler {
    fn run(&mut self, ctx: &mut ConcolicCtx) -> RunStatus {
        run_update(self, ctx)
    }
}

/// Branch helper: returns the concrete direction, recording the constraint.
fn br(ctx: &mut ConcolicCtx, site: u32, cond: SymBool) -> bool {
    ctx.branch(SiteId(site), cond)
}

fn run_update(h: &mut SymbolicUpdateHandler, ctx: &mut ConcolicCtx) -> RunStatus {
    let total = ctx.input().bytes.len();
    // Framing is concrete by the marking policy; check it plainly.
    if !(HEADER_LEN + 4..=dice_bgp::wire::MAX_MESSAGE_LEN).contains(&total) {
        return RunStatus::Rejected("framing".into());
    }
    if ctx.input().bytes[18] != 2 {
        return RunStatus::Rejected("not-update".into());
    }

    let mut pos = HEADER_LEN;

    // ---- Withdrawn routes ------------------------------------------------
    let wlen = ctx.read_u16_be(pos);
    pos += 2;
    let fits = ctx.ule_const(wlen, (total - pos) as u64);
    if !br(ctx, sites::WLEN_FITS, fits) {
        return RunStatus::Rejected("withdrawn-overrun".into());
    }
    let wend = pos + wlen.val as usize;
    while pos < wend {
        let plen = ctx.read_u8(pos);
        pos += 1;
        let ok = ctx.ule_const(plen, 32);
        if !br(ctx, sites::WD_PLEN, ok) {
            return RunStatus::Rejected("withdrawn-prefix-len".into());
        }
        // nbytes = (plen + 7) >> 3, symbolically.
        let p16 = ctx.zext(16, plen);
        let plus7 = ctx.add_const(p16, 7);
        let three = ctx.lit(16, 3);
        let nbytes = ctx.bin(dice_concolic::BinOp::Shr, plus7, three);
        let fits = ctx.ule_const(nbytes, (wend - pos) as u64);
        if !br(ctx, sites::WD_FITS, fits) {
            return RunStatus::Rejected("withdrawn-truncated".into());
        }
        pos += nbytes.val as usize;
    }
    pos = wend;

    // ---- Path attribute block --------------------------------------------
    if pos + 2 > total {
        return RunStatus::Rejected("no-attr-len".into());
    }
    let alen = ctx.read_u16_be(pos);
    pos += 2;
    let fits = ctx.ule_const(alen, (total - pos) as u64);
    if !br(ctx, sites::ALEN_FITS, fits) {
        return RunStatus::Rejected("attrs-overrun".into());
    }
    let aend = pos + alen.val as usize;

    let mut attrs = SymAttrs::default();
    let mut seen_codes: Vec<u8> = Vec::new();

    while pos < aend {
        // flags, type, length (1 or 2 bytes depending on ext-len flag).
        let hdr_fits = SymBool::concrete(pos + 2 <= aend);
        if !br(ctx, sites::ATTR_HDR_FITS, hdr_fits) {
            return RunStatus::Rejected("attr-header-truncated".into());
        }
        let flags = ctx.read_u8(pos);
        let tcode = ctx.read_u8(pos + 1);
        pos += 2;
        let ext_bit = ctx.and_const(flags, 0x10);
        let has_ext = ctx.cmp(CmpOp::Ne, ext_bit, SymWord::concrete(8, 0));
        let alen_field: SymWord;
        if br(ctx, sites::ATTR_EXT_LEN, has_ext) {
            if pos + 2 > aend {
                return RunStatus::Rejected("attr-extlen-truncated".into());
            }
            alen_field = ctx.read_u16_be(pos);
            pos += 2;
        } else {
            if pos + 1 > aend {
                return RunStatus::Rejected("attr-len-truncated".into());
            }
            let l8 = ctx.read_u8(pos);
            pos += 1;
            alen_field = ctx.zext(16, l8);
        }
        let val_fits = ctx.ule_const(alen_field, (aend - pos) as u64);
        if !br(ctx, sites::ATTR_VAL_FITS, val_fits) {
            return RunStatus::Rejected("attr-value-truncated".into());
        }
        let vstart = pos;
        let vlen = alen_field.val as usize;
        pos += vlen;

        // Duplicate detection (concrete, mirroring the table lookup in C).
        let code_concrete = tcode.val as u8;
        if seen_codes.contains(&code_concrete) {
            return RunStatus::Rejected("duplicate-attr".into());
        }
        seen_codes.push(code_concrete);

        let optional = ctx.and_const(flags, 0x80);
        let opt_set = ctx.cmp(CmpOp::Ne, optional, SymWord::concrete(8, 0));
        let transitive = ctx.and_const(flags, 0x40);
        let trans_set = ctx.cmp(CmpOp::Ne, transitive, SymWord::concrete(8, 0));

        // Well-known flag pattern: !optional && transitive.
        let not_opt = ctx.bnot(opt_set);
        let wk_ok = ctx.band(not_opt, trans_set);

        // Dispatch: if/else-if chain over known type codes, like the C code.
        let is = |ctx: &mut ConcolicCtx, k: u8| ctx.eq_const(tcode, k as u64);
        let c_origin = is(ctx, ac::ORIGIN);
        if br(ctx, sites::DISPATCH_BASE + ac::ORIGIN as u32, c_origin) {
            if !br(ctx, sites::ATTR_WK_FLAGS, wk_ok) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 1);
            if !br(ctx, sites::ORIGIN_LEN, len_ok) {
                return RunStatus::Rejected("origin-len".into());
            }
            let v = ctx.read_u8(vstart);
            let v_ok = ctx.ule_const(v, 2);
            if !br(ctx, sites::ORIGIN_VAL, v_ok) {
                return RunStatus::Rejected("origin-value".into());
            }
            attrs.origin = Some(v);
            continue;
        }
        let c_aspath = is(ctx, ac::AS_PATH);
        if br(ctx, sites::DISPATCH_BASE + ac::AS_PATH as u32, c_aspath) {
            if !br(ctx, sites::ATTR_WK_FLAGS, wk_ok) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let mut p = vstart;
            let vend = vstart + vlen;
            while p < vend {
                let kind = ctx.read_u8(p);
                let one = ctx.eq_const(kind, 1);
                let two = ctx.eq_const(kind, 2);
                let kind_ok = ctx.bor(one, two);
                if !br(ctx, sites::ASPATH_SEG_KIND, kind_ok) {
                    return RunStatus::Rejected("aspath-seg-kind".into());
                }
                if p + 2 > vend {
                    return RunStatus::Rejected("aspath-truncated".into());
                }
                let count = ctx.read_u8(p + 1);
                let nonzero = ctx.uge_const(count, 1);
                if !br(ctx, sites::ASPATH_SEG_COUNT, nonzero) {
                    return RunStatus::Rejected("aspath-empty-seg".into());
                }
                // seg bytes = count * 2, symbolically.
                let c16 = ctx.zext(16, count);
                let one16 = ctx.lit(16, 1);
                let segbytes = ctx.bin(dice_concolic::BinOp::Shl, c16, one16);
                let fits = ctx.ule_const(segbytes, (vend - p - 2) as u64);
                if !br(ctx, sites::ASPATH_SEG_FITS, fits) {
                    return RunStatus::Rejected("aspath-truncated".into());
                }
                p += 2;
                for _ in 0..count.val {
                    let asn = ctx.read_u16_be(p);
                    attrs.asns.push(asn);
                    p += 2;
                }
            }
            attrs.have_as_path = true;
            continue;
        }
        let c_nexthop = is(ctx, ac::NEXT_HOP);
        if br(ctx, sites::DISPATCH_BASE + ac::NEXT_HOP as u32, c_nexthop) {
            if !br(ctx, sites::ATTR_WK_FLAGS, wk_ok) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 4);
            if !br(ctx, sites::NEXTHOP_LEN, len_ok) {
                return RunStatus::Rejected("nexthop-len".into());
            }
            let v = ctx.read_u32_be(vstart);
            let nz = ctx.cmp(CmpOp::Ne, v, SymWord::concrete(32, 0));
            if !br(ctx, sites::NEXTHOP_NONZERO, nz) {
                return RunStatus::Rejected("nexthop-zero".into());
            }
            let not_bcast = ctx.cmp(CmpOp::Ne, v, SymWord::concrete(32, u32::MAX as u64));
            if !br(ctx, sites::NEXTHOP_NOT_BCAST, not_bcast) {
                return RunStatus::Rejected("nexthop-broadcast".into());
            }
            attrs.next_hop = Some(v);
            continue;
        }
        let c_med = is(ctx, ac::MED);
        if br(ctx, sites::DISPATCH_BASE + ac::MED as u32, c_med) {
            if !br(ctx, sites::ATTR_OPT_FLAG, opt_set) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 4);
            if !br(ctx, sites::MED_LEN, len_ok) {
                return RunStatus::Rejected("med-len".into());
            }
            continue;
        }
        let c_lp = is(ctx, ac::LOCAL_PREF);
        if br(ctx, sites::DISPATCH_BASE + ac::LOCAL_PREF as u32, c_lp) {
            if !br(ctx, sites::ATTR_WK_FLAGS, wk_ok) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 4);
            if !br(ctx, sites::LOCALPREF_LEN, len_ok) {
                return RunStatus::Rejected("localpref-len".into());
            }
            continue;
        }
        let c_atomic = is(ctx, ac::ATOMIC_AGGREGATE);
        if br(
            ctx,
            sites::DISPATCH_BASE + ac::ATOMIC_AGGREGATE as u32,
            c_atomic,
        ) {
            if !br(ctx, sites::ATTR_WK_FLAGS, wk_ok) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 0);
            if !br(ctx, sites::ATOMIC_LEN, len_ok) {
                return RunStatus::Rejected("atomic-len".into());
            }
            continue;
        }
        // Optional-transitive flag pattern shared by AGGREGATOR/COMMUNITY.
        let opt_trans = ctx.band(opt_set, trans_set);
        let c_aggr = is(ctx, ac::AGGREGATOR);
        if br(ctx, sites::DISPATCH_BASE + ac::AGGREGATOR as u32, c_aggr) {
            if !br(ctx, sites::ATTR_OPT_TRANS_FLAGS, opt_trans) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let len_ok = ctx.eq_const(alen_field, 6);
            if !br(ctx, sites::AGGREGATOR_LEN, len_ok) {
                return RunStatus::Rejected("aggregator-len".into());
            }
            continue;
        }
        let c_comm = is(ctx, ac::COMMUNITY);
        if br(ctx, sites::DISPATCH_BASE + ac::COMMUNITY as u32, c_comm) {
            if !br(ctx, sites::ATTR_OPT_TRANS_FLAGS, opt_trans) {
                return RunStatus::Rejected("attr-flags".into());
            }
            let low2 = ctx.and_const(alen_field, 3);
            let mod_ok = ctx.eq_const(low2, 0);
            if !br(ctx, sites::COMMUNITY_MOD4, mod_ok) {
                return RunStatus::Rejected("community-len".into());
            }
            let mut p = vstart;
            while p + 4 <= vstart + vlen {
                let c = ctx.read_u32_be(p);
                attrs.communities.push(c);
                p += 4;
            }
            continue;
        }

        // Unknown attribute. Well-known unknown is fatal; optional
        // non-transitive is dropped; optional transitive is carried.
        if !br(ctx, sites::ATTR_OPT_FLAG, opt_set) {
            return RunStatus::Rejected("unrecognized-well-known".into());
        }
        // ---- Seeded programming error (mirrors BgpRouter's bug hook) ----
        if h.config.bugs.attr_overflow_crash {
            let code_high = ctx.uge_const(tcode, 0xF0);
            if br(ctx, sites::BUG_CODE_HIGH, code_high) {
                let len_big = ctx.uge_const(alen_field, 0x90);
                if br(ctx, sites::BUG_LEN_OVERFLOW, len_big) {
                    return RunStatus::Crash(
                        "seeded bug: unknown-attribute length overflow".into(),
                    );
                }
            }
        }
    }
    pos = aend;

    // ---- NLRI --------------------------------------------------------
    let mut prefixes: Vec<SymPrefix> = Vec::new();
    while pos < total {
        let plen = ctx.read_u8(pos);
        pos += 1;
        let ok = ctx.ule_const(plen, 32);
        if !br(ctx, sites::NLRI_PLEN, ok) {
            return RunStatus::Rejected("nlri-prefix-len".into());
        }
        let p16 = ctx.zext(16, plen);
        let plus7 = ctx.add_const(p16, 7);
        let three = ctx.lit(16, 3);
        let nbytes = ctx.bin(dice_concolic::BinOp::Shr, plus7, three);
        let fits = ctx.ule_const(nbytes, (total - pos) as u64);
        if !br(ctx, sites::NLRI_FITS, fits) {
            return RunStatus::Rejected("nlri-truncated".into());
        }
        // Assemble the 32-bit address from up to 4 symbolic bytes.
        let mut addr = ctx.lit(32, 0);
        for k in 0..4usize {
            let byte = if k < nbytes.val as usize {
                let b = ctx.read_u8(pos + k);
                ctx.zext(32, b)
            } else {
                ctx.lit(32, 0)
            };
            let shifted = ctx.shl_const(byte, (24 - 8 * k) as u8);
            addr = ctx.bin(dice_concolic::BinOp::Or, addr, shifted);
        }
        pos += nbytes.val as usize;
        prefixes.push(SymPrefix { addr, len: plen });
    }

    if prefixes.is_empty() {
        // Withdraw-only update: accepted trivially.
        return RunStatus::Ok;
    }

    // Mandatory attributes (presence is concrete at this point).
    if attrs.origin.is_none() || !attrs.have_as_path || attrs.next_hop.is_none() {
        return RunStatus::Rejected("missing-mandatory".into());
    }

    // ---- Loop detection and first-AS check ---------------------------
    let own = h.config.asn;
    let mut has_own = SymBool::concrete(false);
    for &asn in &attrs.asns {
        let eq = ctx.eq_const(asn, own.0 as u64);
        has_own = ctx.bor(has_own, eq);
    }
    if br(ctx, sites::LOOP_CHECK, has_own) {
        return RunStatus::Rejected("as-loop".into());
    }
    let neigh = h.neighbor_asn();
    let first_ok = match attrs.asns.first() {
        Some(&first) => ctx.eq_const(first, neigh.0 as u64),
        None => SymBool::concrete(false),
    };
    if !br(ctx, sites::FIRST_AS, first_ok) {
        return RunStatus::Rejected("first-as".into());
    }

    // ---- Import policy, interpreted symbolically ----------------------
    let policy = h.import_policy();
    for (pi, prefix) in prefixes.iter().enumerate() {
        match eval_policy(ctx, policy, *prefix, &attrs, pi) {
            Verdict::Reject => return RunStatus::Rejected("import-policy".into()),
            Verdict::Accept => {}
        }
    }

    // ---- Route-preference condition, marked symbolic (paper §3) -------
    h.accepted += 1;
    let preferred = ctx.oracle_bool(true);
    if br(ctx, sites::PREFERENCE_ORACLE, preferred) {
        h.became_best += 1;
    }
    RunStatus::Ok
}

/// Interpret the policy over a symbolic route. Every rule's predicate is a
/// recorded branch, so constraints encode the *configuration*.
fn eval_policy(
    ctx: &mut ConcolicCtx,
    policy: &Policy,
    prefix: SymPrefix,
    attrs: &SymAttrs,
    prefix_index: usize,
) -> Verdict {
    for (ri, rule) in policy.rules.iter().enumerate() {
        let mut fires = SymBool::concrete(true);
        for m in &rule.matches {
            let hit = eval_match(ctx, m, prefix, attrs);
            fires = ctx.band(fires, hit);
        }
        // Site encodes (rule, prefix slot) so different NLRI entries keep
        // distinguishable branch identities.
        let site = sites::POLICY_BASE + (ri as u32) * 8 + (prefix_index as u32 % 8);
        if br(ctx, site, fires) {
            if let Some(v) = rule.verdict {
                return v;
            }
        }
    }
    policy.default
}

fn eval_match(ctx: &mut ConcolicCtx, m: &Match, prefix: SymPrefix, attrs: &SymAttrs) -> SymBool {
    match m {
        Match::Any => SymBool::concrete(true),
        Match::PrefixIn(filters) => {
            let mut any = SymBool::concrete(false);
            for f in filters {
                let maskv: u64 = if f.net.len() == 0 {
                    0
                } else {
                    ((u32::MAX as u64) << (32 - f.net.len() as u64)) & u32::MAX as u64
                };
                let masked = ctx.and_const(prefix.addr, maskv);
                let base_eq = ctx.eq_const(masked, f.net.addr() as u64);
                let ge = ctx.uge_const(prefix.len, f.min_len as u64);
                let le = ctx.ule_const(prefix.len, f.max_len as u64);
                let range = ctx.band(ge, le);
                let hit = ctx.band(base_eq, range);
                any = ctx.bor(any, hit);
            }
            any
        }
        Match::PrefixLenIn { min, max } => {
            let ge = ctx.uge_const(prefix.len, *min as u64);
            let le = ctx.ule_const(prefix.len, *max as u64);
            ctx.band(ge, le)
        }
        Match::AsPathContains(a) => {
            let mut any = SymBool::concrete(false);
            for &asn in &attrs.asns {
                let eq = ctx.eq_const(asn, a.0 as u64);
                any = ctx.bor(any, eq);
            }
            any
        }
        Match::AsPathLenAtMost(n) => SymBool::concrete(attrs.asns.len() as u32 <= *n),
        Match::OriginatedBy(a) => match attrs.asns.last() {
            Some(&last) => ctx.eq_const(last, a.0 as u64),
            None => SymBool::concrete(false),
        },
        Match::HasCommunity(c) => {
            let mut any = SymBool::concrete(false);
            for &comm in &attrs.communities {
                let eq = ctx.eq_const(comm, c.0 as u64);
                any = ctx.bor(any, eq);
            }
            any
        }
        Match::OriginIs(o) => match attrs.origin {
            Some(origin) => ctx.eq_const(origin, *o as u64),
            None => SymBool::concrete(false),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::{
        encode, net, AsPath, Ipv4Addr, Message, PathAttrs, RouterConfig, RouterId, UpdateMsg,
    };
    use dice_concolic::SymInput;

    fn config_with_peer() -> RouterConfig {
        RouterConfig::minimal(Asn(65001), RouterId(0x0A000001)).with_neighbor(
            NodeId(2),
            Asn(65002),
            "all",
            "all",
        )
    }

    fn valid_update(nlri: &[&str]) -> Vec<u8> {
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65002, 65003]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: nlri.iter().map(|s| net(s)).collect(),
        }))
    }

    fn run_concrete(h: &mut SymbolicUpdateHandler, bytes: &[u8]) -> RunStatus {
        let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
        h.run(&mut ctx)
    }

    fn run_symbolic(h: &mut SymbolicUpdateHandler, bytes: &[u8]) -> (RunStatus, usize) {
        let mask = crate::symmark::mark_update(bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.to_vec(), mask));
        let st = h.run(&mut ctx);
        (st, ctx.path().len())
    }

    #[test]
    fn accepts_valid_update() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        assert_eq!(run_concrete(&mut h, &bytes), RunStatus::Ok);
        assert_eq!(h.accepted, 1);
    }

    #[test]
    fn symbolic_run_records_constraints() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        let (st, path_len) = run_symbolic(&mut h, &bytes);
        assert_eq!(st, RunStatus::Ok);
        assert!(
            path_len >= 15,
            "expected a rich path condition, got {path_len}"
        );
    }

    #[test]
    fn rejects_as_loop() {
        let cfg = config_with_peer();
        let mut h = SymbolicUpdateHandler::new(cfg, NodeId(2));
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65002, 65001]), // contains own AS
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));
        assert_eq!(
            run_concrete(&mut h, &bytes),
            RunStatus::Rejected("as-loop".into())
        );
    }

    #[test]
    fn rejects_wrong_first_as() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65009]), // not the peer AS
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));
        assert_eq!(
            run_concrete(&mut h, &bytes),
            RunStatus::Rejected("first-as".into())
        );
    }

    #[test]
    fn policy_rejection_mirrors_engine() {
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let mut cfg = config_with_peer().with_policy(dice_bgp::Policy {
            name: "no10".into(),
            rules: vec![Rule::reject(vec![Match::PrefixIn(vec![
                PrefixFilter::or_longer(net("10.0.0.0/8")),
            ])])],
            default: dice_bgp::Verdict::Accept,
        });
        cfg.neighbors[0].import = "no10".into();
        let mut h = SymbolicUpdateHandler::new(cfg.clone(), NodeId(2));
        let rejected = valid_update(&["10.1.0.0/16"]);
        let accepted = valid_update(&["20.0.0.0/8"]);
        assert_eq!(
            run_concrete(&mut h, &rejected),
            RunStatus::Rejected("import-policy".into())
        );
        assert_eq!(run_concrete(&mut h, &accepted), RunStatus::Ok);
    }

    /// Differential fidelity: the twin's verdict equals decode + policy +
    /// loop/first-AS checks done with the concrete machinery.
    #[test]
    fn differential_against_concrete_pipeline() {
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let mut cfg = config_with_peer().with_policy(dice_bgp::Policy {
            name: "imp".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::PrefixIn(vec![PrefixFilter {
                        net: net("10.0.0.0/8"),
                        min_len: 8,
                        max_len: 24,
                    }])],
                    actions: vec![],
                    verdict: Some(dice_bgp::Verdict::Accept),
                },
                Rule::reject(vec![Match::AsPathContains(Asn(64000))]),
            ],
            default: dice_bgp::Verdict::Accept,
        });
        cfg.neighbors[0].import = "imp".into();

        let cases: Vec<Vec<u8>> = vec![
            valid_update(&["10.2.0.0/16"]),
            valid_update(&["10.0.0.0/8"]),
            valid_update(&["192.0.2.0/24"]),
            {
                let attrs = PathAttrs {
                    as_path: AsPath::sequence([65002, 64000]),
                    next_hop: Ipv4Addr(0x0A000002),
                    ..Default::default()
                };
                encode(&Message::Update(UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(attrs),
                    nlri: vec![net("172.16.0.0/12")],
                }))
            },
        ];

        for bytes in cases {
            let mut h = SymbolicUpdateHandler::new(cfg.clone(), NodeId(2));
            let twin = run_concrete(&mut h, &bytes);

            // Concrete reference pipeline.
            let reference = match dice_bgp::decode(&bytes) {
                Ok((Message::Update(u), _)) => {
                    let attrs = u.attrs.as_ref().unwrap();
                    if attrs.as_path.contains(Asn(65001)) {
                        RunStatus::Rejected("as-loop".into())
                    } else if attrs.as_path.first_asn() != Some(Asn(65002)) {
                        RunStatus::Rejected("first-as".into())
                    } else {
                        let pol = &cfg.policies["imp"];
                        let all_ok = u
                            .nlri
                            .iter()
                            .all(|p| pol.apply(p, attrs, Asn(65001)).is_some());
                        if all_ok {
                            RunStatus::Ok
                        } else {
                            RunStatus::Rejected("import-policy".into())
                        }
                    }
                }
                Ok(_) => RunStatus::Rejected("not-update".into()),
                Err(e) => RunStatus::Rejected(format!("decode: {e}").into()),
            };
            let agree = matches!(
                (&twin, &reference),
                (RunStatus::Ok, RunStatus::Ok) | (RunStatus::Rejected(_), RunStatus::Rejected(_))
            );
            assert!(agree, "twin={twin:?} reference={reference:?}");
        }
    }

    #[test]
    fn seeded_bug_reached_only_when_enabled() {
        let mut attrs = PathAttrs {
            as_path: AsPath::sequence([65002]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        attrs.unknown.push(dice_bgp::RawAttr {
            flags: dice_bgp::attrs::flags::OPTIONAL | dice_bgp::attrs::flags::TRANSITIVE,
            code: 0xF7,
            value: vec![0xAA; 0x95],
        });
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));

        let mut benign = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        assert_eq!(run_concrete(&mut benign, &bytes), RunStatus::Ok);

        let mut buggy_cfg = config_with_peer();
        buggy_cfg.bugs.attr_overflow_crash = true;
        let mut buggy = SymbolicUpdateHandler::new(buggy_cfg, NodeId(2));
        assert!(matches!(
            run_concrete(&mut buggy, &bytes),
            RunStatus::Crash(_)
        ));
    }

    #[test]
    fn config_complexity_grows_constraints() {
        // The same input produces more recorded constraints under a more
        // complex configuration — the paper's "code and configuration"
        // claim in miniature.
        use dice_bgp::policy::{Match, PrefixFilter, Rule};
        let bytes = valid_update(&["10.0.0.0/8"]);

        let simple = config_with_peer();
        let mut h1 = SymbolicUpdateHandler::new(simple, NodeId(2));
        let (_, len_simple) = run_symbolic(&mut h1, &bytes);

        let mut rich = config_with_peer();
        let mut rules = Vec::new();
        for i in 0..6u16 {
            rules.push(Rule {
                matches: vec![
                    Match::PrefixIn(vec![PrefixFilter::or_longer(net(&format!(
                        "{}.0.0.0/8",
                        20 + i
                    )))]),
                    Match::AsPathContains(Asn(64100 + i)),
                ],
                actions: vec![],
                verdict: None,
            });
        }
        rich = rich.with_policy(dice_bgp::Policy {
            name: "rich".into(),
            rules,
            default: dice_bgp::Verdict::Accept,
        });
        rich.neighbors[0].import = "rich".into();
        let mut h2 = SymbolicUpdateHandler::new(rich, NodeId(2));
        let (_, len_rich) = run_symbolic(&mut h2, &bytes);

        assert!(
            len_rich > len_simple,
            "rich config must add constraints: {len_rich} vs {len_simple}"
        );
    }

    #[test]
    fn withdraw_only_accepted() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![net("10.0.0.0/8")],
            attrs: None,
            nlri: vec![],
        }));
        assert_eq!(run_concrete(&mut h, &bytes), RunStatus::Ok);
    }

    #[test]
    fn preference_oracle_branches() {
        let mut h = SymbolicUpdateHandler::new(config_with_peer(), NodeId(2));
        let bytes = valid_update(&["10.0.0.0/8"]);
        let mask = crate::symmark::mark_update(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
        let st = h.run(&mut ctx);
        assert_eq!(st, RunStatus::Ok);
        // The last recorded branch is the preference oracle.
        let last = ctx.path().last().unwrap();
        assert_eq!(last.site, SiteId(sites::PREFERENCE_ORACLE));
        assert_eq!(h.became_best, 1, "default oracle says preferred");
    }
}
