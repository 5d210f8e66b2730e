//! The toy programs the exploration tests run, each with the marker and
//! seeds its test explores it from. `tests/session_order.rs` includes this
//! file as well, so everything it names resolves at the crate root.

use crate::{CmpOp, ConcolicCtx, RunStatus, SiteId};

/// A toy: its name, the program, its symbolic-marking policy and seeds.
pub(crate) type Toy = (
    &'static str,
    fn(&mut ConcolicCtx) -> RunStatus,
    fn(&[u8]) -> Vec<bool>,
    Vec<Vec<u8>>,
);

/// Every toy, with the seeds of the test it was written for.
pub(crate) fn all() -> Vec<Toy> {
    vec![
        ("toy", toy_program, all_symbolic, vec![vec![0, 0, 0]]),
        ("oracle", oracle_prog, all_symbolic, vec![vec![0, 0]]),
        (
            "rechecking",
            rechecking_program,
            all_symbolic,
            vec![vec![0], vec![1]],
        ),
        (
            "two_sites",
            two_sites,
            all_symbolic,
            vec![vec![0, 0], vec![1, 1]],
        ),
        ("diamond", diamond, all_symbolic, vec![vec![0, 0]]),
        (
            "selected_diamond",
            selected_diamond,
            selector_concrete,
            vec![vec![0, 0, 0, 0], vec![1, 0, 0, 0]],
        ),
        ("loopy", loopy, all_symbolic, vec![vec![7, 0, 0]]),
    ]
}

pub(crate) fn all_symbolic(bytes: &[u8]) -> Vec<bool> {
    vec![true; bytes.len()]
}

/// Every byte symbolic but the first, `selected_diamond`'s selector.
pub(crate) fn selector_concrete(bytes: &[u8]) -> Vec<bool> {
    let mut mask = vec![true; bytes.len()];
    if let Some(first) = mask.first_mut() {
        *first = false;
    }
    mask
}

/// A toy parser with a deep guarded branch structure:
///   in[0] must be 0x42 (magic), in[1] selects 4 commands,
///   command 3 with in[2] >= 0xF0 crashes.
pub(crate) fn toy_program(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(2) {
        return RunStatus::Rejected("short".into());
    }
    let magic = ctx.read_u8(0);
    let is_magic = ctx.eq_const(magic, 0x42);
    if !ctx.branch(SiteId(1), is_magic) {
        return RunStatus::Rejected("bad magic".into());
    }
    let cmd = ctx.read_u8(1);
    let c3 = ctx.eq_const(cmd, 3);
    if ctx.branch(SiteId(2), c3) {
        let arg = ctx.read_u8(2);
        let big = ctx.uge_const(arg, 0xF0);
        if ctx.branch(SiteId(3), big) {
            return RunStatus::Crash("overflow".into());
        }
        return RunStatus::Ok;
    }
    let c2 = ctx.eq_const(cmd, 2);
    if ctx.branch(SiteId(4), c2) {
        return RunStatus::Ok;
    }
    RunStatus::Ok
}

/// Behavior that depends only on an oracle condition.
pub(crate) fn oracle_prog(ctx: &mut ConcolicCtx) -> RunStatus {
    let pref = ctx.oracle_bool(false);
    if ctx.branch(SiteId(10), pref) {
        RunStatus::Crash("preferred-path fault".into())
    } else {
        RunStatus::Ok
    }
}

/// A parser that re-checks the same byte condition at two sites — the
/// shape that makes negation queries UNSAT (flipping the second check
/// contradicts the first's prefix) and makes flips redundant once both
/// polarities are covered.
pub(crate) fn rechecking_program(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(0) {
        return RunStatus::Rejected("short".into());
    }
    let a = ctx.read_u8(0);
    let first = ctx.eq_const(a, 5);
    let hit1 = ctx.branch(SiteId(1), first);
    let again = ctx.eq_const(a, 5);
    let hit2 = ctx.branch(SiteId(2), again);
    let _ = (hit1, hit2);
    RunStatus::Ok
}

/// Two independent byte checks.
pub(crate) fn two_sites(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(1) {
        return RunStatus::Rejected("short".into());
    }
    let a = ctx.read_u8(0);
    let c1 = ctx.eq_const(a, 5);
    ctx.branch(SiteId(1), c1);
    let b = ctx.read_u8(1);
    let c2 = ctx.eq_const(b, 7);
    ctx.branch(SiteId(2), c2);
    RunStatus::Ok
}

/// A crash behind `b0 >= 128` and `b1 == b0`.
pub(crate) fn diamond(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(1) {
        return RunStatus::Rejected("short".into());
    }
    let b0 = ctx.read_u8(0);
    let small = ctx.ult_const(b0, 128);
    let is_small = ctx.branch(SiteId(1), small);
    let b1 = ctx.read_u8(1);
    let eq = ctx.cmp(CmpOp::Eq, b1, b0);
    let matches = ctx.branch(SiteId(2), eq);
    if !is_small && matches {
        return RunStatus::Crash("large mirrored byte".into());
    }
    RunStatus::Ok
}

/// [`diamond`] over a byte a concrete selector picks: in[0] == 1 tests
/// in[2] (and only then crashes), anything else in[1], against in[3].
pub(crate) fn selected_diamond(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(3) {
        return RunStatus::Rejected("short".into());
    }
    let second = ctx.read_u8(0).val == 1;
    let b = ctx.read_u8(if second { 2 } else { 1 });
    let small = ctx.ult_const(b, 128);
    let is_small = ctx.branch(SiteId(1), small);
    let mirror = ctx.read_u8(3);
    let eq = ctx.cmp(CmpOp::Eq, mirror, b);
    let matches = ctx.branch(SiteId(2), eq);
    if second && !is_small && matches {
        return RunStatus::Crash("large mirrored byte".into());
    }
    RunStatus::Ok
}

/// One site per loop iteration, as the instrumented attribute and digest
/// loops record it: three magic bytes crash.
pub(crate) fn loopy(ctx: &mut ConcolicCtx) -> RunStatus {
    if !ctx.in_bounds(2) {
        return RunStatus::Rejected("short".into());
    }
    let mut magics = 0u32;
    for k in 0..3 {
        let b = ctx.read_u8(k);
        let is_magic = ctx.eq_const(b, 7);
        if ctx.branch(SiteId(40), is_magic) {
            magics += 1;
        }
    }
    if magics == 3 {
        return RunStatus::Crash("all-magic".into());
    }
    RunStatus::Ok
}
