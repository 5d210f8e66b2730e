//! **W1 — zero-copy wire path**: heap allocations per encoded datagram,
//! pooled vs fresh.
//!
//! Allocation counts measured by a counting global allocator: for each wire
//! workload (transit-grade BGP UPDATE, 32-entry gossip digest, 64-byte
//! rumor), the fresh path (`encode`, one new `Vec` per datagram) against the
//! steady-state pooled path (`BufPool::acquire` → `encode_into` → recycle).
//! The binary asserts that the pooled steady state allocates at least 2x
//! less per datagram — the headline claim of the zero-copy PR. (The pool's
//! end-to-end counters are `benchmark/`'s `netsim.buf.*`; that the knobs
//! leave reports byte-identical is `tests/heterogeneous.rs`.)
//!
//! Flags: `--smoke` (fewer iterations for CI), `--json PATH` (archive rows,
//! committed as `BENCH_wire.json`).

use dice_bench::wire_workload::{bgp_update, gossip_digest, gossip_rumor};
use dice_bench::{allocated_bytes, allocations, maybe_write_json, CountingAlloc, Table};
use dice_netsim::BufPool;
use serde_json::json;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` `iters` times (after one untimed warmup call) and return the
/// mean `(allocations, allocated bytes)` per call.
fn measure(iters: u64, mut f: impl FnMut()) -> (f64, f64) {
    f(); // warmup: first pooled acquire is allowed its miss
    let (a0, b0) = (allocations(), allocated_bytes());
    for _ in 0..iters {
        f();
    }
    let (da, db) = (allocations() - a0, allocated_bytes() - b0);
    (da as f64 / iters as f64, db as f64 / iters as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u64 = if smoke { 2_000 } else { 20_000 };

    let mut t1 = Table::new(
        "W1a — heap allocations per encoded datagram (fresh encode vs pooled encode_into)",
        &[
            "workload",
            "fresh_allocs_per_datagram",
            "fresh_bytes_per_datagram",
            "pooled_allocs_per_datagram",
            "pooled_bytes_per_datagram",
        ],
    );
    let bgp = bgp_update();
    let digest = gossip_digest();
    let rumor = gossip_rumor();
    let mut pool = BufPool::new();

    let mut compare = |name: &str, fresh: &mut dyn FnMut(), pooled: &mut dyn FnMut()| {
        let (fa, fb) = measure(iters, &mut *fresh);
        let (pa, pb) = measure(iters, &mut *pooled);
        t1.row(json!([name, fa, fb, pa, pb]));
        assert!(
            2.0 * pa <= fa,
            "{name}: pooled path allocates {pa:.2}/datagram, not 2x fewer than fresh {fa:.2}"
        );
    };

    compare(
        "bgp update",
        &mut || {
            std::hint::black_box(dice_bgp::wire::encode(&bgp));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_bgp::wire::encode_into(&bgp, &mut buf);
            std::hint::black_box(buf.len());
            pool.recycle(buf);
        },
    );
    compare(
        "gossip digest",
        &mut || {
            std::hint::black_box(dice_gossip::wire::encode(&digest));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_gossip::wire::encode_into(&digest, &mut buf);
            std::hint::black_box(buf.len());
            pool.recycle(buf);
        },
    );
    compare(
        "gossip rumor",
        &mut || {
            std::hint::black_box(dice_gossip::wire::encode(&rumor));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_gossip::wire::encode_into(&rumor, &mut buf);
            std::hint::black_box(buf.len());
            pool.recycle(buf);
        },
    );
    t1.print();

    maybe_write_json(&[&t1], &[]);
}
