//! W1 micro-bench: the per-datagram encode cost on the wire path —
//! `encode` (one fresh `Vec` per message, the pre-zero-copy shape) versus
//! `encode_into` a reused buffer (the shape the send path actually runs
//! after the zero-copy PR), for both protocol codecs.
//!
//! A third group measures the [`BufPool`] fast path itself: a steady-state
//! acquire→fill→recycle cycle against paying `Vec::with_capacity` per
//! datagram. Allocation *counts* (the headline ≥2x claim) are measured by
//! `exp_wire`, which owns a counting global allocator; criterion here
//! tracks the time side of the same comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bench::wire_workload::{bgp_update, gossip_digest, gossip_rumor};
use dice_netsim::BufPool;
use std::hint::black_box;

fn bench_encode(c: &mut Criterion) {
    let update = bgp_update();
    let digest = gossip_digest();
    let rumor = gossip_rumor();

    let mut group = c.benchmark_group("wire_encode");
    group.bench_function("bgp_update/fresh", |b| {
        b.iter(|| black_box(dice_bgp::wire::encode(black_box(&update))));
    });
    let mut buf = Vec::new();
    group.bench_function("bgp_update/reused", |b| {
        b.iter(|| {
            dice_bgp::wire::encode_into(black_box(&update), &mut buf);
            black_box(buf.len())
        });
    });
    group.bench_function("gossip_digest/fresh", |b| {
        b.iter(|| black_box(dice_gossip::wire::encode(black_box(&digest))));
    });
    let mut gbuf = Vec::new();
    group.bench_function("gossip_digest/reused", |b| {
        b.iter(|| {
            dice_gossip::wire::encode_into(black_box(&digest), &mut gbuf);
            black_box(gbuf.len())
        });
    });
    group.bench_function("gossip_rumor/fresh", |b| {
        b.iter(|| black_box(dice_gossip::wire::encode(black_box(&rumor))));
    });
    let mut rbuf = Vec::new();
    group.bench_function("gossip_rumor/reused", |b| {
        b.iter(|| {
            dice_gossip::wire::encode_into(black_box(&rumor), &mut rbuf);
            black_box(rbuf.len())
        });
    });
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let update = bgp_update();
    let mut group = c.benchmark_group("buf_pool");
    // Steady state: the previous buffer is recycled before the next
    // acquire, so every iteration after the first is a pool hit.
    let mut pool = BufPool::new();
    group.bench_function("acquire_recycled", |b| {
        b.iter(|| {
            let mut buf = pool.acquire();
            dice_bgp::wire::encode_into(&update, &mut buf);
            let n = buf.len();
            pool.recycle(buf);
            black_box(n)
        });
    });
    group.bench_function("alloc_fresh", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(64);
            dice_bgp::wire::encode_into(&update, &mut buf);
            black_box(buf)
        });
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(40)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_encode, bench_pool
}
criterion_main!(benches);
