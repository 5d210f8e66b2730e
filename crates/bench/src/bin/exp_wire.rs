//! **W1 — zero-copy wire path**: heap allocations per encoded datagram,
//! pooled vs fresh, plus the end-to-end knob ablation.
//!
//! Two tables:
//!
//! * **W1a** — allocation counts measured by a counting global allocator:
//!   for each wire workload (transit-grade BGP UPDATE, 32-entry gossip
//!   digest, 64-byte rumor), the fresh path (`encode`, one new `Vec` per
//!   datagram) against the steady-state pooled path (`BufPool::acquire` →
//!   `encode_into` → recycle). The pooled steady state must allocate at
//!   least 2x less per datagram — the headline claim of the zero-copy PR.
//! * **W1b** — the same machinery end-to-end: an identical campaign run
//!   with the wire pool and batched delivery toggled, reporting the new
//!   perf counters and checking the normalized reports stay
//!   byte-identical (the knobs are pure allocation/scheduling wins).
//!
//! Flags: `--smoke` (smaller budgets for CI), `--json PATH` (archive rows,
//! committed as `BENCH_wire.json`).

use dice_bench::wire_workload::{bgp_update, gossip_digest, gossip_rumor};
use dice_bench::{maybe_write_json, Table};
use dice_core::{scenarios, Campaign, CampaignReport};
use dice_netsim::{BufPool, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and reallocation — a grown `Vec` costs
/// a new block) passing through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` `iters` times (after one untimed warmup call) and return the
/// mean `(allocations, allocated bytes)` per call.
fn measure(iters: u64, mut f: impl FnMut()) -> (f64, f64) {
    f(); // warmup: first pooled acquire is allowed its miss
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    let da = ALLOCS.load(Ordering::Relaxed) - a0;
    let db = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
    (da as f64 / iters as f64, db as f64 / iters as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u64 = if smoke { 2_000 } else { 20_000 };

    // W1a: allocations per encoded datagram.
    let mut t1 = Table::new(
        "W1a — heap allocations per encoded datagram (fresh vs pooled)",
        &[
            "workload",
            "variant",
            "allocs/datagram",
            "alloc bytes/datagram",
            "ratio",
        ],
    );
    let bgp = bgp_update();
    let digest = gossip_digest();
    let rumor = gossip_rumor();
    let pool = BufPool::new();

    let mut compare = |name: &str, fresh: &mut dyn FnMut(), pooled: &mut dyn FnMut()| {
        let (fa, fb) = measure(iters, &mut *fresh);
        let (pa, pb) = measure(iters, &mut *pooled);
        let ratio = if pa > 0.0 {
            format!("{:.1}x fewer", fa / pa)
        } else {
            format!("{fa:.2} -> 0 (allocation-free)")
        };
        t1.row(vec![
            name.into(),
            "fresh encode".into(),
            format!("{fa:.2}"),
            format!("{fb:.1}"),
            String::new(),
        ]);
        t1.row(vec![
            name.into(),
            "pooled encode_into".into(),
            format!("{pa:.2}"),
            format!("{pb:.1}"),
            ratio,
        ]);
    };

    compare(
        "bgp update",
        &mut || {
            std::hint::black_box(dice_bgp::wire::encode(&bgp));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_bgp::wire::encode_into(&bgp, buf.as_mut_vec());
            std::hint::black_box(buf.len());
            pool.recycle(buf.into());
        },
    );
    compare(
        "gossip digest",
        &mut || {
            std::hint::black_box(dice_gossip::wire::encode(&digest));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_gossip::wire::encode_into(&digest, buf.as_mut_vec());
            std::hint::black_box(buf.len());
            pool.recycle(buf.into());
        },
    );
    compare(
        "gossip rumor",
        &mut || {
            std::hint::black_box(dice_gossip::wire::encode(&rumor));
        },
        &mut || {
            let mut buf = pool.acquire();
            dice_gossip::wire::encode_into(&rumor, buf.as_mut_vec());
            std::hint::black_box(buf.len());
            pool.recycle(buf.into());
        },
    );
    t1.print();

    // W1b: the knobs end-to-end on an identical campaign.
    let executions = if smoke { 24 } else { 48 };
    let validate_top = if smoke { 4 } else { 6 };
    let run = |wire_pool: bool, batch: bool| -> CampaignReport {
        let mut sim = scenarios::healthy_line(3, 5);
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        Campaign::new(&sim)
            .executions(executions)
            .validate_top(validate_top)
            .wire_pool(wire_pool)
            .batch_delivery(batch)
            .run(&mut sim)
            .expect("campaign runs")
    };
    let base = run(true, true);
    let base_normalized = serde_json::to_string(&base.normalized()).expect("serializable");
    let mut t2 = Table::new(
        "W1b — wire knobs end-to-end (identical campaign, byte-identity check)",
        &[
            "variant",
            "wire bytes",
            "buf pool",
            "batches (max)",
            "report identical",
        ],
    );
    for (name, wire_pool, batch) in [
        ("pool on, batch on (default)", true, true),
        ("pool off, batch on", false, true),
        ("pool on, batch off", true, false),
        ("pool off, batch off", false, false),
    ] {
        let report = if wire_pool && batch {
            base.clone()
        } else {
            run(wire_pool, batch)
        };
        let normalized = serde_json::to_string(&report.normalized()).expect("serializable");
        let perf = &report.perf;
        t2.row(vec![
            name.into(),
            perf.wire_bytes.to_string(),
            format!("{} hits / {} misses", perf.buf_hits, perf.buf_misses),
            format!(
                "{} ({} frames)",
                perf.delivered_batches, perf.max_batch_occupancy
            ),
            if normalized == base_normalized {
                "yes".into()
            } else {
                "NO — DETERMINISM VIOLATION".into()
            },
        ]);
    }
    t2.print();

    maybe_write_json(&[&t1, &t2]);
}
