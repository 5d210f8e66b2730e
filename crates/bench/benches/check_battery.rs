//! C3 micro-bench: what judging one validated clone costs. The default
//! checker battery over a clone of the 16-node gossip mesh, demo27 and the
//! 1000-AS federation, after the *null* input (nothing touched; the
//! origin-authority checker runs) and after an injected one (the input
//! propagates; origin authority is skipped), in µs and heap allocations
//! per call under a counting allocator.
//!
//! `check_battery/…` is [`run_checkers`] over the cut's [`CheckBaseline`]:
//! untouched nodes keep their baseline verdict. `check_battery_full/…` is
//! the same battery as it was before baselines
//! ([`check_oracle::run_full_battery`]): every table of every node, one
//! SHA-256 per route. Both publish the same report (asserted here, and at
//! depth by `tests/check_differential.rs`).
//!
//! [`CheckBaseline`]: dice_core::CheckBaseline

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dice_core::check_oracle::{self, FullContext};
use dice_core::{default_checkers, flips_baseline, run_checkers, CheckContext, SutCatalog};
use dice_netsim::{SimDuration, Simulator};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: dice_bench::CountingAlloc = dice_bench::CountingAlloc;

/// Heap allocations of one call of `f`, averaged over a few.
fn allocs_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    const CALLS: u64 = 8;
    let before = dice_bench::allocations();
    for _ in 0..CALLS {
        black_box(f());
    }
    (dice_bench::allocations() - before) as f64 / CALLS as f64
}

const THRESHOLD: u64 = 20;

fn bench_battery(c: &mut Criterion) {
    let catalog = SutCatalog::default();
    let checkers = default_checkers(THRESHOLD);
    for name in ["gossip16", "demo27", "internet1k"] {
        let bound = dice_bench::bound_clone(name);
        let live = Simulator::from_shadow(&bound.shadow, &bound.topo, 1);
        let registry = catalog.build_registry(&live, 7);
        let baseline = flips_baseline(&catalog, &bound.shadow);
        let full_baseline = check_oracle::flips_baseline(&catalog, &bound.shadow);
        for (case, input) in [("null", None), ("injected", Some(&bound.valid_input))] {
            let mut clone = Simulator::from_shadow(&bound.shadow, &bound.topo, 3);
            if let Some(bytes) = input {
                clone.deliver_direct(bound.peer, bound.explorer, bytes);
            }
            let end = clone.now() + SimDuration::from_secs(30);
            let quiet = clone.run_until_quiet(SimDuration::from_secs(5), end);
            let injected = input.is_some();
            let incremental = || {
                run_checkers(
                    &checkers,
                    &CheckContext {
                        sim: &clone,
                        catalog: &catalog,
                        registry: &registry,
                        baseline_flips: &baseline,
                        quiet,
                        injected,
                    },
                )
            };
            let full = || {
                check_oracle::run_full_battery(
                    THRESHOLD,
                    &FullContext {
                        sim: &clone,
                        catalog: &catalog,
                        registry: &registry,
                        baseline_flips: &full_baseline,
                        quiet,
                        injected,
                    },
                )
            };
            let (new, old) = (incremental(), full());
            assert_eq!(new.verdicts, old.verdicts, "{name}/{case}");
            assert_eq!(new.faults, old.faults, "{name}/{case}");
            println!(
                "check_battery/{case}/{name} verdicts {} allocs_per_call {:.1} (full battery: {:.1})",
                new.verdicts.len(),
                allocs_per_call(incremental),
                allocs_per_call(full),
            );
            c.bench_function(
                BenchmarkId::new(format!("check_battery/{case}"), name),
                |b| b.iter(|| black_box(incremental())),
            );
            c.bench_function(
                BenchmarkId::new(format!("check_battery_full/{case}"), name),
                |b| b.iter(|| black_box(full())),
            );
        }
    }
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_battery
}
criterion_main!(benches);
