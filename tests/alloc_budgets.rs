//! Allocation budgets, counted rather than pattern-matched: a thread-local
//! counting allocator sees every allocation a call makes, its callees'
//! included, so a budget here holds however the code under it is split
//! into functions.
//!
//! Each budget names what breaks it. Break it once to see it go red:
//!
//! * `gossip_copy_shares_its_tables`: give `GossipNode` back its owned
//!   tables (store, dedup memory and per-peer infection sets copied with
//!   the node, as before they were shared) and a copy of a 16-mesh node
//!   allocates 187 times.
//! * `bgp_router_copy_stays_at_its_pinned_count`: make `clone_node` copy
//!   the router's resolved config (`BgpRouter::shared`) instead of sharing
//!   its `Arc`, and a copy allocates 120 times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dice_system::dice::gossip_sut::as_gossip;
use dice_system::dice::scenarios;
use dice_system::netsim::{NodeId, SimDuration, SimTime, Simulator};

thread_local! {
    /// Allocations and reallocations made by this thread (the test
    /// harness runs tests on threads of their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a bump of a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds (`try_with` declines instead of panicking during thread exit).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most allocations one `clone_node` (the copy a validation clone
/// makes of a node it touches) takes over the nodes of `live`.
fn max_clone_allocs(live: &Simulator) -> u64 {
    live.topology()
        .node_ids()
        .map(|id| {
            let node = live.node(id);
            let before = allocs();
            let copy = node.clone_node();
            let spent = allocs() - before;
            drop(copy);
            spent
        })
        .max()
        .expect("the system has nodes")
}

fn quiesced(mut live: Simulator, within_s: u64) -> Simulator {
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(within_s * 1_000_000_000),
    );
    live
}

#[test]
fn gossip_copy_shares_its_tables() {
    // 16 topics, 32 rumors, 15 peers per node: a copy that duplicated the
    // store, the dedup memory and the per-peer infection sets took 187
    // allocations. Sharing them leaves the box and the small per-topic and
    // per-peer maps.
    let live = quiesced(scenarios::gossip_mesh(16, 7), 120);
    let g = as_gossip(live.node(NodeId(0))).expect("a gossip node");
    assert_eq!(g.seen_count(), 32, "the mesh converged");
    let spent = max_clone_allocs(&live);
    assert!(
        spent <= 24,
        "a gossip node copy allocated {spent} times (budget 24)"
    );
}

#[test]
fn bgp_router_copy_stays_at_its_pinned_count() {
    // Per-prefix `Arc` rows and shared config: a converged demo27 router
    // copies its row maps and session tables, not its routes.
    let live = quiesced(scenarios::demo27_system(7), 300);
    let spent = max_clone_allocs(&live);
    assert!(
        spent <= 22,
        "a demo27 router copy allocated {spent} times (pinned at 22)"
    );
}
