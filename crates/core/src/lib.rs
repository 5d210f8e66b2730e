//! # dice-core — DiCE: online testing of federated and heterogeneous
//! distributed systems
//!
//! Reproduction of Canini et al., SIGCOMM'11 (demo) / USENIX ATC'11. DiCE
//! continuously checks a *live* federated system — here, BGP inter-domain
//! routing — by exploring its behavior from the current state, in isolation
//! from the deployment:
//!
//! 1. **Consistent shadow snapshots** ([`snapshot`]): in-band
//!    Chandy–Lamport checkpoints of node state and channel contents, taken
//!    while the system keeps running.
//! 2. **Concolic exploration** ([`DomainProgram`], [`symmark`], [`grammar`]):
//!    the explorer node's own handler twin (for BGP `dice_bgp::UpdateTwin`)
//!    runs over symbolic message bytes and a symbolic route-preference
//!    condition; the `dice-concolic` engine negates path constraints to
//!    systematically cover handler paths — through both code *and*
//!    interpreted configuration. Grammar-based fuzzing supplies
//!    valid-by-construction seed messages.
//! 3. **Property checking** ([`check`]): clones of the snapshot are
//!    subjected to each interesting input; checkers detect the paper's
//!    three fault classes — programming errors (crashes), policy conflicts
//!    (oscillation / divergence), operator mistakes (unattested origins).
//! 4. **The narrow information-sharing interface** ([`interface`]): only
//!    salted SHA-256 ownership attestations and local verdicts cross domain
//!    boundaries; RIBs, policies and configuration stay private.
//!
//! The runtime is protocol-agnostic: everything it needs from a node under
//! test is captured by the [`sut`] seam ([`sut::ExplorableNode`] for
//! exploration, [`sut::CheckView`] for checking), resolved through a
//! [`sut::SutCatalog`] of probes. Two real protocols implement it: the BGP
//! adapter ([`bgp_sut`]) and the epidemic pub/sub adapter ([`gossip_sut`]
//! over `dice-gossip`); heterogeneous federations register extra probes.
//!
//! One round executor (the `executor` module: explore every round of a
//! sweep, meet at a barrier, validate every candidate of the sweep — no
//! lock anywhere) sits behind one driver, [`campaign::Campaign`]: it sweeps
//! the eligible `(explorer, inject peer)` pairs across the federation (a
//! fixed pair is a sweep over that one pair) — one `Arc`-shared snapshot
//! per explorer, `pair_workers` threads exploring and `workers` threads
//! validating, with the aggregated [`campaign::CampaignReport`]
//! byte-identical for any parallelism level modulo wall-clock fields.
//! [`scenarios`] provides the paper's demo systems (including the
//! 27-router Figure 1 topology).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic freedom (DESIGN.md §6): a bad input ends as a round error, never
// as a crash of the harness. A justified site carries
// `#[expect(clippy::…, reason = "…")]`. `tests/engine_invariants.rs`
// fails if this block changes, and rejects the `map[&key]` through a
// reference that `indexing_slicing` does not flag.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes
)]

pub mod bgp_sut;
pub mod campaign;
pub mod check;
#[doc(hidden)]
pub mod check_oracle;
mod domain;
mod executor;
pub mod explorer;
pub mod gossip_sut;
pub mod grammar;
pub mod hash;
pub mod interface;
mod pool;
pub mod scenarios;
pub mod snapshot;
pub mod sut;
pub mod symmark;

pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, ClassDetection, ExplorerSummary, PerfCounters,
    PhaseTimes,
};
pub use check::{
    default_checkers, flips_baseline, run_checkers, CheckBaseline, CheckContext, CheckReport,
    Checker, ConvergenceChecker, CrashChecker, FaultClass, FaultReport, OriginAuthorityChecker,
    OscillationChecker,
};
pub use domain::DomainProgram;
pub use explorer::{DiceConfig, RoundReport};
pub use grammar::UpdateGrammar;
pub use hash::{sha256, Sha256};
pub use interface::{AttestationRegistry, LocalVerdict};
pub use snapshot::{take_consistent_snapshot, take_instant_snapshot, SnapshotMetrics};
pub use sut::{CheckView, ExplorableNode, ExplorationPlan, SessionHealth, SutCatalog, SutProbe};
pub use symmark::mark_update;

/// Canaries for the two clippy-held invariants with no live site in this
/// crate (DESIGN.md §6): `dice-core` holds no lock and walks no hashed
/// container, so nothing else here would notice `crates/clippy.toml`
/// losing those entries or no longer being read. Each `#[expect]` is
/// fulfilled only while its `disallowed_…` entry fires; when it stops,
/// `cargo clippy -- -D warnings` fails with "this lint expectation is
/// unfulfilled". (`iter_over_hash_type` is expected too because the loop
/// trips it; an `#[expect]` switches a lint on by itself, so it says
/// nothing about `[workspace.lints]`.)
#[cfg(test)]
mod clippy_canaries {
    #[test]
    fn a_lock_is_a_finding() {
        #[expect(
            clippy::disallowed_types,
            reason = "canary: fails the clippy step if crates/clippy.toml stops being read"
        )]
        let lock = std::sync::Mutex::new(7u8);
        assert_eq!(lock.into_inner().ok(), Some(7));
    }

    #[test]
    fn a_hash_order_walk_is_a_finding() {
        let set: std::collections::HashSet<u8> = [1, 2, 3].into();
        let mut sum = 0;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "canary: fails the clippy step if crates/clippy.toml stops being read"
        )]
        for v in set.iter() {
            sum += v;
        }
        assert_eq!(sum, 6);
    }
}
