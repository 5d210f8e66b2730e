//! Tier-1 gate: the whole workspace must be `dice-lint`-clean.
//!
//! This is the same scan `cargo run -p dice-lint` performs in CI, run as
//! a test so the invariants it holds (seam containment, panic freedom on
//! the paths its root table names, and those roots resolving at all)
//! break the build the moment a PR violates one without a justified allow
//! annotation. The determinism zone, hash iteration and lock hygiene are
//! *not* here: `cargo clippy --workspace --all-targets` holds them through
//! `crates/clippy.toml` (DESIGN.md §6); `tests/normalized_reflection.rs`
//! holds the zeroing contract, and `tests/alloc_budgets.rs` the hot paths'
//! allocation counts.

use std::path::Path;
use std::time::Instant;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let started = Instant::now();
    let report = dice_lint::scan_workspace(root).expect("workspace scan succeeds");
    let scan_ms = started.elapsed().as_millis();
    assert!(
        report.is_clean(),
        "dice-lint found unallowed violations:\n{}",
        report.to_table()
    );
    // A clean report on an empty scan would prove nothing.
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walker break?",
        report.files_scanned
    );
    // Every suppression must carry its parsed justification.
    assert!(
        !report.allowed.is_empty(),
        "the tree has known annotated accounting sites; none were seen"
    );
    for f in &report.allowed {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.is_empty()),
            "allowed finding without a justification: {}:{} {}",
            f.path,
            f.line,
            f.rule
        );
    }
    // The scan is a tier-1 gate, so it must stay cheap: the item graph
    // and call-edge resolution are linear passes, and 5 s of headroom is
    // an order of magnitude above what the tree needs today.
    assert!(
        scan_ms < 5000,
        "lint scan took {scan_ms} ms — the reachability rules regressed"
    );
}
