//! Fixture suite: one seeded violation per rule, asserting the exact
//! rule id, file and line — proof that every rule actually fires — plus
//! the allow-annotation round trip and the meta-rules policing the
//! escape hatch.
//!
//! Fixtures use the `.fixture` extension so cargo never compiles them
//! and `scan_workspace` never visits them (it skips `fixtures/` dirs and
//! `crates/lint/` entirely); each is presented to [`dice_lint::scan_files`]
//! under a *virtual* workspace path chosen to land in the right rule
//! scope.

use dice_lint::{scan_files, Finding, LintReport, SourceFile};

fn scan_one(virtual_path: &str, content: &str) -> LintReport {
    scan_files(&[SourceFile {
        path: virtual_path.into(),
        content: content.into(),
    }])
}

fn triple(f: &Finding) -> (&str, &str, usize) {
    (f.rule.as_str(), f.path.as_str(), f.line)
}

#[test]
fn seam_containment_fires_on_foreign_downcast() {
    let report = scan_one(
        "crates/core/src/campaign/mod.rs",
        include_str!("fixtures/seam.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("seam-containment", "crates/core/src/campaign/mod.rs", 3)]
    );
}

#[test]
fn determinism_zone_fires_on_wall_clock_read() {
    let report = scan_one(
        "crates/core/src/explorer.rs",
        include_str!("fixtures/determinism.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("determinism-zone", "crates/core/src/explorer.rs", 3)]
    );
}

#[test]
fn determinism_zone_covers_the_schedule_module() {
    // The dynamics-schedule subsystem is in scope for R2: an ambient-RNG
    // draw fires at its exact line, while the `SimRng`-seeded expansion
    // path in the same file is clean.
    let report = scan_one(
        "crates/netsim/src/schedule.rs",
        include_str!("fixtures/schedule_determinism.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("determinism-zone", "crates/netsim/src/schedule.rs", 5)]
    );
}

#[test]
fn determinism_zone_covers_the_channel_fidelity_module() {
    // The link-fault layer is in scope for R2: an ambient-RNG draw in a
    // sampling helper fires at its exact line, while the per-link
    // `SimRng`-stream path in the same file is clean.
    let report = scan_one(
        "crates/netsim/src/faults.rs",
        include_str!("fixtures/faults_determinism.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("determinism-zone", "crates/netsim/src/faults.rs", 6)]
    );
}

#[test]
fn unordered_iter_fires_on_hashmap_iteration() {
    let report = scan_one(
        "crates/core/src/campaign/mod.rs",
        include_str!("fixtures/unordered.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("unordered-iter", "crates/core/src/campaign/mod.rs", 6)]
    );
}

#[test]
fn lock_hygiene_fires_on_a_lock_outside_the_test_module() {
    // `OnceLock` is not a lock, and the test module may use what it likes.
    let report = scan_one(
        "crates/core/src/executor.rs",
        include_str!("fixtures/lock.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("lock-hygiene", "crates/core/src/executor.rs", 4)]
    );
}

#[test]
fn schema_drift_fires_on_unzeroed_reachable_field() {
    let report = scan_one(
        "crates/core/src/campaign/mod.rs",
        include_str!("fixtures/schema_drift.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("schema-drift", "crates/core/src/campaign/mod.rs", 9)]
    );
    assert!(
        report.violations[0]
            .message
            .contains("StageBreakdown.wall_us"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn panic_freedom_fires_on_expect_reachable_from_run_rounds() {
    let report = scan_one(
        "crates/core/src/executor.rs",
        include_str!("fixtures/panic_freedom.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("panic-freedom", "crates/core/src/executor.rs", 8)]
    );
    assert!(
        report.violations[0].message.contains("`.expect()`"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn alloc_hot_path_fires_on_to_vec_in_pooled_fn() {
    let report = scan_one(
        "crates/core/src/explorer.rs",
        include_str!("fixtures/alloc_hot_path.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("alloc-hot-path", "crates/core/src/explorer.rs", 2)]
    );
    assert!(
        report.violations[0].message.contains("`.to_vec()`"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn alloc_hot_path_fires_on_the_update_fan_out() {
    // Rendering a trace line or building a peer list per best-route
    // change, or copying the bag per peer, fires; sharing it by
    // `Arc::clone` and allocating off the roots (`on_established`) pass.
    let report = scan_one(
        "crates/bgp/src/router.rs",
        include_str!("fixtures/update_fan_out.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![
            ("alloc-hot-path", "crates/bgp/src/router.rs", 3),
            ("alloc-hot-path", "crates/bgp/src/router.rs", 4),
            ("alloc-hot-path", "crates/bgp/src/router.rs", 9),
        ]
    );
}

#[test]
fn alloc_hot_path_fires_on_the_checker_battery_and_the_touched_reset() {
    // A verdict that names its checker by `to_string`, a fault rendered in
    // the per-node loop or a scratch list per node fires; borrowing the
    // name, reserving the report once and rendering in a callee
    // (`flapping`) pass. `check` — the collecting wrapper — is no root.
    let report = scan_one(
        "crates/core/src/check.rs",
        include_str!("fixtures/check_battery.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![
            ("alloc-hot-path", "crates/core/src/check.rs", 4),
            ("alloc-hot-path", "crates/core/src/check.rs", 15),
            ("alloc-hot-path", "crates/core/src/check.rs", 16),
        ]
    );
    // The reset: re-sharing a checkpoint by `Arc::clone` passes, deep-
    // copying the node or rendering the outside-scope reason per absent
    // node fires; the full rebinding (`bind_shadow`) is no root.
    let report = scan_one(
        "crates/netsim/src/sim/clone.rs",
        include_str!("fixtures/touched_reset.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![
            ("alloc-hot-path", "crates/netsim/src/sim/clone.rs", 4),
            ("alloc-hot-path", "crates/netsim/src/sim/clone.rs", 13),
            ("alloc-hot-path", "crates/netsim/src/sim/clone.rs", 14),
        ]
    );
}

#[test]
fn allow_annotations_suppress_and_carry_their_reason() {
    let report = scan_one(
        "crates/core/src/explorer.rs",
        include_str!("fixtures/allowed.fixture"),
    );
    assert!(
        report.violations.is_empty(),
        "both findings must be suppressed: {:?}",
        report.violations
    );
    assert_eq!(
        report.allowed.iter().map(triple).collect::<Vec<_>>(),
        vec![
            ("determinism-zone", "crates/core/src/explorer.rs", 4),
            ("determinism-zone", "crates/core/src/explorer.rs", 8),
        ]
    );
    // Round trip: the justification text survives into the report.
    assert_eq!(
        report.allowed[0].reason.as_deref(),
        Some("fixture exercises the own-line form")
    );
    assert_eq!(report.allowed[1].reason.as_deref(), Some("trailing form"));
}

#[test]
fn malformed_annotations_are_themselves_violations() {
    let report = scan_one(
        "crates/core/src/explorer.rs",
        include_str!("fixtures/allow_syntax.fixture"),
    );
    let got: Vec<_> = report.violations.iter().map(triple).collect();
    assert_eq!(
        got,
        vec![
            // Unknown rule id.
            ("allow-syntax", "crates/core/src/explorer.rs", 3),
            // Missing `: <reason>` — and therefore it suppresses nothing:
            // the wall-clock read below it still surfaces.
            ("allow-syntax", "crates/core/src/explorer.rs", 5),
            ("determinism-zone", "crates/core/src/explorer.rs", 6),
        ]
    );
}

#[test]
fn stale_annotations_are_flagged() {
    let report = scan_one(
        "crates/core/src/explorer.rs",
        include_str!("fixtures/stale.fixture"),
    );
    assert_eq!(
        report.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("stale-allow", "crates/core/src/explorer.rs", 3)]
    );
}

#[test]
fn json_report_reflects_the_findings() {
    let report = scan_one(
        "crates/core/src/campaign/mod.rs",
        include_str!("fixtures/seam.fixture"),
    );
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"seam-containment\""), "{json}");
    assert!(json.contains("\"line\": 3"), "{json}");
    assert!(!report.is_clean());
}

#[test]
fn unresolved_root_fires_when_a_root_leaves_its_file() {
    // `alloc-hot-path` anchors on `encode_into` in gossip's wire.rs. Move
    // the encoder to another file of the crate and a workspace scan must
    // say the anchor is gone, not quietly stop guarding it; back in
    // wire.rs the same tree is clean. (`scan_files` stays exempt: every
    // other test in this file scans one file of some crate.)
    let root = std::env::temp_dir().join(format!("dice-lint-unresolved-{}", std::process::id()));
    let src = root.join("crates").join("gossip").join("src");
    std::fs::create_dir_all(&src).unwrap();
    let fixture = include_str!("fixtures/unresolved_root.fixture");
    std::fs::write(src.join("codec.rs"), fixture).unwrap();
    let moved = dice_lint::scan_workspace(&root).unwrap();
    std::fs::rename(src.join("codec.rs"), src.join("wire.rs")).unwrap();
    let home = dice_lint::scan_workspace(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(
        moved.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("unresolved-root", "crates/gossip/src/wire.rs", 1)]
    );
    assert!(
        moved.violations[0].message.contains("`encode_into`"),
        "{}",
        moved.violations[0].message
    );
    assert!(home.violations.is_empty(), "{:?}", home.violations);
    assert!(scan_one("crates/gossip/src/codec.rs", fixture).is_clean());
}
