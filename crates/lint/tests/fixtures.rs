//! Fixture suite: one seeded violation per rule, asserting the exact
//! rule id, file and line — proof that every rule actually fires — plus
//! the allow-annotation round trip and the meta-rules policing the
//! escape hatch. (The invariants clippy holds have their fire-tests where
//! clippy reads them: every `#[expect(clippy::disallowed_…)]` in the tree,
//! the two canaries in `dice-core` among them — DESIGN.md §6.)
//!
//! Fixtures use the `.fixture` extension so cargo never compiles them
//! and `scan_workspace` never visits them (it skips this crate
//! entirely); each is presented to [`dice_lint::scan_files`] under a
//! *virtual* workspace path chosen to land in the right rule scope.

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
fn allow_annotations_suppress_and_carry_their_reason() {
    let report = scan_one(
        "crates/core/src/executor.rs",
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
            ("panic-freedom", "crates/core/src/executor.rs", 4),
            ("panic-freedom", "crates/core/src/executor.rs", 9),
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
        "crates/core/src/executor.rs",
        include_str!("fixtures/allow_syntax.fixture"),
    );
    let got: Vec<_> = report.violations.iter().map(triple).collect();
    assert_eq!(
        got,
        vec![
            // Unknown rule id.
            ("allow-syntax", "crates/core/src/executor.rs", 3),
            // Missing `: <reason>` — and therefore it suppresses nothing:
            // the unwrap below it still surfaces.
            ("allow-syntax", "crates/core/src/executor.rs", 5),
            ("panic-freedom", "crates/core/src/executor.rs", 6),
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

/// Where the findings about the `PathPass::flip` root point, and what the
/// first one says.
fn flip_root(report: &LintReport) -> (Vec<(&str, &str, usize)>, &str) {
    let about = |f: &&Finding| f.message.contains("`PathPass::flip`");
    let at = report.violations.iter().filter(about).map(triple).collect();
    let first = report.violations.iter().find(about);
    (at, first.map_or("", |f| f.message.as_str()))
}

#[test]
fn unresolved_root_fires_when_a_root_leaves_its_file() {
    // `panic-freedom` anchors on `PathPass::flip` in concolic's
    // solve/path.rs. Move the method to another file of the crate and a
    // workspace scan must say the anchor is gone, not quietly stop guarding
    // what only it reaches; back in path.rs the same tree resolves it —
    // until a second `PathPass::flip` joins it there, and the root no
    // longer says which one it guards. (The crate's other roots are not in
    // this tree and are reported too; only `flip`'s findings are compared.
    // `scan_files` stays exempt: every other test in this file scans one
    // file of some crate.)
    let root = std::env::temp_dir().join(format!("dice-lint-unresolved-{}", std::process::id()));
    let src = root
        .join("crates")
        .join("concolic")
        .join("src")
        .join("solve");
    std::fs::create_dir_all(&src).unwrap();
    let fixture = include_str!("fixtures/unresolved_root.fixture");
    std::fs::write(src.join("flip.rs"), fixture).unwrap();
    let moved = dice_lint::scan_workspace(&root).unwrap();
    std::fs::rename(src.join("flip.rs"), src.join("path.rs")).unwrap();
    let home = dice_lint::scan_workspace(&root).unwrap();
    std::fs::write(src.join("path.rs"), format!("{fixture}{fixture}")).unwrap();
    let ambiguous = dice_lint::scan_workspace(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    let at_home = vec![("unresolved-root", "crates/concolic/src/solve/path.rs", 1)];
    let (at, why) = flip_root(&moved);
    assert_eq!(at, at_home);
    assert!(why.contains("is not in the file"), "{why}");
    assert!(flip_root(&home).0.is_empty(), "{:?}", home.violations);
    let (at, why) = flip_root(&ambiguous);
    assert_eq!(at, at_home);
    assert!(why.contains("ambiguous"), "{why}");
    assert!(scan_one("crates/concolic/src/solve/flip.rs", fixture).is_clean());
}
