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

/// The virtual path that puts the source under a `POOLED_FNS` entry, the
/// source, and every `(line, construct)` that must fire — nothing else may.
type AllocCase = (&'static str, &'static str, &'static [(usize, &'static str)]);

/// `alloc-hot-path`, one row per guarded path.
const ALLOC_CASES: &[AllocCase] = &[
    // The per-unit validation loop: a root's direct body only.
    (
        "crates/core/src/explorer.rs",
        include_str!("fixtures/alloc_hot_path.fixture"),
        &[(2, "`.to_vec()`")],
    ),
    (
        "crates/core/src/executor.rs",
        "impl Sweep {\n\
         fn validate_unit(&self) { let v: Vec<u8> = Vec::new(); drop(v); }\n\
         fn elsewhere(&self) { let v: Vec<u8> = Vec::new(); drop(v); }\n\
         }\n",
        &[(2, "`Vec::new()`")],
    ),
    // The zero-copy roots: `encode_into` must stay allocation-free, while
    // the `encode` convenience wrapper (no root) may allocate its output.
    (
        "crates/bgp/src/wire.rs",
        "pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {\n\
         let scratch = Vec::new();\n\
         }\n\
         pub fn encode(msg: &Message) -> Vec<u8> {\n\
         let mut out = Vec::new();\n\
         encode_into(msg, &mut out);\n\
         out\n\
         }\n",
        &[(2, "`Vec::new()`")],
    ),
    // The payload free list, both sides of a trip: `Vec::with_capacity` on
    // the miss path is allowed — only the listed constructors are hot-path
    // regressions — and taking storage back must not copy it.
    (
        "crates/netsim/src/buf.rs",
        "impl BufPool {\n\
         pub fn acquire(&mut self) -> Vec<u8> {\n\
         let fallback = Vec::with_capacity(64);\n\
         self.free.pop().unwrap_or(fallback)\n\
         }\n\
         pub fn recycle(&mut self, buf: Vec<u8>) {\n\
         self.free.push(buf.to_vec());\n\
         }\n\
         }\n",
        &[(7, "`.to_vec()`")],
    ),
    (
        "crates/netsim/src/node.rs",
        "impl NodeApi<'_> {\n\
         pub fn buf(&mut self) -> Vec<u8> {\n\
         let scratch = Vec::new();\n\
         self.bufs.as_mut().map(|pool| pool.acquire()).unwrap_or(scratch)\n\
         }\n\
         }\n",
        &[(3, "`Vec::new()`")],
    ),
    // Delta capture: a clean node is served by `Arc::clone` of the cached
    // checkpoint (path syntax, a refcount bump — not in the alloc list); a
    // `.clone()` method call there is a deep per-node copy.
    (
        "crates/netsim/src/sim/cut.rs",
        "impl Simulator {\n\
         fn checkpoint_node(&mut self, n: NodeId) -> Option<Arc<dyn Node>> {\n\
         let cached = self.cache[n.index()].as_ref()?;\n\
         Some(std::sync::Arc::clone(cached))\n\
         }\n\
         }\n",
        &[],
    ),
    (
        "crates/netsim/src/sim/cut.rs",
        "impl Simulator {\n\
         fn checkpoint_node(&mut self, n: NodeId) -> Option<Arc<dyn Node>> {\n\
         let cached = self.cache[n.index()].as_ref()?;\n\
         Some(cached.clone())\n\
         }\n\
         }\n",
        &[(4, "`.clone()`")],
    ),
    // `apply` names two fns in policy.rs; the root is the evaluator
    // (`Policy::apply`) — `Action::apply` edits the bag it is handed.
    (
        "crates/bgp/src/policy.rs",
        "impl Action {\n\
         pub fn apply(&self, attrs: &mut PathAttrs) { let spare = attrs.clone(); drop(spare); }\n\
         }\n\
         impl Policy {\n\
         pub fn apply(&self, attrs: &PathAttrs) -> Option<PathAttrs> {\n\
         let mut out = attrs.clone();\n\
         Some(out)\n\
         }\n\
         }\n",
        &[(6, "`.clone()`")],
    ),
    // The UPDATE fan-out: rendering a trace line or building a peer list
    // per best-route change, or copying the bag per peer, fires; sharing
    // it by `Arc::clone` and allocating off the roots (`on_established`)
    // pass.
    (
        "crates/bgp/src/router.rs",
        include_str!("fixtures/update_fan_out.fixture"),
        &[(3, "`format!`"), (4, "`Vec::new()`"), (9, "`.clone()`")],
    ),
    // The checker battery: a verdict that names its checker by
    // `to_string`, a fault rendered in the per-node loop or a scratch list
    // per node fires; borrowing the name, reserving the report once and
    // rendering in a callee (`flapping`) pass. `check` — the collecting
    // wrapper — is no root.
    (
        "crates/core/src/check.rs",
        include_str!("fixtures/check_battery.fixture"),
        &[
            (4, "`Vec::new()`"),
            (15, "`.to_string()`"),
            (16, "`format!`"),
        ],
    ),
    // The same-snapshot reset: re-sharing a checkpoint by `Arc::clone`
    // passes, deep-copying the node or rendering the outside-scope reason
    // per absent node fires; the full rebinding (`bind_shadow`) is no root.
    (
        "crates/netsim/src/sim/clone.rs",
        include_str!("fixtures/touched_reset.fixture"),
        &[
            (4, "`.clone()`"),
            (13, "`.clone()`"),
            (14, "`.to_string()`"),
        ],
    ),
];

#[test]
fn alloc_hot_path_fires_in_the_pooled_fns_and_only_there() {
    for (path, source, want) in ALLOC_CASES {
        let report = scan_one(path, source);
        let got: Vec<_> = report.violations.iter().map(triple).collect();
        let lines: Vec<_> = want
            .iter()
            .map(|(l, _)| ("alloc-hot-path", *path, *l))
            .collect();
        assert_eq!(got, lines, "{path}:\n{source}");
        for (f, (_, what)) in report.violations.iter().zip(*want) {
            assert!(f.message.starts_with(what), "{path}: {}", f.message);
        }
    }
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

#[test]
fn unresolved_root_fires_when_a_root_leaves_its_file() {
    // `alloc-hot-path` anchors on `encode_into` in gossip's wire.rs. Move
    // the encoder to another file of the crate and a workspace scan must
    // say the anchor is gone, not quietly stop guarding it; back in
    // wire.rs the same tree is clean — until a second `encode_into` (a
    // method, here) joins it there, and the root no longer says which one
    // it guards. (`scan_files` stays exempt: every other test in this
    // file scans one file of some crate.)
    let root = std::env::temp_dir().join(format!("dice-lint-unresolved-{}", std::process::id()));
    let src = root.join("crates").join("gossip").join("src");
    std::fs::create_dir_all(&src).unwrap();
    let fixture = include_str!("fixtures/unresolved_root.fixture");
    std::fs::write(src.join("codec.rs"), fixture).unwrap();
    let moved = dice_lint::scan_workspace(&root).unwrap();
    std::fs::rename(src.join("codec.rs"), src.join("wire.rs")).unwrap();
    let home = dice_lint::scan_workspace(&root).unwrap();
    let twice = format!("{fixture}impl Header {{\n{fixture}}}\n");
    std::fs::write(src.join("wire.rs"), twice).unwrap();
    let ambiguous = dice_lint::scan_workspace(&root).unwrap();
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
    assert_eq!(
        ambiguous.violations.iter().map(triple).collect::<Vec<_>>(),
        vec![("unresolved-root", "crates/gossip/src/wire.rs", 1)]
    );
    assert!(
        ambiguous.violations[0].message.contains("ambiguous"),
        "{}",
        ambiguous.violations[0].message
    );
    assert!(scan_one("crates/gossip/src/codec.rs", fixture).is_clean());
}
