//! # dice-lint — workspace invariant checker
//!
//! Deterministic replay rests on conventions no compiler checks. Most of
//! them are held by stock tools (DESIGN.md §6 has the row per invariant):
//! clippy, through `crates/clippy.toml`, keeps wall clocks, hash-order
//! iteration and locks out of `crates/**`;
//! `tests/normalized_reflection.rs` holds the `normalized()` zeroing
//! contract on a real serialized report; `tests/alloc_budgets.rs` counts
//! what the hot paths allocate. This crate keeps what only a
//! whole-workspace view can see: which fns are *reachable* from the round
//! hot loop, and whether the roots that reachability starts from still
//! exist where the table says. It is a std-only token-level scanner
//! (no rustc plugin — the build container is offline), runnable both as a
//! binary (`cargo run -p dice-lint`) and as a tier-1 test
//! (`tests/dice_lint.rs` at the workspace root).
//!
//! ## Modules and rules
//!
//! | module | what it owns |
//! |---|---|
//! | `lexer` | one pass over a file's raw text: the token stream (comments and literal contents yield no tokens) and where each line's `//` comment starts |
//! | `graph` | fns, their impls and test-ness, and name-resolved call edges over those tokens; reachability; root lookup |
//! | `rules` | the root table and the three rules that read the graph |
//! | this file | the scan pipeline, allow annotations and the two rules that police them, the workspace walker, the findings table |
//!
//! | id | invariant |
//! |---|---|
//! | `seam-containment` | `downcast_ref::<BgpRouter>` only in `core/src/bgp_sut.rs`; `GossipNode` downcasts only in `gossip_sut.rs` |
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!`/identifier slice-index in fns reachable from the round hot loop or the solve path |
//! | `unresolved-root` | workspace scans only: every fn `panic-freedom` anchors on is found, once, where its root table says, if its crate is in the scan |
//! | `allow-syntax` | escape-hatch annotations must name a known rule and give a reason |
//! | `stale-allow` | escape-hatch annotations must actually suppress a finding |
//!
//! ## Escape hatch
//!
//! A finding is suppressed by an allow annotation carrying the rule id and
//! a justification, either at the end of the offending line or as a
//! comment line directly above it. The syntax (shown here with `<>`
//! placeholders; the marker itself is assembled at runtime so these docs
//! don't trip the scanner): `<marker>(<rule-id>): <reason>` where
//! `<marker>` is the crate name followed by `: allow`. Suppressed findings
//! are still parsed and reported (the table's `allowed` rows); a missing
//! reason or an annotation that suppresses nothing is itself a violation.
//!
//! The scanner skips `vendor/` (third-party stand-ins), `target/`, and its
//! own crate (its sources and fixtures quote the patterns the rules search
//! for).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod graph;
mod lexer;
mod rules;

/// The rule identifiers enforced by this crate, in severity-neutral
/// reporting order. `allow-syntax` and `stale-allow` police the escape
/// hatch itself.
pub const RULES: &[&str] = &[
    "seam-containment",
    "panic-freedom",
    "unresolved-root",
    "allow-syntax",
    "stale-allow",
];

/// One workspace-relative Rust source file presented to the scanner.
/// Paths use `/` separators; rules scope themselves by path prefix, so
/// fixture tests can claim any path (e.g. `crates/core/src/bad.rs`).
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full file contents.
    pub content: String,
}

/// One rule hit before allow-annotation resolution.
pub(crate) struct RawFinding {
    pub(crate) rule: &'static str,
    pub(crate) path: String,
    /// 1-based line number.
    pub(crate) line: usize,
    pub(crate) message: String,
    /// For findings inside a function body (`panic-freedom`): the
    /// 1-based line of the enclosing `fn` keyword. An allow annotation on
    /// (or directly above) the fn declaration then suppresses every
    /// finding of that rule in the body — the fn-level escape hatch for
    /// index-heavy code where per-line annotations would drown the file.
    pub(crate) fn_line: Option<usize>,
}

/// A resolved finding: either an unallowed violation or a finding
/// suppressed by a justified annotation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the hit.
    pub message: String,
    /// Justification parsed from the allow annotation, when suppressed.
    pub reason: Option<String>,
}

/// Outcome of one scan: unallowed violations (exit-code-relevant) plus
/// the suppressed findings with their justifications.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings not covered by an allow annotation. Empty = exit 0.
    pub violations: Vec<Finding>,
    /// Findings suppressed by a justified annotation.
    pub allowed: Vec<Finding>,
}

/// A parsed allow annotation.
struct Annotation {
    /// 1-based line the annotation sits on.
    line: usize,
    /// Rule id inside the parentheses (not yet validated).
    rule: String,
    /// Justification after the closing `):`, trimmed; `None` if absent
    /// or empty.
    reason: Option<String>,
    /// Whether the annotation is a comment-only line (then it covers the
    /// next line) or trails code (then it covers its own line).
    own_line: bool,
    /// Set when the annotation suppressed at least one finding.
    used: bool,
}

/// The allow-annotation marker, assembled at runtime so the scanner's own
/// sources never contain the contiguous token sequence it searches for.
fn marker() -> String {
    format!("dice-{}{}", "lint: ", "allow(")
}

/// Parse every allow annotation in `content`. Only a `//` comment counts,
/// and the lexer says where each line's starts (`comment_at`) — a marker
/// quoted in a string literal is not an annotation, whatever precedes it.
fn parse_annotations(content: &str, comment_at: &[Option<usize>]) -> Vec<Annotation> {
    let marker = marker();
    let mut out = Vec::new();
    for (idx, (line, at)) in content.lines().zip(comment_at).enumerate() {
        let Some(at) = *at else {
            continue;
        };
        let (code, comment) = line.split_at(at);
        let Some(m) = comment.find(&marker) else {
            continue;
        };
        let after = &comment[m + marker.len()..];
        // An unterminated marker is a malformed annotation with an empty
        // rule id, caught by allow-syntax.
        let (rule, rest) = after.split_once(')').unwrap_or(("", ""));
        let reason = rest
            .trim_start()
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty());
        out.push(Annotation {
            line: idx + 1,
            rule: rule.trim().to_string(),
            reason,
            own_line: code.trim().is_empty(),
            used: false,
        });
    }
    out
}

/// Scan an in-memory file set. This is the whole pipeline: lex, build
/// the item graph, run the rules, resolve allow annotations, police the
/// annotations themselves, and sort deterministically. Rule roots absent
/// from `files` are skipped (fixtures define only the ones they test);
/// [`scan_workspace`] reports them as `unresolved-root`.
pub fn scan_files(files: &[SourceFile]) -> LintReport {
    scan(files, false)
}

fn scan(files: &[SourceFile], workspace: bool) -> LintReport {
    // Per-file annotation tables, resolved against the findings below.
    let mut annotations: Vec<(String, Vec<Annotation>)> = Vec::with_capacity(files.len());
    let mut lexed = Vec::with_capacity(files.len());
    for f in files {
        let lexer::Lexed { toks, comment_at } = lexer::lex(&f.content);
        annotations.push((f.path.clone(), parse_annotations(&f.content, &comment_at)));
        lexed.push(graph::FileToks {
            path: f.path.clone(),
            toks,
        });
    }

    let graph = graph::ItemGraph::build(lexed);
    let raw_findings = rules::run_all(&graph, workspace);

    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };

    for f in raw_findings {
        let anns = annotations
            .iter_mut()
            .find(|(path, _)| *path == f.path)
            .map(|(_, a)| a);
        let hit = anns.and_then(|anns| {
            anns.iter_mut().find(|a| {
                let covers_line = (a.line == f.line) || (a.own_line && a.line + 1 == f.line);
                // Fn-level coverage: an annotation on (or above) the fn
                // declaration suppresses every body finding of that rule.
                // Only `panic-freedom` sets `fn_line`.
                let covers_fn = f
                    .fn_line
                    .is_some_and(|fl| (a.line == fl) || (a.own_line && a.line + 1 == fl));
                a.rule == f.rule && a.reason.is_some() && (covers_line || covers_fn)
            })
        });
        // A covering annotation always carries a reason, so `reason` is
        // what tells an allowed finding from a violation.
        let reason = hit.and_then(|a| {
            a.used = true;
            a.reason.clone()
        });
        let list = if reason.is_some() {
            &mut report.allowed
        } else {
            &mut report.violations
        };
        list.push(Finding {
            rule: f.rule.to_string(),
            path: f.path,
            line: f.line,
            message: f.message,
            reason,
        });
    }

    // Police the escape hatch: unknown rule ids and missing reasons are
    // malformed; well-formed annotations that suppressed nothing are
    // stale. Both are ordinary violations.
    for (path, anns) in &annotations {
        for a in anns {
            let (rule, message) = if a.rule.is_empty() || !RULES.contains(&a.rule.as_str()) {
                let known = RULES.join(", ");
                (
                    "allow-syntax",
                    format!(
                        "allow annotation names unknown rule `{}` (known: {known})",
                        a.rule
                    ),
                )
            } else if a.reason.is_none() {
                (
                    "allow-syntax",
                    format!(
                        "allow annotation for `{}` has no justification — append `: <reason>`",
                        a.rule
                    ),
                )
            } else if !a.used {
                (
                    "stale-allow",
                    format!(
                        "allow annotation for `{}` suppresses nothing — remove it",
                        a.rule
                    ),
                )
            } else {
                continue;
            };
            report.violations.push(Finding {
                rule: rule.into(),
                path: path.clone(),
                line: a.line,
                message,
                reason: None,
            });
        }
    }

    let key = |f: &Finding| (f.path.clone(), f.line, f.rule.clone());
    report.violations.sort_by_key(key);
    report.allowed.sort_by_key(key);
    report
}

/// Walk the workspace at `root` (the `src/`, `crates/`, `examples/` and
/// `tests/` trees), skipping `vendor/`, `target/`, `.git/`, this crate's
/// own fixture directory and this crate itself, and scan every `.rs`
/// file found. Directory entries are visited in sorted order so the
/// report is stable. Unlike [`scan_files`], a rule root that no longer
/// resolves to one fn of a scanned crate is an `unresolved-root` violation.
pub fn scan_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["src", "crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/lint/") {
            continue; // self-exclusion: see crate docs
        }
        files.push(SourceFile {
            path: rel,
            content: std::fs::read_to_string(&p)?,
        });
    }
    Ok(scan(&files, true))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // Only this crate's own fixture corpus is skipped — another
            // crate's real `fixtures/` module is ordinary code and must
            // be scanned like anything else.
            let own_fixtures = name == "fixtures" && path.ends_with("crates/lint/tests/fixtures");
            if matches!(name, "vendor" | "target" | ".git") || own_fixtures {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl LintReport {
    /// Whether the scan found no unallowed violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable table: one aligned row per finding, violations
    /// first, then the allowed (suppressed) findings with reasons.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let loc = |f: &Finding| format!("{}:{}", f.path, f.line);
        let width = self
            .violations
            .iter()
            .chain(&self.allowed)
            .map(|f| loc(f).len())
            .max()
            .unwrap_or(0);
        let rule_width = self
            .violations
            .iter()
            .chain(&self.allowed)
            .map(|f| f.rule.len())
            .max()
            .unwrap_or(0);
        for f in &self.violations {
            let _ = writeln!(
                s,
                "VIOLATION  {:width$}  {:rule_width$}  {}",
                loc(f),
                f.rule,
                f.message
            );
        }
        for f in &self.allowed {
            let _ = writeln!(
                s,
                "allowed    {:width$}  {:rule_width$}  {} [{}]",
                loc(f),
                f.rule,
                f.message,
                f.reason.as_deref().unwrap_or("")
            );
        }
        let _ = writeln!(
            s,
            "{} files scanned, {} violation(s), {} allowed",
            self.files_scanned,
            self.violations.len(),
            self.allowed.len()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reachable `.unwrap()` on line 3, with `above` on the line before it.
    fn unwrap_under(above: &str) -> LintReport {
        scan_files(&[SourceFile {
            path: "crates/core/src/executor.rs".into(),
            content: format!("pub fn run_rounds(x: Option<u8>) {{\n{above}\nx.unwrap();\n}}\n"),
        }])
    }

    fn rules_of(report: &LintReport) -> Vec<&str> {
        report.violations.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn marker_is_parsed_only_inside_comments() {
        let m = marker();
        // A quoted marker is no annotation — not even behind a `//` that is
        // itself inside the string literal — so nothing here is stale.
        for quoted in [
            format!("let s = \"{m}panic-freedom): quoted\";"),
            format!("let s = \"see http://x // {m}panic-freedom): quoted\";"),
        ] {
            let report = unwrap_under(&quoted);
            assert_eq!(rules_of(&report), ["panic-freedom"], "{quoted}");
        }
        // The same text as a real comment suppresses the finding.
        let report = unwrap_under(&format!("// {m}panic-freedom): x is Some by contract"));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn annotation_without_reason_is_malformed() {
        // The reasonless annotation suppresses nothing, so the finding
        // stays AND the annotation is flagged; so is an unterminated one.
        let m = marker();
        for bad in [
            format!("// {m}panic-freedom)"),
            format!("// {m}panic-freedom"),
        ] {
            let report = unwrap_under(&bad);
            assert_eq!(
                rules_of(&report),
                ["allow-syntax", "panic-freedom"],
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_rule_in_annotation_is_flagged() {
        // A retired rule id is as unknown as one that never existed: the
        // determinism zone is clippy's now, and takes `#[expect]`; the
        // allocation rule gave way to counted budgets (its id is spelled in
        // two halves, so that no line of the tree names it as live).
        let m = marker();
        for id in [
            "no-such-rule",
            "determinism-zone",
            concat!("alloc-hot", "-path"),
        ] {
            let report = unwrap_under(&format!("// {m}{id}): because"));
            assert_eq!(rules_of(&report), ["allow-syntax", "panic-freedom"]);
            assert!(report.violations[0].message.contains(id));
        }
    }

    #[test]
    fn stale_annotation_is_flagged() {
        let m = marker();
        // A trailing annotation covers its own line only, where nothing
        // panics; the unwrap on the next line still fires.
        let report = unwrap_under(&format!(
            "let _y = 1; // {m}panic-freedom): nothing panics here"
        ));
        assert_eq!(rules_of(&report), ["stale-allow", "panic-freedom"]);
    }

    #[test]
    fn fixtures_dirs_outside_lint_are_scanned() {
        // Regression: the walker used to skip *any* directory named
        // `fixtures`, silently unscanning real code. Only this crate's
        // own fixture corpus is exempt now.
        let root =
            std::env::temp_dir().join(format!("dice-lint-fixture-scan-{}", std::process::id()));
        let src = root.join("crates").join("foo").join("src").join("fixtures");
        std::fs::create_dir_all(&src).unwrap();
        let stale = format!("// {}panic-freedom): nothing here\nfn f() {{}}\n", marker());
        std::fs::write(src.join("gen.rs"), stale).unwrap();
        let report = scan_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            report.files_scanned, 1,
            "the fixtures/ module must be walked"
        );
        assert_eq!(rules_of(&report), ["stale-allow"]);
        assert!(
            report.violations[0].path.ends_with("fixtures/gen.rs"),
            "{}",
            report.violations[0].path
        );
    }

    #[test]
    fn table_shape() {
        let m = marker();
        let source =
            format!("// {m}panic-freedom): x is Some by contract\nx.unwrap(); x.expect(\"\");");
        let report = scan_files(&[SourceFile {
            path: "crates/core/src/executor.rs".into(),
            content: format!("pub fn run_rounds(x: Option<u8>) {{\n{source}\nx.unwrap();\n}}\n"),
        }]);
        assert!(!report.is_clean());
        let table = report.to_table();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 4, "{table}");
        assert!(rows[0]
            .starts_with("VIOLATION  crates/core/src/executor.rs:4  panic-freedom  `.unwrap()`"));
        assert!(rows[1]
            .starts_with("allowed    crates/core/src/executor.rs:3  panic-freedom  `.unwrap()`"));
        assert!(rows[2].ends_with("[x is Some by contract]"), "{table}");
        assert_eq!(rows[3], "1 files scanned, 1 violation(s), 2 allowed");
    }
}
