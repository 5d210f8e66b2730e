//! # dice-lint — workspace invariant checker
//!
//! Deterministic replay rests on three load-bearing conventions: the SUT
//! downcast seam (one adapter module per protocol), byte-identical
//! `CampaignReport::normalized()` at any `pair_workers`, and an executor
//! whose workers share nothing mutable. This crate turns
//! those conventions into machine-checked rules: a std-only, line/token
//! level scanner over the workspace's Rust sources (no rustc plugin — the
//! build container is offline), runnable both as a binary
//! (`cargo run -p dice-lint`) and as a tier-1 test (`tests/dice_lint.rs`
//! at the workspace root).
//!
//! ## Rules
//!
//! Line/token rules match the blanked code view directly; the semantic
//! rules (`panic-freedom`, `alloc-hot-path`, `schema-drift`) query the
//! workspace item graph (the `graph` module) built from a spanned token
//! stream (`lexer`) over that same view.
//!
//! | id | invariant |
//! |---|---|
//! | `seam-containment` | `downcast_ref::<BgpRouter>` only in `core/src/bgp_sut.rs`; `GossipNode` downcasts only in `gossip_sut.rs` |
//! | `determinism-zone` | no `Instant::now` / `SystemTime` / ambient RNG in report-affecting code without an annotation |
//! | `unordered-iter` | no `HashMap`/`HashSet` iteration feeding serialized reports or coverage unions |
//! | `lock-hygiene` | non-test `crates/core/src` names no `Mutex` / `RwLock` / `Condvar` — workers hand results back through their join handles |
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!`/identifier slice-index in fns reachable from the round hot loop or the solve path |
//! | `alloc-hot-path` | no fresh allocations (`Vec::new`, `format!`, `.clone()`, …) inside the pooled validation paths and the BGP speaker's UPDATE fan-out |
//! | `schema-drift` | every wall-clock field of a `Serialize` struct reachable from `CampaignReport` is zeroed by `normalized()` |
//! | `unresolved-root` | workspace scans only: every fn or struct a semantic rule anchors on (`panic-freedom` roots, `alloc-hot-path` pooled fns, `schema-drift`'s `CampaignReport`) is found where its root table says, if its crate is in the scan |
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
//! are still parsed and reported (JSON `allowed` array); a missing reason
//! or an annotation that suppresses nothing is itself a violation.
//!
//! The scanner skips `vendor/` (third-party stand-ins), `target/`, and its
//! own crate (`crates/lint` contains no report-affecting code, but its
//! sources and fixtures quote the patterns the rules search for).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod graph;
mod lexer;
mod rules;
mod strip;

/// The rule identifiers enforced by this crate, in severity-neutral
/// reporting order. `allow-syntax` and `stale-allow` police the escape
/// hatch itself.
pub const RULES: &[&str] = &[
    "seam-containment",
    "determinism-zone",
    "unordered-iter",
    "lock-hygiene",
    "panic-freedom",
    "alloc-hot-path",
    "schema-drift",
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

/// A prepared file: raw lines plus a "code view" with comments and
/// string/char-literal contents blanked, so rules never match doc text or
/// quoted patterns.
pub(crate) struct Prepared {
    pub(crate) path: String,
    pub(crate) raw: Vec<String>,
    pub(crate) code: Vec<String>,
}

/// One rule hit before allow-annotation resolution.
pub(crate) struct RawFinding {
    pub(crate) rule: &'static str,
    pub(crate) path: String,
    /// 1-based line number.
    pub(crate) line: usize,
    pub(crate) message: String,
    /// For findings inside a function body (semantic rules only): the
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
    /// Wall-clock milliseconds the workspace scan took (file IO, lexing,
    /// item-graph build and rules). Zero for in-memory [`scan_files`]
    /// callers; set by [`scan_workspace`]. The tier-1 suite asserts a
    /// ceiling on this so the analyzer stays honest as the graph grows.
    pub scan_wall_ms: u64,
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

/// Parse every allow annotation in `raw` lines. Only text after a `//`
/// counts — a quoted marker in code is not an annotation.
fn parse_annotations(raw: &[String]) -> Vec<Annotation> {
    let marker = marker();
    let mut out = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        let Some(comment_at) = line.find("//") else {
            continue;
        };
        let comment = &line[comment_at..];
        let Some(m) = comment.find(&marker) else {
            continue;
        };
        let after = &comment[m + marker.len()..];
        let Some(close) = after.find(')') else {
            // Unterminated marker: treated as a malformed annotation with
            // an empty rule id, caught by allow-syntax.
            out.push(Annotation {
                line: idx + 1,
                rule: String::new(),
                reason: None,
                own_line: line.trim_start().starts_with("//"),
                used: false,
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        let rest = after[close + 1..].trim_start();
        let reason = rest
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty());
        out.push(Annotation {
            line: idx + 1,
            rule,
            reason,
            own_line: line.trim_start().starts_with("//"),
            used: false,
        });
    }
    out
}

/// Scan an in-memory file set. This is the whole pipeline: prepare code
/// views, run the rules, resolve allow annotations, police the
/// annotations themselves, and sort deterministically. Rule roots absent
/// from `files` are skipped (fixtures define only the ones they test);
/// [`scan_workspace`] reports them as `unresolved-root`.
pub fn scan_files(files: &[SourceFile]) -> LintReport {
    scan(files, false)
}

fn scan(files: &[SourceFile], workspace: bool) -> LintReport {
    let prepared: Vec<Prepared> = files
        .iter()
        .map(|f| {
            let raw: Vec<String> = f.content.lines().map(str::to_string).collect();
            let code = strip::blank_noncode(&f.content);
            Prepared {
                path: f.path.clone(),
                raw,
                code,
            }
        })
        .collect();

    let graph = graph::ItemGraph::build(&prepared);
    let raw_findings = rules::run_all(&prepared, &graph, workspace);

    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };

    // Per-file annotation tables, resolved against the findings.
    let mut annotations: Vec<(String, Vec<Annotation>)> = prepared
        .iter()
        .map(|p| (p.path.clone(), parse_annotations(&p.raw)))
        .collect();

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
                // Only the semantic rules set `fn_line`.
                let covers_fn = f
                    .fn_line
                    .is_some_and(|fl| (a.line == fl) || (a.own_line && a.line + 1 == fl));
                a.rule == f.rule && a.reason.is_some() && (covers_line || covers_fn)
            })
        });
        match hit {
            Some(a) => {
                a.used = true;
                report.allowed.push(Finding {
                    rule: f.rule.to_string(),
                    path: f.path,
                    line: f.line,
                    message: f.message,
                    reason: a.reason.clone(),
                });
            }
            None => report.violations.push(Finding {
                rule: f.rule.to_string(),
                path: f.path,
                line: f.line,
                message: f.message,
                reason: None,
            }),
        }
    }

    // Police the escape hatch: unknown rule ids and missing reasons are
    // malformed; well-formed annotations that suppressed nothing are
    // stale. Both are ordinary violations.
    for (path, anns) in &annotations {
        for a in anns {
            if a.rule.is_empty() || !RULES.contains(&a.rule.as_str()) {
                report.violations.push(Finding {
                    rule: "allow-syntax".into(),
                    path: path.clone(),
                    line: a.line,
                    message: format!(
                        "allow annotation names unknown rule `{}` (known: {})",
                        a.rule,
                        RULES.join(", ")
                    ),
                    reason: None,
                });
            } else if a.reason.is_none() {
                report.violations.push(Finding {
                    rule: "allow-syntax".into(),
                    path: path.clone(),
                    line: a.line,
                    message: format!(
                        "allow annotation for `{}` has no justification — append `: <reason>`",
                        a.rule
                    ),
                    reason: None,
                });
            } else if !a.used {
                report.violations.push(Finding {
                    rule: "stale-allow".into(),
                    path: path.clone(),
                    line: a.line,
                    message: format!(
                        "allow annotation for `{}` suppresses nothing — remove it",
                        a.rule
                    ),
                    reason: None,
                });
            }
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
/// report is stable. Unlike [`scan_files`], a root of a semantic rule that
/// no longer resolves in a scanned crate is an `unresolved-root` violation.
pub fn scan_workspace(root: &Path) -> std::io::Result<LintReport> {
    // dice-lint: timing the scanner itself — this crate is excluded from
    // its own scan, so the wall-clock read below never trips a rule.
    let scan_start = std::time::Instant::now();
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
    let mut report = scan(&files, true);
    report.scan_wall_ms = scan_start.elapsed().as_millis() as u64;
    Ok(report)
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

/// Locate the workspace root: walk up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    let mut s = format!(
        "{indent}{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"",
        json_escape(&f.rule),
        json_escape(&f.path),
        f.line,
        json_escape(&f.message),
    );
    if let Some(reason) = &f.reason {
        let _ = write!(s, ", \"reason\": \"{}\"", json_escape(reason));
    }
    s.push('}');
    s
}

impl LintReport {
    /// Whether the scan found no unallowed violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable JSON report (hand-rolled: this crate is std-only
    /// by design).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"scan_wall_ms\": {},", self.scan_wall_ms);
        let _ = writeln!(
            s,
            "  \"rules\": [{}],",
            RULES
                .iter()
                .map(|r| format!("\"{r}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (key, list) in [("violations", &self.violations), ("allowed", &self.allowed)] {
            let _ = writeln!(s, "  \"{key}\": [");
            for (i, f) in list.iter().enumerate() {
                let comma = if i + 1 < list.len() { "," } else { "" };
                let _ = writeln!(s, "{}{comma}", finding_json(f, "    "));
            }
            let comma = if key == "violations" { "," } else { "" };
            let _ = writeln!(s, "  ]{comma}");
        }
        s.push_str("}\n");
        s
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

    #[test]
    fn marker_is_parsed_only_inside_comments() {
        let m = marker();
        let file = SourceFile {
            path: "crates/core/src/x.rs".into(),
            content: format!("let s = \"{m}determinism-zone): quoted\";\n"),
        };
        let report = scan_files(&[file]);
        // The quoted marker is inside a string literal with no leading
        // `//`, so no annotation is parsed and nothing is stale.
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn annotation_without_reason_is_malformed() {
        let m = marker();
        let file = SourceFile {
            path: "crates/core/src/x.rs".into(),
            content: format!("// {m}determinism-zone)\nlet t = std::time::Instant::now();\n"),
        };
        let report = scan_files(&[file]);
        let rules: Vec<&str> = report.violations.iter().map(|f| f.rule.as_str()).collect();
        // The reasonless annotation suppresses nothing, so the zone
        // violation stays AND the annotation is flagged.
        assert!(rules.contains(&"allow-syntax"), "{rules:?}");
        assert!(rules.contains(&"determinism-zone"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_in_annotation_is_flagged() {
        let m = marker();
        let file = SourceFile {
            path: "crates/core/src/x.rs".into(),
            content: format!("// {m}no-such-rule): because\nfn f() {{}}\n"),
        };
        let report = scan_files(&[file]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "allow-syntax");
        assert!(report.violations[0].message.contains("no-such-rule"));
    }

    #[test]
    fn stale_annotation_is_flagged() {
        let m = marker();
        let file = SourceFile {
            path: "crates/core/src/x.rs".into(),
            content: format!("// {m}lock-hygiene): nothing to suppress here\nfn f() {{}}\n"),
        };
        let report = scan_files(&[file]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "stale-allow");
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
        std::fs::write(
            src.join("gen.rs"),
            "fn f() { let t = std::time::Instant::now(); }\n",
        )
        .unwrap();
        let report = scan_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            report.files_scanned, 1,
            "the fixtures/ module must be walked"
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "determinism-zone");
        assert!(
            report.violations[0].path.ends_with("fixtures/gen.rs"),
            "{}",
            report.violations[0].path
        );
    }

    #[test]
    fn json_report_shape() {
        let report = scan_files(&[SourceFile {
            path: "crates/core/src/x.rs".into(),
            content: "fn f() { let t = std::time::Instant::now(); }\n".into(),
        }]);
        assert!(!report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"determinism-zone\""));
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"line\": 1"));
        let table = report.to_table();
        assert!(table.contains("VIOLATION"));
        assert!(table.contains("1 violation(s)"));
    }
}
