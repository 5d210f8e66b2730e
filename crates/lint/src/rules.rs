//! The invariant rules, each grounded in a contract established by an
//! earlier PR (see DESIGN.md §6, which also says who holds the invariants
//! that are *not* here: clippy, through `crates/clippy.toml`, the runtime
//! reflection test, and `tests/alloc_budgets.rs`, which counts allocations
//! instead of matching them). All of them read the [`ItemGraph`]:
//! `seam-containment` its token streams, `panic-freedom` the fns reachable
//! from a root table, which is what no stock lint does.

use crate::graph::{FileToks, ItemGraph};
use crate::lexer::TokKind;
use crate::RawFinding;

/// Run every rule over the item graph. A `workspace` scan also requires
/// every root to resolve to exactly one fn ([`unresolved_roots`]).
pub(crate) fn run_all(graph: &ItemGraph, workspace: bool) -> Vec<RawFinding> {
    let mut out = Vec::new();
    seam_containment(graph, &mut out);
    panic_freedom(graph, &mut out);
    if workspace {
        unresolved_roots(graph, &mut out);
    }
    out
}

/// R1 — seam containment (contract from PR 2/PR 4): within `dice-core`,
/// the concrete protocol types may only be downcast in their single
/// adapter module. Everything else must go through the `SutCatalog`
/// probe chain. Fires on a `<Type>` on a line that names a `downcast*`.
fn seam_containment(graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    const SEAMS: &[(&str, &str)] = &[
        ("BgpRouter", "crates/core/src/bgp_sut.rs"),
        ("GossipNode", "crates/core/src/gossip_sut.rs"),
    ];
    let in_core = |f: &&FileToks| f.path.starts_with("crates/core/src/");
    for f in graph.files.iter().filter(in_core) {
        for w in f.toks.windows(3) {
            let [lt, ty, gt] = w else { continue };
            let seam = SEAMS.iter().find(|(name, _)| ty.is_ident(name));
            let Some((name, home)) = seam.filter(|_| lt.is_punct('<') && gt.is_punct('>')) else {
                continue;
            };
            let downcast_on_line = f.toks.iter().any(|t| {
                t.line == ty.line && t.kind == TokKind::Ident && t.text.starts_with("downcast")
            });
            if downcast_on_line && f.path != *home {
                out.push(RawFinding {
                    rule: "seam-containment",
                    path: f.path.clone(),
                    line: ty.line,
                    message: format!(
                        "`{name}` downcast outside its adapter module {home} — resolve through the SutCatalog probe chain instead"
                    ),
                    fn_line: None,
                });
            }
        }
    }
}

/// Is `path` inside the engine (the crates whose hot loops
/// `panic-freedom` guards)?
fn in_engine(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/concolic/src/")
}

/// The entry points of the round hot loop and the concolic solve path.
/// Reachability for `panic-freedom` starts here. In an in-memory scan a
/// root that is not in the file set is simply absent (single-file fixture
/// scans define their own); a workspace scan reports it as
/// `unresolved-root`, so moving or renaming one cannot switch the rule off.
const PANIC_ROOTS: &[(&str, &str, Option<&str>)] = &[
    ("core/src/executor.rs", "run_rounds", None),
    ("core/src/campaign/mod.rs", "run", Some("Campaign")),
    ("concolic/src/explore.rs", "explore", None),
    ("concolic/src/solve/reference.rs", "solve", Some("Solver")),
    ("concolic/src/solve/path.rs", "flip", Some("PathPass")),
    ("concolic/src/solve/path.rs", "advance", Some("PathPass")),
];

/// Scan one fn body for panicking constructs, pushing a finding per site.
fn panic_sites_in(graph: &ItemGraph, fi: usize, out: &mut Vec<RawFinding>) {
    let f = &graph.fns[fi];
    let Some((open, close)) = f.body else {
        return;
    };
    let toks = &graph.files[f.file].toks;
    let path = &graph.files[f.file].path;
    let mut push = |line: usize, what: String| {
        out.push(RawFinding {
            rule: "panic-freedom",
            path: path.clone(),
            line,
            message: format!(
                "{what} in `{}` — reachable from the round hot loop; plumb a Result or justify with an allow",
                f.name
            ),
            fn_line: Some(f.line),
        });
    };
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut j = open;
    while j <= close {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            let next_is = |c: char| toks.get(j + 1).is_some_and(|n| n.is_punct(c));
            let prev_dot = j > 0 && toks[j - 1].is_punct('.');
            if prev_dot && next_is('(') && (t.text == "unwrap" || t.text == "expect") {
                push(t.line, format!("`.{}()`", t.text));
            } else if next_is('!') && PANIC_MACROS.contains(&t.text.as_str()) {
                push(t.line, format!("`{}!`", t.text));
            }
        } else if t.is_punct('[') {
            // Identifier-indexed `expr[idx]` can panic out of bounds.
            // Only fires when the receiver is an expression (ident, `)`
            // or `]` on the left — never types, attrs, or `vec![`) and
            // the index contains at least one identifier (literal
            // indices into fixed-size arrays are exempt).
            let recv_is_expr = j > 0
                && (toks[j - 1].kind == TokKind::Ident && !is_keyword(&toks[j - 1].text)
                    || toks[j - 1].is_punct(')')
                    || toks[j - 1].is_punct(']'));
            if recv_is_expr {
                let mut depth = 0i32;
                let mut k = j;
                let mut has_ident = false;
                while k <= close {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if toks[k].kind == TokKind::Ident && k > j {
                        has_ident = true;
                    }
                    k += 1;
                }
                if has_ident {
                    push(t.line, "identifier-indexed `[...]`".to_string());
                }
            }
        }
        j += 1;
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else" | "match" | "return" | "in" | "as" | "mut" | "ref" | "move" | "let"
    )
}

/// R5 — panic freedom (contract for the campaign-as-a-service direction):
/// a long-running service cannot `unwrap()` its way down. Every fn
/// transitively reachable from [`PANIC_ROOTS`] (the executor's round
/// stages and the solve path) and living in the engine crates must be
/// free of `unwrap`/`expect`/panicking macros/identifier slice-indexing,
/// or carry a justified allow (line- or fn-level).
fn panic_freedom(graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    let roots: Vec<usize> = PANIC_ROOTS
        .iter()
        .flat_map(|(suffix, name, impl_of)| graph.roots(suffix, name, *impl_of))
        .collect();
    if roots.is_empty() {
        return;
    }
    for fi in graph.reachable(&roots) {
        let f = &graph.fns[fi];
        if f.in_test || !in_engine(&graph.files[f.file].path) {
            continue;
        }
        panic_sites_in(graph, fi, out);
    }
}

/// R9 — unresolved roots (workspace scans only): `panic-freedom` anchors
/// on fns named by file suffix, and skips an anchor it does not find — so
/// moving `PathPass::flip` to another file would silently switch the rule
/// off for everything only it reaches, and a root that two fns of a file
/// answer to guards whichever the author did not mean as well. Every entry
/// of [`PANIC_ROOTS`] must resolve to exactly one fn whenever its crate's
/// `src/` tree is in the scan. The finding names a file that need not
/// exist, so no allow annotation can suppress it: the fix is the root
/// table.
fn unresolved_roots(graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    let crate_scanned = |suffix: &str| {
        let krate = suffix.split('/').next().unwrap_or(suffix);
        let src = format!("crates/{krate}/src/");
        graph.files.iter().any(|f| f.path.starts_with(&src))
    };
    for (suffix, name, impl_of) in PANIC_ROOTS {
        if !crate_scanned(suffix) {
            continue;
        }
        let owner = impl_of.map(|t| format!("{t}::")).unwrap_or_default();
        let problem = match graph.roots(suffix, name, *impl_of).count() {
            0 => "is not in the file — the rule is off for it; point the root table at where the fn lives now",
            1 => continue,
            _ => "is ambiguous — name the impl type in the root table, so the rule guards the fn that was meant",
        };
        out.push(RawFinding {
            rule: "unresolved-root",
            path: format!("crates/{suffix}"),
            line: 1,
            message: format!("`panic-freedom` root `{owner}{name}` {problem}"),
            fn_line: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::{scan_files, LintReport, SourceFile};

    fn scan_one(path: &str, content: &str) -> LintReport {
        scan_files(&[SourceFile {
            path: path.into(),
            content: content.into(),
        }])
    }

    fn rules_of(path: &str, content: &str) -> Vec<String> {
        let report = scan_one(path, content);
        report.violations.iter().map(|f| f.rule.clone()).collect()
    }

    #[test]
    fn adapter_modules_may_downcast_their_own_type() {
        let src = "fn g(n: &dyn Node) { n.as_any().downcast_ref::<BgpRouter>(); }\n";
        assert!(rules_of("crates/core/src/bgp_sut.rs", src).is_empty());
        assert_eq!(
            rules_of("crates/core/src/explorer.rs", src),
            vec!["seam-containment"]
        );
        // The seam is dice-core's; a protocol crate may name its own type,
        // and naming the type without a downcast is no finding anywhere.
        assert!(rules_of("crates/bgp/src/router.rs", src).is_empty());
        let named = "fn g(r: Option<BgpRouter>) -> Vec<BgpRouter> { r.into_iter().collect() }\n";
        assert!(rules_of("crates/core/src/explorer.rs", named).is_empty());
    }

    #[test]
    fn panic_freedom_follows_call_edges_from_the_roots() {
        let src = "pub fn run_rounds() { stage(); }\n\
                   fn stage() { helper(); }\n\
                   fn helper(v: &[u8], i: usize) -> u8 {\n\
                   let x: Option<u8> = None;\n\
                   x.unwrap()\n\
                   }\n\
                   fn unreached() { let y: Option<u8> = None; y.expect(\"never flagged\"); }\n";
        let got = rules_of("crates/core/src/executor.rs", src);
        assert_eq!(
            got,
            vec!["panic-freedom"],
            "only the reachable unwrap fires"
        );
    }

    #[test]
    fn panic_freedom_flags_identifier_indexing_but_not_literals() {
        let src = "pub fn run_rounds(v: &[u8], i: usize) {\n\
                   let _a = v[i];\n\
                   let table = [1u8, 2, 3];\n\
                   let _b = table[0];\n\
                   }\n";
        let report = scan_one("crates/core/src/executor.rs", src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].line, 2);
        assert!(report.violations[0].message.contains("identifier-indexed"));
    }

    #[test]
    fn fn_level_allow_covers_every_site_in_the_body() {
        let m = "dice-lint: allow";
        let src = format!(
            "pub fn run_rounds(v: &[u8], i: usize) {{ helper(v, i); }}\n\
             // {m}(panic-freedom): fixture — indices bounded by caller\n\
             fn helper(v: &[u8], i: usize) -> u8 {{\n\
             let a = v[i];\n\
             let b = v[i + 1];\n\
             a + b\n\
             }}\n"
        );
        let report = scan_one("crates/core/src/executor.rs", &src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allowed.len(), 2, "both index sites suppressed");
    }
}
