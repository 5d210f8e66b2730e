//! The invariant rules, each grounded in a contract established by an
//! earlier PR (see DESIGN.md §"Enforced invariants"). The line/token
//! rules match against the blanked code view, so doc prose and quoted
//! strings never fire them, and scope themselves by workspace-relative
//! path prefix. The semantic rules (`panic-freedom`, `alloc-hot-path`,
//! `schema-drift`) query the [`ItemGraph`] instead: reachability over
//! name-resolved call edges and struct-reference walks.

use crate::graph::ItemGraph;
use crate::lexer::TokKind;
use crate::{Prepared, RawFinding};

/// Run every rule over the prepared file set and its item graph. A
/// `workspace` scan also requires every rule root to resolve
/// ([`unresolved_roots`]).
pub(crate) fn run_all(files: &[Prepared], graph: &ItemGraph, workspace: bool) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for f in files {
        seam_containment(f, &mut out);
        determinism_zone(f, &mut out);
        unordered_iter(f, &mut out);
        lock_hygiene(f, &mut out);
    }
    panic_freedom(graph, &mut out);
    alloc_hot_path(graph, &mut out);
    schema_drift(files, graph, &mut out);
    if workspace {
        unresolved_roots(files, graph, &mut out);
    }
    out
}

/// Is `path` inside the dice-core source tree (the crate all per-crate
/// rules anchor on)?
fn in_core(path: &str) -> bool {
    path.starts_with("crates/core/src/")
}

/// R1 — seam containment (contract from PR 2/PR 4): within `dice-core`,
/// the concrete protocol types may only be downcast in their single
/// adapter module. Everything else must go through the `SutCatalog`
/// probe chain.
fn seam_containment(f: &Prepared, out: &mut Vec<RawFinding>) {
    if !in_core(&f.path) {
        return;
    }
    const SEAMS: &[(&str, &str)] = &[
        ("BgpRouter", "crates/core/src/bgp_sut.rs"),
        ("GossipNode", "crates/core/src/gossip_sut.rs"),
    ];
    for (idx, line) in f.code.iter().enumerate() {
        if !line.contains("downcast") {
            continue;
        }
        for (ty, home) in SEAMS {
            if line.contains(&format!("<{ty}>")) && f.path != *home {
                out.push(RawFinding {
                    rule: "seam-containment",
                    path: f.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{ty}` downcast outside its adapter module {home} — resolve through the SutCatalog probe chain instead"
                    ),
                    fn_line: None,
                });
            }
        }
    }
}

/// R2 — determinism zone (contract from PR 3): report-affecting code must
/// not read wall clocks or ambient randomness. The explicitly annotated
/// wall-clock accounting sites (fields that `normalized()` zeroes) carry
/// allow annotations with justifications.
fn determinism_zone(f: &Prepared, out: &mut Vec<RawFinding>) {
    let scoped = ["crates/", "src/", "examples/", "tests/"]
        .iter()
        .any(|p| f.path.starts_with(p));
    if !scoped {
        return;
    }
    const PATTERNS: &[&str] = &["Instant::now", "SystemTime", "thread_rng", "rand::random"];
    for (idx, line) in f.code.iter().enumerate() {
        for pat in PATTERNS {
            if line.contains(pat) {
                out.push(RawFinding {
                    rule: "determinism-zone",
                    path: f.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{pat}` in the determinism zone — wall-clock/ambient-RNG reads may only feed fields zeroed by normalized(); annotate legitimate accounting sites"
                    ),
                    fn_line: None,
                });
            }
        }
    }
}

/// R3 — unordered iteration (contract from PR 3): `HashMap`/`HashSet`
/// iteration order is nondeterministic across runs, so anything feeding
/// serialized reports or coverage unions must iterate sorted containers.
/// Membership operations (`get`/`insert`/`contains`) are fine; this rule
/// fires on iteration of bindings or fields declared with a hashed type
/// in the same file.
fn unordered_iter(f: &Prepared, out: &mut Vec<RawFinding>) {
    let scoped = [
        "crates/core/",
        "crates/concolic/",
        "crates/netsim/",
        "crates/bgp/",
        "crates/gossip/",
    ]
    .iter()
    .any(|p| f.path.starts_with(p))
        || (f.path.starts_with("src/"));
    if !scoped {
        return;
    }

    // Pass 1: names bound to HashMap/HashSet in this file (let bindings
    // and struct fields).
    let mut names: Vec<String> = Vec::new();
    for line in &f.code {
        if !(line.contains("HashMap<")
            || line.contains("HashSet<")
            || line.contains("HashMap::")
            || line.contains("HashSet::"))
        {
            continue;
        }
        let trimmed = line.trim_start();
        let binding = if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            rest.split([':', '=', ' ']).next()
        } else {
            // Struct field or typed parameter: `name: HashMap<...>`.
            line.split(':').next().and_then(|lhs| {
                let lhs = lhs.trim();
                let name = lhs.rsplit([' ', '(', ',']).next()?;
                Some(name)
            })
        };
        if let Some(name) = binding {
            let name = name.trim();
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                names.push(name.to_string());
            }
        }
    }
    if names.is_empty() {
        return;
    }
    names.sort();
    names.dedup();

    // Pass 2: iteration of any collected name.
    const ITER_SUFFIXES: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
    ];
    for (idx, line) in f.code.iter().enumerate() {
        for name in &names {
            let mut flagged = false;
            for (pos, _) in line.match_indices(name.as_str()) {
                // Whole-word check on the left.
                if pos > 0 {
                    let prev = line.as_bytes()[pos - 1] as char;
                    if prev.is_alphanumeric() || prev == '_' {
                        continue;
                    }
                }
                let after = &line[pos + name.len()..];
                if after
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                let after = after.trim_start();
                if ITER_SUFFIXES.iter().any(|s| after.starts_with(s)) {
                    flagged = true;
                }
            }
            // `for x in name` / `for x in &name` / `for x in &mut name`.
            if !flagged && line.contains("for ") && line.contains(" in ") {
                if let Some(rest) = line.split(" in ").nth(1) {
                    let expr = rest.trim().trim_end_matches('{').trim_end();
                    let expr = expr.strip_prefix('&').unwrap_or(expr);
                    let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
                    if expr == name {
                        flagged = true;
                    }
                }
            }
            if flagged {
                out.push(RawFinding {
                    rule: "unordered-iter",
                    path: f.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "iteration over unordered container `{name}` — use BTreeMap/BTreeSet (or collect + sort) before feeding reports or coverage unions"
                    ),
                    fn_line: None,
                });
            }
        }
    }
}

/// R4 — lock hygiene: `dice-core` holds no lock. A sweep's explorations and
/// validated inputs are pure functions of `(shadow, cfg)`; the executor
/// schedules them with two claim counters, a `OnceLock` per round and one
/// barrier, and workers hand results back through their join handles. A
/// `Mutex`, `RwLock` or `Condvar` in non-test code would bring with it an
/// acquisition order, poisoning that can mask a worker's own panic, and a
/// schedule the report could come to depend on.
fn lock_hygiene(f: &Prepared, out: &mut Vec<RawFinding>) {
    if !in_core(&f.path) {
        return;
    }
    const LOCKS: &[&str] = &["Mutex", "RwLock", "Condvar"];
    // dice-core keeps its unit tests in one `#[cfg(test)]` module at the
    // foot of each file; the rule covers what comes before it.
    let non_test = f.code.iter().take_while(|l| !l.contains("#[cfg(test)]"));
    for (idx, line) in non_test.enumerate() {
        let named = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .find(|word| LOCKS.contains(word));
        if let Some(lock) = named {
            out.push(RawFinding {
                rule: "lock-hygiene",
                path: f.path.clone(),
                line: idx + 1,
                message: format!(
                    "`{lock}` in dice-core — the executor shares nothing mutable between workers; return the data through the worker's join handle (or publish it once, before the barrier) instead of locking it"
                ),
                fn_line: None,
            });
        }
    }
}

/// Is `path` inside the engine (the crates whose hot loops the semantic
/// rules guard)?
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

/// Find a fn by file-path suffix, name and (optionally) impl type.
fn find_root(graph: &ItemGraph, suffix: &str, name: &str, impl_of: Option<&str>) -> Option<usize> {
    graph.fns.iter().position(|f| {
        f.name == name
            && !f.in_test
            && graph.files[f.file].path.ends_with(suffix)
            && impl_of.is_none_or(|t| f.impl_of.as_deref() == Some(t))
    })
}

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
        .filter_map(|(suffix, name, impl_of)| find_root(graph, suffix, name, *impl_of))
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

/// The pooled validation paths whose PR-5 allocation-free steady state
/// `alloc-hot-path` guards, as `(file suffix, fn, impl type if the name is
/// not unique in the file)`. Direct bodies only: these are the per-unit
/// inner loops; their callees allocate behind the clone pool by design.
const POOLED_FNS: &[(&str, &str, Option<&str>)] = &[
    ("core/src/executor.rs", "validate_unit", None),
    ("core/src/explorer.rs", "validate_one", None),
    ("core/src/pool.rs", "acquire", None),
    ("core/src/pool.rs", "release", None),
    // Zero-copy wire path: the in-place encoders, the delivery batch
    // loop, and the payload-buffer fast path must stay allocation-free
    // per datagram (the buffer-miss slow path lives in callees).
    ("bgp/src/wire.rs", "encode_into", None),
    ("gossip/src/wire.rs", "encode_into", None),
    ("netsim/src/sim/channel.rs", "process_deliver", None),
    ("netsim/src/buf.rs", "acquire", None),
    // Delta-capture path: `checkpoint_node` runs once per node per cut;
    // clean nodes must be served by an `Arc::clone` of the cached
    // checkpoint (path syntax — a `.clone()` method call here would be a
    // deep node copy and fires this rule).
    ("netsim/src/sim/cut.rs", "checkpoint_node", None),
    // The speaker's UPDATE path: best-route selection, the per-class
    // export fan-out and the policy evaluator run per delivered message
    // on every validation clone. They borrow, and share bags by
    // `Arc::clone`; a `.clone()`, a `format!` or a scratch `Vec::new()`
    // here is paid once per peer per message.
    ("bgp/src/router.rs", "recompute_and_propagate", None),
    ("bgp/src/router.rs", "export_to", None),
    ("bgp/src/policy.rs", "apply", Some("Policy")),
    // The negation search and the unary lane sweep: thousands of nodes
    // and hundreds of memo misses per exploration session, all on scratch
    // the session owns (`PathSolver`'s tables, `LaneScratch`). A
    // `Vec::new()` or a `.clone()` here is paid per search node.
    ("concolic/src/solve/search.rs", "dfs", Some("Search")),
    ("concolic/src/solve/search.rs", "narrow", Some("Search")),
    ("concolic/src/solve/search.rs", "admits", Some("Search")),
    ("concolic/src/solve/search.rs", "admits_cmp", Some("Search")),
    ("concolic/src/solve/search.rs", "offset_of", Some("Search")),
    ("concolic/src/expr.rs", "sweep", Some("ExprArena")),
    // The checker battery runs once per validated clone over every node:
    // a passing verdict borrows its checker's name and lands in the one
    // reserved report vector. Rendering a fault (`format!`) or gathering
    // a touched node's unattested routes happens in callees, off the
    // pass path.
    ("core/src/check.rs", "run_checkers", None),
    ("core/src/check.rs", "check_into", Some("CrashChecker")),
    (
        "core/src/check.rs",
        "check_into",
        Some("OscillationChecker"),
    ),
    (
        "core/src/check.rs",
        "check_into",
        Some("OriginAuthorityChecker"),
    ),
    (
        "core/src/check.rs",
        "check_into",
        Some("ConvergenceChecker"),
    ),
    // The same-snapshot reset: what a pooled clone pays per validated
    // input. It walks the touched lists and re-shares checkpoints by
    // `Arc::clone` / `Option::cloned`; a `.clone()` of a node, a fresh
    // table or a rendered reason string here is paid per input.
    // The reset's channel and cut halves live with the state they
    // restore (`Links::reset`, `Cuts::reset` / `Cuts::seed`).
    ("netsim/src/sim/clone.rs", "reset_from_shadow", None),
    ("netsim/src/sim/clone.rs", "rebind_touched", None),
    ("netsim/src/sim/clone.rs", "bind_node", None),
    ("netsim/src/sim/channel.rs", "reset", Some("Links")),
    ("netsim/src/sim/cut.rs", "reset", Some("Cuts")),
    ("netsim/src/sim/cut.rs", "seed", Some("Cuts")),
];

/// R6 — hot-path allocations (contract from PR 5): the pooled validation
/// paths reuse clones instead of allocating per unit. Fresh allocations
/// (`Vec::new`, `vec!`, `format!`, `Box::new`, `.to_vec()`,
/// `.to_string()`, `.to_owned()`, `.clone()`) in their direct bodies
/// regress the steady state the zero-copy roadmap item extends.
fn alloc_hot_path(graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    const ALLOC_QUALIFIERS: &[&str] = &["Vec", "String", "Box", "BTreeMap", "BTreeSet", "HashMap"];
    const ALLOC_MACROS: &[&str] = &["vec", "format"];
    const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone"];
    for (suffix, name, impl_of) in POOLED_FNS {
        let Some(fi) = find_root(graph, suffix, name, *impl_of) else {
            continue;
        };
        let f = &graph.fns[fi];
        let Some((open, close)) = f.body else {
            continue;
        };
        let toks = &graph.files[f.file].toks;
        let path = &graph.files[f.file].path;
        for j in open..=close {
            let t = &toks[j];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |c: char| toks.get(j + 1).is_some_and(|n| n.is_punct(c));
            let hit = if next_is('(')
                && j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && t.text == "new"
                && ALLOC_QUALIFIERS.contains(&toks[j - 3].text.as_str())
            {
                Some(format!("`{}::new()`", toks[j - 3].text))
            } else if next_is('!') && ALLOC_MACROS.contains(&t.text.as_str()) {
                Some(format!("`{}!`", t.text))
            } else if next_is('(')
                && j > 0
                && toks[j - 1].is_punct('.')
                && ALLOC_METHODS.contains(&t.text.as_str())
            {
                Some(format!("`.{}()`", t.text))
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(RawFinding {
                    rule: "alloc-hot-path",
                    path: path.clone(),
                    line: t.line,
                    message: format!(
                        "{what} in pooled path `{}` — the validation loop must reuse pooled clones, not allocate per unit",
                        f.name
                    ),
                    fn_line: Some(f.line),
                });
            }
        }
    }
}

/// R9 — unresolved roots (workspace scans only): the semantic rules anchor
/// on fns and a struct named by file suffix, and skip an anchor they do
/// not find — so moving `process_deliver` to another file would silently
/// switch `alloc-hot-path` off for it. Every entry of
/// [`PANIC_ROOTS`] and [`POOLED_FNS`], and `schema-drift`'s
/// `CampaignReport`, must resolve whenever its crate's `src/` tree is in
/// the scan. The finding names a file that need not exist, so no allow
/// annotation can suppress it: the fix is the root table.
fn unresolved_roots(files: &[Prepared], graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    let crate_scanned = |suffix: &str| {
        let krate = suffix.split('/').next().unwrap_or(suffix);
        let src = format!("crates/{krate}/src/");
        files.iter().any(|f| f.path.starts_with(&src))
    };
    for (rule, table) in [
        ("panic-freedom", PANIC_ROOTS),
        ("alloc-hot-path", POOLED_FNS),
    ] {
        for (suffix, name, impl_of) in table {
            if !crate_scanned(suffix) || find_root(graph, suffix, name, *impl_of).is_some() {
                continue;
            }
            let owner = impl_of.map(|t| format!("{t}::")).unwrap_or_default();
            out.push(RawFinding {
                rule: "unresolved-root",
                path: format!("crates/{suffix}"),
                line: 1,
                message: format!(
                    "`{rule}` root `{owner}{name}` is not in crates/{suffix} — the rule is off for it; point the root table at where the fn lives now"
                ),
                fn_line: None,
            });
        }
    }
    let report_root = graph.structs.iter().any(|s| {
        s.name == "CampaignReport"
            && in_core(&graph.files[s.file].path)
            && s.derives.iter().any(|d| d == "Serialize")
    });
    if crate_scanned("core") && !report_root {
        out.push(RawFinding {
            rule: "unresolved-root",
            path: "crates/core/src".into(),
            line: 1,
            message: "`schema-drift` root `CampaignReport` (a Serialize struct in dice-core) was not found — the rule is off".into(),
            fn_line: None,
        });
    }
}

/// A wall-clock-named report field: these are host-time measurements that
/// the determinism contract requires `normalized()` to zero.
fn is_wall_clock_field(name: &str) -> bool {
    name.starts_with("wall_")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.ends_with("_us_cum")
        || name.ends_with("_ms_cum")
        || name.ends_with("_micros")
}

/// R8 — schema drift (contract from PR 3/PR 5, upgraded from the PR-6
/// name-pattern rule): walk the `#[derive(Serialize)]` structs reachable
/// from `CampaignReport` over field-type references and verify every
/// wall-clock field is zeroed by a `normalized()` body (directly, or by
/// resetting its whole struct to `Default`). The item graph sees through
/// `Vec<_>`/`Option<_>`/`BTreeMap<_, _>` wrappers, so nested report
/// shapes that no test constructs are still covered statically —
/// complementing the runtime reflection test.
fn schema_drift(files: &[Prepared], graph: &ItemGraph, out: &mut Vec<RawFinding>) {
    // Serialize-deriving structs in core, by name.
    let core_structs: Vec<usize> = graph
        .structs
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            in_core(&graph.files[s.file].path) && s.derives.iter().any(|d| d == "Serialize")
        })
        .map(|(i, _)| i)
        .collect();
    let by_name = |name: &str| -> Vec<usize> {
        core_structs
            .iter()
            .copied()
            .filter(|&i| graph.structs[i].name == name)
            .collect()
    };
    // BFS from CampaignReport over field-type references.
    let mut reach: Vec<usize> = by_name("CampaignReport");
    if reach.is_empty() {
        return;
    }
    let mut seen: std::collections::BTreeSet<usize> = reach.iter().copied().collect();
    while let Some(si) = reach.pop() {
        for field in &graph.structs[si].fields {
            for ty in &field.ty_idents {
                for ref_idx in by_name(ty) {
                    if seen.insert(ref_idx) {
                        reach.push(ref_idx);
                    }
                }
            }
        }
    }

    // Every `fn normalized` body in core, by balanced-brace extraction.
    let mut normalized_bodies = String::new();
    for f in files {
        if !in_core(&f.path) {
            continue;
        }
        let joined = f.code.join("\n");
        let mut search = 0usize;
        while let Some(pos) = joined[search..].find("fn normalized") {
            let start = search + pos;
            if let Some(open_rel) = joined[start..].find('{') {
                let open = start + open_rel;
                let mut depth = 0i32;
                let mut end = open;
                for (i, c) in joined[open..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = open + i;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                normalized_bodies.push_str(&joined[open..=end]);
                normalized_bodies.push('\n');
                search = end;
            } else {
                break;
            }
        }
    }

    for &si in &seen {
        let s = &graph.structs[si];
        let path = &graph.files[s.file].path;
        for field in &s.fields {
            if !is_wall_clock_field(&field.name) {
                continue;
            }
            let zeroed_directly = normalized_bodies.contains(&format!(".{} = 0", field.name))
                || normalized_bodies.contains(&format!("{}: 0", field.name));
            let struct_reset = normalized_bodies.contains(&format!("{}::default()", s.name));
            if !(zeroed_directly || struct_reset) {
                let hint = if normalized_bodies.is_empty() {
                    "no normalized() implementation found in dice-core"
                } else {
                    "normalized() never zeroes it"
                };
                out.push(RawFinding {
                    rule: "schema-drift",
                    path: path.clone(),
                    line: field.line,
                    message: format!(
                        "wall-clock field `{}.{}` is serialized via CampaignReport but {hint} — the byte-identity contract breaks",
                        s.name, field.name
                    ),
                    fn_line: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{scan_files, SourceFile};

    fn rules_of(path: &str, content: &str) -> Vec<String> {
        let report = scan_files(&[SourceFile {
            path: path.into(),
            content: content.into(),
        }]);
        report.violations.iter().map(|f| f.rule.clone()).collect()
    }

    #[test]
    fn membership_ops_on_hashed_containers_are_fine() {
        let src = "use std::collections::HashSet;\n\
                   fn f() {\n\
                   let mut attempted: HashSet<u64> = HashSet::new();\n\
                   attempted.insert(3);\n\
                   assert!(attempted.contains(&3));\n\
                   }\n";
        assert!(rules_of("crates/concolic/src/x.rs", src).is_empty());
    }

    #[test]
    fn adapter_modules_may_downcast_their_own_type() {
        let src = "fn g(n: &dyn Node) { n.as_any().downcast_ref::<BgpRouter>(); }\n";
        assert!(rules_of("crates/core/src/bgp_sut.rs", src).is_empty());
        assert_eq!(
            rules_of("crates/core/src/explorer.rs", src),
            vec!["seam-containment"]
        );
    }

    #[test]
    fn vendor_and_lint_paths_are_out_of_scope() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(rules_of("vendor/criterion/src/lib.rs", src).is_empty());
    }

    #[test]
    fn schema_drift_walks_reachable_structs_cross_file() {
        // Nested struct reached only through CampaignReport's field type;
        // its wall-clock field must be zeroed even though no name pattern
        // ties the two files together.
        let root = "#[derive(Debug, Clone, Serialize)]\n\
                    pub struct CampaignReport {\n\
                    pub rounds: Vec<Inner>,\n\
                    }\n";
        let inner = "#[derive(Debug, Clone, Serialize)]\n\
                     pub struct Inner {\n\
                     pub wall_us: u64,\n\
                     pub items: usize,\n\
                     }\n";
        let dirty = crate::scan_files(&[
            SourceFile {
                path: "crates/core/src/a.rs".into(),
                content: root.into(),
            },
            SourceFile {
                path: "crates/core/src/b.rs".into(),
                content: inner.into(),
            },
        ]);
        assert_eq!(dirty.violations.len(), 1, "{:?}", dirty.violations);
        assert_eq!(dirty.violations[0].rule, "schema-drift");
        assert_eq!(dirty.violations[0].path, "crates/core/src/b.rs");
        assert_eq!(dirty.violations[0].line, 3);

        let normalized_good = "impl Inner {\n\
                               pub fn normalized(&self) -> Inner {\n\
                               let mut r = self.clone();\n\
                               r.wall_us = 0;\n\
                               r\n\
                               }\n\
                               }\n";
        let clean = crate::scan_files(&[
            SourceFile {
                path: "crates/core/src/a.rs".into(),
                content: root.into(),
            },
            SourceFile {
                path: "crates/core/src/b.rs".into(),
                content: format!("{inner}{normalized_good}"),
            },
        ]);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    }

    #[test]
    fn schema_drift_ignores_structs_not_reachable_from_the_report() {
        // A Serialize struct nobody references from CampaignReport does
        // not serialize into campaign output; its wall fields are its
        // own business.
        let src = "#[derive(Debug, Clone, Serialize)]\n\
                   pub struct CampaignReport {\n\
                   pub rounds: u64,\n\
                   }\n\
                   #[derive(Debug, Clone, Serialize)]\n\
                   pub struct Standalone {\n\
                   pub wall_us: u64,\n\
                   }\n";
        assert!(rules_of("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn struct_wide_default_reset_counts_as_zeroing() {
        let src = "#[derive(Debug, Default, Serialize)]\n\
                   pub struct Perf {\n\
                   pub solve_us: u64,\n\
                   }\n\
                   #[derive(Debug, Clone, Serialize)]\n\
                   pub struct CampaignReport {\n\
                   pub perf: Perf,\n\
                   }\n\
                   impl CampaignReport {\n\
                   pub fn normalized(&self) -> CampaignReport {\n\
                   let mut r = self.clone();\n\
                   r.perf = Perf::default();\n\
                   r\n\
                   }\n\
                   }\n";
        assert!(rules_of("crates/core/src/a.rs", src).is_empty());
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
        let report = crate::scan_files(&[SourceFile {
            path: "crates/core/src/executor.rs".into(),
            content: src.into(),
        }]);
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
        let report = crate::scan_files(&[SourceFile {
            path: "crates/core/src/executor.rs".into(),
            content: src,
        }]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allowed.len(), 2, "both index sites suppressed");
    }

    #[test]
    fn alloc_hot_path_guards_the_pooled_fns_only() {
        let src = "impl Sweep {\n\
                   fn validate_unit(&self) { let v: Vec<u8> = Vec::new(); drop(v); }\n\
                   fn elsewhere(&self) { let v: Vec<u8> = Vec::new(); drop(v); }\n\
                   }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/core/src/executor.rs".into(),
            content: src.into(),
        }]);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "alloc-hot-path");
        assert_eq!(report.violations[0].line, 2);
    }

    #[test]
    fn alloc_hot_path_guards_the_wire_path_roots() {
        // The zero-copy roots: `encode_into` must stay allocation-free,
        // while the `encode` convenience wrapper (not in the root set)
        // may allocate its one output vector.
        let src = "pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {\n\
                   let scratch = Vec::new();\n\
                   drop(scratch);\n\
                   }\n\
                   pub fn encode(msg: &Message) -> Vec<u8> {\n\
                   let mut out = Vec::new();\n\
                   encode_into(msg, &mut out);\n\
                   out\n\
                   }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/bgp/src/wire.rs".into(),
            content: src.into(),
        }]);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "alloc-hot-path");
        assert_eq!(report.violations[0].line, 2, "only encode_into is a root");

        // The buffer-pool fast path: `acquire` in netsim's buf.rs is a
        // root too (`Vec::with_capacity` on the miss path is allowed —
        // only the listed constructors are hot-path regressions).
        let pool_src = "impl BufPool {\n\
                        pub fn acquire(&self) -> PooledBuf {\n\
                        let fallback = Vec::with_capacity(64);\n\
                        let spill = fallback.to_vec();\n\
                        PooledBuf { vec: spill, home: None }\n\
                        }\n\
                        }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/netsim/src/buf.rs".into(),
            content: pool_src.into(),
        }]);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].message.contains("to_vec"),
            "with_capacity passes, .to_vec() fires: {:?}",
            report.violations
        );
    }

    #[test]
    fn alloc_hot_path_guards_the_delta_capture_root() {
        // `checkpoint_node` serves clean nodes from the checkpoint cache
        // via `Arc::clone` (path syntax, refcount bump — not in the
        // alloc list); a `.clone()` method call there is a deep per-node
        // copy and must fire.
        let ok = "impl Simulator {\n\
                  fn checkpoint_node(&mut self, n: NodeId) -> Option<Arc<dyn Node>> {\n\
                  let cached = self.cache[n.index()].as_ref()?;\n\
                  Some(std::sync::Arc::clone(cached))\n\
                  }\n\
                  }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/netsim/src/sim/cut.rs".into(),
            content: ok.into(),
        }]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        let deep = "impl Simulator {\n\
                    fn checkpoint_node(&mut self, n: NodeId) -> Option<Arc<dyn Node>> {\n\
                    let cached = self.cache[n.index()].as_ref()?;\n\
                    Some(cached.clone())\n\
                    }\n\
                    }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/netsim/src/sim/cut.rs".into(),
            content: deep.into(),
        }]);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "alloc-hot-path");
        assert_eq!(report.violations[0].line, 4);
    }

    #[test]
    fn alloc_hot_path_picks_the_policy_evaluator_among_same_named_fns() {
        // `apply` names two fns in policy.rs; the root is the evaluator
        // (`Policy::apply`), which copies through `Cow::to_mut` at the
        // first action — `Action::apply` edits the bag it is handed.
        let policy = "impl Action {\n\
                      pub fn apply(&self, attrs: &mut PathAttrs) { let spare = attrs.clone(); drop(spare); }\n\
                      }\n\
                      impl Policy {\n\
                      pub fn apply(&self, attrs: &PathAttrs) -> Option<PathAttrs> {\n\
                      let mut out = attrs.clone();\n\
                      Some(out)\n\
                      }\n\
                      }\n";
        let report = crate::scan_files(&[SourceFile {
            path: "crates/bgp/src/policy.rs".into(),
            content: policy.into(),
        }]);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].line, 6, "the clone-first evaluator");
    }
}
