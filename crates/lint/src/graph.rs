//! The workspace item graph: functions, their impls and name-resolved
//! intra-workspace call edges, built from the token stream of every
//! scanned file.
//!
//! Resolution is heuristic by design (no rustc, no syn): a qualified call
//! `T::f(...)` resolves to `fn f` inside `impl T` (or inside the file
//! whose stem is `T`, for module-qualified calls), a method call `.f(...)`
//! resolves to every impl/trait fn named `f`, and a bare call `f(...)`
//! resolves to every free fn named `f` plus same-impl siblings. That
//! over-approximates the true call graph, which is the right direction
//! for a reachability-based panic-freedom rule: false edges can only make
//! the rule *stricter*.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `f(...)`
    Bare,
    /// `.f(...)`
    Method,
    /// `Q::f(...)` — qualifier is the last path segment before the name.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    pub(crate) kind: CallKind,
    pub(crate) name: String,
}

/// A `fn` item.
#[derive(Debug)]
pub(crate) struct FnItem {
    /// Index into [`ItemGraph::files`].
    pub(crate) file: usize,
    pub(crate) name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub(crate) impl_of: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: usize,
    /// Token-index span of the body braces (inclusive), if the fn has one.
    pub(crate) body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` module or a `tests/` tree.
    pub(crate) in_test: bool,
    pub(crate) calls: Vec<Call>,
    /// Resolved callee indices into [`ItemGraph::fns`].
    pub(crate) callees: Vec<usize>,
}

/// Tokenized file, retained so rules can re-walk bodies.
pub(crate) struct FileToks {
    pub(crate) path: String,
    pub(crate) toks: Vec<Tok>,
}

/// The whole workspace graph.
pub(crate) struct ItemGraph {
    pub(crate) files: Vec<FileToks>,
    pub(crate) fns: Vec<FnItem>,
}

/// Words that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "mut", "let",
    "else", "fn", "impl", "use", "pub", "where", "unsafe", "async", "dyn", "crate", "super",
];

/// Token span of an attribute group, `#` .. matching `]`, inclusive.
type AttrSpan = (usize, usize);

/// An item head found in the linear scan.
struct Head {
    kind: HeadKind,
    name: String,
    /// Token index of the keyword.
    at: usize,
    line: usize,
    /// Whether an attribute group directly above is `#[cfg(test)]`.
    cfg_test: bool,
    /// Body token span (inclusive braces), if any.
    body: Option<(usize, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadKind {
    Fn,
    Mod,
    Impl,
    Trait,
}

impl ItemGraph {
    /// Build the graph over every lexed file.
    pub(crate) fn build(files: Vec<FileToks>) -> ItemGraph {
        let mut graph = ItemGraph {
            files,
            fns: Vec::new(),
        };
        for file in 0..graph.files.len() {
            build_file(file, &mut graph);
        }
        resolve_calls(&mut graph);
        graph
    }

    /// Indices of fns transitively reachable from the given roots
    /// (inclusive), following resolved call edges.
    pub(crate) fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut work: Vec<usize> = roots.to_vec();
        while let Some(f) = work.pop() {
            for &c in &self.fns[f].callees {
                if seen.insert(c) {
                    work.push(c);
                }
            }
        }
        seen
    }

    /// The non-test fns a root-table entry names: by file-path suffix,
    /// name and — where a file holds two fns of one name — impl type.
    pub(crate) fn roots<'g>(
        &'g self,
        suffix: &'g str,
        name: &'g str,
        impl_of: Option<&'g str>,
    ) -> impl Iterator<Item = usize> + 'g {
        let matches = move |f: &FnItem| {
            f.name == name
                && !f.in_test
                && self.files[f.file].path.ends_with(suffix)
                && impl_of.is_none_or(|t| f.impl_of.as_deref() == Some(t))
        };
        (0..self.fns.len()).filter(move |&i| matches(&self.fns[i]))
    }
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.starts_with("examples/")
}

/// Scan forward over a balanced bracket pair starting at `open` (which
/// must index the opening token); returns the index of the matching
/// closer.
fn match_bracket(toks: &[Tok], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The index just past the `<…>` group that opens at `i` (generic
/// parameters or arguments), or `i` if none does.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        match_bracket(toks, i, '<', '>').map_or(toks.len(), |close| close + 1)
    } else {
        i
    }
}

/// Parse the self-type of an `impl` (or the name of a `trait`) whose
/// keyword sits at `at`. For `impl<T> Trait for Type<T>` this is `Type`;
/// for `impl Type` it is `Type`.
fn impl_type_name(toks: &[Tok], at: usize) -> Option<String> {
    let mut i = skip_angles(toks, at + 1);
    let read_path = |i: &mut usize| -> Option<String> {
        let mut last: Option<String> = None;
        loop {
            // Skip reference/pointer/dyn noise.
            while toks.get(*i).is_some_and(|t| {
                t.is_punct('&')
                    || t.kind == TokKind::Lifetime
                    || t.is_ident("mut")
                    || t.is_ident("dyn")
            }) {
                *i += 1;
            }
            let t = toks.get(*i)?;
            if t.kind != TokKind::Ident {
                return last;
            }
            last = Some(t.text.clone());
            *i += 1;
            // Generic args on this segment.
            *i = skip_angles(toks, *i);
            // Continue through `::`.
            if toks.get(*i).is_some_and(|t| t.is_punct(':'))
                && toks.get(*i + 1).is_some_and(|t| t.is_punct(':'))
            {
                *i += 2;
                continue;
            }
            return last;
        }
    };
    let first = read_path(&mut i)?;
    if toks.get(i).is_some_and(|t| t.is_ident("for")) {
        i += 1;
        return read_path(&mut i).or(Some(first));
    }
    Some(first)
}

/// Whether the attribute group spanning `span` is `#[cfg(test)]` or opens
/// with it (`cfg(test, …)`); `cfg(not(test))` is not.
fn is_cfg_test(toks: &[Tok], (open, close): AttrSpan) -> bool {
    toks[open..=close]
        .windows(3)
        .any(|w| w[0].is_ident("cfg") && w[1].is_punct('(') && w[2].is_ident("test"))
}

fn build_file(file_idx: usize, graph: &mut ItemGraph) {
    let FileToks { path, toks } = &graph.files[file_idx];

    // Pass 1: attribute groups.
    let mut attrs: Vec<AttrSpan> = Vec::new();
    {
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_punct('#') {
                let mut j = i + 1;
                // `#![...]` inner attributes too.
                if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    if let Some(close) = match_bracket(toks, j, '[', ']') {
                        attrs.push((i, close));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    let in_attr = |idx: usize| attrs.iter().any(|&(a, b)| a <= idx && idx <= b);

    // Pass 2: item heads with body spans.
    let mut heads: Vec<Head> = Vec::new();
    {
        let mut i = 0usize;
        while i < toks.len() {
            if in_attr(i) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            let kind = if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" => Some(HeadKind::Fn),
                    "mod" => Some(HeadKind::Mod),
                    "impl" => Some(HeadKind::Impl),
                    "trait" => Some(HeadKind::Trait),
                    _ => None,
                }
            } else {
                None
            };
            let Some(kind) = kind else {
                i += 1;
                continue;
            };
            // `fn`-pointer types (`fn(u8) -> u8`) have no name ident.
            let name = match kind {
                HeadKind::Impl | HeadKind::Trait => impl_type_name(toks, i),
                _ => toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone()),
            };
            let Some(name) = name else {
                i += 1;
                continue;
            };
            // Is one of the attribute groups directly above (contiguous,
            // allowing `pub`, `unsafe`, `const`, `async`, `extern`,
            // visibility parens between) a `#[cfg(test)]`?
            let mut cfg_test = false;
            let mut edge = i;
            loop {
                let mut k = edge;
                while k > 0 {
                    let prev = &toks[k - 1];
                    let skippable = prev.kind == TokKind::Ident
                        && matches!(
                            prev.text.as_str(),
                            "pub" | "unsafe" | "const" | "async" | "extern" | "default"
                        )
                        || prev.is_punct('(')
                        || prev.is_punct(')')
                        || prev.is_ident("crate")
                        || prev.is_ident("super")
                        || prev.kind == TokKind::Str;
                    if skippable {
                        k -= 1;
                    } else {
                        break;
                    }
                }
                let Some(&span) = attrs.iter().find(|a| a.1 + 1 == k) else {
                    break;
                };
                cfg_test |= is_cfg_test(toks, span);
                edge = span.0;
            }
            // Find the body: first `{` before any `;` at bracket depth 0.
            let mut body = None;
            {
                let mut j = i + 1;
                let mut paren = 0i32;
                let mut bracket = 0i32;
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.is_punct('(') {
                        paren += 1;
                    } else if tj.is_punct(')') {
                        paren -= 1;
                    } else if tj.is_punct('[') {
                        bracket += 1;
                    } else if tj.is_punct(']') {
                        bracket -= 1;
                    } else if paren == 0 && bracket == 0 {
                        if tj.is_punct(';') {
                            break;
                        }
                        if tj.is_punct('{') {
                            body = match_bracket(toks, j, '{', '}').map(|c| (j, c));
                            break;
                        }
                    }
                    j += 1;
                }
            }
            heads.push(Head {
                kind,
                name,
                at: i,
                line: t.line,
                cfg_test,
                body,
            });
            i += 1;
        }
    }

    // Containment helpers over head body spans.
    let containers_of = |at: usize, kinds: &[HeadKind]| -> Vec<&Head> {
        heads
            .iter()
            .filter(|h| kinds.contains(&h.kind) && h.body.is_some_and(|(a, b)| a < at && at <= b))
            .collect()
    };

    let file_is_test = is_test_path(path);

    // Materialize fns.
    let fn_base = graph.fns.len();
    for h in heads.iter().filter(|h| h.kind == HeadKind::Fn) {
        let impls = containers_of(h.at, &[HeadKind::Impl, HeadKind::Trait]);
        let impl_of = impls.last().map(|c| c.name.clone());
        let in_test = file_is_test
            || containers_of(h.at, &[HeadKind::Mod])
                .iter()
                .any(|m| m.cfg_test);
        graph.fns.push(FnItem {
            file: file_idx,
            name: h.name.clone(),
            impl_of,
            line: h.line,
            body: h.body,
            in_test,
            calls: Vec::new(),
            callees: Vec::new(),
        });
    }

    // Call extraction per fn, skipping nested fn bodies and attr spans.
    let fn_spans: Vec<Option<(usize, usize)>> = heads
        .iter()
        .filter(|h| h.kind == HeadKind::Fn)
        .map(|h| h.body)
        .collect();
    for (local, h) in heads.iter().filter(|h| h.kind == HeadKind::Fn).enumerate() {
        let Some((open, close)) = h.body else {
            continue;
        };
        let nested: Vec<(usize, usize)> = fn_spans
            .iter()
            .enumerate()
            .filter(|&(o, _)| o != local)
            .filter_map(|(_, s)| *s)
            .filter(|&(a, b)| a > open && b < close)
            .collect();
        let mut calls: Vec<Call> = Vec::new();
        let mut j = open;
        while j <= close {
            if let Some(&(_, nb)) = nested.iter().find(|&&(na, nb)| na <= j && j <= nb) {
                // Inside a nested fn: jump past it.
                j = nb + 1;
                continue;
            }
            if in_attr(j) {
                j += 1;
                continue;
            }
            let t = &toks[j];
            if t.kind == TokKind::Ident
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                let prev = if j > 0 { Some(&toks[j - 1]) } else { None };
                let kind = if prev.is_some_and(|p| p.is_punct('.')) {
                    Some(CallKind::Method)
                } else if j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && toks[j - 3].kind == TokKind::Ident
                {
                    Some(CallKind::Qualified(toks[j - 3].text.clone()))
                } else if prev.is_some_and(|p| p.is_ident("fn")) {
                    None
                } else {
                    Some(CallKind::Bare)
                };
                if let Some(kind) = kind {
                    calls.push(Call {
                        kind,
                        name: t.text.clone(),
                    });
                }
            }
            j += 1;
        }
        graph.fns[fn_base + local].calls = calls;
    }
}

/// File stem (`strip` for `crates/lint/src/strip.rs`).
fn stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

fn resolve_calls(graph: &mut ItemGraph) {
    // Name tables over non-test fns only: test helpers share names with
    // engine fns but are never on a hot path.
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_stem: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        match &f.impl_of {
            Some(t) => {
                methods.entry(&f.name).or_default().push(i);
                by_impl.entry((t.as_str(), &f.name)).or_default().push(i);
            }
            None => {
                free.entry(&f.name).or_default().push(i);
            }
        }
        by_stem
            .entry((stem(&graph.files[f.file].path), &f.name))
            .or_default()
            .push(i);
    }

    let mut callees: Vec<Vec<usize>> = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for c in &f.calls {
            match &c.kind {
                CallKind::Bare => {
                    if let Some(v) = free.get(c.name.as_str()) {
                        out.extend(v.iter().copied());
                    }
                    if let Some(t) = &f.impl_of {
                        if let Some(v) = by_impl.get(&(t.as_str(), c.name.as_str())) {
                            out.extend(v.iter().copied());
                        }
                    }
                }
                CallKind::Method => {
                    if let Some(v) = methods.get(c.name.as_str()) {
                        out.extend(v.iter().copied());
                    }
                }
                CallKind::Qualified(q) => {
                    let q = if q == "Self" {
                        f.impl_of.clone().unwrap_or_else(|| q.clone())
                    } else {
                        q.clone()
                    };
                    if let Some(v) = by_impl.get(&(q.as_str(), c.name.as_str())) {
                        out.extend(v.iter().copied());
                    } else if let Some(v) = by_stem.get(&(q.as_str(), c.name.as_str())) {
                        out.extend(v.iter().copied());
                    }
                }
            }
        }
        callees.push(out.into_iter().collect());
    }
    for (f, c) in graph.fns.iter_mut().zip(callees) {
        f.callees = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> ItemGraph {
        let lexed = files.iter().map(|(path, content)| FileToks {
            path: path.to_string(),
            toks: crate::lexer::lex(content).toks,
        });
        ItemGraph::build(lexed.collect())
    }

    fn reach_from<'g>(g: &'g ItemGraph, name: &str) -> Vec<&'g str> {
        let root = g.roots("a.rs", name, None).next().unwrap();
        let reach = g.reachable(&[root]);
        reach.iter().map(|&i| g.fns[i].name.as_str()).collect()
    }

    #[test]
    fn fns_and_impls_are_indexed() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub struct S { pub x: u64, pub f: fn(u8) -> u8 }\n\
             impl S {\n    pub fn get(&self) -> u64 { self.x }\n}\n\
             fn free() -> u64 { 7 }\n",
        )]);
        assert_eq!(g.fns.len(), 2, "a fn-pointer type is not an item");
        let get = &g.fns[0];
        assert_eq!(get.name, "get");
        assert_eq!(get.impl_of.as_deref(), Some("S"));
        assert_eq!(get.line, 3);
        assert_eq!(g.fns[1].impl_of, None);
    }

    #[test]
    fn trait_impl_self_type_is_the_for_type() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "impl<T: Clone> From<T> for Wrapper<T> {\n    fn from(t: T) -> Self { Wrapper(t) }\n}\n",
        )]);
        assert_eq!(g.fns[0].impl_of.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn calls_resolve_transitively() {
        let g = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn root() { step(); }\n\
             fn step() { helper::deep(); }\n",
            ),
            (
                "crates/core/src/helper.rs",
                "pub fn deep() { finish(); }\nfn finish() {}\n",
            ),
        ]);
        assert_eq!(reach_from(&g, "root"), ["root", "step", "deep", "finish"]);
    }

    #[test]
    fn method_calls_resolve_to_impl_fns() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "struct S;\nimpl S { fn hit(&self) {} }\n\
             fn caller(s: &S) { s.hit(); }\n",
        )]);
        assert!(reach_from(&g, "caller").contains(&"hit"));
    }

    #[test]
    fn test_mod_fns_are_marked_and_unresolvable() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "fn caller() { probe(); shipped(); }\n\
             #[cfg(test)]\nmod tests {\n    pub fn probe() {}\n}\n\
             #[cfg(not(test))]\nmod live {\n    pub fn shipped() {}\n}\n",
        )]);
        let probe = g.fns.iter().find(|f| f.name == "probe").unwrap();
        assert!(probe.in_test);
        assert_eq!(
            reach_from(&g, "caller"),
            ["caller", "shipped"],
            "a test fn must not resolve; a cfg(not(test)) one must"
        );
    }
}
