//! The engine-crate rules that clippy cannot state on its own (DESIGN.md §6).
//!
//! Panic freedom in `dice-core` and `dice-concolic` belongs to clippy: each
//! crate root turns on the panic lints and `allow_attributes`, and a
//! justified site carries `#[expect(clippy::…, reason = "…")]`. This file
//! holds the rest:
//!
//! - both crate roots keep that lint block. Nothing else notices its
//!   removal: an `#[expect]` turns its lint on in its own scope, so every
//!   expectation stays fulfilled without the block;
//! - no `map[&key]` in either crate's non-test code. `indexing_slicing`
//!   flags indexing an owned `BTreeMap` / `HashMap`, but not one behind a
//!   reference;
//! - seam containment: in `dice-core` only `bgp_sut.rs` downcasts to
//!   `BgpRouter` and only `gossip_sut.rs` to `GossipNode`. Everything
//!   else resolves a node through the `SutCatalog` probe chain.
//!
//! The scan reads each line's code, meaning the text before any `//`. A
//! `#[cfg(test)]` item is test code from its attribute to the line where
//! its braces balance, or to its `;`.
//!
//! Break each once: a planted `downcast_ref::<BgpRouter>()` in
//! `core/src/explorer.rs` fails `protocol_downcasts_stay_in_their_adapters`;
//! a planted `r[&k]` on a `&BTreeMap` in `concolic/src/explore.rs` passes
//! clippy and fails `no_map_index_in_engine_code`; deleting `dice-core`'s
//! lint block fails `engine_crates_keep_the_panic_lints`.

use std::fs;
use std::path::{Path, PathBuf};

/// The two crates held to panic freedom.
const ENGINE_CRATES: [&str; 2] = ["crates/core", "crates/concolic"];

/// The lint block each engine crate root carries, as rustfmt lays it out.
const PANIC_LINTS: &str = "#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes
)]";

/// Each protocol type `dice-core` may downcast to, and the one file that may.
const SEAMS: [(&str, &str); 2] = [("BgpRouter", "bgp_sut.rs"), ("GossipNode", "gossip_sut.rs")];

/// Every `.rs` file under `dir` (relative to the repository root), in path
/// order.
fn rust_files(dir: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join(dir), &mut out);
    out
}

/// A line's code: the text before any `//`.
fn code(line: &str) -> &str {
    line.split_once("//").map_or(line, |(code, _)| code)
}

/// The code of each line outside `#[cfg(test)]` items, with 1-based line
/// numbers.
fn non_test_code(path: &Path) -> Vec<(usize, String)> {
    let src = fs::read_to_string(path).expect("source file is readable");
    let mut out = Vec::new();
    // Inside a test item: its brace depth, and whether it has opened one.
    let mut test_item: Option<(usize, bool)> = None;
    for (i, line) in src.lines().enumerate() {
        let code = code(line);
        let Some((depth, opened)) = test_item.as_mut() else {
            if code.trim() == "#[cfg(test)]" {
                test_item = Some((0, false));
            } else {
                out.push((i + 1, code.to_string()));
            }
            continue;
        };
        *opened |= code.contains('{');
        *depth = (*depth + code.matches('{').count())
            .checked_sub(code.matches('}').count())
            .unwrap_or_else(|| panic!("{}:{}: unbalanced braces", path.display(), i + 1));
        if (*opened && *depth == 0) || (!*opened && code.trim_end().ends_with(';')) {
            test_item = None;
        }
    }
    assert!(
        test_item.is_none(),
        "{}: a #[cfg(test)] item never closes",
        path.display()
    );
    out
}

/// Whether `code` indexes with a borrowed key: `ident[&`, `)[&` or `][&`.
fn indexes_by_reference(code: &str) -> bool {
    code.match_indices("[&").any(|(at, _)| {
        code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || matches!(c, '_' | ')' | ']'))
    })
}

#[test]
fn engine_crates_keep_the_panic_lints() {
    for krate in ENGINE_CRATES {
        let lib = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(krate)
            .join("src/lib.rs");
        let src = fs::read_to_string(&lib).expect("crate root is readable");
        assert!(
            src.contains(PANIC_LINTS),
            "{} lost its panic-freedom lint block:\n{PANIC_LINTS}",
            lib.display()
        );
    }
}

#[test]
fn no_map_index_in_engine_code() {
    let files: Vec<PathBuf> = ENGINE_CRATES
        .iter()
        .flat_map(|krate| rust_files(&format!("{krate}/src")))
        .collect();
    // A clean result over an empty walk would prove nothing.
    assert!(files.len() >= 20, "only {} engine files found", files.len());
    let findings: Vec<String> = files
        .iter()
        .flat_map(|path| {
            non_test_code(path)
                .into_iter()
                .filter(|(_, code)| indexes_by_reference(code))
                .map(move |(n, code)| format!("{}:{n}: {}", path.display(), code.trim()))
        })
        .collect();
    assert!(
        findings.is_empty(),
        "map indexing can panic on a missing key; use get / get_mut:\n{}",
        findings.join("\n")
    );
}

#[test]
fn protocol_downcasts_stay_in_their_adapters() {
    let mut homes_seen = 0;
    let mut findings = Vec::new();
    for path in rust_files("crates/core/src") {
        let src = fs::read_to_string(&path).expect("source file is readable");
        let file = path.file_name().and_then(|f| f.to_str());
        for (i, line) in src.lines().enumerate() {
            let code = code(line);
            if !code.contains("downcast") {
                continue;
            }
            for (ty, home) in SEAMS.iter().filter(|(ty, _)| code.contains(ty)) {
                if file == Some(*home) {
                    homes_seen += 1;
                } else {
                    findings.push(format!(
                        "{}:{}: {ty}: {}",
                        path.display(),
                        i + 1,
                        code.trim()
                    ));
                }
            }
        }
    }
    // Each adapter downcasts to its own type, so a scan that sees neither
    // has stopped reading the code it guards.
    assert!(
        homes_seen >= SEAMS.len(),
        "the adapters' own downcasts were not seen"
    );
    assert!(
        findings.is_empty(),
        "a protocol type is downcast outside its adapter module; resolve it through the SutCatalog probe chain:\n{}",
        findings.join("\n")
    );
}
