//! Facts about the host and the build that every record carries, so two
//! records can be told apart before their numbers are compared.

use std::process::Command;

use serde_json::{json, Value};

use crate::workloads::PARALLELISM;

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuse to measure parallel campaigns on a host that cannot run them in
/// parallel: the numbers would describe the scheduler, not the engine.
pub fn require_cores() -> Result<(), String> {
    let have = cores();
    if have < PARALLELISM {
        return Err(format!(
            "the benchmark runs campaigns at workers = pair_workers = {PARALLELISM} and needs as many cores; this host offers {have}"
        ));
    }
    Ok(())
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The record header: core count, load, commit, compiler and the run
/// length. `commit` and `rustc` read `"unknown"` where the checkout is not
/// a git repository or the tool is missing.
pub fn header(length: Value) -> Value {
    let unknown = || "unknown".to_string();
    json!({
        "nproc": cores(),
        "parallelism": PARALLELISM,
        "commit": first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "rustc": first_line("rustc", &["-V"]).unwrap_or_else(unknown),
        "length": length
    })
}
