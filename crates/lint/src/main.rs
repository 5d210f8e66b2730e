//! `dice-lint` binary: scan the workspace this binary was built from,
//! print the findings table, exit nonzero on any unallowed violation.
//!
//! ```text
//! cargo run -p dice-lint
//! ```

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "dice-lint: unexpected argument `{arg}` — it takes none: it scans its own \
             workspace, prints the findings table and exits 0 iff no violation is unallowed"
        );
        return ExitCode::from(2);
    }
    // crates/lint → the workspace root, fixed at build time: a run from a
    // subdirectory must not scan (and pass on) an empty tree.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = match dice_lint::scan_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dice-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_table());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
