//! `dice-lint` binary: scan the workspace, print the findings, exit
//! nonzero on any unallowed violation.
//!
//! ```text
//! cargo run -p dice-lint [-- --root <dir>] [--json <path>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "dice-lint: workspace invariant checker\n\
                     \n\
                     Options:\n\
                     --root <dir>    workspace root (default: walk up from cwd)\n\
                     --json <path>   also write the JSON report to <path>\n\
                     \n\
                     Exit code 0 iff no unallowed violations."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dice-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("dice-lint: cwd unreadable: {e}");
                    return ExitCode::from(2);
                }
            };
            match dice_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("dice-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match dice_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dice-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("dice-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.to_table());

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
