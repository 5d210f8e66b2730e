//! End-to-end benchmark: tracing off, system allocator.

use dice_benchmark::metrics::RunKind;

fn main() -> std::process::ExitCode {
    dice_benchmark::cli::main(RunKind::EndToEnd)
}
