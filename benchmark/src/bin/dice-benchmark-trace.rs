//! Traced benchmark run: sequential public-API pipeline with spans, and
//! the counting allocator behind the `alloc.*` metrics.

use dice_benchmark::alloc::CountingAlloc;
use dice_benchmark::metrics::RunKind;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    dice_benchmark::cli::main(RunKind::Trace)
}
