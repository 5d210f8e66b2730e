#!/usr/bin/env bash
# The BENCHMARK.json command. Builds the benchmark package (a no-op once
# built; the engine crates come in as path dependencies, so this is also
# what builds the program under test) and hands the arguments to the
# binary `--trace` selects: dice-benchmark for 0 (the default),
# dice-benchmark-trace for 1.
#
#   bash benchmark/bench.sh --workload demo27_sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=dice-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == --trace && "$arg" == 1 ]]; then
        bin=dice-benchmark-trace
    fi
    prev="$arg"
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
