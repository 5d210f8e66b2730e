#!/usr/bin/env bash
# Run one *set* of end-to-end records for `compare`: RUNS runs of every
# workload, interleaved — A B C D, A B C D, … not AAA BBB. Host speed here
# drifts by ±10% over tens of seconds; interleaving spreads that drift over
# all workloads of a set instead of charging it to one, so the medians of
# two sets are what must agree.
#
#   benchmark/run.sh <set-name> [runs] [seed] [more flags for dice-benchmark]
#
#   benchmark/run.sh parent 10 1          # at the parent commit
#   benchmark/run.sh change 10 1          # at the change
#   benchmark/target/release/dice-benchmark compare benchmark/out/parent benchmark/out/change
#
# Runs are fixed work unless you pass --seconds: every count and the
# normalized_sha256 then repeat exactly for one seed. Records land in
# benchmark/out/<set-name>/run-<k>/<workload>.json.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,18p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
set_name="$1"
runs="${2:-10}"
seed="${3:-1}"
shift $(( $# < 3 ? $# : 3 ))

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(demo27_sweep internet1k_sweep gossip16_sweep nemesis_detect)

failed=0
for (( k = 1; k <= runs; k++ )); do
    for workload in "${workloads[@]}"; do
        echo "== set $set_name, run $k/$runs, $workload" >&2
        bash "$here/bench.sh" --workload "$workload" --seed "$seed" --trace 0 \
            --out "$here/out/$set_name/run-$k" "$@" | grep -v '^{' || failed=1
    done
done
exit "$failed"
