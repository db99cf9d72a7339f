#!/usr/bin/env bash
# Build the harness and run the benchmark.
#
#   perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One workload in one process; the last line of output is the result
#       object. This is the command BENCHMARK.json names.
#
#   perf/run.sh [--seed N] [--trace] [--smoke] [--runs K] [--out DIR]
#       Every workload of BENCHMARK.json, each in its own process; with
#       --trace, each workload's traced (per-layer) run follows its timed
#       run. --runs K repeats the set on seeds N .. N+K-1 into DIR/seed-<n>/,
#       the layout `cv-perf compare` reads. Exits non-zero if any output
#       was wrong.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-perf/target}"
build_started=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --target-dir "$target"
build_seconds=$(echo "$(date +%s.%N) $build_started" | awk '{printf "%.3f", $1 - $2}')
bin="$target/release/cv-perf"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@" --build-seconds "$build_seconds"
    fi
done

seed=7 trace=0 smoke=0 runs=1 out=perf/results
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --smoke) smoke=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Smoke runs are for checking the harness, not for numbers: one second each.
seconds=()
if [ "$smoke" = 1 ]; then seconds=(--seconds 1); fi

status=0
for ((s = seed; s < seed + runs; s++)); do
    dir="$out"
    if [ "$runs" -gt 1 ]; then dir="$out/seed-$s"; fi
    for workload in $("$bin" workloads); do
        for t in $(seq 0 "$trace"); do
            "$bin" run --workload "$workload" --seed "$s" --trace "$t" --smoke "$smoke" \
                --out "$dir" --build-seconds "$build_seconds" "${seconds[@]}" \
                | grep -v '^{' || status=1
            echo
        done
    done
done
exit $status
