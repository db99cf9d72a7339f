#!/usr/bin/env bash
# Seconds-long self-check of the harness: run every workload at smoke size,
# timed and traced, then verify that the result files carry exactly the
# workloads and metrics BENCHMARK.json declares (`cv-perf check`).
set -euo pipefail
cd "$(dirname "$0")/.."

out=perf/results/smoke
rm -rf "$out"
perf/run.sh --smoke --trace --out "$out" > "$out.log" 2>&1 || { cat "$out.log"; exit 1; }
"${CARGO_TARGET_DIR:-perf/target}/release/cv-perf" check "$out"
