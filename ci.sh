#!/usr/bin/env bash
# Local CI: formatting, lints, tests, then the fixed-seed gates. Every gate
# is a command judged by its exit code or a golden file compared with cmp;
# nothing here parses a report. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release (workspace, then the frozen benchmark harness against it)"
# --locked on both: a changed dependency edge that forgets a lockfile fails
# here. perf/ compiles against the crates' public API and may not be edited
# to follow them, so an API break — or an edge that would rewrite
# perf/Cargo.lock — must be the first failure, not the last (perf/check.sh
# reuses this build at the end).
cargo build --release --workspace --locked
cargo build --release --locked --manifest-path perf/Cargo.toml

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cv-chaos fault sweep (faults may cost time, never a result)"
target/release/cv-chaos --days 3 --scale 0.05 --seed 1 > /dev/null

echo "==> cv-chaos --crash (kill mid-write, replay to a byte-identical state)"
target/release/cv-chaos --crash --days 2 --scale 0.05 --seed 42 \
  --store-dir "$scratch/crash-store" > /dev/null

echo "==> cv-serve smoke (8 workers vs the sequential driver; trace and metrics written)"
target/release/cv-serve --days 3 --scale 0.05 --analytics 12 --seed 42 --workers 8 \
  --trace "$scratch/trace.json" --metrics "$scratch/metrics.json" > /dev/null

echo "==> cv-serve at --chunk-size 333, at --chunk-size 1 and on a durable store (same self-check)"
target/release/cv-serve --days 3 --scale 0.05 --analytics 12 --seed 42 --workers 8 \
  --chunk-size 333 > /dev/null
# Every window one row: a window's offset into its buffer's string
# dictionary is wrong at every row or at none.
target/release/cv-serve --days 3 --scale 0.05 --analytics 12 --seed 42 --workers 8 \
  --chunk-size 1 > /dev/null
target/release/cv-serve --days 3 --scale 0.05 --analytics 12 --seed 42 --workers 8 \
  --store-dir "$scratch/serve-store" > /dev/null

# The two audits are deterministic counter reports, not performance: a run
# must reproduce the committed file byte for byte.
golden() { # golden <committed file> <cv-analyze args...>
    local want="$1" got="$scratch/$1"
    shift
    target/release/cv-analyze "$@" --json "$got" > /dev/null
    if ! cmp -s "$got" "$want"; then
        echo "$want no longer reproduces:"
        diff "$want" "$got" || true
        echo "if the change is intended: cp \"$got\" $want (the scratch dir is kept)"
        trap - EXIT
        exit 1
    fi
}

echo "==> cv-analyze --containment (semantic on/off digest parity) == AUDIT_reuse.json"
golden AUDIT_reuse.json --containment --days 4 --scale 0.05 --seed 42

echo "==> cv-analyze --ivm (maintain vs rebuild digest parity) == AUDIT_ivm.json"
golden AUDIT_ivm.json --ivm --days 4 --scale 0.1 --seed 42

echo "==> table1_impact, fig6_usage, fig7_resources (every row and panel the paper reports improving still improves)"
target/release/table1_impact > /dev/null
target/release/fig6_usage > /dev/null
target/release/fig7_resources > /dev/null

echo "==> kernels --smoke (every kernel leg runs and measures a rate)"
# To scratch: the committed BENCH_engine.json is the full-size run with the
# parent commit's rates as its baseline; a unit test of the bin checks it.
target/release/kernels --smoke --out "$scratch/engine.json"

echo "==> perf/check.sh (the benchmark at smoke size: every workload, every output checked)"
mkdir -p perf/results # git-ignored; check.sh (frozen) redirects into it before anything creates it
perf/check.sh

# Non-test code: each file up to its first #[cfg(test)], blank and // lines
# dropped, as `file:line: text`.
code() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*($|\/\/)/ { next }
        { print FILENAME ":" FNR ": " $0 }' "$@"
}
count() { code "$@" | wc -l; }

# No unwrap/expect/panic!/unreachable! on the job path is a crate lint (DESIGN
# §9), refused by clippy above; no lint refuses assert!. The kernels check a
# size bound once, at entry, and return the error; an inner bound is a
# debug_assert!. Every string column, decoded ones included, is a
# data/strs.rs buffer, so it is held to this gate.
echo "==> kernels return errors: no assert! in exec/{mod,aggregate,join,sort}.rs, expr/kernels.rs, data/{sortkey,codes,strs}.rs"
if code crates/engine/src/exec/{mod,aggregate,join,sort}.rs crates/engine/src/expr/kernels.rs \
    crates/data/src/{sortkey,codes,strs}.rs | grep -E '(^|[^_])assert!\('; then
    exit 1
fi

# One evaluator: each expression node is one kernel call, and the kernels are
# total over what `dtype` accepts. A per-row `ColumnBuilder` loop in the
# evaluator, or a switch choosing between two evaluators, is a second path.
echo "==> one evaluation path: no ColumnBuilder in expr/{eval,kernels}.rs, no \`vectorized\` field in crates/*/src, src or tests"
if code crates/engine/src/expr/{eval,kernels}.rs | grep -E 'ColumnBuilder' \
    || grep -rnE --include='*.rs' '\.vectorized\b|\bvectorized[[:space:]]*:' crates/*/src src tests; then
    exit 1
fi

echo "==> size: non-test code lines per crate (report only, no gate)"
total=0
for dir in crates/*/src src; do
    n=$(count $(find "$dir" -name '*.rs'))
    printf '    %-22s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '    %-22s %6d\n' total "$total"
# The view-store seam: the catalogue and its memory medium, the router, the
# store API and the durable medium.
printf '    %-22s %6d\n' "store seam (4 files)" "$(count crates/data/src/viewstore.rs \
    crates/data/src/sharded.rs crates/data/src/store_api.rs crates/store/src/store.rs)"
# Join, key coding (the shared coder) and row ordering: a kernel that
# replaces another shrinks this line, one that forks beside it grows it.
printf '    %-22s %6d\n' "join + codes + sortkey" "$(count crates/engine/src/exec/join.rs \
    crates/data/src/codes.rs crates/data/src/sortkey.rs)"
# String coding: a buffer's dictionary and the key coder that reads it; a
# second way to code or compare strings would show here.
printf '    %-22s %6d\n' "string coding (strs + codes)" "$(count crates/data/src/strs.rs \
    crates/data/src/codes.rs)"
# Expression evaluation: a predicate has one entry point and a comparison one
# typed dispatch; a second way to evaluate a node would show here.
printf '    %-22s %6d\n' "eval + kernels" "$(count crates/engine/src/expr/eval.rs \
    crates/engine/src/expr/kernels.rs)"
# The compile path: a template is normalized once, each job is its skeleton
# rebound and signed in one walk that view matching and view building share;
# a second signing path would show here.
printf '    %-22s %6d\n' "compile path (signature + normalize + skeleton + optimizer)" "$(count crates/engine/src/signature.rs \
    crates/engine/src/normalize.rs crates/engine/src/skeleton.rs crates/engine/src/optimizer/mod.rs)"
printf '    %-22s %6d\n' ci.sh "$(wc -l < ci.sh)"

echo "==> OK"
