#!/usr/bin/env bash
# Local CI: formatting, lints, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release (workspace, then the frozen benchmark harness against it)"
cargo build --release --workspace
# perf/ compiles against the crates' public API and may not be edited to
# follow them: an API break must be the first failure, not the last
# (perf/check.sh reuses this build at the end).
cargo build --release --manifest-path perf/Cargo.toml

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cv-chaos smoke sweep (fixed seed; nonzero exit on divergence)"
cargo run --release -q --bin cv-chaos -- --days 3 --scale 0.05 --seed 1 \
  > /dev/null || { echo "cv-chaos: fault sweep diverged"; exit 1; }

echo "==> cv-chaos crash-recovery gate (kill mid-write, replay to byte-identical state)"
crash_dir="$(mktemp -d)"
cargo run --release -q --bin cv-chaos -- --crash --days 2 --scale 0.05 --seed 42 \
  --store-dir "$crash_dir/store" --json "$crash_dir/crash.json" \
  > /dev/null || { echo "cv-chaos: crash recovery diverged"; rm -rf "$crash_dir"; exit 1; }
python3 - "$crash_dir/crash.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["recoveries"] > 0, "no recoveries exercised"
assert r["digest_divergences"] == 0, "crash recovery changed a result digest"
assert r["wal_records_replayed"] > 0, "no WAL records replayed"
assert r["wal_records_skipped"] > 0, "torn-write sweep skipped no records on replay"
assert r["violations"] == [], f"violations: {r['violations']}"
print(f"    crash gate OK ({r['store_crashes']} crashes, {r['recoveries']} recoveries, "
      f"{r['wal_records_replayed']} replayed, {r['wal_records_skipped']} torn skipped)")
EOF
rm -rf "$crash_dir"

echo "==> cv-serve smoke gate (digest equality + trace structure across worker counts)"
trace_json="$(mktemp)"
metrics_json="$(mktemp)"
cargo run --release -q --bin cv-serve -- --days 3 --scale 0.05 --analytics 12 \
  --seed 42 --workers 8 --min-speedup auto --bench BENCH_service.json \
  --op-state-cache --trace "$trace_json" --metrics "$metrics_json" \
  > /dev/null || { echo "cv-serve: service contract violated"; exit 1; }

echo "==> trace + bench artifact validation"
python3 - "$trace_json" "$metrics_json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
assert all("name" in e and e["ph"] in ("X", "i") for e in events), "malformed trace event"
assert {e["pid"] for e in events} >= {1, 2}, "service or cluster timeline missing"
metrics = json.load(open(sys.argv[2]))
for key in ("op_state.hits", "op_state.misses", "op_state.published",
            "op_state.cross_job_hits", "op_state.evicted", "op_state.purged"):
    assert key in metrics, f"metrics dump missing {key}"
bench = json.load(open("BENCH_service.json"))
phases = bench["phase_wall_seconds"]
for key in ("compile", "execute_parallel", "execute_pool", "commit", "pool_overhead"):
    assert key in phases, f"phase_wall_seconds missing {key}"
assert bench["digests_match_sequential"] is True, "digest contract violated"
# Pool accounting contract: overhead is the residue around the parallel
# phase (both measured from the ready-barrier epoch) and must stay below it
# — a wall-clock bound over ~3 ms, enforced where cv-serve enforces its own
# (>= 4 hardware threads, the morsel gate's predicate).
if bench["host_parallelism"] >= 4:
    assert phases["pool_overhead"] < phases["execute_parallel"], \
        f"pool overhead {phases['pool_overhead']} not below parallel wall {phases['execute_parallel']}"
# Morsel scaling curve: 1/2/4/8-worker points, digest parity at every one;
# the speedup bound (>1.5x at 4+ workers) binds only on multi-core hosts.
scaling = bench["scaling"]
assert scaling["chunks"] > 1, "scaling leg did not actually chunk the query"
assert scaling["digests_agree"] is True, "morsel scheduling changed results"
workers = [p["workers"] for p in scaling["points"]]
assert workers == [1, 2, 4, 8], f"scaling curve has wrong worker counts: {workers}"
assert all(p["digest_matches_serial"] for p in scaling["points"]), \
    "a scaling point diverged from the serial digest"
assert all(p["wall_seconds"] > 0 for p in scaling["points"]), "empty scaling measurement"
if bench["host_parallelism"] >= 4:
    assert scaling["speedup_gate_enforced"] is True, "speedup gate skipped on a multi-core host"
    assert scaling["speedup_at_4w"] > 1.5, \
        f"morsel speedup {scaling['speedup_at_4w']:.2f}x below 1.5x at 4+ workers"
    scaling_note = f"speedup {scaling['speedup_at_4w']:.2f}x at 4w"
else:
    scaling_note = f"speedup gate skipped ({bench['host_parallelism']} hw thread(s))"
store = bench["store"]
assert store["digests_match_sequential"] is True, "durable-store digest contract violated"
assert store["bytes_written_durably"] > 0, "durable leg wrote nothing"
assert store["wal_records_written"] > 0, "durable leg logged no WAL records"
# Operator-state cache leg: recurring jobs must reuse breaker state built
# by *other* jobs, skip real build wall time, and never move a digest —
# checked at 1 worker and at 8 workers against the cache-off reference.
op = bench["op_state"]
assert op["enabled"] is True, "op-state leg did not run"
assert op["cross_job_hits"] > 0, "no cross-job operator-state hits at seed 42"
assert op["build_wall_avoided_seconds"] > 0, "op-state cache avoided no build wall"
assert op["digests_match_off_1w"] is True, "op-state cache moved 1-worker digests"
assert op["digests_match_off_nw"] is True, "op-state cache moved 8-worker digests"
assert op["digest_checksum_on_1w"] == op["digest_checksum_off"], \
    "1-worker cache-on checksum diverges from cache-off"
assert op["digest_checksum_on_nw"] == op["digest_checksum_off"], \
    "8-worker cache-on checksum diverges from cache-off"
assert op["resident_bytes"] <= op["budget_bytes"], "op-state cache blew its budget"
print(f"    trace OK ({len(events)} events), phase breakdown OK, durable store OK, "
      f"scaling OK ({scaling['chunks']} chunks, {scaling_note}), "
      f"op-state OK ({op['hits']} hits, {op['cross_job_hits']} cross-job, "
      f"{op['build_wall_avoided_seconds']*1e3:.2f}ms build wall avoided)")
EOF
rm -f "$trace_json" "$metrics_json"

echo "==> chunk-size parity gate (same workload, different morsel granularity)"
chunk_bench="$(mktemp)"
cargo run --release -q --bin cv-serve -- --days 3 --scale 0.05 --analytics 12 \
  --seed 42 --workers 8 --chunk-size 333 --min-speedup auto --bench "$chunk_bench" \
  > /dev/null || { echo "cv-serve: chunk-size 333 run violated a contract"; exit 1; }
python3 - "$chunk_bench" <<'EOF'
import json, sys
a = json.load(open("BENCH_service.json"))
b = json.load(open(sys.argv[1]))
assert b["chunk_size"] == 333, "chunk-size flag did not take"
assert a["digest_checksum"] == b["digest_checksum"], \
    "chunk size changed result digests (2048 vs 333)"
print(f"    chunk parity OK (checksum {a['digest_checksum'][:16]}… at chunk 2048 == 333)")
EOF
rm -f "$chunk_bench"

echo "==> containment gate (semantic on/off digest parity + compensated hits)"
cargo run --release -q --bin cv-analyze -- --containment --days 4 --scale 0.05 \
  --seed 42 --json BENCH_reuse.json \
  > /dev/null || { echo "cv-analyze: containment audit failed"; exit 1; }

echo "==> reuse bench artifact validation"
python3 - <<'EOF'
import json
bench = json.load(open("BENCH_reuse.json"))
assert bench["mode"] == "containment", "wrong bench artifact"
for key in ("jobs", "views_reused", "views_reused_exact", "views_reused_semantic",
            "exact_hit_rate", "compensated_hit_rate", "semantic_considered",
            "semantic_proven", "semantic_vetoed", "vetoes_by_code"):
    assert key in bench, f"BENCH_reuse.json missing {key}"
assert bench["digests_match"] is True, "semantic matching changed a result digest"
assert bench["failed_jobs"] == 0, "containment audit had failed jobs"
assert bench["views_reused_semantic"] > 0, "no compensated hits on the seeded workload"
assert bench["views_reused_exact"] + bench["views_reused_semantic"] == bench["views_reused"], \
    "exact/compensated split does not add up"
assert bench["semantic_proven"] >= bench["views_reused_semantic"], \
    "fewer proofs than compensated hits"
assert bench["views_reused"] >= bench["baseline_views_reused"], \
    "semantic matching lowered the reuse hit count"
assert bench["durable_digests_match"] is True, "durable store changed a result digest"
assert bench["store"]["bytes_written_durably"] > 0, "durable leg wrote nothing"
print(f"    reuse bench OK ({bench['views_reused_exact']} exact + "
      f"{bench['views_reused_semantic']} compensated hits, "
      f"{bench['semantic_vetoed']} vetoes)")
EOF

echo "==> ivm gate (incremental maintenance vs full-rebuild digest parity)"
cargo run --release -q --bin cv-analyze -- --ivm --days 4 --scale 0.1 \
  --seed 42 --json BENCH_ivm.json \
  > /dev/null || { echo "cv-analyze: ivm audit failed"; exit 1; }

echo "==> ivm bench artifact validation"
python3 - <<'EOF'
import json
bench = json.load(open("BENCH_ivm.json"))
assert bench["mode"] == "ivm", "wrong bench artifact"
for key in ("jobs", "failed_jobs", "digests_match", "ivm", "rows_touched_total",
            "savings_ratio", "obs_counters"):
    assert key in bench, f"BENCH_ivm.json missing {key}"
assert bench["digests_match"] is True, "incremental maintenance changed a result digest"
assert bench["failed_jobs"] == 0, "ivm audit had failed jobs"
ivm = bench["ivm"]
assert ivm["maintained"] > 0, "no views were maintained incrementally"
assert ivm["rows_maintained"] < ivm["rows_rebuild_baseline"], \
    "maintenance did not beat the rebuild baseline"
assert 0.0 < bench["savings_ratio"] < 1.0, \
    f"savings ratio {bench['savings_ratio']} out of range"
assert bench["obs_counters"]["ivm.maintained"] == ivm["maintained"], \
    "obs counter disagrees with driver stats"
print(f"    ivm bench OK ({ivm['maintained']} maintained, {ivm['rebuilt']} fallback "
      f"rebuilds, {ivm['refused']} CV07x-refused, ratio {bench['savings_ratio']:.3f})")
EOF

echo "==> kernels microbench smoke gate (typed engine kernels)"
# To a scratch file: the committed BENCH_engine.json is the full-size run
# (10^4-10^6 rows) with the parent commit's rates embedded as its baseline.
engine_bench="$(mktemp)"
cargo run --release -q -p cv-bench --bin kernels -- --smoke --out "$engine_bench" \
  > /dev/null || { echo "kernels: microbench failed"; exit 1; }

echo "==> engine bench artifact validation"
python3 - "$engine_bench" <<'EOF'
import json, sys
KERNELS = ("filter", "filter_str_eq", "filter_wide", "project", "hash_join", "merge_join",
           "hash_aggregate", "hash_aggregate_high", "sort", "sort_desc_float", "digest",
           "store_decode", "udo")
bench = json.load(open(sys.argv[1]))
assert bench["name"] == "kernels_microbench", "wrong bench artifact"
assert bench["smoke"] is True, "smoke run must be marked as such"
assert bench["sizes"], "no sizes measured"
for kernel in KERNELS:
    rates = bench["kernels"][kernel]
    assert rates, f"kernel {kernel} has no measurements"
    for size, rate in rates.items():
        assert rate > 0, f"kernel {kernel} measured zero throughput at {size} rows"
committed = json.load(open("BENCH_engine.json"))
assert committed["smoke"] is False, "BENCH_engine.json must be a full-size run"
for kernel in KERNELS:
    assert kernel in committed["kernels"], f"BENCH_engine.json lacks kernel {kernel}"
    assert kernel in committed["speedup_vs_baseline"], \
        f"BENCH_engine.json records no baseline for {kernel}"
print(f"    engine bench OK ({len(bench['kernels'])} kernels)")
EOF
rm -f "$engine_bench"

echo "==> perf/check.sh (the benchmark at smoke size: every workload, every output checked)"
perf/check.sh

echo "==> size: non-test code lines per crate (report only, no gate)"
# Each src/**/*.rs up to its first #[cfg(test)], blank and // lines dropped.
total=0
for dir in crates/*/src src; do
    n=$(find "$dir" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*($|\/\/)/ { next }
        { n++ }
        END { print n + 0 }')
    printf '    %-22s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '    %-22s %6d\n' total "$total"

echo "==> OK"
