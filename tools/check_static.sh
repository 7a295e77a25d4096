#!/usr/bin/env bash
# The one-command static + dynamic gate:
#
#   1. schema check over every committed BENCH_*.json (stale or
#      hand-edited bench output fails the gate);
#   2. dexa-lint over src/ tests/ bench/ tools/ examples/ (must be clean);
#   3. the tier-1 ctest suite built with DEXA_SANITIZE=address (which
#      also turns on the libstdc++ bounds checks, _GLIBCXX_ASSERTIONS);
#   4. the tier-1 ctest suite built with DEXA_SANITIZE=undefined
#      (every UB report is fatal: -fno-sanitize-recover).
#
# The tier-1 suite includes the observability tests (obs_test, `ctest -L
# obs`): golden-trace determinism and the exporter round-trips run under
# both ASan and UBSan here.
#
# Together with tools/check_tsan.sh (ThreadSanitizer over the concurrent
# suites) this is the full three-sanitizer gate. clang-tidy, when
# installed, is a fourth opt-in leg: tools/check_tidy.sh.
#
# Usage: tools/check_static.sh [build-dir-prefix]   (default: build-static)
#   Build trees are created at <prefix>-lint, <prefix>-asan, <prefix>-ubsan.

set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-static}"
JOBS="$(nproc)"

echo "== [1/4] committed BENCH_*.json schema =========================="
# Committed bench outputs must match the bench_env::BenchReport schema
# ({"bench","threads","metrics":[{"name","value","unit"}]}); a file from
# an older schema or a hand edit fails here before anything is built.
shopt -s nullglob
bench_jsons=(BENCH_*.json)
shopt -u nullglob
if ((${#bench_jsons[@]})); then
  python3 - "${bench_jsons[@]}" <<'PY'
import json, sys

bad = 0
for path in sys.argv[1:]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        assert isinstance(doc.get("bench"), str) and doc["bench"], "bench"
        assert isinstance(doc.get("threads"), int) and doc["threads"] >= 1, \
            "threads"
        metrics = doc.get("metrics")
        assert isinstance(metrics, list) and metrics, "metrics"
        for m in metrics:
            assert isinstance(m.get("name"), str) and m["name"], "metric name"
            assert isinstance(m.get("value"), (int, float)), "metric value"
            assert isinstance(m.get("unit"), str), "metric unit"
        expected = f"BENCH_{doc['bench']}.json"
        assert path == expected, f"filename (want {expected})"
        if doc["bench"] == "serve":
            # The serve bench must report the saturation sweep: latency at
            # the 32-client point plus the load-shedding counter.
            names = {m["name"] for m in metrics}
            required = {"p50_ms_c32", "p99_ms_c32", "runs_per_s_c32",
                        "overloaded_rejections"}
            missing = required - names
            assert not missing, f"serve metrics missing: {sorted(missing)}"
        if doc["bench"] == "lint":
            # The lint bench must report the warm-cache contract: cold and
            # warm wall time, the speedup between them, and the cost of the
            # whole-program taint pass.
            names = {m["name"] for m in metrics}
            required = {"cold_ms", "warm_ms", "warm_speedup", "taint_ms"}
            missing = required - names
            assert not missing, f"lint metrics missing: {sorted(missing)}"
            speedup = next(m["value"] for m in metrics
                           if m["name"] == "warm_speedup")
            assert speedup >= 5.0, \
                f"warm lint must be >=5x faster than cold (got {speedup}x)"
        if doc["bench"] == "scale":
            # The scale bench must report the corpus-size x shard sweep
            # summary: the acceptance corpus, the 4-shard throughput and
            # merge cost, byte-identity of every merged journal against
            # the one-shot reference, and the 4-shard speedup.
            names = {m["name"] for m in metrics}
            required = {"corpus_size", "shards", "runs_per_s", "merge_ms",
                        "byte_identical", "speedup_4_shards"}
            missing = required - names
            assert not missing, f"scale metrics missing: {sorted(missing)}"
            value = {m["name"]: m["value"] for m in metrics}
            assert value["corpus_size"] >= 10_000, \
                f"scale corpus must be >=10k modules (got {value['corpus_size']})"
            assert value["byte_identical"] == 1, \
                "sharded merge must be byte-identical to the one-shot run"
            assert value["speedup_4_shards"] >= 2.0, \
                f"4-shard throughput must be >=2x (got {value['speedup_4_shards']:.2f}x)"
        if doc["bench"] == "chaos":
            # The chaos bench must report the fault sweep: how many runs
            # were faulted, how fully they converged after resume, and the
            # recovery latency.
            names = {m["name"] for m in metrics}
            required = {"faulted_runs", "converged_fraction",
                        "recovery_ms_mean", "untyped_failures"}
            missing = required - names
            assert not missing, f"chaos metrics missing: {sorted(missing)}"
    except (OSError, ValueError, AssertionError) as err:
        print(f"STALE BENCH SCHEMA: {path}: {err}", file=sys.stderr)
        bad += 1
print(f"{len(sys.argv) - 1 - bad}/{len(sys.argv) - 1} BENCH_*.json files "
      "match the BenchReport schema")
sys.exit(1 if bad else 0)
PY
else
  echo "no committed BENCH_*.json files (run build/bench/bench_* to emit them)"
fi

echo "== [2/4] dexa-lint =============================================="
cmake -B "${PREFIX}-lint" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "${PREFIX}-lint" --target dexa-lint -j"$JOBS"
"${PREFIX}-lint/tools/dexa-lint" \
  --json="${PREFIX}-lint/lint_report.json" \
  --sarif="${PREFIX}-lint/lint_report.sarif" \
  --cache-dir="${PREFIX}-lint/lint-cache" \
  src tests bench tools examples

run_sanitized_suite() {
  local sanitizer="$1" dir="$2"
  echo "== ${sanitizer}-sanitized tier-1 suite =========================="
  cmake -B "$dir" -S . -DDEXA_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$dir" -j"$JOBS"
  (cd "$dir" && ctest --output-on-failure -j"$JOBS")
}

echo "== [3/4] AddressSanitizer ======================================="
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
  run_sanitized_suite address "${PREFIX}-asan"

echo "== [4/4] UndefinedBehaviorSanitizer ============================="
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  run_sanitized_suite undefined "${PREFIX}-ubsan"

echo "Static + sanitizer gate passed (BENCH schema ok, lint clean, ASan green, UBSan green)."
