#!/usr/bin/env bash
# Builds the engine-facing tests under ThreadSanitizer and runs them.
# The invocation engine is the only place dexa shares mutable state across
# threads (work queue, metrics, virtual clock, breaker map, commit hook),
# so engine_test and fault_test (retries, breakers and fault injection
# under the pooled engine) plus generator_test (which drives the engine
# through AnnotateRegistry) cover the racy surface. durability_test
# exercises the journaled commit path under the 8-thread engine, io_test
# the corruption-hardened readers it recovers through, and obs_test the
# Tracer (mutex-guarded span log) riding along pooled annotate runs.
#
# This is the ThreadSanitizer leg of the three-sanitizer gate; the
# one-command entry point is tools/check_static.sh, which runs dexa-lint
# plus the tier-1 suite under ASan and UBSan. This script stays as-is for
# compatibility with existing CI wiring.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDEXA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target engine_test generator_test fault_test \
  durability_test io_test obs_test kbimage_test serve_test run_api_test \
  chaos_test shard_test -j"$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
"$BUILD_DIR/tests/engine_test"
"$BUILD_DIR/tests/generator_test"
"$BUILD_DIR/tests/fault_test"
"$BUILD_DIR/tests/durability_test"
"$BUILD_DIR/tests/io_test"
"$BUILD_DIR/tests/obs_test"
# kbimage_test: the ConceptCache shared across engine threads reads a
# CompiledKb (mapped or compiled in memory) with no lock; the equivalence
# sweep runs here so TSan sees both read paths.
"$BUILD_DIR/tests/kbimage_test"
# run_api_test + serve_test: the RunRequest facade and the run-manager
# daemon fan concurrent runs (separate registries, one shared engine and
# concept cache) over the pool — the serve layer's entire racy surface.
"$BUILD_DIR/tests/run_api_test"
"$BUILD_DIR/tests/serve_test"
# chaos_test: concurrent tenants over the shared engine while per-run
# FaultyIoEnvs inject disk faults — the degraded paths (typed failure,
# resume after restart) run under TSan here.
"$BUILD_DIR/tests/chaos_test"
# shard_test: whole-shard runs fanned out over the orchestrator engine
# (concurrent durable runs, parallel journal recovery in the merge) —
# the sharded runner's racy surface.
"$BUILD_DIR/tests/shard_test"

echo "TSan check passed."
