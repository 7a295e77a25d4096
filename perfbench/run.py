#!/usr/bin/env python3
"""Builds the dexa end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload resume_durable --seed 1 \
        --seconds 10 --trace 0

The dexa libraries and the benchmark binary are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The run works
in .bench_work/, on the filesystem of the checkout. Every line the benchmark
prints starts with "# " except the last, which is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics BENCHMARK.json declares (--trace 0) or its
per_layer metrics (--trace 1). A per-layer metric of a layer the workload
never enters (IDLE_LAYERS) reads 0; any other per-layer metric the workload
does not measure reads NOT_MEASURED. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Per-layer metrics (name prefixes) of layers that do no work in a workload,
# so 0 is their true value: an in-memory run has no journal, only
# serve_annotate runs the daemon, and every run it serves is in memory.
IDLE_LAYERS = {
    "annotate_inmem": ("journal.", "codec.", "serve."),
    "resume_durable": ("serve.",),
    "serve_annotate": ("journal.", "codec.", "io_env."),
}
# Value of a per-layer metric whose layer works in the workload but is not
# timed by it (e.g. io_env inside the serve daemon, which has no IoEnv seam).
NOT_MEASURED = -1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "dexa_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)
    return os.path.join(build_dir, "dexa_perfbench")


def select_metrics(result, declared, workload, trace):
    """The declared metrics, in declaration order, from the run's result."""
    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name)
        if value is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured", 1)
            if name.startswith(IDLE_LAYERS[workload]):
                print(f"# metric {name} = 0 {unit} (layer idle in {workload})")
                value = {"value": 0, "unit": unit}
            else:
                print(f"# metric {name} = {NOT_MEASURED} {unit} "
                      f"(not measured by {workload})")
                value = {"value": NOT_MEASURED, "unit": unit}
        elif value["unit"] != unit:
            fail(f"metric {name} measured in {value['unit']}, declared {unit}",
                 1)
        metrics[name] = value
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("dexa sources not found: run from the repository root")

    binary = build(root)
    work_dir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} failed with exit code {done.returncode}",
             done.returncode or 1)
    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(result, declared, args.workload, args.trace),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
