// Tracing-overhead harness for the obs subsystem: runs the
// AnnotateRegistry workload (8-thread engine, fresh corpus per rep) with
// tracing off and with a live Tracer + exporters, takes min-of-reps wall
// time per arm, and checks the traced arm stays within the <5% overhead
// budget. Also re-asserts the golden-trace property end to end: every
// traced rep serializes to byte-identical Chrome-trace JSON. Emits
// BENCH_trace_overhead.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/example_generator.h"
#include "durability/evaluation_env.h"
#include "engine/invocation_engine.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace dexa {
namespace {

constexpr size_t kThreads = 8;
constexpr int kReps = 5;
constexpr double kOverheadBudget = 0.05;

struct OverheadRun {
  double elapsed_ms = 0.0;  ///< Annotate wall time; excludes the export.
  double export_ms = 0.0;   ///< One-shot WriteChromeTrace cost at run end.
  size_t modules_annotated = 0;
  std::string trace_json;  ///< Empty for the untraced arm.
};

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "trace-overhead bench failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

/// One annotate pass over a fresh corpus; `traced` decides whether a
/// Tracer rides along. The in-run tracing cost is what the <5% budget
/// covers; the one-shot export at run end is timed separately (it happens
/// once, after the work, and scales with trace size, not workload).
OverheadRun RunOnce(bool traced) {
  auto env = BuildEvaluationEnv();
  if (!env.ok()) Die("BuildEvaluationEnv", env.status());

  InvocationEngine engine(EngineOptions{.threads = kThreads});
  ExampleGenerator generator(env->cache, env->pool.get(), GeneratorOptions{},
                             &engine);
  obs::Tracer tracer(&engine.clock());

  OverheadRun run;
  auto start = std::chrono::steady_clock::now();
  auto annotated = AnnotateRegistry(generator, *env->corpus.registry,
                                    traced ? &tracer : nullptr);
  auto end = std::chrono::steady_clock::now();
  if (traced) {
    run.trace_json = obs::WriteChromeTrace(tracer);
    run.export_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - end)
                        .count();
  }
  if (!annotated.ok()) Die("AnnotateRegistry", annotated.status());
  if (!annotated->complete()) {
    Die("AnnotateRegistry aborted", annotated->run_status);
  }
  run.modules_annotated = annotated->annotated;
  run.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return run;
}

int RunComparison() {
  double plain_min = std::numeric_limits<double>::infinity();
  double traced_min = std::numeric_limits<double>::infinity();
  double export_min = std::numeric_limits<double>::infinity();
  size_t modules = 0;
  size_t trace_bytes = 0;
  std::string golden_trace;
  bool traces_identical = true;

  // Interleave the arms so drift (cache warmup, CPU frequency) hits both.
  for (int rep = 0; rep < kReps; ++rep) {
    OverheadRun plain = RunOnce(false);
    OverheadRun traced = RunOnce(true);
    plain_min = std::min(plain_min, plain.elapsed_ms);
    traced_min = std::min(traced_min, traced.elapsed_ms);
    export_min = std::min(export_min, traced.export_ms);
    modules = traced.modules_annotated;
    trace_bytes = traced.trace_json.size();
    if (golden_trace.empty()) {
      golden_trace = traced.trace_json;
    } else if (traced.trace_json != golden_trace) {
      traces_identical = false;
    }
  }

  const double overhead =
      plain_min > 0.0 ? (traced_min - plain_min) / plain_min : 0.0;
  const bool within_budget = overhead < kOverheadBudget;

  TablePrinter table({"arm", "modules annotated", "wall time min (ms)"});
  table.AddRow({"tracing off", std::to_string(modules),
                FormatFixed(plain_min, 1)});
  table.AddRow({"tracing + export", std::to_string(modules),
                FormatFixed(traced_min, 1)});
  table.Print(std::cout,
              "AnnotateRegistry with and without a live Tracer (min of " +
                  std::to_string(kReps) + " reps, threads=" +
                  std::to_string(kThreads) + ").");
  std::cout << "trace size: " << trace_bytes << " bytes\n"
            << "one-shot export: " << FormatFixed(export_min, 2)
            << " ms (outside the in-run budget)\n"
            << "overhead: " << FormatFixed(overhead * 100.0, 2) << "% (budget "
            << FormatFixed(kOverheadBudget * 100.0, 0) << "%) — "
            << (within_budget ? "within budget" : "OVER BUDGET") << "\n"
            << "traced reps byte-identical: "
            << (traces_identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n\n";

  bench_env::BenchReport report("trace_overhead", kThreads);
  report.Add("annotate_ms_plain", plain_min, "ms");
  report.Add("annotate_ms_traced", traced_min, "ms");
  report.Add("export_ms", export_min, "ms");
  report.Add("overhead_ratio", overhead, "ratio");
  report.Add("overhead_budget", kOverheadBudget, "ratio");
  report.Add("within_budget", within_budget ? 1.0 : 0.0, "bool");
  report.Add("traces_identical", traces_identical ? 1.0 : 0.0, "bool");
  report.Add("trace_bytes", static_cast<double>(trace_bytes), "count");
  report.Add("modules_annotated", static_cast<double>(modules), "count");
  report.Add("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()),
             "count");
  report.Write();

  return (within_budget && traces_identical) ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunComparison(); }
