// Per-layer reporting shared by the traced runs of the annotate and resume
// workloads.

#include <cstdio>

#include "workloads.h"

namespace perfbench {


void CaptureLayers(const ModuleLedger& modules,
                   const dexa::EngineMetricsSnapshot& before,
                   const dexa::AnnotateReport& result, TracedRun* traced) {
  const dexa::EngineMetricsSnapshot& after = result.metrics;
  const auto generate = static_cast<size_t>(dexa::EnginePhase::kGenerate);
  traced->invocations = modules.invocations.load();
  traced->invoke_errors = modules.errors.load();
  traced->invoke_busy_ms = modules.busy_ns.load() / 1e6;
  traced->generate_window_ms = modules.window_ns() / 1e6;
  traced->engine_batches = after.batches - before.batches;
  traced->engine_generate_ms =
      (after.phase_nanos[generate] - before.phase_nanos[generate]) / 1e6;
  traced->cache_queries = after.cache_queries - before.cache_queries;
  traced->cache_hits = after.cache_hits - before.cache_hits;
  traced->examples = result.examples;
}

double ReportCommonLayers(Report& report, const std::vector<TracedRun>& traced,
                          double untraced_ms, size_t live_modules) {
  const double traced_ms =
      MedianOf(traced, [](const TracedRun& r) { return r.wall_ms; });
  std::vector<double> walls;
  for (const TracedRun& run : traced) walls.push_back(run.wall_ms);
  report.Timing("traced_run_ms", "ms", walls);
  report.Metric("trace.overhead_frac", (traced_ms - untraced_ms) / untraced_ms,
                "ratio");

  // Counts repeat exactly from run to run; report the last run's.
  const TracedRun& last = traced.back();
  report.Metric("modules.invocations", last.invocations, "count");
  report.Metric("modules.invoke_busy_ms",
                MedianOf(traced, [](const TracedRun& r) {
                  return r.invoke_busy_ms;
                }),
                "ms");
  report.Metric("modules.invoke_errors", last.invoke_errors, "count");

  report.Metric("engine.batches", last.engine_batches, "count");
  report.Metric("engine.generate_busy_ms",
                MedianOf(traced, [](const TracedRun& r) {
                  return r.engine_generate_ms;
                }),
                "ms");
  report.Metric("engine.cache_queries", last.cache_queries, "count");
  report.Metric("engine.cache_hit_ratio",
                last.cache_queries == 0
                    ? 0.0
                    : static_cast<double>(last.cache_hits) / last.cache_queries,
                "ratio");
  report.Note("engine.cache_hit_ratio base: " +
              std::to_string(last.cache_hits) + " hits of " +
              std::to_string(last.cache_queries) + " queries");

  report.Metric("core.examples_per_invocation",
                last.invocations == 0
                    ? 0.0
                    : static_cast<double>(last.examples) / last.invocations,
                "ratio");
  report.Note("core.examples_per_invocation base: " +
              std::to_string(last.examples) + " examples kept of " +
              std::to_string(last.invocations) + " invocations");

  const double sync_ms =
      MedianOf(traced, [](const TracedRun& r) { return r.io.sync_ns / 1e6; });
  report.Metric("io_env.append_calls", last.io.append_calls, "count");
  report.Metric("io_env.append_ms",
                MedianOf(traced, [](const TracedRun& r) {
                  return r.io.append_ns / 1e6;
                }),
                "ms");
  report.Metric("io_env.append_bytes", last.io.append_bytes, "B");
  report.Metric("io_env.sync_calls", last.io.sync_calls, "count");
  report.Metric("io_env.sync_ms", sync_ms, "ms");
  report.Metric("io_env.syncs_per_module",
                static_cast<double>(last.io.sync_calls) / live_modules,
                "ratio");
  report.Metric("io_env.sync_share", sync_ms / traced_ms, "ratio");
  report.Metric("io_env.read_ms",
                MedianOf(traced, [](const TracedRun& r) {
                  return r.io.read_ns / 1e6;
                }),
                "ms");
  report.Metric("io_env.read_bytes", last.io.read_bytes, "B");
  return traced_ms;
}

void ReportLedger(Report& report, double wall_ms,
                  const std::vector<std::pair<std::string, double>>& parts) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "ledger of the traced run (medians; %.3f ms wall):", wall_ms);
  report.Note(line);
  double covered = 0.0;
  for (const auto& [name, ms] : parts) {
    covered += ms;
    std::snprintf(line, sizeof(line), "  %-40s %10.3f ms %6.1f%%",
                  name.c_str(), ms, 100.0 * ms / wall_ms);
    report.Note(line);
  }
  const double rest = wall_ms - covered;
  std::snprintf(line, sizeof(line), "  %-40s %10.3f ms %6.1f%%",
                "unattributed", rest, 100.0 * rest / wall_ms);
  report.Note(line);
  report.Metric("trace.unattributed_frac", rest / wall_ms, "ratio");
}

}  // namespace perfbench
