#ifndef DEXA_PERFBENCH_WORKLOADS_H_
#define DEXA_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/example_generator.h"
#include "corpus/scale.h"
#include "engine/invocation_engine.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {

/// A measurement loop takes at least this many samples, however long.
inline constexpr size_t kMinSamples = 3;

/// The scale corpus a workload annotates, with an engine of HostThreads()
/// workers and the default generator on it.
struct ScaleFixture {
  dexa::ScaleCorpus corpus;
  std::unique_ptr<dexa::InvocationEngine> engine;
  std::unique_ptr<dexa::ExampleGenerator> generator;
  /// Wall time of BuildScaleCorpus alone.
  double corpus_build_ms = 0.0;
};

/// Builds the fixture: the scale corpus of `modules` modules from `seed`,
/// and the engine.
ScaleFixture BuildScaleFixture(uint64_t seed, size_t modules);

/// Digest of SaveAnnotations of a one-thread in-memory annotate of the
/// fixture's corpus: the bytes every measured run must reproduce.
uint64_t ReferenceAnnotations(const ScaleFixture& fixture);

/// Runs a one-thread durable annotate of the fixture's corpus into `dir`,
/// syncing once per segment; returns the digest of its registry's
/// annotations.
uint64_t ReferenceDurableRun(const ScaleFixture& fixture,
                             const std::string& dir);

/// A decomposed pass over modules [first, end) of the fixture's registry:
/// ExampleGenerator::Generate timed per module on the bench thread and,
/// with `encode`, EncodeModuleCommit timed on each outcome.
struct DecomposedPass {
  double generate_ms = 0.0;
  double encode_ms = 0.0;
  uint64_t commits = 0;
  uint64_t commit_bytes = 0;
};
DecomposedPass RunDecomposedPass(const ScaleFixture& fixture, size_t first,
                                 bool encode);

/// What one traced run measured through the bench-owned probes and the
/// engine counters.
struct TracedRun {
  /// Wall time of the whole timed operation.
  double wall_ms = 0.0;
  uint64_t invocations = 0;
  uint64_t invoke_errors = 0;
  double invoke_busy_ms = 0.0;
  /// First module invocation's start to the last one's end.
  double generate_window_ms = 0.0;
  uint64_t engine_batches = 0;
  double engine_generate_ms = 0.0;
  uint64_t cache_queries = 0;
  uint64_t cache_hits = 0;
  uint64_t examples = 0;
  uint64_t journal_records = 0;
  uint64_t journal_segments = 0;
  IoLedger io;
};

/// Fills the modules and engine fields of `traced` from the module ledger
/// and the engine counters before and after the run that produced `result`.
void CaptureLayers(const ModuleLedger& modules,
                   const dexa::EngineMetricsSnapshot& before,
                   const dexa::AnnotateReport& result, TracedRun* traced);

template <typename Field>
double MedianOf(const std::vector<TracedRun>& runs, Field field) {
  std::vector<double> values;
  for (const TracedRun& run : runs) values.push_back(field(run));
  return Median(values).value_or(0.0);
}

/// Reports trace.overhead_frac and the modules, engine, core ratio and
/// io_env metrics of `traced`. `untraced_ms` is the untraced runs' median
/// wall time; `live_modules` is how many modules each run generated and
/// committed (the base of io_env.syncs_per_module). Returns the traced
/// runs' median wall time.
double ReportCommonLayers(Report& report, const std::vector<TracedRun>& traced,
                          double untraced_ms, size_t live_modules);

/// Prints the cost ledger of a traced run — each part's time and share of
/// `wall_ms`, then the unattributed rest — and reports that rest's share as
/// trace.unattributed_frac.
void ReportLedger(Report& report, double wall_ms,
                  const std::vector<std::pair<std::string, double>>& parts);

/// `annotate_inmem`.
void RunAnnotate(const Options& options, Report& report);

/// `resume_durable`.
void RunResume(const Options& options, Report& report);

/// `serve_annotate`.
void RunServe(const Options& options, Report& report);

}  // namespace perfbench

#endif  // DEXA_PERFBENCH_WORKLOADS_H_
