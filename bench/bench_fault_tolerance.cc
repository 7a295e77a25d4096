// Acceptance harness for the fault-tolerance layer: sweeps the injected
// transient-fault rate over {0, 0.1, 0.2, 0.5} with retries off and on,
// annotates a fault-wrapped copy of the corpus registry for each cell, and
// reports how much of the fault-free annotation survives. The acceptance
// criterion is the recovery row: at a 20% transient rate, 4 attempts must
// recover >= 95% of the fault-free examples. Emits
// BENCH_fault_tolerance.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "corpus/fault_injector.h"
#include "engine/invocation_engine.h"
#include "provenance/workflow_corpus.h"

namespace dexa {
namespace {

constexpr size_t kThreads = 8;

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "fault-tolerance bench failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

struct SweepCell {
  double fault_rate = 0.0;
  bool retries = false;
  double elapsed_ms = 0.0;
  size_t examples = 0;
  size_t annotated = 0;
  size_t transient_exhausted = 0;
  uint64_t injected_faults = 0;
  uint64_t engine_retries = 0;
};

/// Annotates a fault-wrapped copy of the environment registry with the
/// given transient rate and retry setting.
SweepCell RunCell(const EvaluationEnv& env, double fault_rate, bool retries) {
  SweepCell cell;
  cell.fault_rate = fault_rate;
  cell.retries = retries;

  EngineConfig config = EngineConfig()
                            .Threads(kThreads)
                            .MaxAttempts(retries ? 4 : 1);
  auto engine = config.BuildEngine();

  FaultProfile profile;
  profile.seed = 0xFA17;
  profile.transient_rate = fault_rate;
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, profile,
                                        &engine->metrics());
  if (!wrapped.ok()) Die("WrapRegistryWithFaults", wrapped.status());

  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());

  auto start = std::chrono::steady_clock::now();
  auto report = AnnotateRegistry(generator, **wrapped);
  auto end = std::chrono::steady_clock::now();
  if (!report.ok()) Die("AnnotateRegistry", report.status());
  if (!report->complete()) Die("AnnotateRegistry aborted", report->run_status);

  cell.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  cell.examples = report->examples;
  cell.annotated = report->annotated;
  cell.transient_exhausted = report->transient_exhausted;
  EngineMetricsSnapshot metrics = engine->metrics().Snapshot();
  cell.injected_faults = metrics.injected_faults;
  cell.engine_retries = metrics.retries;
  return cell;
}

std::string CellLabel(const SweepCell& cell) {
  std::string label = "rate=" + FormatFixed(cell.fault_rate, 1);
  label += cell.retries ? " retries=on" : " retries=off";
  return label;
}

int RunSweep() {
  const auto& env = bench_env::GetEnvironment();
  const std::vector<double> rates = {0.0, 0.1, 0.2, 0.5};

  std::vector<SweepCell> cells;
  for (double rate : rates) {
    cells.push_back(RunCell(env, rate, /*retries=*/false));
    cells.push_back(RunCell(env, rate, /*retries=*/true));
  }
  const size_t baseline = cells.front().examples;  // rate=0, retries off.
  if (baseline == 0) Die("baseline", Status::Internal("no examples"));

  TablePrinter table({"configuration", "examples", "completeness",
                      "lost to faults", "retries", "injected faults",
                      "wall time (ms)"});
  for (const SweepCell& cell : cells) {
    double completeness =
        static_cast<double>(cell.examples) / static_cast<double>(baseline);
    table.AddRow({CellLabel(cell), std::to_string(cell.examples),
                  FormatFixed(100.0 * completeness, 1) + "%",
                  std::to_string(cell.transient_exhausted),
                  std::to_string(cell.engine_retries),
                  std::to_string(cell.injected_faults),
                  FormatFixed(cell.elapsed_ms, 1)});
  }
  table.Print(std::cout,
              "Annotation completeness under injected transient faults.");

  // Acceptance: rate=0.2 with retries recovers >= 95% of the baseline.
  double recovery_at_20 = 0.0;
  for (const SweepCell& cell : cells) {
    if (cell.fault_rate == 0.2 && cell.retries) {
      recovery_at_20 =
          static_cast<double>(cell.examples) / static_cast<double>(baseline);
    }
  }
  const bool accepted = recovery_at_20 >= 0.95;
  std::cout << "recovery at rate=0.2 with retries: "
            << FormatFixed(100.0 * recovery_at_20, 2) << "% ("
            << (accepted ? "meets" : "MISSES") << " the 95% bar)\n\n";

  bench_env::BenchReport report("fault_tolerance", kThreads);
  report.Add("baseline_examples", static_cast<double>(baseline), "count");
  for (const SweepCell& cell : cells) {
    std::string key = "rate" + FormatFixed(cell.fault_rate, 1) +
                      (cell.retries ? "_retries" : "_failfast");
    report.Add(key + "_examples", static_cast<double>(cell.examples),
               "count");
    report.Add(key + "_completeness",
               static_cast<double>(cell.examples) /
                   static_cast<double>(baseline),
               "ratio");
    report.Add(key + "_ms", cell.elapsed_ms, "ms");
  }
  report.Add("recovery_at_rate0.2_retries", recovery_at_20, "ratio");
  report.Add("accepted", accepted ? 1.0 : 0.0, "bool");
  report.Write();

  return accepted ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunSweep(); }
