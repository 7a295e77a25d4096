// Extension bench (the paper's Section 8 future work): record-linkage
// redundancy detection without ground truth, evaluated against the corpus's
// documented behavior classes.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/metrics.h"
#include "core/redundancy.h"

namespace dexa {
namespace {

void PrintRedundancy(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();

  struct Config {
    const char* label;
    RedundancyOptions options;
  };
  const Config kConfigs[] = {
      {"shape features only", {false, false, false}},
      {"+ output/input relations", {true, false, false}},
      {"+ magnitude buckets", {true, true, false}},
      {"+ namespace qualifiers (default)", {true, true, true}},
  };

  TablePrinter table({"feature set", "predicted redundant (truth: 173)",
                      "exact modules", "precision", "recall"});
  for (const Config& config : kConfigs) {
    RedundancyDetector detector(config.options);
    size_t tp = 0, fp = 0, fn = 0;
    size_t predicted_redundant = 0, exact_modules = 0;
    for (const std::string& id : env.corpus.available_ids) {
      ModulePtr module = *env.corpus.registry->Find(id);
      const DataExampleSet& examples = env.corpus.registry->DataExamplesOf(id);
      RedundancyReport report = detector.Detect(module->spec(), examples);
      auto metrics = EvaluateBehaviorMetrics(*module, examples);
      auto quality = EvaluateRedundancyDetection(*module, examples, report);
      if (!metrics.ok() || !quality.ok()) continue;
      predicted_redundant += report.predicted_redundant(examples.size());
      tp += quality->true_positive_pairs;
      fp += quality->false_positive_pairs;
      fn += quality->false_negative_pairs;
      if (report.predicted_redundant(examples.size()) ==
          static_cast<size_t>(metrics->redundant_examples)) {
        ++exact_modules;
      }
    }
    double precision = tp + fp == 0
                           ? 1.0
                           : static_cast<double>(tp) / static_cast<double>(tp + fp);
    double recall = tp + fn == 0
                        ? 1.0
                        : static_cast<double>(tp) / static_cast<double>(tp + fn);
    table.AddRow({config.label, std::to_string(predicted_redundant),
                  std::to_string(exact_modules) + "/252",
                  FormatFixed(precision, 3), FormatFixed(recall, 3)});
    if (&config == &kConfigs[3]) {  // The default feature set.
      report.Add("predicted_redundant",
                 static_cast<double>(predicted_redundant), "count");
      report.Add("precision", precision, "ratio");
      report.Add("recall", recall, "ratio");
    }
  }
  table.Print(std::cout,
              "Section 8 extension: record-linkage redundancy detection "
              "(feature ablation).");
  std::cout << "(richer fingerprints trade recall for precision; the "
               "relation features are what separate true duplicates from "
               "coincidental shape matches)\n\n";
}

void BM_DetectRedundancy(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  RedundancyDetector detector;
  std::vector<ModulePtr> modules = env.corpus.registry->AvailableModules();
  for (auto _ : state) {
    size_t clusters = 0;
    for (const ModulePtr& module : modules) {
      RedundancyReport report = detector.Detect(
          module->spec(),
          env.corpus.registry->DataExamplesOf(module->spec().id));
      clusters += report.clusters.size();
    }
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(modules.size()));
}
BENCHMARK(BM_DetectRedundancy);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("redundancy");
  dexa::PrintRedundancy(report);
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
