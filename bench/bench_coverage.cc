// Regenerates the Section 4.3 coverage result: all input partitions covered
// by the generated data examples, with 19 modules whose output partitions
// are only partially covered. Micro-benchmarks the coverage analyzer.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/coverage.h"

namespace dexa {
namespace {

void PrintCoverage(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();
  CoverageAnalyzer analyzer(env.cache);
  size_t inputs_fully = 0;
  std::vector<std::string> exceptions;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    CoverageReport report = analyzer.Analyze(
        module->spec(), env.corpus.registry->DataExamplesOf(id));
    if (report.inputs_fully_covered()) ++inputs_fully;
    if (!report.outputs_fully_covered()) {
      exceptions.push_back(module->spec().name);
    }
  }
  TablePrinter table({"Coverage result", "dexa", "paper"});
  table.AddRow({"modules with all input partitions covered",
                std::to_string(inputs_fully) + "/252", "252/252"});
  table.AddRow({"modules with all output partitions covered",
                std::to_string(252 - exceptions.size()) + "/252", "233/252"});
  table.AddRow({"output-coverage exceptions",
                std::to_string(exceptions.size()), "19"});
  table.Print(std::cout, "Section 4.3: partition coverage.");
  std::cout << "Exceptions:";
  for (const std::string& name : exceptions) std::cout << " " << name;
  std::cout << "\n(paper names get_genes_by_enzyme, link and binfo among "
               "them)\n\n";

  report.Add("inputs_fully_covered", static_cast<double>(inputs_fully),
             "count");
  report.Add("output_exceptions", static_cast<double>(exceptions.size()),
             "count");
}

void BM_AnalyzeCoverage(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  CoverageAnalyzer analyzer(env.cache);
  std::vector<ModulePtr> modules = env.corpus.registry->AvailableModules();
  for (auto _ : state) {
    size_t covered = 0;
    for (const ModulePtr& module : modules) {
      CoverageReport report = analyzer.Analyze(
          module->spec(),
          env.corpus.registry->DataExamplesOf(module->spec().id));
      covered += report.covered_partitions();
    }
    benchmark::DoNotOptimize(covered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(modules.size()));
}
BENCHMARK(BM_AnalyzeCoverage);

void BM_PartitionModule(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  DomainPartitioner partitioner(env.cache);
  ModulePtr module = *env.corpus.registry->FindByName("EBI_ExtractPrimaryId");
  for (auto _ : state) {
    ModulePartitions partitions = partitioner.PartitionModule(module->spec());
    benchmark::DoNotOptimize(partitions.TotalCount());
  }
}
BENCHMARK(BM_PartitionModule);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("coverage");
  dexa::PrintCoverage(report);
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
