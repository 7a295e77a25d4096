// Regenerates Figure 8 of the paper (modules with matching behavior among
// the unavailable ones) and the Section 6 repair counts (321 + 13 = 334
// workflows repaired, 73 partly). Micro-benchmarks matching and repair.

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench/bench_env.h"
#include "common/table.h"
#include "repair/repair.h"

namespace dexa {
namespace {

void PrintFigure8(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();
  auto matching = MatchRetiredModules(env.corpus, env.provenance, env.cache);
  if (!matching.ok()) {
    std::cerr << matching.status() << "\n";
    return;
  }
  std::cout << "Figure 8: Identifying modules with matching behavior to "
               "unavailable modules.\n";
  auto bar = [&](const char* label, size_t count) {
    std::cout << "  " << label << " " << Bar(count, matching->retired_total)
              << " " << count << "\n";
  };
  bar("equivalent behavior ", matching->with_equivalent);
  bar("overlapping behavior", matching->with_overlapping);
  bar("no suitable match   ", matching->with_none);
  std::cout << "(paper: 16 equivalent, 23 overlapping among 72 unavailable "
               "modules)\n\n";
  report.Add("equivalent", static_cast<double>(matching->with_equivalent),
             "count");
  report.Add("overlapping", static_cast<double>(matching->with_overlapping),
             "count");
  report.Add("none", static_cast<double>(matching->with_none), "count");

  auto outcome =
      RepairWorkflows(env.corpus, env.workflows, env.provenance, *matching);
  if (!outcome.ok()) {
    std::cerr << outcome.status() << "\n";
    return;
  }
  TablePrinter table({"Repair result", "dexa", "paper"});
  table.AddRow({"broken workflows", std::to_string(outcome->broken_workflows),
                "~1500"});
  table.AddRow({"repaired via equivalent substitutes",
                std::to_string(outcome->repaired_via_equivalent), "321"});
  table.AddRow({"repaired via overlapping substitutes",
                std::to_string(outcome->repaired_via_overlapping), "13"});
  table.AddRow({"repaired total", std::to_string(outcome->repaired_total),
                "334"});
  table.AddRow({"partly repaired", std::to_string(outcome->repaired_partly),
                "73"});
  table.Print(std::cout, "Section 6: curating the decayed workflow corpus.");
  std::cout << "\n";
  report.Add("broken_workflows",
             static_cast<double>(outcome->broken_workflows), "count");
  report.Add("repaired_total", static_cast<double>(outcome->repaired_total),
             "count");
  report.Add("repaired_partly", static_cast<double>(outcome->repaired_partly),
             "count");
}

/// A provenance corpus truncated to the first `max_records` invocation
/// records per module.
ProvenanceCorpus TruncateProvenance(const ProvenanceCorpus& provenance,
                                    size_t max_records) {
  ProvenanceCorpus out;
  std::map<std::string, size_t> seen;
  for (const WorkflowTrace& trace : provenance.traces()) {
    WorkflowTrace copy;
    copy.workflow_id = trace.workflow_id;
    for (const InvocationRecord& record : trace.invocations) {
      if (seen[record.module_id]++ < max_records) {
        copy.invocations.push_back(record);
      }
    }
    if (!copy.invocations.empty()) out.AddTrace(std::move(copy));
  }
  return out;
}

void PrintExampleBudgetSweep() {
  const auto& env = bench_env::GetEnvironment();
  TablePrinter table({"provenance records per module", "equivalent",
                      "overlapping", "none"});
  for (size_t budget : {1u, 2u, 4u, 8u, 16u, 64u}) {
    ProvenanceCorpus truncated = TruncateProvenance(env.provenance, budget);
    auto matching = MatchRetiredModules(env.corpus, truncated, env.cache);
    if (!matching.ok()) {
      std::cerr << matching.status() << "\n";
      return;
    }
    table.AddRow({std::to_string(budget),
                  std::to_string(matching->with_equivalent),
                  std::to_string(matching->with_overlapping),
                  std::to_string(matching->with_none)});
  }
  auto full = MatchRetiredModules(env.corpus, env.provenance, env.cache);
  if (full.ok()) {
    table.AddRow({"all (paper setting)", std::to_string(full->with_equivalent),
                  std::to_string(full->with_overlapping),
                  std::to_string(full->with_none)});
  }
  table.Print(std::cout,
              "Ablation: how much provenance the matcher needs.");
  std::cout << "(sparse surviving provenance distorts classification in "
               "both directions: drifted services whose few surviving "
               "records happen to agree look equivalent, while services "
               "whose surviving records are all drift-side look disjoint — "
               "the paper's closing plea to collect data examples while "
               "modules are alive, quantified)\n\n";
}

void BM_MatchRetiredModules(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  for (auto _ : state) {
    auto matching = MatchRetiredModules(env.corpus, env.provenance, env.cache);
    benchmark::DoNotOptimize(matching);
  }
}
BENCHMARK(BM_MatchRetiredModules);

void BM_RepairWorkflows(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  auto matching = MatchRetiredModules(env.corpus, env.provenance, env.cache);
  if (!matching.ok()) {
    state.SkipWithError(matching.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto outcome =
        RepairWorkflows(env.corpus, env.workflows, env.provenance, *matching);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_RepairWorkflows);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("fig8_matching");
  dexa::PrintFigure8(report);
  dexa::PrintExampleBudgetSweep();
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
