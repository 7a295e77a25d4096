// Quickstart: annotate one scientific module with data examples.
//
// Builds the evaluation corpus (ontology + knowledge base + modules),
// harvests the annotated instance pool from a freshly enacted provenance
// corpus, generates the data examples for a module the paper discusses
// (GetRecord-style retrieval), and prints them.

#include <cstdio>
#include <iostream>

#include "core/coverage.h"
#include "core/example_generator.h"
#include "durability/evaluation_env.h"

int main() {
  using namespace dexa;

  // 1. Build the evaluation environment: myGrid-style ontology, synthetic
  //    knowledge base, 252 available + 72 decayed scientific modules; the
  //    workflow corpus enacted over them, and the annotated instance pool
  //    harvested from its provenance (Section 4.1 of the paper).
  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << "BuildEvaluationEnv failed: " << env.status() << "\n";
    return 1;
  }
  const Corpus& corpus = env->corpus;
  std::cout << "Corpus: " << corpus.available_ids.size()
            << " available modules, " << corpus.retired_ids.size()
            << " decayed modules, ontology of " << corpus.ontology->size()
            << " concepts\n";

  // 2. What the environment enacted and harvested.
  std::cout << "Provenance: " << env->provenance.num_traces() << " traces, "
            << env->provenance.num_invocations() << " invocations; pool holds "
            << env->pool->size() << " annotated instances\n\n";

  // 3. Generate data examples for a module (Section 3.2's heuristic).
  ExampleGenerator generator(env->cache, env->pool.get());
  auto module = corpus.registry->FindByName("EBI_GetBiologicalSequence");
  if (!module.ok()) {
    std::cerr << module.status() << "\n";
    return 1;
  }
  auto outcome = generator.Generate(**module);
  if (!outcome.ok()) {
    std::cerr << "Generate failed: " << outcome.status() << "\n";
    return 1;
  }
  std::cout << "Data examples for " << (*module)->spec().name << " ("
            << outcome->stats.combinations_tried << " combinations tried, "
            << outcome->stats.invocation_errors << " discarded):\n";
  for (const DataExample& example : outcome->examples) {
    std::string rendered = RenderDataExample(example);
    if (rendered.size() > 100) rendered = rendered.substr(0, 97) + "...";
    std::cout << "  " << rendered << "\n";
  }

  // 4. Coverage of the module's parameter partitions (Section 4.2).
  CoverageAnalyzer analyzer(env->cache);
  CoverageReport report =
      analyzer.Analyze((*module)->spec(), outcome->examples);
  std::printf(
      "\nCoverage: %zu/%zu input partitions, %zu/%zu output partitions "
      "(coverage %.2f)\n",
      report.covered_input_partitions, report.input_partitions,
      report.covered_output_partitions, report.output_partitions,
      report.coverage());
  return 0;
}
