// Seed robustness: the paper-shaped results are *structural* — they come
// from the corpus's partition/behavior design, not from the default seed's
// concrete random values. Rebuilding the entire pipeline under different
// seeds must reproduce the same Tables 1-3, the same coverage exceptions
// and the same Figure 8 matching counts.
//
// (Figure 5 is the exception by design: two of its filter-detector
// outcomes hinge on concrete sequence content, which is seed-dependent;
// EXPERIMENTS.md documents that the study is calibrated at the default
// seed.)

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/table.h"
#include "core/coverage.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "core/metrics.h"
#include "corpus/scale.h"
#include "durability/evaluation_env.h"
#include "engine/concept_cache.h"
#include "repair/repair.h"

namespace dexa {
namespace {

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, StructuralResultsHoldAcrossSeeds) {
  CorpusOptions options;
  options.seed = GetParam();
  auto env = BuildEvaluationEnv(options);
  ASSERT_TRUE(env.ok()) << env.status();
  Corpus& corpus = env->corpus;
  ExampleGenerator generator(env->cache, env->pool.get());
  auto annotated = AnnotateRegistry(generator, *corpus.registry);
  ASSERT_TRUE(annotated.ok()) << annotated.status();
  ASSERT_TRUE(annotated->complete()) << annotated->run_status;

  // Tables 1-3 and the Section 4.3 coverage results.
  CoverageAnalyzer analyzer(env->cache);
  std::map<std::string, int> completeness;
  std::map<std::string, int> conciseness;
  size_t input_covered = 0;
  size_t output_exceptions = 0;
  for (const std::string& id : corpus.available_ids) {
    ModulePtr module = *corpus.registry->Find(id);
    const DataExampleSet& examples = corpus.registry->DataExamplesOf(id);
    auto metrics = EvaluateBehaviorMetrics(*module, examples);
    ASSERT_TRUE(metrics.ok()) << module->spec().name;
    completeness[FormatFixed(metrics->completeness(), 3)]++;
    conciseness[FormatFixed(metrics->conciseness(), 2)]++;
    CoverageReport report = analyzer.Analyze(module->spec(), examples);
    if (report.inputs_fully_covered()) ++input_covered;
    if (!report.outputs_fully_covered()) ++output_exceptions;
  }
  // Derived from the corpus census, not a parallel hardcoded copy of it
  // (the paper corpus pins 252; a resized corpus keeps this test honest).
  EXPECT_EQ(input_covered, corpus.available_ids.size());
  EXPECT_EQ(output_exceptions, 19u);
  EXPECT_EQ(completeness["1.000"],
            static_cast<int>(corpus.available_ids.size()) - 18);
  EXPECT_EQ(completeness["0.750"], 8);
  EXPECT_EQ(completeness["0.625"], 4);
  EXPECT_EQ(completeness["0.600"], 4);
  EXPECT_EQ(completeness["0.500"], 2);
  EXPECT_EQ(conciseness["1.00"], 192);
  EXPECT_EQ(conciseness["0.50"], 32);
  EXPECT_EQ(conciseness["0.47"], 7);
  EXPECT_EQ(conciseness["0.40"], 4);
  EXPECT_EQ(conciseness["0.33"], 4);
  EXPECT_EQ(conciseness["0.20"], 8);
  EXPECT_EQ(conciseness["0.17"], 4);
  EXPECT_EQ(conciseness["0.10"], 1);

  // Figure 8 matching and the repair outcome.
  ASSERT_TRUE(RetireDecayedModules(corpus).ok());
  auto matching = MatchRetiredModules(corpus, env->provenance, env->cache);
  ASSERT_TRUE(matching.ok()) << matching.status();
  EXPECT_EQ(matching->with_equivalent, 16u);
  EXPECT_EQ(matching->with_overlapping, 23u);
  EXPECT_EQ(matching->with_none, 33u);

  auto outcome =
      RepairWorkflows(corpus, env->workflows, env->provenance, *matching);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->broken_workflows, 1500u);
  EXPECT_EQ(outcome->repaired_via_equivalent, 321u);
  EXPECT_EQ(outcome->repaired_via_overlapping, 13u);
  EXPECT_EQ(outcome->repaired_partly, 73u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(7u, 1234u, 20260706u));

// ---------------------------------------------------------------------
// Scale sweep: the synthetic scale corpus annotates cleanly at every seed,
// at the 10k modules it is sized for. On the 8-thread engine the outer
// batch hands out 19 modules per claim.

class ScaleSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScaleSweepTest, ScaleCorpusAnnotatesCleanlyAcrossSeeds) {
  ScaleCorpusOptions options;
  options.seed = GetParam();
  options.modules = 10'000;
  auto corpus = BuildScaleCorpus(options);
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  EngineConfig config = EngineConfig().Threads(8).Seed(GetParam())
                            .MaxAttempts(4);
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(corpus->ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, corpus->pool.get(), engine.get());
  auto report = AnnotateRegistry(generator, *corpus->registry);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->complete()) << report->run_status;

  // Structural, seed-independent: every module annotates (nothing decays
  // at schema epoch 0), every module yields at least one example, and the
  // retrying engine absorbs all deterministic 429 throttling.
  EXPECT_EQ(report->annotated, options.modules);
  EXPECT_EQ(report->decayed, 0u);
  EXPECT_EQ(report->transient_exhausted, 0u);
  EXPECT_GE(report->examples, options.modules);
  for (const std::string& id : corpus->module_ids) {
    ASSERT_FALSE(corpus->registry->DataExamplesOf(id).empty()) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleSweepTest,
                         ::testing::Values(7u, 1234u, 20260706u));

}  // namespace
}  // namespace dexa
