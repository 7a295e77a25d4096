// Tests of the record-linkage redundancy detector (the paper's Section 8
// future work, implemented here).

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/redundancy.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class RedundancyTest : public ::testing::Test {
 protected:
  RedundancyTest() : env_(GetEnvironment()) {}

  ModulePtr Find(const std::string& name) {
    return *env_.corpus.registry->FindByName(name);
  }
  const DataExampleSet& ExamplesOf(const ModulePtr& module) {
    return env_.corpus.registry->DataExamplesOf(module->spec().id);
  }

  const EvaluationEnv& env_;
  RedundancyDetector detector_;
};

TEST_F(RedundancyTest, DetectsNucleotideStatRedundancy) {
  // DNA and RNA examples of a uniform statistic produce the same numeric
  // shape: one predicted cluster, one redundant example (matches truth).
  ModulePtr module = Find("EBI_ComputeGcContent");
  const DataExampleSet& examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 2u);
  RedundancyReport report = detector_.Detect(module->spec(), examples);
  EXPECT_EQ(report.clusters.size(), 1u);
  EXPECT_EQ(report.predicted_redundant(examples.size()), 1u);
  EXPECT_TRUE(report.SameCluster(0, 1));
}

TEST_F(RedundancyTest, KeepsDistinctBehaviorsApart) {
  // GetBiologicalSequence: protein-path and DNA-path outputs have
  // different alphabets -> separate clusters (matches ground truth).
  ModulePtr module = Find("EBI_GetBiologicalSequence");
  const DataExampleSet& examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 4u);
  RedundancyReport report = detector_.Detect(module->spec(), examples);
  EXPECT_EQ(report.clusters.size(), 2u);
  auto quality = EvaluateRedundancyDetection(*module, examples, report);
  ASSERT_TRUE(quality.ok());
  EXPECT_DOUBLE_EQ(quality->precision(), 1.0);
  EXPECT_DOUBLE_EQ(quality->recall(), 1.0);
}

TEST_F(RedundancyTest, RelationFeaturesBeatShapeFeatures) {
  // ReverseSequence has one behavior class over three alphabets; the
  // permutation relation collapses all three into one cluster.
  ModulePtr module = Find("ReverseSequence");
  const DataExampleSet& examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 3u);
  RedundancyReport report = detector_.Detect(module->spec(), examples);
  EXPECT_EQ(report.clusters.size(), 1u);
  std::string fingerprint =
      detector_.Fingerprint(module->spec(), examples[0]);
  EXPECT_NE(fingerprint.find("rel:perm"), std::string::npos);
}

TEST_F(RedundancyTest, IdentityModulesCollapseFully) {
  ModulePtr module = Find("NormalizeAccession");
  const DataExampleSet& examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 10u);
  RedundancyReport report = detector_.Detect(module->spec(), examples);
  EXPECT_EQ(report.clusters.size(), 1u);
  EXPECT_EQ(report.predicted_redundant(10), 9u);  // Truth: 9 redundant.
}

TEST_F(RedundancyTest, NullPatternSeparatesInvocationModes) {
  // Identify's two examples differ only in the optional tolerance being
  // absent; the null-pattern feature keeps them apart (truth: 2 classes).
  ModulePtr module = Find("Identify");
  const DataExampleSet& examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 2u);
  RedundancyReport report = detector_.Detect(module->spec(), examples);
  EXPECT_EQ(report.clusters.size(), 2u);
}

TEST_F(RedundancyTest, QualityCountsPairsCorrectly) {
  // Hand-built scenario: 3 examples, truth classes {0, 0, 1}, prediction
  // clusters {{0}, {1}, {2}} -> one false-negative pair, nothing else.
  ModulePtr module = Find("EBI_ComputeGcContent");
  DataExampleSet examples = ExamplesOf(module);
  ASSERT_EQ(examples.size(), 2u);
  RedundancyReport report;
  report.clusters = {{0}, {1}};
  auto quality = EvaluateRedundancyDetection(*module, examples, report);
  ASSERT_TRUE(quality.ok());
  EXPECT_EQ(quality->true_positive_pairs, 0u);
  EXPECT_EQ(quality->false_positive_pairs, 0u);
  EXPECT_EQ(quality->false_negative_pairs, 1u);
  EXPECT_DOUBLE_EQ(quality->precision(), 1.0);  // Vacuous but defined.
  EXPECT_DOUBLE_EQ(quality->recall(), 0.0);
}

struct CorpusQuality {
  double precision;
  double recall;
};

CorpusQuality MeasureCorpusQuality(const EvaluationEnv& env,
                                   const RedundancyOptions& options) {
  RedundancyDetector detector(options);
  size_t tp = 0, fp = 0, fn = 0;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    const DataExampleSet& examples = env.corpus.registry->DataExamplesOf(id);
    RedundancyReport report = detector.Detect(module->spec(), examples);
    auto quality = EvaluateRedundancyDetection(*module, examples, report);
    EXPECT_TRUE(quality.ok()) << module->spec().name;
    if (!quality.ok()) continue;
    tp += quality->true_positive_pairs;
    fp += quality->false_positive_pairs;
    fn += quality->false_negative_pairs;
  }
  CorpusQuality out;
  out.precision = tp + fp == 0 ? 1.0
                               : static_cast<double>(tp) /
                                     static_cast<double>(tp + fp);
  out.recall = tp + fn == 0 ? 1.0
                            : static_cast<double>(tp) /
                                  static_cast<double>(tp + fn);
  return out;
}

TEST_F(RedundancyTest, FeatureSetsTradeRecallForPrecision) {
  // Recall-oriented feature set: relations only.
  RedundancyOptions loose;
  loose.use_magnitude = false;
  loose.qualify_contained = false;
  CorpusQuality loose_quality = MeasureCorpusQuality(env_, loose);
  EXPECT_GT(loose_quality.recall, 0.85);

  // Precision-oriented feature set (the default).
  CorpusQuality strict_quality = MeasureCorpusQuality(env_, {});
  EXPECT_GT(strict_quality.precision, 0.65);
  EXPECT_GT(strict_quality.precision, loose_quality.precision);
  EXPECT_GT(loose_quality.recall, strict_quality.recall);
}

TEST_F(RedundancyTest, SameClusterHandlesUnknownIndices) {
  RedundancyReport report;
  report.clusters = {{0, 1}};
  EXPECT_TRUE(report.SameCluster(0, 1));
  EXPECT_FALSE(report.SameCluster(0, 5));
}

}  // namespace
}  // namespace dexa
