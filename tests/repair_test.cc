// Reproduces the Section 6 experiment (Figure 8): matching the 72 decayed
// modules and repairing the decayed workflow corpus.

#include <gtest/gtest.h>

#include "repair/repair.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class RepairFixture : public ::testing::Test {
 protected:
  static const MatchingReport& Matching() {
    static const MatchingReport* report = [] {
      const auto& env = GetEnvironment();
      auto matched = MatchRetiredModules(env.corpus, env.provenance, env.cache);
      EXPECT_TRUE(matched.ok()) << matched.status();
      return new MatchingReport(std::move(matched).value());
    }();
    return *report;
  }

  static const RepairOutcome& Outcome() {
    static const RepairOutcome* outcome = [] {
      const auto& env = GetEnvironment();
      auto repaired = RepairWorkflows(env.corpus, env.workflows,
                                      env.provenance, Matching());
      EXPECT_TRUE(repaired.ok()) << repaired.status();
      return new RepairOutcome(std::move(repaired).value());
    }();
    return *outcome;
  }
};

TEST_F(RepairFixture, ExamplesFromProvenanceAreDeduplicated) {
  const auto& env = GetEnvironment();
  const std::string& retired = env.corpus.retired_ids[0];
  DataExampleSet examples = ExamplesFromProvenance(env.provenance, retired);
  EXPECT_FALSE(examples.empty());
  for (size_t i = 0; i < examples.size(); ++i) {
    for (size_t j = i + 1; j < examples.size(); ++j) {
      EXPECT_FALSE(examples[i] == examples[j]);
    }
  }
}

TEST_F(RepairFixture, Figure8MatchingCounts) {
  const MatchingReport& report = Matching();
  EXPECT_EQ(report.retired_total, 72u);
  EXPECT_EQ(report.with_equivalent, 16u);
  EXPECT_EQ(report.with_overlapping, 23u);
  EXPECT_EQ(report.with_none, 33u);
}

TEST_F(RepairFixture, SoapTwinsMatchEquivalently) {
  const auto& env = GetEnvironment();
  const MatchingReport& report = Matching();
  auto module = env.corpus.registry->FindByName("soap_get_genes_by_pathway");
  ASSERT_TRUE(module.ok());
  const auto& best = report.best.at((*module)->spec().id);
  EXPECT_EQ(best.relation, BehaviorRelation::kEquivalent);
  EXPECT_EQ((*env.corpus.registry->Find(best.candidate_id))->spec().name,
            "get_genes_by_pathway");
}

TEST_F(RepairFixture, Figure7ContextualSubstituteReportsOverlap) {
  const auto& env = GetEnvironment();
  const MatchingReport& report = Matching();
  auto module = env.corpus.registry->FindByName("GetGeneSequence");
  ASSERT_TRUE(module.ok());
  const auto& best = report.best.at((*module)->spec().id);
  EXPECT_EQ(best.relation, BehaviorRelation::kOverlapping);
  EXPECT_TRUE(best.mapping.contextual);
  std::string candidate_name =
      (*env.corpus.registry->Find(best.candidate_id))->spec().name;
  EXPECT_NE(candidate_name.find("GetBiologicalSequence"), std::string::npos);
}

TEST_F(RepairFixture, LegacyModulesHaveNoSubstitute) {
  const auto& env = GetEnvironment();
  const MatchingReport& report = Matching();
  auto module = env.corpus.registry->FindByName("legacy_text_sentiment");
  ASSERT_TRUE(module.ok());
  const auto& best = report.best.at((*module)->spec().id);
  EXPECT_TRUE(best.candidate_id.empty());
}


TEST_F(RepairFixture, ContextualAblationLosesTheFigure7Match) {
  // With contextual (super-concept) mappings disabled, GetGeneSequence has
  // no candidate left: Figure 7's mechanism is what finds it a substitute.
  const auto& env = GetEnvironment();
  auto strict = MatchRetiredModules(env.corpus, env.provenance, env.cache,
                                    /*allow_contextual=*/false);
  ASSERT_TRUE(strict.ok()) << strict.status();
  EXPECT_EQ(strict->with_equivalent, 16u);
  EXPECT_EQ(strict->with_overlapping, 22u);  // 23 minus GetGeneSequence.
  EXPECT_EQ(strict->with_none, 34u);
  auto module = env.corpus.registry->FindByName("GetGeneSequence");
  ASSERT_TRUE(module.ok());
  EXPECT_TRUE(strict->best.at((*module)->spec().id).candidate_id.empty());
}

TEST_F(RepairFixture, Section6RepairCounts) {
  const RepairOutcome& outcome = Outcome();
  EXPECT_EQ(outcome.total_workflows, 3000u);
  EXPECT_EQ(outcome.broken_workflows, 1500u);
  EXPECT_EQ(outcome.repaired_via_equivalent, 321u);
  EXPECT_EQ(outcome.repaired_via_overlapping, 13u);
  EXPECT_EQ(outcome.repaired_total, 334u);
  EXPECT_EQ(outcome.repaired_partly, 73u);
  EXPECT_EQ(outcome.repaired_fully, 261u);
}

}  // namespace
}  // namespace dexa
