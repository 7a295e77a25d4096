#include <gtest/gtest.h>

#include "core/matcher.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest()
      : env_(GetEnvironment()),
        generator_(env_.cache, env_.pool.get()),
        matcher_(env_.cache, &generator_) {}

  ModulePtr Find(const std::string& name) {
    auto module = env_.corpus.registry->FindByName(name);
    EXPECT_TRUE(module.ok()) << name;
    return *module;
  }

  const EvaluationEnv& env_;
  ExampleGenerator generator_;
  ModuleMatcher matcher_;
};

TEST_F(MatcherTest, MapParametersExactMatch) {
  ModulePtr a = Find("EBI_GetUniprotRecord");
  ModulePtr b = Find("DDBJ_GetUniprotRecord");
  auto mapping = matcher_.MapParameters(a->spec(), b->spec());
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  EXPECT_FALSE(mapping->contextual);
  EXPECT_EQ(mapping->input_mapping, (std::vector<int>{0}));
  EXPECT_EQ(mapping->output_mapping, (std::vector<int>{0}));
}

TEST_F(MatcherTest, MapParametersRejectsIncompatibleSignatures) {
  ModulePtr a = Find("EBI_GetUniprotRecord");   // UniprotAccession -> record.
  ModulePtr b = Find("KEGG_GetKEGGGeneRecord");  // KEGGGeneId -> record.
  EXPECT_TRUE(matcher_.MapParameters(a->spec(), b->spec())
                  .status()
                  .IsNotFound());
  ModulePtr c = Find("Identify");  // Different arity.
  EXPECT_TRUE(matcher_.MapParameters(a->spec(), c->spec())
                  .status()
                  .IsNotFound());
}

TEST_F(MatcherTest, ContextualMappingGeneralizesConcepts) {
  // Figure 7: GetGeneSequence (EMBLAccession->DNASequence) fits
  // GetBiologicalSequence (SequenceAccession->BiologicalSequence).
  ModulePtr retired = Find("GetGeneSequence");
  ModulePtr candidate = Find("EBI_GetBiologicalSequence");
  auto mapping = matcher_.MapParameters(retired->spec(), candidate->spec());
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  EXPECT_TRUE(mapping->contextual);
  // Without contextual generalization the mapping must fail.
  EXPECT_TRUE(matcher_
                  .MapParameters(retired->spec(), candidate->spec(),
                                 /*allow_contextual=*/false)
                  .status()
                  .IsNotFound());
}

TEST_F(MatcherTest, ProviderTwinsAreEquivalent) {
  auto result =
      matcher_.Compare(*Find("EBI_GetUniprotRecord"),
                       *Find("NCBI_GetUniprotRecord"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relation, BehaviorRelation::kEquivalent);
  EXPECT_EQ(result->examples_compared, result->examples_agreeing);
  EXPECT_GT(result->examples_compared, 0u);
}

TEST_F(MatcherTest, DifferentFunctionsAreDisjoint) {
  auto result = matcher_.Compare(*Find("EBI_GetProteinSequence"),
                                 *Find("ExPASy_GetProteinSequence"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation, BehaviorRelation::kEquivalent);

  // Same signature (UniprotAccession -> UniprotAccession is not available;
  // use two analyses with equal signatures but different behavior).
  auto disjoint = matcher_.Compare(*Find("EBI_ComputeGcContent"),
                                   *Find("EBI_ComputeAtContent"));
  ASSERT_TRUE(disjoint.ok());
  EXPECT_EQ(disjoint->relation, BehaviorRelation::kDisjoint);
}

TEST_F(MatcherTest, DriftingTwinOverlaps) {
  // v1 was traced before retirement; its provenance examples carry both
  // agreement parities, so replaying them against the current service
  // yields partial agreement.
  ModulePtr v1 = Find("v1_GetUniprotRecord");
  ModulePtr current = Find("EBI_GetUniprotRecord");
  DataExampleSet examples;
  for (const InvocationRecord* record :
       env_.provenance.RecordsOf(v1->spec().id)) {
    DataExample example;
    example.inputs = record->inputs;
    example.outputs = record->outputs;
    example.input_partitions = {kInvalidConcept};
    bool duplicate = false;
    for (const DataExample& existing : examples) {
      if (existing == example) duplicate = true;
    }
    if (!duplicate) examples.push_back(std::move(example));
  }
  ASSERT_GE(examples.size(), 4u);
  auto mapping = matcher_.MapParameters(v1->spec(), current->spec());
  ASSERT_TRUE(mapping.ok());
  auto result = matcher_.CompareAgainstExamples(examples, *current, *mapping);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation, BehaviorRelation::kOverlapping);
  EXPECT_GT(result->examples_agreeing, 0u);
  EXPECT_LT(result->examples_agreeing, result->examples_compared);
}

TEST_F(MatcherTest, CandidateRejectionCountsAsDisagreement) {
  // Feed examples whose inputs the candidate rejects.
  ModulePtr candidate = Find("EBI_Transcribe");
  DataExample example;
  example.inputs = {Value::Str("ACGU")};  // RNA: Transcribe rejects.
  example.outputs = {Value::Str("x")};
  example.input_partitions = {kInvalidConcept};
  ParameterMapping mapping;
  mapping.input_mapping = {0};
  mapping.output_mapping = {0};
  auto result =
      matcher_.CompareAgainstExamples({example}, *candidate, mapping);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation, BehaviorRelation::kDisjoint);
}

TEST_F(MatcherTest, EmptyExamplesAreIncomparable) {
  ModulePtr candidate = Find("EBI_Transcribe");
  ParameterMapping mapping;
  mapping.input_mapping = {0};
  mapping.output_mapping = {0};
  auto result = matcher_.CompareAgainstExamples({}, *candidate, mapping);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation, BehaviorRelation::kIncomparable);
}

TEST_F(MatcherTest, RelationNames) {
  EXPECT_STREQ(BehaviorRelationName(BehaviorRelation::kEquivalent),
               "equivalent");
  EXPECT_STREQ(BehaviorRelationName(BehaviorRelation::kOverlapping),
               "overlapping");
  EXPECT_STREQ(BehaviorRelationName(BehaviorRelation::kDisjoint), "disjoint");
  EXPECT_STREQ(BehaviorRelationName(BehaviorRelation::kIncomparable),
               "incomparable");
}

}  // namespace
}  // namespace dexa
