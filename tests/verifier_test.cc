// Tests of the output-annotation verifier (ontology-based partitioning as
// annotation evidence, cf. the paper's reference [3]).

#include <gtest/gtest.h>

#include "core/annotation_verifier.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : env_(GetEnvironment()), verifier_(env_.cache) {}

  std::vector<OutputAnnotationReport> ReportsFor(const std::string& name) {
    ModulePtr module = *env_.corpus.registry->FindByName(name);
    return verifier_.VerifyOutputs(
        module->spec(),
        env_.corpus.registry->DataExamplesOf(module->spec().id));
  }

  const EvaluationEnv& env_;
  AnnotationVerifier verifier_;
};

TEST_F(VerifierTest, ConfirmsLeafAnnotations) {
  auto reports = ReportsFor("EBI_GetUniprotRecord");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kConfirmed);
  ASSERT_EQ(reports[0].observed_partitions.size(), 1u);
  EXPECT_EQ(env_.corpus.ontology->NameOf(reports[0].observed_partitions[0]),
            "UniprotRecord");
}

TEST_F(VerifierTest, FlagsOverGeneralAnnotations) {
  // GetBiologicalSequence only ever emits protein and DNA sequences; the
  // BiologicalSequence annotation is broader than the behavior.
  auto reports = ReportsFor("EBI_GetBiologicalSequence");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kOverGeneral);
  EXPECT_EQ(reports[0].observed_partitions.size(), 2u);
  // The suggested refinement is the LCS of {ProteinSequence, DNASequence}.
  EXPECT_EQ(env_.corpus.ontology->NameOf(reports[0].suggested),
            "BiologicalSequence");
}

TEST_F(VerifierTest, SuggestsTightRefinementForSingleNamespace) {
  // get_genes_by_enzyme is annotated with the coarse Accession concept but
  // only ever returns KEGG gene ids: the verifier pins it down.
  auto reports = ReportsFor("get_genes_by_enzyme");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kOverGeneral);
  ASSERT_EQ(reports[0].observed_partitions.size(), 1u);
  EXPECT_EQ(env_.corpus.ontology->NameOf(reports[0].suggested), "KEGGGeneId");
}

TEST_F(VerifierTest, ConfirmedForFullyWitnessedCoarseAnnotation) {
  // NormalizeAccession echoes all ten accession namespaces: its coarse
  // Accession annotation is genuinely exercised in full.
  auto reports = ReportsFor("NormalizeAccession");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kConfirmed);
  EXPECT_EQ(reports[0].observed_partitions.size(), 10u);
}

TEST_F(VerifierTest, UnobservedWithoutExamples) {
  ModulePtr module = *env_.corpus.registry->FindByName("EBI_GetUniprotRecord");
  auto reports = verifier_.VerifyOutputs(module->spec(), {});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kUnobserved);
}

TEST_F(VerifierTest, DetectsViolatedAnnotations) {
  // Forge an example whose output is not an accession at all.
  ModulePtr module = *env_.corpus.registry->FindByName("NormalizeAccession");
  DataExample forged;
  forged.inputs = {Value::Str("P00000")};
  forged.outputs = {Value::Str("this is not an accession")};
  forged.input_partitions = {kInvalidConcept};
  auto reports = verifier_.VerifyOutputs(module->spec(), {forged});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, AnnotationVerdict::kViolated);
}

TEST_F(VerifierTest, CorpusWideVerdictCensus) {
  // The 19 output-coverage exceptions show up as over-general output
  // annotations. The verifier is stricter than the coverage metric and
  // additionally catches a real annotation *violation* the coverage metric
  // silently ignores: the 7 record-id extractors emit InterPro/Pfam/Disease
  // identifiers that instantiate no partition of the declared Accession
  // concept at all.
  size_t confirmed = 0, over_general = 0, violated = 0, unobserved = 0;
  size_t modules_not_confirmed = 0;
  for (const std::string& id : env_.corpus.available_ids) {
    ModulePtr module = *env_.corpus.registry->Find(id);
    auto reports = verifier_.VerifyOutputs(
        module->spec(), env_.corpus.registry->DataExamplesOf(id));
    bool all_confirmed = true;
    for (const OutputAnnotationReport& report : reports) {
      switch (report.verdict) {
        case AnnotationVerdict::kConfirmed:
          ++confirmed;
          break;
        case AnnotationVerdict::kOverGeneral:
          ++over_general;
          all_confirmed = false;
          break;
        case AnnotationVerdict::kViolated:
          ++violated;
          all_confirmed = false;
          break;
        case AnnotationVerdict::kUnobserved:
          ++unobserved;
          all_confirmed = false;
          break;
      }
    }
    if (!all_confirmed) ++modules_not_confirmed;
  }
  EXPECT_EQ(violated, 7u);  // The ExtractPrimaryId family.
  EXPECT_EQ(unobserved, 0u);
  EXPECT_EQ(over_general, 19u);  // The Section 4.3 exceptions.
  EXPECT_EQ(modules_not_confirmed, 26u);
  EXPECT_EQ(confirmed + over_general + violated, 252u);
}

TEST_F(VerifierTest, VerdictNames) {
  EXPECT_STREQ(AnnotationVerdictName(AnnotationVerdict::kConfirmed),
               "confirmed");
  EXPECT_STREQ(AnnotationVerdictName(AnnotationVerdict::kOverGeneral),
               "over-general");
  EXPECT_STREQ(AnnotationVerdictName(AnnotationVerdict::kViolated),
               "violated");
  EXPECT_STREQ(AnnotationVerdictName(AnnotationVerdict::kUnobserved),
               "unobserved");
}

}  // namespace
}  // namespace dexa
