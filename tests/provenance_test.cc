#include <set>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

TEST(WorkflowCorpusTest, CategoryCountsMatchCalibration) {
  const auto& env = GetEnvironment();
  const WorkflowCorpus& corpus = env.workflows;
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kHealthy), 1500u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kEquivalentOnly), 253u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kEquivalentPlusDead), 68u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kOverlapGood), 8u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kOverlapGoodPlusDead), 5u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kOverlapBad), 266u);
  EXPECT_EQ(corpus.CountCategory(WorkflowCategory::kDeadOnly), 900u);
  EXPECT_EQ(corpus.items.size(), 3000u);
}

TEST(WorkflowCorpusTest, AllWorkflowsValidate) {
  const auto& env = GetEnvironment();
  for (size_t i = 0; i < env.workflows.items.size(); i += 97) {
    const GeneratedWorkflow& item = env.workflows.items[i];
    EXPECT_TRUE(ValidateWorkflow(item.workflow, *env.corpus.registry,
                                 *env.corpus.ontology)
                    .ok())
        << item.workflow.id;
    EXPECT_EQ(item.seeds.size(), item.workflow.inputs.size())
        << item.workflow.id;
  }
}

TEST(ProvenanceCorpusTest, EveryWorkflowProducedATrace) {
  const auto& env = GetEnvironment();
  // 3000 workflow traces + 72 historical traces.
  EXPECT_EQ(env.provenance.num_traces(), 3072u);
  EXPECT_GT(env.provenance.num_invocations(), 3000u);
}

TEST(ProvenanceCorpusTest, RetiredModulesHaveHistoricalRecords) {
  const auto& env = GetEnvironment();
  for (const std::string& id : env.corpus.retired_ids) {
    auto records = env.provenance.RecordsOf(id);
    EXPECT_FALSE(records.empty())
        << (*env.corpus.registry->Find(id))->spec().name;
  }
}

TEST(ProvenanceCorpusTest, HarvestFailsDecayedAfterRetirement) {
  // The shared environment has retired its decayed modules, so harvesting
  // its workflow corpus again reaches a retired module.
  const auto& env = GetEnvironment();
  const GeneratedWorkflow* first_decayed = nullptr;
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (!IsEnactable(item.workflow, *env.corpus.registry)) {
      first_decayed = &item;
      break;
    }
  }
  ASSERT_NE(first_decayed, nullptr);
  auto harvested = BuildProvenanceCorpus(env.corpus, env.workflows);
  ASSERT_FALSE(harvested.ok());
  EXPECT_TRUE(harvested.status().IsDecayed()) << harvested.status();
  EXPECT_NE(harvested.status().message().find(
                "'" + first_decayed->workflow.id + "'"),
            std::string::npos)
      << harvested.status();
}

TEST(ProvenanceCorpusTest, FindByInputsLocatesRecords) {
  const auto& env = GetEnvironment();
  const std::string& retired = env.corpus.retired_ids[0];
  auto records = env.provenance.RecordsOf(retired);
  ASSERT_FALSE(records.empty());
  const InvocationRecord* found =
      env.provenance.FindByInputs(retired, records[0]->inputs);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->module_id, retired);
  EXPECT_EQ(env.provenance.FindByInputs(retired, {Value::Str("nope")}),
            nullptr);
}

TEST(SeedCatalogTest, ProvidesSeedsForAllAnnotatedInputConcepts) {
  const auto& env = GetEnvironment();
  SeedCatalog catalog(env.corpus.kb);
  std::set<std::string> concepts;
  for (const ModulePtr& module : env.corpus.registry->AllModules()) {
    for (const Parameter& param : module->spec().inputs) {
      concepts.insert(env.corpus.ontology->NameOf(param.semantic_type));
    }
  }
  for (const std::string& concept_name : concepts) {
    auto seed = catalog.SeedFor(concept_name, 0);
    EXPECT_TRUE(seed.ok()) << concept_name << ": " << seed.status();
  }
}

TEST(SeedCatalogTest, ListParametersGetLists) {
  const auto& env = GetEnvironment();
  SeedCatalog catalog(env.corpus.kb);
  Parameter param;
  param.name = "records";
  param.structural_type = StructuralType::List(StructuralType::String());
  param.semantic_type = env.corpus.ontology->Find("UniprotRecord");
  auto seed = catalog.SeedForParameter(param, *env.corpus.ontology, 0);
  ASSERT_TRUE(seed.ok()) << seed.status();
  ASSERT_TRUE(seed->is_list());
  EXPECT_EQ(seed->AsList().size(), 4u);
}

TEST(HarvestTest, PoolCoversEveryLeafInputConcept) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  // Every realizable input partition of every available module must have a
  // pooled realization (this is what makes "all input partitions covered"
  // possible in Section 4.3).
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    for (const Parameter& param : module->spec().inputs) {
      for (ConceptId partition : onto.Partitions(param.semantic_type)) {
        EXPECT_GT(env.pool->CountFor(partition), 0u)
            << module->spec().name << " needs " << onto.NameOf(partition);
      }
    }
  }
}

TEST(HarvestTest, PoolRealizationsAreWellFormed) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  // The canonical UniprotRecord list must span several organisms (filter
  // calibration depends on it).
  const auto& records = env.pool->InstancesOf(onto.Find("UniprotRecord"));
  ASSERT_GE(records.size(), 4u);
  std::set<std::string> organisms;
  for (size_t i = 0; i < 4; ++i) {
    std::string text = records[i].AsString();
    size_t os = text.find("OS   ");
    ASSERT_NE(os, std::string::npos);
    organisms.insert(text.substr(os, text.find('\n', os) - os));
  }
  EXPECT_GE(organisms.size(), 3u);
}

}  // namespace
}  // namespace dexa
