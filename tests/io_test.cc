// Persistence round-trips: structural types, registry annotations, the
// annotated instance pool and the workflow DSL.

#include <gtest/gtest.h>

#include "modules/registry_io.h"
#include "pool/pool_io.h"
#include "tests/test_util.h"
#include "workflow/workflow_io.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

TEST(TypeParseTest, RoundTripsAllShapes) {
  std::vector<StructuralType> cases = {
      StructuralType::String(),
      StructuralType::Integer(),
      StructuralType::Double(),
      StructuralType::Boolean(),
      StructuralType::List(StructuralType::String()),
      StructuralType::List(StructuralType::List(StructuralType::Double())),
      StructuralType::Record({{"id", StructuralType::String()},
                              {"masses",
                               StructuralType::List(StructuralType::Double())}}),
      StructuralType::Record({}),
  };
  for (const StructuralType& type : cases) {
    auto parsed = ParseStructuralType(type.ToString());
    ASSERT_TRUE(parsed.ok()) << type.ToString() << ": " << parsed.status();
    EXPECT_EQ(*parsed, type) << type.ToString();
  }
}

TEST(TypeParseTest, RejectsMalformedTypes) {
  EXPECT_TRUE(ParseStructuralType("").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("List<String").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("Floaty").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("String garbage").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("Record{id String}").status().IsParseError());
}

TEST(RegistryIoTest, RoundTripsAnnotations) {
  const auto& env = GetEnvironment();
  std::string saved =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  EXPECT_GT(saved.size(), 1000u);

  // Load into a freshly built corpus (same module ids).
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto restored =
      LoadAnnotations(saved, *fresh->ontology, *fresh->registry);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, env.corpus.registry->size());

  for (size_t i = 0; i < env.corpus.available_ids.size(); i += 13) {
    const std::string& id = env.corpus.available_ids[i];
    const DataExampleSet& original = env.corpus.registry->DataExamplesOf(id);
    const DataExampleSet& loaded = fresh->registry->DataExamplesOf(id);
    ASSERT_EQ(original.size(), loaded.size()) << id;
    for (size_t e = 0; e < original.size(); ++e) {
      EXPECT_TRUE(original[e] == loaded[e]) << id;
      EXPECT_EQ(original[e].input_partitions, loaded[e].input_partitions)
          << id;
    }
  }
}

TEST(RegistryIoTest, RejectsCorruptInput) {
  const auto& env = GetEnvironment();
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto& registry = *fresh->registry;
  const Ontology& onto = *fresh->ontology;
  EXPECT_TRUE(LoadAnnotations("", onto, registry).status().IsParseError());
  EXPECT_TRUE(LoadAnnotations("# dexa annotations v1\njunk\n", onto, registry)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadAnnotations(
                  "# dexa annotations v1\nmodule nope Nope\n", onto, registry)
                  .status()
                  .IsParseError());
  // An unterminated example is damage (a truncated file), not a grammar
  // error: the typed kCorrupted status is what recovery dispatches on.
  EXPECT_TRUE(LoadAnnotations("# dexa annotations v1\nmodule m000 X\n"
                              "example\nin - \"v\"\n",
                              onto, registry)
                  .status()
                  .IsCorrupted());
  (void)env;
}

TEST(RegistryIoTest, FailedLoadLeavesNoPartialState) {
  const auto& env = GetEnvironment();
  std::string saved =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);

  // Damage the document near the end: truncate just before the last "end"
  // line, so hundreds of modules parse cleanly before the damage.
  size_t cut = saved.rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  std::string truncated = saved.substr(0, cut + 1);

  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto result = LoadAnnotations(truncated, *fresh->ontology, *fresh->registry);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();

  // Stage-then-commit: even though the damage sits at the tail, not one
  // module's annotations leaked into the registry.
  for (const ModulePtr& module : fresh->registry->AllModules()) {
    EXPECT_TRUE(fresh->registry->DataExamplesOf(module->spec().id).empty())
        << module->spec().id;
  }

  // The intact document still loads into the same registry afterwards.
  auto reloaded = LoadAnnotations(saved, *fresh->ontology, *fresh->registry);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_GT(*reloaded, 0u);
}

TEST(PoolIoTest, RoundTripsPool) {
  const auto& env = GetEnvironment();
  std::string saved = SavePool(*env.pool);
  auto loaded = LoadPool(saved, *env.corpus.ontology);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), env.pool->size());
  // Realization order survives (the first instance per concept).
  for (ConceptId concept_id : env.pool->PopulatedConcepts()) {
    auto original = env.pool->GetInstance(concept_id);
    auto restored = loaded->GetInstance(concept_id);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*original, *restored)
        << env.corpus.ontology->NameOf(concept_id);
  }
}

TEST(PoolIoTest, RejectsCorruptPool) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  EXPECT_TRUE(LoadPool("", onto).status().IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\nnonsense\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\ninstance Bogus \"x\"\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\ninstance DNASequence not-json\n", onto)
                  .status()
                  .IsParseError());
}

TEST(WorkflowIoTest, RoundTripsGeneratedWorkflows) {
  const auto& env = GetEnvironment();
  for (size_t i = 0; i < env.workflows.items.size(); i += 211) {
    const Workflow& original = env.workflows.items[i].workflow;
    std::string rendered = RenderWorkflowDsl(original, *env.corpus.ontology);
    auto parsed = ParseWorkflowDsl(rendered, *env.corpus.ontology);
    ASSERT_TRUE(parsed.ok()) << original.id << ": " << parsed.status();
    EXPECT_EQ(parsed->id, original.id);
    EXPECT_EQ(parsed->inputs.size(), original.inputs.size());
    ASSERT_EQ(parsed->processors.size(), original.processors.size());
    for (size_t p = 0; p < original.processors.size(); ++p) {
      EXPECT_EQ(parsed->processors[p].module_id,
                original.processors[p].module_id);
      EXPECT_EQ(parsed->processors[p].input_sources.size(),
                original.processors[p].input_sources.size());
    }
    EXPECT_EQ(RenderWorkflowDsl(*parsed, *env.corpus.ontology), rendered);
    // The parsed workflow still validates and enacts identically.
    ASSERT_TRUE(ValidateWorkflow(*parsed, *env.corpus.registry,
                                 *env.corpus.ontology)
                    .ok())
        << original.id;
  }
}

TEST(WorkflowIoTest, ParsedWorkflowEnacts) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = env.workflows.items[0];
  std::string rendered =
      RenderWorkflowDsl(item.workflow, *env.corpus.ontology);
  auto parsed = ParseWorkflowDsl(rendered, *env.corpus.ontology);
  ASSERT_TRUE(parsed.ok());
  auto original = Enact(item.workflow, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  auto reloaded = Enact(*parsed, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(original->complete());
  ASSERT_TRUE(reloaded->complete());
  ASSERT_EQ(original->outputs.size(), reloaded->outputs.size());
  for (size_t o = 0; o < original->outputs.size(); ++o) {
    EXPECT_EQ(original->outputs[o], reloaded->outputs[o]);
  }
}

TEST(WorkflowIoTest, RejectsCorruptDsl) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  EXPECT_TRUE(ParseWorkflowDsl("", onto).status().IsParseError());
  EXPECT_TRUE(ParseWorkflowDsl("# dexa workflow v1\nnonsense\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseWorkflowDsl("# dexa workflow v1\nname x\n", onto)
                  .status()
                  .IsParseError());  // No id.
  EXPECT_TRUE(
      ParseWorkflowDsl("# dexa workflow v1\nworkflow w\n"
                       "input a | Bogus | DNASequence\n",
                       onto)
          .status()
          .IsParseError());
  EXPECT_TRUE(
      ParseWorkflowDsl("# dexa workflow v1\nworkflow w\n"
                       "wire 0 0 = input 0\n",
                       onto)
          .status()
          .IsParseError());  // Wire before processor.
}

}  // namespace
}  // namespace dexa
