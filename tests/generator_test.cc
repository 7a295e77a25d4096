// Unit tests of the core generator machinery (partitioner, classifier,
// generator, coverage, metrics) against the shared evaluation environment.

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/example_generator.h"
#include "core/instance_classifier.h"
#include "core/metrics.h"
#include "core/partitioner.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

TEST(PartitionerTest, ModulePartitionCounts) {
  const auto& env = GetEnvironment();
  DomainPartitioner partitioner(env.cache);
  ModulePtr normalize = *env.corpus.registry->FindByName("NormalizeAccession");
  ModulePartitions partitions = partitioner.PartitionModule(normalize->spec());
  EXPECT_EQ(partitions.InputCount(), 10u);   // Accession.
  EXPECT_EQ(partitions.OutputCount(), 10u);  // Accession.
  EXPECT_EQ(partitions.TotalCount(), 20u);

  ModulePtr identify = *env.corpus.registry->FindByName("Identify");
  partitions = partitioner.PartitionModule(identify->spec());
  EXPECT_EQ(partitions.InputCount(), 2u);  // PeptideMassList + ErrorTolerance.
}

TEST(ClassifierTest, ClassifiesPooledValues) {
  const auto& env = GetEnvironment();
  InstanceClassifier classifier(env.cache);
  const Ontology& onto = *env.corpus.ontology;
  const KnowledgeBase& kb = *env.corpus.kb;

  auto classify = [&](const Value& value, const char* declared) {
    ConceptId c = classifier.Classify(value, onto.Find(declared));
    return c == kInvalidConcept ? std::string("<none>") : onto.NameOf(c);
  };
  EXPECT_EQ(classify(Value::Str(kb.proteins()[0].accession), "Accession"),
            "UniprotAccession");
  EXPECT_EQ(classify(Value::Str(kb.genes()[0].gene_id), "Accession"),
            "KEGGGeneId");
  EXPECT_EQ(classify(Value::Str(kb.genes()[0].dna_sequence),
                     "BiologicalSequence"),
            "DNASequence");
  EXPECT_EQ(classify(Value::Str(kb.proteins()[0].sequence),
                     "BiologicalSequence"),
            "ProteinSequence");
  EXPECT_EQ(classify(Value::Str("GO:0001000 ! protein folding"),
                     "OntologyTerm"),
            "GOTerm");
  EXPECT_EQ(classify(Value::Real(5.0), "ErrorTolerance"), "ErrorTolerance");
  EXPECT_EQ(classify(Value::Str("completely unstructured"), "Accession"),
            "<none>");
}

TEST(GeneratorTest, SingleInputLeafModule) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  ModulePtr module = *env.corpus.registry->FindByName("EBI_GetUniprotRecord");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->examples.size(), 1u);  // One leaf partition.
  EXPECT_EQ(outcome->stats.input_partitions, 1u);
  EXPECT_EQ(outcome->stats.coverable_input_partitions, 1u);
  EXPECT_EQ(outcome->stats.invocation_errors, 0u);
  const DataExample& example = outcome->examples[0];
  ASSERT_EQ(example.inputs.size(), 1u);
  ASSERT_EQ(example.outputs.size(), 1u);
  EXPECT_EQ(example.input_partitions[0],
            env.corpus.ontology->Find("UniprotAccession"));
}

TEST(GeneratorTest, MultiPartitionInputYieldsOneExamplePerPartition) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  ModulePtr module = *env.corpus.registry->FindByName("NormalizeAccession");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->examples.size(), 10u);
}

TEST(GeneratorTest, DiscardsAbnormalCombinations) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  // CompareSequences: 2x2 combinations, DNA/RNA mixes terminate abnormally.
  ModulePtr module = *env.corpus.registry->FindByName("CompareSequences");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.combinations_tried, 4u);
  EXPECT_EQ(outcome->stats.invocation_errors, 2u);
  EXPECT_EQ(outcome->examples.size(), 2u);
}

TEST(GeneratorTest, OptionalInputGetsNullCandidate) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  ModulePtr module = *env.corpus.registry->FindByName("Identify");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok());
  // PeptideMassList x (ErrorTolerance, null).
  EXPECT_EQ(outcome->examples.size(), 2u);
  bool saw_null = false;
  for (const DataExample& example : outcome->examples) {
    if (example.inputs[1].is_null()) saw_null = true;
  }
  EXPECT_TRUE(saw_null);
}

TEST(GeneratorTest, PinnedStrategyReducesCombinations) {
  const auto& env = GetEnvironment();
  GeneratorOptions options;
  options.full_cartesian = false;
  ExampleGenerator generator(env.cache, env.pool.get(), options);
  ModulePtr module = *env.corpus.registry->FindByName("CompareSequences");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.combinations_tried, 2u);  // Second input pinned.
}

TEST(GeneratorTest, ReplayInputsRunsReferenceExamples) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  ModulePtr reference = *env.corpus.registry->FindByName("EBI_GetUniprotRecord");
  ModulePtr twin = *env.corpus.registry->FindByName("DDBJ_GetUniprotRecord");
  auto outcome = generator.Generate(*reference);
  ASSERT_TRUE(outcome.ok());
  auto replayed = generator.ReplayInputs(*twin, outcome->examples);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), outcome->examples.size());
  EXPECT_EQ((*replayed)[0].outputs[0], outcome->examples[0].outputs[0]);
}

TEST(MetricsTest, CompletenessAndConcisenessDefinitions) {
  const auto& env = GetEnvironment();
  // GetSequenceLength: 3 partitions, one class -> 2 redundant examples.
  ModulePtr module = *env.corpus.registry->FindByName("GetSequenceLength");
  const DataExampleSet& examples =
      env.corpus.registry->DataExamplesOf(module->spec().id);
  ASSERT_EQ(examples.size(), 3u);
  auto metrics = EvaluateBehaviorMetrics(*module, examples);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->num_classes, 1);
  EXPECT_EQ(metrics->classes_covered, 1);
  EXPECT_EQ(metrics->redundant_examples, 2);
  EXPECT_DOUBLE_EQ(metrics->completeness(), 1.0);
  EXPECT_NEAR(metrics->conciseness(), 1.0 / 3.0, 1e-12);

  // ComputeMolecularWeight: 4 documented classes, 3 reachable.
  module = *env.corpus.registry->FindByName("ComputeMolecularWeight");
  metrics = EvaluateBehaviorMetrics(
      *module, env.corpus.registry->DataExamplesOf(module->spec().id));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->num_classes, 4);
  EXPECT_EQ(metrics->classes_covered, 3);
  EXPECT_DOUBLE_EQ(metrics->completeness(), 0.75);
  EXPECT_DOUBLE_EQ(metrics->conciseness(), 1.0);
}

TEST(MetricsTest, RequiresGroundTruth) {
  class Opaque : public Module {
   public:
    Opaque() : Module(ModuleSpec{"x", "Opaque", ModuleKind::kDataAnalysis,
                                 {}, {}, 0.0}) {}

   protected:
    Result<std::vector<Value>> InvokeImpl(
        const std::vector<Value>&) const override {
      return std::vector<Value>{};
    }
  };
  Opaque module;
  EXPECT_TRUE(
      EvaluateBehaviorMetrics(module, {}).status().IsInvalidArgument());
}

TEST(CoverageTest, OutputExceptionHasUncoveredPartitions) {
  const auto& env = GetEnvironment();
  CoverageAnalyzer analyzer(env.cache);
  ModulePtr module = *env.corpus.registry->FindByName("EBI_GetBiologicalSequence");
  CoverageReport report = analyzer.Analyze(
      module->spec(), env.corpus.registry->DataExamplesOf(module->spec().id));
  EXPECT_TRUE(report.inputs_fully_covered());
  EXPECT_FALSE(report.outputs_fully_covered());
  EXPECT_EQ(report.output_partitions, 3u);
  EXPECT_EQ(report.covered_output_partitions, 2u);
  ASSERT_EQ(report.uncovered_outputs.size(), 1u);
  EXPECT_EQ(env.corpus.ontology->NameOf(report.uncovered_outputs[0]),
            "RNASequence");
  EXPECT_NEAR(report.coverage(), 6.0 / 7.0, 1e-12);
}

TEST(CoverageTest, FullyCoveredModule) {
  const auto& env = GetEnvironment();
  CoverageAnalyzer analyzer(env.cache);
  ModulePtr module = *env.corpus.registry->FindByName("EBI_GetUniprotRecord");
  CoverageReport report = analyzer.Analyze(
      module->spec(), env.corpus.registry->DataExamplesOf(module->spec().id));
  EXPECT_TRUE(report.inputs_fully_covered());
  EXPECT_TRUE(report.outputs_fully_covered());
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
}

TEST(GeneratorTest, RealizationAblationStillCoversLeaves) {
  const auto& env = GetEnvironment();
  GeneratorOptions options;
  options.use_realization = false;
  ExampleGenerator generator(env.cache, env.pool.get(), options);
  ModulePtr module = *env.corpus.registry->FindByName("NormalizeAccession");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->examples.size(), 10u);
}

}  // namespace
}  // namespace dexa
