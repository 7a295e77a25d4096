// Property-based suites (parameterized gtest): invariants swept over the
// whole corpus, the identifier grammars, the flat-file formats, the
// ontology, and randomized values.

#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coverage.h"
#include "core/engine_config.h"
#include "core/metrics.h"
#include "corpus/behaviors.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "core/run_api.h"
#include "corpus/scale.h"
#include "engine/concept_cache.h"
#include "engine/invocation_engine.h"
#include "formats/sniffer.h"
#include "kb/accessions.h"
#include "kb/render.h"
#include "shard/sharded_annotate.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

// ---------------------------------------------------------------------
// Per-module invariants over all 252 annotated modules.

class ModuleAnnotationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ModuleAnnotationProperty, AnnotationInvariantsHold) {
  const auto& env = GetEnvironment();
  const std::string& id =
      env.corpus.available_ids[static_cast<size_t>(GetParam())];
  ModulePtr module = *env.corpus.registry->Find(id);
  const ModuleSpec& spec = module->spec();
  const DataExampleSet& examples = env.corpus.registry->DataExamplesOf(id);
  ASSERT_FALSE(examples.empty()) << spec.name;

  for (const DataExample& example : examples) {
    // Arity and structural conformance.
    ASSERT_EQ(example.inputs.size(), spec.inputs.size()) << spec.name;
    ASSERT_EQ(example.outputs.size(), spec.outputs.size()) << spec.name;
    ASSERT_EQ(example.input_partitions.size(), spec.inputs.size())
        << spec.name;
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      EXPECT_TRUE(example.inputs[i].MatchesType(spec.inputs[i].structural_type))
          << spec.name << "." << spec.inputs[i].name;
      // Recorded partitions are subsumed by the declared concepts.
      if (example.input_partitions[i] != kInvalidConcept) {
        EXPECT_TRUE(env.corpus.ontology->IsSubsumedBy(
            example.input_partitions[i], spec.inputs[i].semantic_type))
            << spec.name;
      }
    }
    for (size_t o = 0; o < spec.outputs.size(); ++o) {
      EXPECT_TRUE(
          example.outputs[o].MatchesType(spec.outputs[o].structural_type))
          << spec.name << "." << spec.outputs[o].name;
    }
    // Replayability: the stored outputs are what the module still produces.
    auto outputs = InvocationEngine::Serial().Invoke(*module, example.inputs);
    ASSERT_TRUE(outputs.ok()) << spec.name << ": " << outputs.status();
    for (size_t o = 0; o < outputs->size(); ++o) {
      EXPECT_EQ((*outputs)[o], example.outputs[o]) << spec.name;
    }
  }

  // Metric bounds.
  auto metrics = EvaluateBehaviorMetrics(*module, examples);
  ASSERT_TRUE(metrics.ok()) << spec.name;
  EXPECT_GE(metrics->completeness(), 0.0);
  EXPECT_LE(metrics->completeness(), 1.0);
  EXPECT_GE(metrics->conciseness(), 0.0);
  EXPECT_LE(metrics->conciseness(), 1.0);
  EXPECT_LE(metrics->classes_covered, metrics->num_classes);
  EXPECT_LT(metrics->redundant_examples, metrics->num_examples);

  // Coverage bounds; inputs always fully covered on this corpus.
  CoverageAnalyzer analyzer(env.corpus.ontology.get());
  CoverageReport report = analyzer.Analyze(spec, examples);
  EXPECT_TRUE(report.inputs_fully_covered()) << spec.name;
  EXPECT_LE(report.coverage(), 1.0);
  EXPECT_GE(report.coverage(), 0.0);
  EXPECT_EQ(report.covered_partitions() +
                report.uncovered_outputs.size() +
                (report.input_partitions - report.covered_input_partitions),
            report.total_partitions())
      << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllModules, ModuleAnnotationProperty,
                         ::testing::Range(0, 252));

// ---------------------------------------------------------------------
// Identifier grammars: generation, validation and mutual exclusion.

class AccessionGrammarProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccessionGrammarProperty, GrammarsAreDisjointAndTotal) {
  uint64_t i = GetParam();
  struct Entry {
    std::string value;
    const char* expected;
  };
  std::vector<Entry> entries = {
      {MakeUniprotAccession(i), "UniprotAccession"},
      {MakePdbAccession(i), "PDBAccession"},
      {MakeEmblAccession(i), "EMBLAccession"},
      {MakeKeggGeneId(i, "hsa"), "KEGGGeneId"},
      {MakeKeggGeneId(i, "eco"), "KEGGGeneId"},
      {MakeEnzymeId(i), "EnzymeId"},
      {MakeGlycanId(i), "GlycanId"},
      {MakeLigandId(i), "LigandId"},
      {MakeCompoundId(i), "CompoundId"},
      {MakePathwayId(i, "mmu"), "PathwayId"},
      {MakeGoTermId(i), "GOTermId"},
      {MakeInterProId(i), "InterProId"},
      {MakePfamId(i), "PfamId"},
      {MakeDiseaseId(i), "DiseaseId"},
  };
  for (const Entry& entry : entries) {
    EXPECT_EQ(ClassifyAccession(entry.value), entry.expected) << entry.value;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AccessionGrammarProperty,
                         ::testing::Values(0, 1, 7, 42, 99, 123, 999, 4096,
                                           99998, 12345678));

// ---------------------------------------------------------------------
// Sequence formats: render/parse round trip over real KB entities.

class SequenceFormatProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SequenceFormatProperty, RoundTripsKbEntities) {
  const auto& env = GetEnvironment();
  const KnowledgeBase& kb = *env.corpus.kb;
  auto [entity_index, format_index] = GetParam();
  SeqFormat format = static_cast<SeqFormat>(format_index);

  // Alternate protein- and gene-backed sequence data.
  SequenceData data =
      entity_index % 2 == 0
          ? SequenceDataFromProtein(
                kb.proteins()[static_cast<size_t>(entity_index) %
                              kb.proteins().size()])
          : SequenceDataFromGene(
                kb.genes()[static_cast<size_t>(entity_index) %
                           kb.genes().size()]);

  std::string rendered = RenderSequenceData(data, format);
  EXPECT_EQ(SniffFormat(rendered), SeqFormatConcept(format));
  SeqFormat detected;
  auto parsed = ParseSequenceRecordAny(rendered, &detected);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(detected, format);
  EXPECT_EQ(parsed->accession, data.accession);
  EXPECT_EQ(parsed->sequence, data.sequence);
  EXPECT_EQ(parsed->organism, data.organism);
  if (format != SeqFormat::kPdb) {  // PDB headers carry no alphabet token.
    EXPECT_EQ(parsed->alphabet, data.alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequenceFormatProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 10, 55, 117, 238),
                       ::testing::Range(0, 5)));

// ---------------------------------------------------------------------
// Ontology: subsumption is a partial order; partitions behave.

class OntologyProperty : public ::testing::TestWithParam<int> {};

TEST_P(OntologyProperty, SubsumptionIsAPartialOrder) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  ConceptId c = static_cast<ConceptId>(GetParam());
  if (static_cast<size_t>(c) >= onto.size()) GTEST_SKIP();

  // Reflexivity.
  EXPECT_TRUE(onto.IsSubsumedBy(c, c));

  // Antisymmetry: the only concept both above and below c is c itself.
  for (ConceptId d : onto.Descendants(c)) {
    if (d != c) {
      EXPECT_FALSE(onto.IsSubsumedBy(c, d)) << onto.NameOf(d);
    }
  }

  // Transitivity via ancestors: every ancestor subsumes c.
  for (ConceptId a : onto.Ancestors(c)) {
    EXPECT_TRUE(onto.IsSubsumedBy(c, a));
    EXPECT_GE(onto.Depth(c), onto.Depth(a));
  }

  // Partitions: subsumed by c, never covered, and include every leaf.
  std::vector<ConceptId> partitions = onto.Partitions(c);
  for (ConceptId p : partitions) {
    EXPECT_TRUE(onto.IsSubsumedBy(p, c));
    EXPECT_FALSE(onto.Get(p).covered);
  }
  for (ConceptId leaf : onto.LeavesUnder(c)) {
    EXPECT_NE(std::find(partitions.begin(), partitions.end(), leaf),
              partitions.end())
        << onto.NameOf(leaf);
  }

  // LCS of c with itself is c.
  EXPECT_EQ(onto.LeastCommonSubsumer(c, c), c);
}

INSTANTIATE_TEST_SUITE_P(AllConcepts, OntologyProperty,
                         ::testing::Range(0, 70));

// ---------------------------------------------------------------------
// Values: randomized round-trip of rendering and hashing.

class ValueRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

Value RandomValue(Rng& rng, int depth) {
  int kind = static_cast<int>(rng.NextBelow(depth > 0 ? 7 : 5));
  switch (kind) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.NextBool());
    case 2:
      return Value::Int(rng.NextInt(-1000000, 1000000));
    case 3: {
      // Mix integral and fractional doubles.
      double v = static_cast<double>(rng.NextInt(-5000, 5000));
      if (rng.NextBool()) v += rng.NextDouble();
      return Value::Real(v);
    }
    case 4: {
      size_t len = rng.NextIndex(20);
      std::string s = rng.NextString(
          len, "abcXYZ0189 \t\n\"\\{}[]:,!GO:imino-acid");
      return Value::Str(std::move(s));
    }
    case 5: {
      std::vector<Value> items;
      size_t n = rng.NextIndex(4);
      for (size_t i = 0; i < n; ++i) items.push_back(RandomValue(rng, depth - 1));
      return Value::ListOf(std::move(items));
    }
    default: {
      std::vector<std::pair<std::string, Value>> fields;
      size_t n = rng.NextIndex(3);
      for (size_t i = 0; i < n; ++i) {
        fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth - 1));
      }
      return Value::RecordOf(std::move(fields));
    }
  }
}

TEST_P(ValueRoundTripProperty, ParseInvertsToString) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Value value = RandomValue(rng, 3);
    std::string rendered = value.ToString();
    auto parsed = Value::Parse(rendered);
    ASSERT_TRUE(parsed.ok()) << rendered << ": " << parsed.status();
    EXPECT_EQ(*parsed, value) << rendered;
    EXPECT_EQ(parsed->Hash(), value.Hash()) << rendered;
    // Rendering is canonical: a second round trip is a fixed point.
    EXPECT_EQ(parsed->ToString(), rendered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------
// Nucleotide statistics: uniform across the DNA/RNA information-preserving
// transcription (the property that makes their examples redundant).

class TranscriptionInvarianceProperty
    : public ::testing::TestWithParam<int> {};

TEST_P(TranscriptionInvarianceProperty, StatsAgreeAcrossTranscription) {
  const auto& env = GetEnvironment();
  const GeneEntity& gene =
      env.corpus.kb->genes()[static_cast<size_t>(GetParam())];
  const std::string& dna = gene.dna_sequence;
  std::string rna = Transcribe(dna);
  for (NucStat stat :
       {NucStat::kGcContent, NucStat::kAtContent, NucStat::kCountA,
        NucStat::kCountC, NucStat::kCountG, NucStat::kCountCgDinucleotide,
        NucStat::kPurineCount, NucStat::kPyrimidineCount,
        NucStat::kShannonEntropy, NucStat::kLinguisticComplexity,
        NucStat::kMaxHomopolymerRun, NucStat::kGcSkew,
        NucStat::kBasicMeltingTemp}) {
    EXPECT_DOUBLE_EQ(NucleotideStatistic(stat, dna),
                     NucleotideStatistic(stat, rna))
        << static_cast<int>(stat);
  }
}

INSTANTIATE_TEST_SUITE_P(Genes, TranscriptionInvarianceProperty,
                         ::testing::Range(0, 24));

// ---------------------------------------------------------------------
// Metrics conservation: the engine counters obey accounting identities —
// no lookup, attempt or commit can go missing or be double-counted.

class MetricsConservationProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MetricsConservationProperty, FaultedAnnotateRunObeysConservationLaws) {
  const auto& env = GetEnvironment();
  FaultProfile profile;
  profile.seed = 0xFA17;
  profile.transient_rate = 0.2;

  EngineConfig config =
      EngineConfig().Threads(GetParam()).Seed(0x5eed).MaxAttempts(4);
  auto engine = config.BuildEngine();
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, profile,
                                        &engine->metrics());
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  auto cache = std::make_shared<ConceptCache>(env.corpus.ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, env.pool.get(), engine.get());
  auto report = AnnotateRegistry(generator, **wrapped);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->complete()) << report->run_status;
  const EngineMetricsSnapshot m = report->metrics;

  // Every concept-cache lookup is a compiled-table read: each counts one
  // query and one hit.
  EXPECT_GT(m.cache_queries, 0u);
  EXPECT_EQ(m.cache_hits, m.cache_queries);

  // Errors are a subset of attempts; every retry follows a counted failed
  // attempt; every injected fault and deadline exhaustion is a counted
  // attempt too (a breaker short-circuit is the one denial that is not).
  EXPECT_LE(m.invocation_errors, m.invocations);
  EXPECT_LE(m.retries, m.invocation_errors);
  EXPECT_LE(m.injected_faults, m.invocations);
  EXPECT_LE(m.deadline_exhaustions, m.invocation_errors);
  EXPECT_GT(m.injected_faults, 0u);

  // No durable machinery ran: nothing committed, journaled or replayed.
  EXPECT_EQ(m.commits, 0u);
  EXPECT_EQ(m.journal_records, 0u);
  EXPECT_EQ(m.modules_replayed, 0u);
  EXPECT_EQ(m.modules_reinvoked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, MetricsConservationProperty,
                         ::testing::Values<size_t>(1, 8));

TEST(JournalAccountingProperty, CommitsJournalRecordsAndReplayBalance) {
  const auto& env = GetEnvironment();
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dexa_property_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, FaultProfile{},
                                        &engine->metrics());
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto journal = RunJournal::Create(dir.string(), {}, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto result = SubmitRun(MakeDurableAnnotateRun(
      generator, **wrapped, *env.corpus.ontology, *journal));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete()) << result->run_status;
  const AnnotateReport& report = result->annotate;
  const EngineMetricsSnapshot m = report.metrics;

  // The commit hook and the journal are 1:1 — every commit becomes exactly
  // one journal record (segment seals are not records), and a fresh run
  // commits the header plus one unit per processed module.
  EXPECT_EQ(m.commits, m.journal_records);
  EXPECT_EQ(m.commits, 1 + report.annotated + report.decayed);

  // Fresh run: everything was live work, nothing replayed.
  EXPECT_EQ(m.modules_replayed, 0u);
  EXPECT_EQ(m.modules_reinvoked, report.annotated + report.decayed);
  EXPECT_EQ(report.replayed, 0u);
}

// ---------------------------------------------------------------------
// Shard conservation: partitioning a run can move work between shards but
// never create or destroy it. Summed per-shard counters must equal the
// one-shot totals, and the merged journal must hold exactly the shard
// records minus the duplicate per-shard headers — swept over randomized
// corpus/engine seeds so the identities hold for arbitrary workloads,
// not one golden corpus.

class ShardConservationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardConservationProperty, ShardSumsMatchOneShotTotals) {
  const uint64_t seed = GetParam();
  auto corpus = BuildScaleCorpus({/*seed=*/seed, /*modules=*/48});
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const auto fresh_registry = [&] {
    auto registry = std::make_unique<ModuleRegistry>();
    for (const ModulePtr& module : corpus->registry->AllModules()) {
      EXPECT_TRUE(registry->Register(module).ok());
    }
    return registry;
  };
  EngineConfig config = EngineConfig().Threads(1).Seed(seed).MaxAttempts(4);
  std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dexa_property_shard" /
      std::to_string(seed);
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // One-shot reference totals.
  auto one_registry = fresh_registry();
  AnnotateReport one;
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        corpus->ontology.get(), corpus->pool.get(), engine.get());
    auto journal =
        RunJournal::Create((root / "oneshot").string(), {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto run = SubmitRun(MakeDurableAnnotateRun(generator, *one_registry,
                                                *corpus->ontology, *journal));
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete()) << run->run_status;
    one = std::move(run->annotate);
  }

  ShardOptions options;
  options.shards = 3;
  options.root = (root / "sharded").string();
  auto target = fresh_registry();
  auto sharded = RunShardedAnnotate(*target, *corpus->ontology, *corpus->pool,
                                    config, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok()) << sharded->merged.run_status;
  ASSERT_EQ(sharded->shards.size(), options.shards);

  // Counter conservation: no module, example, decay or retry exhaustion is
  // created or lost by partitioning.
  size_t annotated = 0, decayed = 0, examples = 0, exhausted = 0;
  size_t shard_records = 0;
  for (const ShardRunReport& shard : sharded->shards) {
    annotated += shard.report.annotated;
    decayed += shard.report.decayed;
    examples += shard.report.examples;
    exhausted += shard.report.transient_exhausted;
    auto recovery = RecoverJournal(shard.journal_dir);
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_FALSE(recovery->tail_discarded());
    shard_records += recovery->records.size();
  }
  EXPECT_EQ(annotated, one.annotated);
  EXPECT_EQ(decayed, one.decayed);
  EXPECT_EQ(examples, one.examples);
  EXPECT_EQ(exhausted, one.transient_exhausted);
  EXPECT_EQ(annotated + decayed, corpus->module_ids.size());
  // The merged report agrees with the shard sums, not just the reference.
  EXPECT_EQ(sharded->merged.annotated, annotated);
  EXPECT_EQ(sharded->merged.decayed, decayed);
  EXPECT_EQ(sharded->merged.examples, examples);

  // Journal record conservation: each shard journals one header plus its
  // commits; the merge keeps every commit and collapses the headers into
  // one.
  EXPECT_EQ(shard_records, corpus->module_ids.size() + options.shards);
  EXPECT_EQ(sharded->merged_records, shard_records - options.shards + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardConservationProperty,
                         ::testing::Values(1, 7, 42, 1234, 0xC0FFEE));

}  // namespace
}  // namespace dexa
