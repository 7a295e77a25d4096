#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/engine_config.h"
#include "corpus/corpus.h"
#include "corpus/scale.h"
#include "corpus/term_values.h"
#include "engine/concept_cache.h"
#include "kb/accessions.h"
#include "repair/repair.h"

namespace dexa {
namespace {

class CorpusTest : public ::testing::Test {
 protected:
  static const Corpus& corpus() {
    static const Corpus* instance = [] {
      auto built = BuildCorpus();
      EXPECT_TRUE(built.ok()) << built.status();
      return new Corpus(std::move(built).value());
    }();
    return *instance;
  }
};

TEST_F(CorpusTest, BuildsExpectedCounts) {
  EXPECT_EQ(corpus().available_ids.size(), 252u);
  EXPECT_EQ(corpus().retired_ids.size(), 72u);
  EXPECT_EQ(corpus().registry->size(), 324u);
}

TEST_F(CorpusTest, ModuleNamesAreUnique) {
  std::set<std::string> names;
  for (const ModulePtr& module : corpus().registry->AllModules()) {
    EXPECT_TRUE(names.insert(module->spec().name).second)
        << "duplicate name " << module->spec().name;
  }
}

TEST_F(CorpusTest, AllParametersCarryValidAnnotations) {
  for (const ModulePtr& module : corpus().registry->AllModules()) {
    for (const Parameter& param : module->spec().inputs) {
      EXPECT_NE(param.semantic_type, kInvalidConcept)
          << module->spec().name << "." << param.name;
    }
    for (const Parameter& param : module->spec().outputs) {
      EXPECT_NE(param.semantic_type, kInvalidConcept)
          << module->spec().name << "." << param.name;
    }
    EXPECT_FALSE(module->spec().outputs.empty()) << module->spec().name;
  }
}

TEST_F(CorpusTest, PopularityQuota) {
  size_t famous = 0, well_known = 0, known = 0;
  for (const std::string& id : corpus().available_ids) {
    double popularity = (*corpus().registry->Find(id))->spec().popularity;
    if (popularity >= 0.9) {
      ++famous;
    } else if (popularity >= 0.7) {
      ++well_known;
    } else if (popularity >= 0.5) {
      ++known;
    }
  }
  EXPECT_EQ(famous, 44u);
  EXPECT_EQ(well_known, 3u);
  EXPECT_EQ(known, 4u);
}

TEST_F(CorpusTest, RetrievalModulesServeRecords) {
  const KnowledgeBase& kb = *corpus().kb;
  auto module = corpus().registry->FindByName("EBI_GetUniprotRecord");
  ASSERT_TRUE(module.ok());
  auto out = (*module)->Invoke({Value::Str(kb.proteins()[0].accession)});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE((*out)[0].AsString().find(kb.proteins()[0].accession),
            std::string::npos);
  // Foreign accession -> abnormal termination.
  EXPECT_TRUE((*module)->Invoke({Value::Str("P99999")}).status().IsNotFound());
}

TEST_F(CorpusTest, GetBiologicalSequenceDispatchesOnNamespace) {
  const KnowledgeBase& kb = *corpus().kb;
  auto module = corpus().registry->FindByName("EBI_GetBiologicalSequence");
  ASSERT_TRUE(module.ok());
  auto protein_path =
      (*module)->Invoke({Value::Str(kb.proteins()[0].accession)});
  ASSERT_TRUE(protein_path.ok());
  EXPECT_EQ((*protein_path)[0].AsString(), kb.proteins()[0].sequence);
  auto dna_path =
      (*module)->Invoke({Value::Str(kb.proteins()[0].embl_accession)});
  ASSERT_TRUE(dna_path.ok());
  EXPECT_EQ((*dna_path)[0].AsString(), kb.genes()[0].dna_sequence);
}

TEST_F(CorpusTest, FormatConvertersValidateInputFormat) {
  auto converter = corpus().registry->FindByName("EBI_UniprotToFasta");
  ASSERT_TRUE(converter.ok());
  // A FASTA input into a Uniprot-expecting converter terminates abnormally.
  EXPECT_TRUE((*converter)
                  ->Invoke({Value::Str(">P00000 X desc\nMKT\n")})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CorpusTest, CompareSequencesRejectsMixedAlphabets) {
  auto module = corpus().registry->FindByName("CompareSequences");
  ASSERT_TRUE(module.ok());
  auto mixed = (*module)->Invoke({Value::Str("ACGT"), Value::Str("ACGU")});
  EXPECT_TRUE(mixed.status().IsInvalidArgument());
  auto same = (*module)->Invoke({Value::Str("ACGT"), Value::Str("ACGA")});
  ASSERT_TRUE(same.ok());
  EXPECT_DOUBLE_EQ((*same)[0].AsDouble(), 0.75);
}

TEST_F(CorpusTest, IdentifyHonorsOptionalTolerance) {
  const KnowledgeBase& kb = *corpus().kb;
  auto module = corpus().registry->FindByName("Identify");
  ASSERT_TRUE(module.ok());
  std::vector<Value> masses;
  for (double m : kb.proteins()[2].peptide_masses) {
    masses.push_back(Value::Real(m));
  }
  auto explicit_tolerance =
      (*module)->Invoke({Value::ListOf(masses), Value::Real(5.0)});
  ASSERT_TRUE(explicit_tolerance.ok()) << explicit_tolerance.status();
  EXPECT_NE((*explicit_tolerance)[0].AsString().find(
                kb.proteins()[2].accession),
            std::string::npos);
  auto default_tolerance =
      (*module)->Invoke({Value::ListOf(masses), Value::Null()});
  ASSERT_TRUE(default_tolerance.ok()) << default_tolerance.status();
  auto out_of_range =
      (*module)->Invoke({Value::ListOf(masses), Value::Real(99.0)});
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());
}

TEST_F(CorpusTest, RetiredTwinsBehaveLikeTargets) {
  const KnowledgeBase& kb = *corpus().kb;
  auto twin = corpus().registry->FindByName("soap_get_genes_by_pathway");
  auto target = corpus().registry->FindByName("get_genes_by_pathway");
  ASSERT_TRUE(twin.ok());
  ASSERT_TRUE(target.ok());
  Value input = Value::Str(kb.pathways()[0].pathway_id);
  auto twin_out = (*twin)->Invoke({input});
  auto target_out = (*target)->Invoke({input});
  ASSERT_TRUE(twin_out.ok());
  ASSERT_TRUE(target_out.ok());
  EXPECT_EQ((*twin_out)[0], (*target_out)[0]);
}

TEST_F(CorpusTest, DriftingTwinDisagreesOnOddEntities) {
  const KnowledgeBase& kb = *corpus().kb;
  auto twin = corpus().registry->FindByName("v1_GetUniprotRecord");
  auto target = corpus().registry->FindByName("EBI_GetUniprotRecord");
  ASSERT_TRUE(twin.ok());
  ASSERT_TRUE(target.ok());
  Value even = Value::Str(kb.proteins()[0].accession);
  Value odd = Value::Str(kb.proteins()[1].accession);
  EXPECT_EQ((*(*twin)->Invoke({even}))[0], (*(*target)->Invoke({even}))[0]);
  EXPECT_NE((*(*twin)->Invoke({odd}))[0], (*(*target)->Invoke({odd}))[0]);
}

TEST_F(CorpusTest, RetireDecayedModulesFlipsAvailability) {
  // Work on a private corpus so the shared fixture stays pristine.
  auto built = BuildCorpus();
  ASSERT_TRUE(built.ok());
  Corpus fresh = std::move(built).value();
  EXPECT_EQ(fresh.registry->RetiredModules().size(), 0u);
  ASSERT_TRUE(RetireDecayedModules(fresh).ok());
  EXPECT_EQ(fresh.registry->RetiredModules().size(), 72u);
  EXPECT_EQ(fresh.registry->AvailableModules().size(), 252u);
  auto retired = fresh.registry->FindByName("soap_binfo");
  ASSERT_TRUE(retired.ok());
  EXPECT_TRUE(
      (*retired)->Invoke({Value::Str("uniprot")}).status().IsDecayed());
}


TEST_F(CorpusTest, SoapTwinsShareTheirTargetsInterface) {
  // The 16 equivalent-retired modules must be interface-identical to their
  // current counterparts (that is what makes exact parameter mapping, and
  // hence equivalence, possible).
  for (const ModulePtr& module : corpus().registry->AllModules()) {
    const std::string& name = module->spec().name;
    if (name.rfind("soap_", 0) != 0) continue;
    auto target = corpus().registry->FindByName(name.substr(5));
    if (!target.ok()) {
      // Record twins target a specific provider instead.
      target = corpus().registry->FindByName("KEGG_" + name.substr(5));
    }
    ASSERT_TRUE(target.ok()) << name;
    const ModuleSpec& twin_spec = module->spec();
    const ModuleSpec& target_spec = (*target)->spec();
    ASSERT_EQ(twin_spec.inputs.size(), target_spec.inputs.size()) << name;
    ASSERT_EQ(twin_spec.outputs.size(), target_spec.outputs.size()) << name;
    for (size_t i = 0; i < twin_spec.inputs.size(); ++i) {
      EXPECT_EQ(twin_spec.inputs[i].semantic_type,
                target_spec.inputs[i].semantic_type)
          << name;
      EXPECT_EQ(twin_spec.inputs[i].structural_type,
                target_spec.inputs[i].structural_type)
          << name;
    }
    for (size_t o = 0; o < twin_spec.outputs.size(); ++o) {
      EXPECT_EQ(twin_spec.outputs[o].semantic_type,
                target_spec.outputs[o].semantic_type)
          << name;
    }
  }
}

TEST_F(CorpusTest, ModuleIdsAreDenseAndStable) {
  // Ids are "mNNN" in registration order; the corpus relies on this for
  // reproducible annotation dumps.
  auto modules = corpus().registry->AllModules();
  for (size_t i = 0; i < modules.size(); ++i) {
    EXPECT_EQ(modules[i]->spec().id, "m" + ZeroPad(i, 3));
  }
}

// ---------------------------------------------------------------------
// The synthetic scale corpus: 10k-capable, pure function of (seed, index),
// with four service-shaped kinds beyond the paper's five.

class ScaleCorpusTest : public ::testing::Test {
 protected:
  static const ScaleCorpus& scale() {
    static const ScaleCorpus* instance = [] {
      auto built = BuildScaleCorpus({/*seed=*/11, /*modules=*/27});
      EXPECT_TRUE(built.ok()) << built.status();
      return new ScaleCorpus(std::move(built).value());
    }();
    return *instance;
  }

  /// The first registered module of `kind`.
  static ModulePtr ModuleOfKind(ModuleKind kind) {
    for (size_t i = 0; i < scale().module_ids.size(); ++i) {
      if (ScaleKindOf(i) == kind) {
        return *scale().registry->Find(scale().module_ids[i]);
      }
    }
    ADD_FAILURE() << "no module of kind " << ModuleKindName(kind);
    return nullptr;
  }

  /// A pooled input value a module of `kind` accepts.
  static Value NaturalInput(ModuleKind kind) {
    switch (kind) {
      case ModuleKind::kStatefulService:
        return Value::Str("s:0:init");
      case ModuleKind::kPaginatedRetrieval:
        return Value::Str("cursor:0");
      default:
        return Value::Str("alpha");
    }
  }
};

TEST_F(ScaleCorpusTest, BuildIsAPureFunctionOfSeedAndIndex) {
  auto again = BuildScaleCorpus({/*seed=*/11, /*modules=*/27});
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->module_ids, scale().module_ids);
  // Behaviors are reproduced too, not just the directory of names: every
  // module computes the same outputs in the rebuilt corpus.
  for (const std::string& id : scale().module_ids) {
    ModulePtr ours = *scale().registry->Find(id);
    ModulePtr theirs = *again->registry->Find(id);
    EXPECT_EQ(ours->spec().name, theirs->spec().name);
    EXPECT_EQ(ours->spec().kind, theirs->spec().kind);
    const std::vector<Value> inputs = {NaturalInput(ours->spec().kind)};
    auto a = ours->Invoke(inputs);
    auto b = theirs->Invoke(inputs);
    ASSERT_EQ(a.ok(), b.ok()) << id;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << id;
    }
  }
  // A different seed reshapes behavior (same directory, different draws).
  auto other = BuildScaleCorpus({/*seed=*/12, /*modules=*/27});
  ASSERT_TRUE(other.ok()) << other.status();
  ModulePtr fmt = ModuleOfKind(ModuleKind::kFormatTransformation);
  ModulePtr fmt_other = *other->registry->Find(fmt->spec().id);
  EXPECT_NE(*fmt->Invoke({Value::Str("alpha")}),
            *fmt_other->Invoke({Value::Str("alpha")}));
}

TEST_F(ScaleCorpusTest, EveryKindRoundTripsThroughAnnotation) {
  // All nine kinds present in a 27-module corpus, three modules each.
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(scale().registry->AllModules()[i]->spec().kind, ScaleKindOf(i));
  }
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : scale().registry->AllModules()) {
    ASSERT_TRUE(registry->Register(module).ok());
  }
  EngineConfig config = EngineConfig().Threads(1).Seed(0xA11).MaxAttempts(4);
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(scale().ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, scale().pool.get(), engine.get());
  auto report = AnnotateRegistry(generator, *registry);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->complete()) << report->run_status;
  // Nothing decays at schema epoch 0, and every module — including the
  // stateful, paginated, rate-limited and drifting ones — yields examples.
  EXPECT_EQ(report->annotated, scale().module_ids.size());
  EXPECT_EQ(report->decayed, 0u);
  for (const std::string& id : scale().module_ids) {
    EXPECT_FALSE(registry->DataExamplesOf(id).empty()) << id;
  }
}

TEST_F(ScaleCorpusTest, StatefulServiceCarriesStateAcrossInvocations) {
  ModulePtr session = ModuleOfKind(ModuleKind::kStatefulService);
  auto first = session->Invoke({Value::Str("s:0:init")});
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string state1 = (*first)[0].AsString();
  EXPECT_EQ(state1.rfind("s:1:", 0), 0u) << state1;

  // The output is itself a valid input: state carries over by chaining.
  auto second = session->Invoke({(*first)[0]});
  ASSERT_TRUE(second.ok()) << second.status();
  const std::string state2 = (*second)[0].AsString();
  EXPECT_EQ(state2.rfind("s:2:", 0), 0u) << state2;
  EXPECT_NE(state1, state2);

  // The transition is a function of the state, not of invocation history.
  auto replay = session->Invoke({Value::Str(state1)});
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ((*replay)[0].AsString(), state2);

  // Non-state inputs are rejected, not misinterpreted.
  EXPECT_TRUE(session->Invoke({Value::Str("alpha")})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ScaleCorpusTest, PaginatedRetrievalWalksCursorsToExhaustion) {
  ModulePtr pager = ModuleOfKind(ModuleKind::kPaginatedRetrieval);
  std::vector<std::string> pages;
  Value cursor = Value::Str("cursor:0");
  for (int hops = 0; hops < 10; ++hops) {
    auto out = pager->Invoke({cursor});
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), 2u);
    pages.push_back((*out)[0].AsString());
    if ((*out)[1].AsString() == "cursor:end") break;
    cursor = (*out)[1];
  }
  // The walk terminates after three pages, each a distinct v1 record.
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_NE(pages[0], pages[1]);
  EXPECT_NE(pages[1], pages[2]);
  for (const std::string& page : pages) {
    EXPECT_EQ(page.rfind("v1|page=", 0), 0u) << page;
  }
  // The end cursor and garbage cursors both fail typed.
  EXPECT_TRUE(pager->Invoke({Value::Str("cursor:end")})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      pager->Invoke({Value::Str("alpha")}).status().IsInvalidArgument());
}

TEST_F(ScaleCorpusTest, RateLimitedEndpointThrottlesDeterministically) {
  ModulePtr limited = ModuleOfKind(ModuleKind::kRateLimited);
  size_t throttled = 0, immediate = 0;
  for (int i = 0; i < 32; ++i) {
    const std::vector<Value> inputs = {Value::Str("req" + std::to_string(i))};
    InvocationContext first;
    auto attempt0 = limited->Invoke(inputs, first);
    // Deterministic: the same (input, attempt) draw repeats exactly.
    InvocationContext again;
    auto attempt0_again = limited->Invoke(inputs, again);
    ASSERT_EQ(attempt0.ok(), attempt0_again.ok()) << i;
    if (attempt0.ok()) {
      ++immediate;
      EXPECT_EQ(*attempt0, *attempt0_again);
    } else {
      ++throttled;
      EXPECT_TRUE(attempt0.status().IsTransient()) << attempt0.status();
      EXPECT_GT(first.charged_ns, 0u);  // throttling charges latency
    }
    // From the second attempt on the endpoint always answers.
    InvocationContext retry;
    retry.attempt = 1;
    auto attempt1 = limited->Invoke(inputs, retry);
    ASSERT_TRUE(attempt1.ok()) << attempt1.status();
    if (attempt0.ok()) {
      EXPECT_EQ(*attempt0, *attempt1);
    }
  }
  // The 429s hit a deterministic half of the key space, not all or none.
  EXPECT_GT(throttled, 0u);
  EXPECT_GT(immediate, 0u);
}

TEST_F(ScaleCorpusTest, SchemaDriftIsDetectedByTheDecayScan) {
  // Own corpus instance: the test mutates the drift world and retires
  // modules, which must not leak into the shared fixture.
  auto corpus = BuildScaleCorpus({/*seed=*/11, /*modules=*/18});
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  // One single-processor probe workflow per schema-drifting module.
  const ConceptId alpha = corpus->ontology->Find("AlphaToken");
  ASSERT_NE(alpha, kInvalidConcept);
  WorkflowCorpus probes;
  std::vector<std::string> drifting;
  for (size_t i = 0; i < corpus->module_ids.size(); ++i) {
    if (ScaleKindOf(i) != ModuleKind::kSchemaDrifting) continue;
    drifting.push_back(corpus->module_ids[i]);
    GeneratedWorkflow item;
    item.workflow.id = "probe-" + corpus->module_ids[i];
    item.workflow.name = item.workflow.id;
    Parameter key;
    key.name = "key";
    key.semantic_type = alpha;
    item.workflow.inputs = {key};
    Processor step;
    step.name = "fetch";
    step.module_id = corpus->module_ids[i];
    step.input_sources = {PortSource{}};  // workflow input 0
    item.workflow.processors = {step};
    item.workflow.outputs = {{"record", PortSource{0, 0}}};
    item.seeds = {Value::Str("alpha")};
    probes.items.push_back(std::move(item));
  }
  ASSERT_EQ(drifting.size(), 2u);

  // Epoch 0: the drifting modules still honor the v1 contract.
  auto clean = ScanForDecay(*corpus->registry, probes,
                            InvocationEngine::Serial(),
                            corpus->registry.get());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->workflows_enacted, probes.items.size());
  EXPECT_TRUE(clean->decayed_ids.empty());
  EXPECT_EQ(clean->newly_retired, 0u);

  // The provider rolls out an incompatible schema: every drifting module
  // now fails permanent-class, and the scan retires exactly those.
  corpus->world->AdvanceEpoch();
  auto decayed = ScanForDecay(*corpus->registry, probes,
                              InvocationEngine::Serial(),
                              corpus->registry.get());
  ASSERT_TRUE(decayed.ok()) << decayed.status();
  EXPECT_EQ(decayed->workflows_degraded, probes.items.size());
  EXPECT_EQ(decayed->decayed_ids, drifting);
  EXPECT_EQ(decayed->newly_retired, drifting.size());
  for (const std::string& id : drifting) {
    EXPECT_FALSE((*corpus->registry->Find(id))->available()) << id;
  }
}

TEST(TermValuesTest, RoundTripParts) {
  std::string term = MakeTermInstance("GO", "0001234", "protein folding");
  EXPECT_EQ(term, "GO:0001234 ! protein folding");
  EXPECT_TRUE(IsTermOfSource(term, "GO"));
  EXPECT_FALSE(IsTermOfSource(term, "PW"));
  EXPECT_EQ(TermId(term), "GO:0001234");
  EXPECT_EQ(TermSource(term), "GO");
  EXPECT_EQ(TermLabel(term), "protein folding");
  EXPECT_EQ(TermId("malformed"), "");
}

}  // namespace
}  // namespace dexa
