#include "provenance/workflow_corpus.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/instance_classifier.h"
#include "engine/invocation_engine.h"
#include "workflow/enactor.h"

namespace dexa {

size_t WorkflowCorpus::CountCategory(WorkflowCategory category) const {
  size_t count = 0;
  for (const GeneratedWorkflow& item : items) {
    if (item.category == category) ++count;
  }
  return count;
}

namespace {

// Sizing of the generated corpus, per category. These reproduce the paper's
// Section 6 numbers: ~3000 workflows, ~1500 of which decay; 321 repaired
// through equivalent substitutes, 13 through overlapping ones, 73 partly.
constexpr size_t kEquivalentOnlyWorkflows = 253;
constexpr size_t kEquivalentPlusDeadWorkflows = 68;
constexpr size_t kOverlapGoodWorkflows = 8;
constexpr size_t kOverlapGoodPlusDeadWorkflows = 5;
constexpr size_t kOverlapBadWorkflows = 266;
constexpr size_t kDeadOnlyWorkflows = 900;
constexpr size_t kHealthyWorkflows = 1500;

/// A workflow blueprint: a module-name sequence (chained on first ports
/// where compatible) plus the seed indices to instantiate it with.
struct Recipe {
  std::vector<std::string> modules;
  std::vector<size_t> seed_indices = {0, 1, 2, 3};
};

/// Builds a linear workflow from `module_names`. Processor k's first input
/// is fed from processor k-1's first output when structurally and
/// semantically compatible; every other input becomes a workflow-level
/// input seeded from the catalog.
Result<GeneratedWorkflow> InstantiateRecipe(
    const ModuleRegistry& registry, const Ontology& ontology,
    const SeedCatalog& catalog, const std::string& id,
    const std::vector<std::string>& module_names, size_t seed_index,
    WorkflowCategory category) {
  GeneratedWorkflow out;
  out.category = category;
  Workflow& wf = out.workflow;
  wf.id = id;
  wf.name = id;

  const Parameter* prev_output = nullptr;
  int prev_index = -1;
  for (const std::string& module_name : module_names) {
    auto module = registry.FindByName(module_name);
    if (!module.ok()) return module.status();
    const ModuleSpec& spec = (*module)->spec();

    Processor processor;
    processor.name = module_name;
    processor.module_id = spec.id;
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      const Parameter& param = spec.inputs[i];
      bool chained = false;
      if (i == 0 && prev_output != nullptr) {
        if (prev_output->structural_type.IsCompatibleWith(
                param.structural_type) &&
            ontology.IsSubsumedBy(prev_output->semantic_type,
                                  param.semantic_type)) {
          PortSource source;
          source.processor = prev_index;
          source.port = 0;
          processor.input_sources.push_back(source);
          chained = true;
        }
      }
      if (!chained) {
        auto seed = catalog.SeedForParameter(param, ontology, seed_index);
        if (!seed.ok()) {
          return Status(seed.status().code(),
                        "workflow '" + id + "', input '" + module_name + "." +
                            param.name + "': " + seed.status().message());
        }
        PortSource source;
        source.processor = PortSource::kWorkflowInputSource;
        source.port = static_cast<int>(wf.inputs.size());
        processor.input_sources.push_back(source);
        Parameter wf_input = param;
        wf_input.name = module_name + "." + param.name;
        wf.inputs.push_back(std::move(wf_input));
        out.seeds.push_back(std::move(seed).value());
      }
    }
    wf.processors.push_back(std::move(processor));
    prev_index = static_cast<int>(wf.processors.size()) - 1;
    prev_output = spec.outputs.empty() ? nullptr : &spec.outputs[0];
  }

  // Expose the last processor's outputs as workflow outputs.
  if (!wf.processors.empty()) {
    auto last_module = registry.Find(wf.processors.back().module_id);
    if (!last_module.ok()) return last_module.status();
    const ModuleSpec& last_spec = (*last_module)->spec();
    for (size_t o = 0; o < last_spec.outputs.size(); ++o) {
      WorkflowOutput output;
      output.name = last_spec.outputs[o].name;
      output.source.processor = prev_index;
      output.source.port = static_cast<int>(o);
      wf.outputs.push_back(std::move(output));
    }
  }

  DEXA_RETURN_IF_ERROR(ValidateWorkflow(wf, registry, ontology));
  return out;
}

/// The healthy tracing recipes: enacted first so the harvested pool's
/// canonical realizations come from entities 0..3 in a controlled order.
std::vector<Recipe> TracingRecipes() {
  std::vector<Recipe> recipes;
  auto single = [&](const char* name,
                    std::vector<size_t> seeds = {0, 1, 2, 3}) {
    recipes.push_back(Recipe{{name}, std::move(seeds)});
  };
  // Record retrievals (pool: all 15 Record partitions, organisms 0..3).
  single("EBI_GetUniprotRecord");
  single("EBI_GetFastaRecord");
  single("EBI_GetEMBLRecord");
  single("NCBI_GetGenBankRecord");
  single("EBI_GetPDBRecord");
  single("KEGG_GetKEGGGeneRecord");
  single("KEGG_GetEnzymeRecord");
  single("KEGG_GetGlycanRecord");
  single("EBI_GetLigandRecord");
  single("KEGG_GetCompoundRecord");
  single("KEGG_GetPathwayRecord");
  single("EBI_GetGORecord");
  single("EBI_GetInterProRecord");
  single("EBI_GetPfamRecord");
  single("EBI_GetDiseaseRecord", {0, 3});
  // Sequences.
  single("EBI_GetProteinSequence");
  single("KEGG_GetDNASequence");
  single("EBI_GetBiologicalSequence");
  // Mappings (pool: identifier namespaces).
  single("EBI_Uniprot2GoIds");
  single("EBI_Gene2Pathways");
  single("EBI_Uniprot2KeggGene");
  single("EBI_Uniprot2PDB");
  single("EBI_Uniprot2EMBL");
  single("EBI_Gene2Enzymes", {0, 3});
  single("link");
  single("binfo");
  // Analyses over seed-only concepts: traced before any module whose
  // *outputs* also land in those concepts (term labels are TextDocument,
  // term sources are DatabaseName), so the canonical pool realizations stay
  // the intended seeds.
  single("GetConcept");
  single("ExtractGeneMentions");
  single("DigestProtein");
  single("EBI_TranslateDNA");
  single("EBI_Transcribe");
  // Multi-step pipelines (Figures 1, 6 and 7 of the paper).
  recipes.push_back(Recipe{
      {"GetMostSimilarProtein", "EBI_GetUniprotRecord", "EBI_SearchSimple"},
      {0, 1}});
  recipes.push_back(Recipe{{"EBI_SearchSimple", "EBI_FilterSignificantHits"},
                           {0, 1}});
  recipes.push_back(
      Recipe{{"EBI_GetProteinSequence", "DigestProtein", "Identify"}});
  recipes.push_back(
      Recipe{{"KEGG_GetDNASequence", "EBI_Transcribe", "EBI_ReverseTranscribe"}});
  recipes.push_back(
      Recipe{{"KEGG_GetDNASequence", "EBI_TranslateDNA", "ComputeProteinMass"}});
  recipes.push_back(Recipe{{"GetMostSimilarProtein", "EBI_GetProteinSequence"}});
  recipes.push_back(Recipe{{"EBI_GoId2Term", "GetTermLabel"}});
  recipes.push_back(Recipe{{"EBI_Uniprot2KeggGene", "KEGG_GetKEGGGeneRecord"}});
  // Term utilities and accession normalization last: their inputs are
  // already pooled, and their outputs must not precede the seeds above.
  single("NormalizeAccession", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  single("GetTermLabel", {0, 1, 2, 3, 4, 5});
  single("GetTermSource", {0, 1, 2, 3, 4, 5});
  return recipes;
}

/// Robust single-module recipes used to pad the healthy corpus.
const std::vector<Recipe>& PaddingRecipes() {
  static const std::vector<Recipe>* recipes = [] {
    auto* out = new std::vector<Recipe>();
    for (const char* name :
         {"DDBJ_GetUniprotRecord", "NCBI_GetUniprotRecord",
          "DDBJ_GetFastaRecord", "NCBI_GetFastaRecord", "DDBJ_GetEMBLRecord",
          "NCBI_GetEMBLRecord", "DDBJ_GetGenBankRecord", "DDBJ_GetPDBRecord",
          "NCBI_GetPDBRecord", "EBI_GetKEGGGeneRecord", "DDBJ_GetKEGGGeneRecord",
          "EBI_GetEnzymeRecord", "DDBJ_GetEnzymeRecord", "EBI_GetGlycanRecord",
          "DDBJ_GetGlycanRecord", "DDBJ_GetLigandRecord", "NCBI_GetLigandRecord",
          "KEGG_GetLigandRecord", "ExPASy_GetLigandRecord",
          "EBI_GetCompoundRecord", "DDBJ_GetCompoundRecord",
          "EBI_GetPathwayRecord", "DDBJ_GetPathwayRecord", "DDBJ_GetGORecord",
          "DDBJ_GetInterProRecord", "DDBJ_GetPfamRecord",
          "ExPASy_GetProteinSequence", "DDBJ_GetDNASequence",
          "DDBJ_GetBiologicalSequence", "NCBI_GetBiologicalSequence",
          "KEGG_GetBiologicalSequence", "DDBJ_Uniprot2KeggGene",
          "NCBI_Uniprot2KeggGene", "EBI_KeggGene2Uniprot",
          "DDBJ_KeggGene2Uniprot", "DDBJ_Uniprot2PDB", "EBI_PDB2Uniprot",
          "DDBJ_Uniprot2EMBL", "EBI_EMBL2Uniprot", "DDBJ_Gene2Pathways",
          "EBI_Pathway2Genes", "DDBJ_Uniprot2GoIds", "DDBJ_GoId2Term",
          "EBI_Compound2Pathways", "EBI_Ligand2Targets", "EBI_Pathway2Compounds",
          "get_genes_by_pathway", "get_compounds_by_pathway",
          "get_pathways_by_gene", "get_targets_by_ligand", "get_orthologs",
          "get_genes_by_go_term", "EBI_UniprotToFasta", "DDBJ_UniprotToFasta",
          "EBI_FastaToUniprot", "EBI_EMBLToGenBank", "EBI_GenBankToEMBL",
          "EBI_AnyToFasta", "EBI_ExtractPrimaryId", "DDBJ_ExtractPrimaryId",
          "EBI_ExtractSequence", "TermToUpperLabel", "TermToLowerLabel",
          "GetSequenceLength", "ReverseSequence", "AnySequenceChecksum",
          "EBI_ComputeGcContent", "EMBOSS_ComputeGcContent",
          "EBI_CountAdenine", "EBI_ComputeEntropy", "ComputeMolecularWeight",
          "ComputeHydrophobicity", "EBI_SummarizeRecord", "GetHomologous",
          "GetMostSimilarProtein", "EMBOSS_TranslateDNA", "EMBOSS_Transcribe",
          "EBI_ReverseComplement", "ComputeCodonUsage", "AlignPair"}) {
      out->push_back(Recipe{{name}, {0, 1, 2, 3}});
    }
    return out;
  }();
  return *recipes;
}

/// Seed indices for the decayed modules, split into the sub-domain where
/// the legacy behavior agrees with the current services ("good") and where
/// it drifted ("bad"). Derived from the drift rules in corpus_retired.cc.
struct RetiredUsage {
  const char* name;
  std::vector<size_t> good_seeds;
  std::vector<size_t> bad_seeds;
};

const std::vector<RetiredUsage>& EquivalentUsage() {
  static const std::vector<RetiredUsage>* usage = [] {
    auto* out = new std::vector<RetiredUsage>();
    for (const char* name :
         {"soap_binfo", "soap_link", "soap_get_genes_by_pathway",
          "soap_get_compounds_by_pathway", "soap_get_pathways_by_gene",
          "soap_get_pathways_by_compound", "soap_get_genes_by_enzyme",
          "soap_get_enzymes_by_compound", "soap_get_targets_by_ligand",
          "soap_get_orthologs", "soap_get_genes_by_go_term",
          "soap_GetKEGGGeneRecord", "soap_GetPathwayRecord",
          "soap_GetCompoundRecord", "soap_GetEnzymeRecord",
          "soap_GetGlycanRecord"}) {
      out->push_back(RetiredUsage{name, {0, 1, 2, 3}, {}});
    }
    return out;
  }();
  return *usage;
}

const std::vector<RetiredUsage>& GoodOverlapUsage() {
  static const std::vector<RetiredUsage>* usage = new std::vector<RetiredUsage>{
      {"GetGeneSequence", {0, 1, 2, 3}, {}},
      {"v1_GetUniprotRecord", {0, 2}, {1, 3}},
      {"v1_GetFastaRecord", {0, 2}, {1, 3}},
      {"v1_Transcribe", {0, 2}, {1, 3}},
      {"v1_TranslateDNA", {0, 2}, {1, 3}},
      {"v1_GetTermLabel", {0, 6}, {1, 2, 3, 4, 5}},
  };
  return *usage;
}

const std::vector<RetiredUsage>& BadOverlapUsage() {
  static const std::vector<RetiredUsage>* usage = new std::vector<RetiredUsage>{
      {"v1_GetKEGGGeneRecord", {0, 2}, {1, 3}},
      {"v1_GetPathwayRecord", {0, 2}, {1, 3}},
      {"v1_GetEMBLRecord", {0, 2}, {1, 3}},
      {"v1_GetPDBRecord", {0, 2}, {1, 3}},
      {"v1_GetCompoundRecord", {0, 2}, {1, 3}},
      {"v1_GetEnzymeRecord", {1, 3}, {0, 2}},
      {"v1_GetGORecord", {0, 2}, {1, 3}},
      {"v1_GetGlycanRecord", {0, 2}, {1, 3}},
      {"v1_GetLigandRecord", {0, 2}, {1, 3}},
      {"v1_Uniprot2KeggGene", {0, 2}, {1, 3}},
      {"v1_KeggGene2Uniprot", {0, 2}, {1, 3}},
      {"v1_Uniprot2EMBL", {0, 2}, {1, 3}},
      {"v1_Gene2Pathways", {0, 3}, {1, 2}},
      {"v1_ReverseComplement", {0, 2}, {1, 3}},
      {"v1_AnyToFasta", {0, 1}, {5, 6}},
      {"v1_GetHomologous", {0, 2}, {1, 3}},
      {"v1_DigestProtein", {1, 3}, {0, 2}},
  };
  return *usage;
}

std::vector<std::string> LegacyNames() {
  std::vector<std::string> out;
  for (const char* name :
       {"legacy_disease_term_profile", "legacy_disease_term_score",
        "legacy_anatomy_term_profile", "legacy_anatomy_usage",
        "legacy_chemical_similarity", "legacy_chemical_profile",
        "legacy_phenotype_match", "legacy_phenotype_profile",
        "legacy_go_term_depth", "legacy_go_term_profile",
        "legacy_pathway_concept_rank", "legacy_pathway_concept_notes",
        "legacy_text_sentiment", "legacy_text_keywords",
        "legacy_text_readability", "legacy_protein_disorder",
        "legacy_protein_signal_peptide", "legacy_dna_curvature",
        "legacy_dna_promoter_scan", "legacy_rna_fold_energy",
        "legacy_rna_loop_scan", "legacy_protein_interactions",
        "legacy_protein_citations", "legacy_gene_expression",
        "legacy_gene_neighbors", "legacy_pathway_flux",
        "legacy_compound_toxicity", "legacy_glycan_branching",
        "legacy_ligand_docking", "legacy_enzyme_kinetics",
        "legacy_go_term_usage", "legacy_structure_quality",
        "legacy_embl_release_notes"}) {
    out.push_back(name);
  }
  return out;
}

}  // namespace

Result<WorkflowCorpus> GenerateWorkflowCorpus(const Corpus& corpus) {
  const ModuleRegistry& registry = *corpus.registry;
  const Ontology& ontology = *corpus.ontology;
  SeedCatalog catalog(corpus.kb);
  WorkflowCorpus out;
  size_t next_id = 0;

  auto instantiate = [&](const std::vector<std::string>& modules,
                         size_t seed_index,
                         WorkflowCategory category) -> Status {
    std::string id = "wf" + ZeroPad(next_id++, 5);
    auto generated = InstantiateRecipe(registry, ontology, catalog, id,
                                       modules, seed_index, category);
    if (!generated.ok()) return generated.status();
    out.items.push_back(std::move(generated).value());
    return Status::OK();
  };

  // --- Healthy: tracing recipes first (pool order), then padding.
  std::vector<Recipe> tracing = TracingRecipes();
  for (const Recipe& recipe : tracing) {
    for (size_t seed : recipe.seed_indices) {
      DEXA_RETURN_IF_ERROR(
          instantiate(recipe.modules, seed, WorkflowCategory::kHealthy));
    }
  }
  const std::vector<Recipe>& padding = PaddingRecipes();
  size_t padding_cursor = 0;
  while (out.items.size() < kHealthyWorkflows) {
    const Recipe& recipe = padding[padding_cursor % padding.size()];
    size_t seed = recipe.seed_indices[(padding_cursor / padding.size()) %
                                      recipe.seed_indices.size()];
    DEXA_RETURN_IF_ERROR(
        instantiate(recipe.modules, seed, WorkflowCategory::kHealthy));
    ++padding_cursor;
  }

  std::vector<std::string> legacy = LegacyNames();

  // --- Broken: workflows that will decay once the retired modules are
  // withdrawn, laid out per category.
  const auto& equivalents = EquivalentUsage();
  for (size_t i = 0; i < kEquivalentOnlyWorkflows; ++i) {
    const RetiredUsage& usage = equivalents[i % equivalents.size()];
    size_t seed = usage.good_seeds[(i / equivalents.size()) %
                                   usage.good_seeds.size()];
    DEXA_RETURN_IF_ERROR(instantiate({usage.name}, seed,
                                     WorkflowCategory::kEquivalentOnly));
  }
  for (size_t i = 0; i < kEquivalentPlusDeadWorkflows; ++i) {
    const RetiredUsage& usage = equivalents[i % equivalents.size()];
    size_t seed = usage.good_seeds[(i / equivalents.size()) %
                                   usage.good_seeds.size()];
    DEXA_RETURN_IF_ERROR(
        instantiate({usage.name, legacy[i % legacy.size()]}, seed,
                    WorkflowCategory::kEquivalentPlusDead));
  }

  const auto& good_overlap = GoodOverlapUsage();
  for (size_t i = 0; i < kOverlapGoodWorkflows; ++i) {
    const RetiredUsage& usage = good_overlap[i % good_overlap.size()];
    size_t seed = usage.good_seeds[(i / good_overlap.size()) %
                                   usage.good_seeds.size()];
    DEXA_RETURN_IF_ERROR(
        instantiate({usage.name}, seed, WorkflowCategory::kOverlapGood));
  }
  for (size_t i = 0; i < kOverlapGoodPlusDeadWorkflows; ++i) {
    const RetiredUsage& usage = good_overlap[(i + 1) % good_overlap.size()];
    size_t seed = usage.good_seeds[(i / good_overlap.size()) %
                                   usage.good_seeds.size()];
    DEXA_RETURN_IF_ERROR(
        instantiate({usage.name, legacy[(i * 7) % legacy.size()]}, seed,
                    WorkflowCategory::kOverlapGoodPlusDead));
  }

  const auto& bad_overlap = BadOverlapUsage();
  for (size_t i = 0; i < kOverlapBadWorkflows; ++i) {
    const RetiredUsage& usage = bad_overlap[i % bad_overlap.size()];
    size_t seed =
        usage.bad_seeds[(i / bad_overlap.size()) % usage.bad_seeds.size()];
    DEXA_RETURN_IF_ERROR(
        instantiate({usage.name}, seed, WorkflowCategory::kOverlapBad));
  }

  for (size_t i = 0; i < kDeadOnlyWorkflows; ++i) {
    const std::string& name = legacy[i % legacy.size()];
    size_t seed = (i / legacy.size()) % 4;
    DEXA_RETURN_IF_ERROR(
        instantiate({name}, seed, WorkflowCategory::kDeadOnly));
  }

  return out;
}

Result<ProvenanceCorpus> BuildProvenanceCorpus(
    const Corpus& corpus, const WorkflowCorpus& workflow_corpus) {
  ProvenanceCorpus provenance;
  for (const GeneratedWorkflow& item : workflow_corpus.items) {
    auto result = Enact(item.workflow, *corpus.registry, item.seeds,
                        InvocationEngine::Serial());
    if (!result.ok()) {
      return Status(result.status().code(),
                    "enacting '" + item.workflow.id +
                        "': " + result.status().message());
    }
    if (!result->complete()) {
      // The pool is harvested from whole traces: a skipped step is a hole
      // in the provenance, so a degraded enactment fails the harvest.
      std::string message = "enacting '" + item.workflow.id +
                            "': skipped processors " +
                            Join(result->skipped_processors, ", ");
      if (result->decayed_modules.empty()) {
        return Status::Unavailable(std::move(message));
      }
      return Status::Decayed(message + " (decayed modules " +
                             Join(result->decayed_modules, ", ") + ")");
    }
    WorkflowTrace trace;
    trace.workflow_id = item.workflow.id;
    trace.invocations = std::move(result->invocations);
    provenance.AddTrace(std::move(trace));
  }

  // Historical standalone traces of the decayed modules (the old-project
  // provenance of Section 6): six seed variants each, covering both the
  // agreement and the drift sub-domains.
  SeedCatalog catalog(corpus.kb);
  for (const std::string& id : corpus.retired_ids) {
    auto module = corpus.registry->Find(id);
    if (!module.ok()) return module.status();
    const ModuleSpec& spec = (*module)->spec();
    WorkflowTrace trace;
    trace.workflow_id = "historical/" + spec.name;
    for (size_t seed = 0; seed < 6; ++seed) {
      std::vector<Value> inputs;
      bool seeded = true;
      for (const Parameter& param : spec.inputs) {
        auto value = catalog.SeedForParameter(param, *corpus.ontology, seed);
        if (!value.ok()) {
          seeded = false;
          break;
        }
        inputs.push_back(std::move(value).value());
      }
      if (!seeded) continue;
      auto outputs = InvocationEngine::Serial().Invoke(
          **module, inputs, EnginePhase::kEnact);
      if (!outputs.ok()) continue;  // Seed outside the module's domain.
      InvocationRecord record;
      record.workflow_id = trace.workflow_id;
      record.processor_name = spec.name;
      record.module_id = spec.id;
      record.inputs = std::move(inputs);
      record.outputs = std::move(outputs).value();
      trace.invocations.push_back(std::move(record));
    }
    if (trace.invocations.empty()) {
      return Status::Internal("no historical trace obtainable for '" +
                              spec.name + "'");
    }
    provenance.AddTrace(std::move(trace));
  }
  return provenance;
}

AnnotatedInstancePool HarvestPool(const ProvenanceCorpus& provenance,
                                  const ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  std::shared_ptr<const ConceptCache> cache) {
  AnnotatedInstancePool pool(&ontology);
  InstanceClassifier classifier(std::move(cache));

  auto add_value = [&](const Parameter& param, const Value& value) {
    if (value.is_null()) return;
    ConceptId whole = classifier.Classify(value, param.semantic_type);
    if (whole != kInvalidConcept) pool.Add(whole, value);
    if (value.is_list()) {
      for (const Value& element : value.AsList()) {
        ConceptId concept_id =
            classifier.Classify(element, param.semantic_type);
        if (concept_id != kInvalidConcept) pool.Add(concept_id, element);
      }
    }
  };

  for (const WorkflowTrace& trace : provenance.traces()) {
    for (const InvocationRecord& record : trace.invocations) {
      auto module = registry.Find(record.module_id);
      if (!module.ok()) continue;
      const ModuleSpec& spec = (*module)->spec();
      for (size_t i = 0; i < spec.inputs.size() && i < record.inputs.size();
           ++i) {
        add_value(spec.inputs[i], record.inputs[i]);
      }
      for (size_t o = 0; o < spec.outputs.size() && o < record.outputs.size();
           ++o) {
        add_value(spec.outputs[o], record.outputs[o]);
      }
    }
  }
  return pool;
}

}  // namespace dexa
