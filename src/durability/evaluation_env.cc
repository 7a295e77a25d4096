#include "durability/evaluation_env.h"

#include <utility>

#include "kbimage/compiled_kb.h"

namespace dexa {

Result<EvaluationEnv> BuildEvaluationEnv(const CorpusOptions& options,
                                         const std::string& kb_image_path,
                                         EngineMetrics* metrics) {
  EvaluationEnv env;
  CorpusOptions corpus_options = options;
  std::shared_ptr<const kbimage::CompiledKb> image;
  if (!kb_image_path.empty()) {
    auto loaded = kbimage::CompiledKb::Load(kb_image_path);
    if (!loaded.ok()) return loaded.status();
    image = std::move(loaded).value();
    env.kb_checksum = image->checksum();
    if (metrics != nullptr) metrics->Add(EngineCounter::kb_image_loads);
    // The corpus adopts the image's ontology and KB instead of rebuilding
    // them; concept ids are dense insertion indices in both, so the
    // materialized ontology and the image agree on every ConceptId.
    auto ontology = image->MaterializeOntology();
    if (!ontology.ok()) return ontology.status();
    corpus_options.prebuilt_ontology =
        std::make_shared<Ontology>(std::move(ontology).value());
    auto kb = image->MaterializeKnowledgeBase();
    if (!kb.ok()) return kb.status();
    corpus_options.prebuilt_kb = std::move(kb).value();
    corpus_options.seed = image->kb_seed();
  }
  auto corpus = BuildCorpus(corpus_options);
  if (!corpus.ok()) return corpus.status();
  env.corpus = std::move(corpus).value();
  env.cache = image != nullptr
                  ? std::make_shared<ConceptCache>(image, metrics)
                  : std::make_shared<ConceptCache>(env.corpus.ontology.get(),
                                                   metrics);
  auto workflows = GenerateWorkflowCorpus(env.corpus);
  if (!workflows.ok()) return workflows.status();
  env.workflows = std::move(workflows).value();
  auto provenance = BuildProvenanceCorpus(env.corpus, env.workflows);
  if (!provenance.ok()) return provenance.status();
  env.provenance = std::move(provenance).value();
  env.pool = std::make_unique<AnnotatedInstancePool>(
      HarvestPool(env.provenance, *env.corpus.registry, *env.corpus.ontology,
                  env.cache));
  return env;
}

}  // namespace dexa
