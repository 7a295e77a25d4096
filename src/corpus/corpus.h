#ifndef DEXA_CORPUS_CORPUS_H_
#define DEXA_CORPUS_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "kb/knowledge_base.h"
#include "modules/registry.h"
#include "ontology/ontology.h"

namespace dexa {

/// Options for building the evaluation corpus.
struct CorpusOptions {
  /// Seed of the synthetic knowledge base (built at its default sizing).
  uint64_t seed = 42;

  /// When set, the corpus adopts these instead of generating the knowledge
  /// base (expensive) and building the myGrid ontology from scratch.
  /// BuildEvaluationEnv (durability/evaluation_env.h) is their one setter:
  /// it materializes both from a compiled KB image and takes `seed` from
  /// the same image, so the KB always matches the seed module calibration
  /// was built for.
  std::shared_ptr<const KnowledgeBase> prebuilt_kb;
  std::shared_ptr<Ontology> prebuilt_ontology;
};

/// The module corpus of the paper's evaluation:
///  * 252 "available" scientific modules with the kind census of Table 3
///    (53 format transformation, 51 data retrieval, 62 identifier mapping,
///    27 filtering, 59 data analysis), calibrated so the generated data
///    examples reproduce the completeness/conciseness histograms of
///    Tables 1-2 and the 19 output-coverage exceptions of Section 4.3;
///  * 72 "decayed" modules (listed in `retired_ids`) that are registered
///    and invocable until RetireDecayedModules() is called — run the
///    provenance/workflow corpus first, then retire them, exactly like the
///    real services that were traced before their providers withdrew them.
struct Corpus {
  std::shared_ptr<const KnowledgeBase> kb;
  std::shared_ptr<Ontology> ontology;
  std::shared_ptr<ModuleRegistry> registry;
  std::vector<std::string> available_ids;  ///< The 252 experiment modules.
  std::vector<std::string> retired_ids;    ///< The 72 decayed modules.
};

/// Builds the full corpus (knowledge base, ontology, modules).
[[nodiscard]] Result<Corpus> BuildCorpus(const CorpusOptions& options = {});

/// Marks the 72 decayed modules as withdrawn by their providers.
[[nodiscard]] Status RetireDecayedModules(Corpus& corpus);

}  // namespace dexa

#endif  // DEXA_CORPUS_CORPUS_H_
