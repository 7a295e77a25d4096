#ifndef DEXA_CORE_COMPOSITION_H_
#define DEXA_CORE_COMPOSITION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/concept_cache.h"
#include "engine/invocation_engine.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "pool/instance_pool.h"
#include "types/structural_type.h"
#include "types/value.h"

namespace dexa {

/// A composition request: find module chains that turn an instance of
/// `source_concept` into an instance of `target_concept`.
struct CompositionRequest {
  ConceptId source_concept = kInvalidConcept;
  StructuralType source_type = StructuralType::String();
  ConceptId target_concept = kInvalidConcept;
  StructuralType target_type = StructuralType::String();
  size_t max_depth = 3;       ///< Maximum chain length.
  size_t max_results = 5;     ///< Candidates returned (shortest first).
  size_t max_expansions = 20000;  ///< Search budget (visited states).
};

/// A candidate pipeline. `module_ids` is the chain in execution order; the
/// chain is only returned if it *replayed* successfully: a pool realization
/// of the source concept was pushed through every step (side inputs seeded
/// from the pool) and every invocation terminated normally with a final
/// value classified into the target concept.
struct CompositionCandidate {
  std::vector<std::string> module_ids;
  Value witness_input;   ///< The pool instance used for validation.
  Value witness_output;  ///< What the chain produced for it.
};

/// Example-guided module composition — the paper's second Section 8 future
/// work item ("how to use data examples to implicitly guide module
/// composition").
///
/// The composer searches the registry for chains whose signatures link
/// (each step's first input subsumes the previous step's first output;
/// remaining inputs must be seedable from the annotated pool) and then
/// *validates* each signature-feasible chain by replaying concrete data:
/// chains that only look right on paper (e.g. a module that rejects the
/// specific value family flowing through) are discarded. Data examples are
/// thus what separates composable from merely type-compatible.
class ExampleGuidedComposer {
 public:
  /// Convenience: builds a private concept cache over `ontology`.
  /// Chain-validation replays are routed through `engine` (serial default).
  ExampleGuidedComposer(const Ontology* ontology,
                        const ModuleRegistry* registry,
                        const AnnotatedInstancePool* pool,
                        InvocationEngine* engine = nullptr)
      : ExampleGuidedComposer(std::make_shared<ConceptCache>(ontology),
                              registry, pool, engine) {}

  /// Shares `cache` (and its compiled KB) with the rest of the pipeline.
  ExampleGuidedComposer(std::shared_ptr<const ConceptCache> cache,
                        const ModuleRegistry* registry,
                        const AnnotatedInstancePool* pool,
                        InvocationEngine* engine = nullptr)
      : cache_(std::move(cache)),
        registry_(registry),
        pool_(pool),
        engine_(engine != nullptr ? engine : &InvocationEngine::Serial()) {}

  /// Finds up to `request.max_results` validated chains, shortest first
  /// (ties: lexicographic module-name order, deterministically).
  [[nodiscard]] Result<std::vector<CompositionCandidate>> Compose(
      const CompositionRequest& request) const;

 private:
  std::shared_ptr<const ConceptCache> cache_;
  const ModuleRegistry* registry_;
  const AnnotatedInstancePool* pool_;
  InvocationEngine* engine_;
};

}  // namespace dexa

#endif  // DEXA_CORE_COMPOSITION_H_
