#ifndef DEXA_CORE_DISCOVERY_H_
#define DEXA_CORE_DISCOVERY_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/concept_cache.h"
#include "engine/invocation_engine.h"
#include "modules/data_example.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "types/structural_type.h"

namespace dexa {

/// A discovery query: "I need a module that takes X and gives me Y — and
/// here is an example of what it should do" (the experiment-designer side
/// of the paper's architecture, Figure 3 step 3).
struct DiscoveryQuery {
  ConceptId input_concept = kInvalidConcept;
  StructuralType input_type = StructuralType::String();
  ConceptId output_concept = kInvalidConcept;
  StructuralType output_type = StructuralType::String();
  /// Optional behavior example: desired concrete input/output values.
  std::optional<DataExample> example;
};

struct DiscoveryHit {
  std::string module_id;
  std::string module_name;
  double score = 0.0;
  /// Human-readable justification ("exact signature; reproduces the
  /// example").
  std::string why;
};

/// Ranks registry modules against a discovery query. Scoring:
///  * signature: exact concept match on input and output = 1.0; contextual
///    match (module input subsumes the query's, outputs comparable) = 0.6;
///    otherwise the module is skipped;
///  * example bonus (when the query carries one): +1.0 if invoking the
///    module on the example's inputs reproduces its outputs exactly; +0.3
///    if the module accepts the inputs and answers with values of the
///    requested concept; -0.5 if it rejects the inputs outright.
/// Hits are returned best-first (ties by module name).
class BehaviorDiscovery {
 public:
  /// Shares `cache` (and its compiled KB) with the rest of the pipeline.
  /// Example probes are routed through `engine` (serial default).
  BehaviorDiscovery(std::shared_ptr<const ConceptCache> cache,
                    const ModuleRegistry* registry,
                    InvocationEngine* engine = nullptr)
      : cache_(std::move(cache)),
        registry_(registry),
        engine_(engine != nullptr ? engine : &InvocationEngine::Serial()) {}

  std::vector<DiscoveryHit> Search(const DiscoveryQuery& query,
                                   size_t top_k = 10) const;

 private:
  std::shared_ptr<const ConceptCache> cache_;
  const ModuleRegistry* registry_;
  InvocationEngine* engine_;
};

}  // namespace dexa

#endif  // DEXA_CORE_DISCOVERY_H_
