#ifndef DEXA_CORE_PARTITIONER_H_
#define DEXA_CORE_PARTITIONER_H_

#include <memory>
#include <vector>

#include "engine/concept_cache.h"
#include "modules/module.h"
#include "ontology/ontology.h"

namespace dexa {

/// The equivalence partitions of one parameter's domain (Section 3.1):
/// derived from the ontology by dividing the domain of the annotating
/// concept `sem(p)` into the sub-domains of its realizable sub-concepts.
struct ParameterPartitions {
  ConceptId annotated_concept = kInvalidConcept;
  std::vector<ConceptId> partitions;
};

/// Partition structure of a whole module: one entry per input and output
/// parameter, in spec order.
struct ModulePartitions {
  std::vector<ParameterPartitions> inputs;
  std::vector<ParameterPartitions> outputs;

  /// `#partitions(m)`: total over inputs and outputs (Section 4.2).
  size_t TotalCount() const;
  size_t InputCount() const;
  size_t OutputCount() const;
};

/// Ontology-based domain partitioner (Section 3.1). All reasoning goes
/// through a ConceptCache, whose compiled KB holds every concept's
/// partition list precomputed, so partitioning a parameter copies one
/// list. Kept as a class so ablations can subclass/parameterize the
/// strategy.
class DomainPartitioner {
 public:
  /// Convenience: builds a private cache over `ontology`.
  explicit DomainPartitioner(const Ontology* ontology)
      : cache_(std::make_shared<ConceptCache>(ontology)) {}

  /// Shares `cache` (and its compiled KB) with other components.
  explicit DomainPartitioner(std::shared_ptr<const ConceptCache> cache)
      : cache_(std::move(cache)) {}

  /// Partitions of a single parameter: the realizable concepts subsumed by
  /// `param.semantic_type` (covered concepts are represented by their
  /// sub-concepts and contribute no partition of their own).
  ParameterPartitions Partition(const Parameter& param) const;

  /// Partitions of every parameter of `spec`.
  ModulePartitions PartitionModule(const ModuleSpec& spec) const;

  const ConceptCache& cache() const { return *cache_; }
  std::shared_ptr<const ConceptCache> shared_cache() const { return cache_; }

 private:
  std::shared_ptr<const ConceptCache> cache_;
};

}  // namespace dexa

#endif  // DEXA_CORE_PARTITIONER_H_
