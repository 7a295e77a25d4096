#ifndef DEXA_PROVENANCE_WORKFLOW_CORPUS_H_
#define DEXA_PROVENANCE_WORKFLOW_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/corpus.h"
#include "engine/concept_cache.h"
#include "pool/instance_pool.h"
#include "provenance/seed_catalog.h"
#include "provenance/trace.h"
#include "workflow/workflow.h"

namespace dexa {

/// Why a generated workflow exists; drives the Figure 8 bookkeeping and is
/// validated (not consumed) by the repair experiment.
enum class WorkflowCategory {
  kHealthy,             ///< Only available modules.
  kEquivalentOnly,      ///< One retired module with an equivalent twin.
  kEquivalentPlusDead,  ///< Equivalent-retired + a module with no substitute.
  kOverlapGood,         ///< Overlapping-retired used inside its agreement domain.
  kOverlapGoodPlusDead, ///< Same, plus a no-substitute module.
  kOverlapBad,          ///< Overlapping-retired fed from the disagreement domain.
  kDeadOnly,            ///< Only no-substitute retired modules.
};

/// One generated workflow with its enactment seeds.
struct GeneratedWorkflow {
  Workflow workflow;
  std::vector<Value> seeds;
  WorkflowCategory category = WorkflowCategory::kHealthy;
};

/// The myExperiment-style workflow corpus of Section 6.
struct WorkflowCorpus {
  std::vector<GeneratedWorkflow> items;

  size_t CountCategory(WorkflowCategory category) const;
};

/// Generates the workflow corpus over `corpus` (whose decayed modules must
/// still be available — they are enacted to produce pre-decay provenance).
/// Every workflow validates against the registry and enacts successfully on
/// its seeds.
[[nodiscard]] Result<WorkflowCorpus> GenerateWorkflowCorpus(
    const Corpus& corpus);

/// Enacts every workflow of `workflow_corpus` and collects the provenance,
/// then appends "historical" standalone invocation records for each decayed
/// module (seeds 0..5) — the old-project traces of Section 6. Fails if any
/// workflow fails to enact or enacts incomplete (the corpus is constructed
/// to succeed): kDecayed when a module of the workflow has decayed,
/// otherwise kUnavailable, naming the workflow id and its skipped
/// processors.
[[nodiscard]] Result<ProvenanceCorpus> BuildProvenanceCorpus(
    const Corpus& corpus, const WorkflowCorpus& workflow_corpus);

/// Harvests the annotated instance pool from `provenance` (Section 4.1):
/// every value that flowed through an annotated parameter is added under
/// the most specific concept it instantiates (coarse annotations are
/// refined by format/grammar classification; list values contribute their
/// elements). Classification reasons through `cache`; the pool keeps
/// `ontology` for its concept names.
AnnotatedInstancePool HarvestPool(const ProvenanceCorpus& provenance,
                                  const ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  std::shared_ptr<const ConceptCache> cache);

}  // namespace dexa

#endif  // DEXA_PROVENANCE_WORKFLOW_CORPUS_H_
