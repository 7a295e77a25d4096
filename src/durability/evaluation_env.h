#ifndef DEXA_DURABILITY_EVALUATION_ENV_H_
#define DEXA_DURABILITY_EVALUATION_ENV_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "corpus/corpus.h"
#include "engine/concept_cache.h"
#include "engine/metrics.h"
#include "pool/instance_pool.h"
#include "provenance/trace.h"
#include "provenance/workflow_corpus.h"

namespace dexa {

/// The environment the paper annotates modules from (Section 4.1): the
/// ontology and knowledge base with the 252 available and 72 decayed
/// modules, the workflow corpus enacted over them, its provenance, and the
/// annotated instance pool harvested from that provenance. The registry is
/// neither annotated nor retired; callers do either on `corpus`.
struct EvaluationEnv {
  Corpus corpus;
  WorkflowCorpus workflows;
  ProvenanceCorpus provenance;
  /// Heap-held so generators can keep its address while the env moves.
  std::unique_ptr<AnnotatedInstancePool> pool;
  /// The shared reasoner: over the mapped image when one was given,
  /// otherwise over the ontology compiled at load. Both are the same
  /// compiled tables, so every run is byte-identical either way.
  std::shared_ptr<const ConceptCache> cache;
  /// The image seal, which durable run headers pin
  /// (RunRequest::kb_checksum); 0 when the KB was built in memory.
  uint64_t kb_checksum = 0;
};

/// Builds the evaluation environment, the one recipe every front end, test
/// and bench fixture and example shares:
///  1. with a `kb_image_path`, maps the image and adopts its ontology, KB
///     and seed (the image's seed overrides `options.seed`, so the corpus
///     always matches the KB it adopts);
///  2. BuildCorpus;
///  3. the ConceptCache, counting its lookups into `metrics`;
///  4. GenerateWorkflowCorpus, BuildProvenanceCorpus, then HarvestPool.
/// A mapped image also bumps `metrics`' kb_image_loads. An image that does
/// not load fails with CompiledKb::Load's status.
[[nodiscard]] Result<EvaluationEnv> BuildEvaluationEnv(
    const CorpusOptions& options = {}, const std::string& kb_image_path = "",
    EngineMetrics* metrics = nullptr);

}  // namespace dexa

#endif  // DEXA_DURABILITY_EVALUATION_ENV_H_
