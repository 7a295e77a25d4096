#ifndef DEXA_CORE_ANNOTATION_VERIFIER_H_
#define DEXA_CORE_ANNOTATION_VERIFIER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/instance_classifier.h"
#include "modules/data_example.h"
#include "modules/module.h"
#include "ontology/ontology.h"

namespace dexa {

/// Verdict for one output parameter's semantic annotation.
enum class AnnotationVerdict {
  /// Observed values instantiate exactly the annotated concept's domain
  /// (every realizable partition witnessed, nothing outside).
  kConfirmed,
  /// Observed values all fit, but only a strict sub-domain is witnessed:
  /// the annotation is broader than the behavior (the mechanism behind the
  /// paper's 19 output-coverage exceptions). `suggested` names the tightest
  /// concept covering everything observed.
  kOverGeneral,
  /// Some observed value does not instantiate the annotated concept at
  /// all: the annotation is wrong.
  kViolated,
  /// No examples witness this output (nothing can be said).
  kUnobserved,
};

const char* AnnotationVerdictName(AnnotationVerdict verdict);

struct OutputAnnotationReport {
  size_t output_index = 0;
  std::string parameter_name;
  AnnotationVerdict verdict = AnnotationVerdict::kUnobserved;
  ConceptId declared = kInvalidConcept;
  /// For kOverGeneral: the least common subsumer of everything observed.
  ConceptId suggested = kInvalidConcept;
  /// Distinct partitions observed across the examples.
  std::vector<ConceptId> observed_partitions;
};

/// Verifies a module's *output* annotations against its data examples, in
/// the spirit of the ontology-based-partitioning verification the paper
/// builds on (its reference [3]): the same examples that annotate behavior
/// double as evidence for or against the parameter annotations themselves.
class AnnotationVerifier {
 public:
  /// Shares `cache` with the rest of the pipeline; all partition/LCS
  /// reasoning is a compiled-table read.
  explicit AnnotationVerifier(std::shared_ptr<const ConceptCache> cache)
      : cache_(cache), classifier_(std::move(cache)) {}

  /// One report per output parameter of `spec`.
  std::vector<OutputAnnotationReport> VerifyOutputs(
      const ModuleSpec& spec, const DataExampleSet& examples) const;

 private:
  std::shared_ptr<const ConceptCache> cache_;
  InstanceClassifier classifier_;
};

}  // namespace dexa

#endif  // DEXA_CORE_ANNOTATION_VERIFIER_H_
